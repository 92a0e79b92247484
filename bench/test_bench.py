"""Tests of the benchmark itself: one smoke pass per workload with every
check on, and corrupted results that each workload's checker must reject.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as R  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def b():
    return R.import_bifol()


def _tasks(b, name, tmp_path, seed=0):
    return {t.name: t for t in W.TASKS[name](b, W.INPUTS[name](b, seed,
                                                               str(tmp_path)))}


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_smoke_pass(b, name, tmp_path):
    tasks = list(_tasks(b, name, tmp_path).values())
    tally = R.Tally()
    passes, times = R.run_passes(tasks, 0, tally)
    assert len(passes) == 1 and len(times) == len(tasks)
    assert tally.unexpected == {}
    assert tally.failed <= sum(1 for t in tasks if t.known_fault)


def test_dynamics_checker_rejects_corruption(b, tmp_path):
    tasks = _tasks(b, "dynamics", tmp_path)
    dy = b.dynamics
    shift = tasks["classify skew3 s"].check
    good = dy.Loxodromic(3 / 7, 0.5, 8, (1, 1, 2, 2, 3, 3, 4, 4))
    assert shift(good) is None
    off_by_one = dy.Loxodromic(3 / 7, 0.5, 8, (1, 1, 2, 2, 3, 3, 4, 5))
    assert shift(off_by_one) is not None
    assert shift(dy.Loxodromic(0.0, 0.5, 8, good.displacements)) is not None
    scalloped = tasks["classify scalloped s"].check
    assert scalloped(dy.Elliptic("scalloped")) is None
    assert scalloped(dy.Elliptic("bounded_orbit")) is not None
    assert scalloped(good) is not None
    wpd = tasks["wpd skew2"].check
    assert wpd(dy.WpdScan(("id",), True, 1.0, 8, True)) is None
    assert wpd(dy.WpdScan(("id", "s"), True, 1.0, 8, True)) is not None


def test_metrics_checker_rejects_corruption(b, tmp_path):
    task = _tasks(b, "metrics", tmp_path)["metrics grid3"]
    graphs, bott, inc, qi, axioms = task.run()
    assert task.check((graphs, bott, inc, qi, axioms)) is None
    G = graphs["xplus"]
    u, v = G.edges()[0]
    adj = dict(G.adj)
    adj[u], adj[v] = adj[u] - {v}, adj[v] - {u}
    broken = dict(graphs, xplus=type(G)(G.kind, G.vertices, adj))
    assert task.check((broken, bott, inc, qi, axioms)) is not None
    kind, x, y, dw, dg = qi.checks[0]
    bad = type(qi)(((kind, x, y, dw, dg + 1),) + qi.checks[1:], (), qi.skipped)
    assert task.check((graphs, bott, inc, bad, axioms)) is not None


def test_cli_checker_rejects_corruption(b, tmp_path):
    tasks = _tasks(b, "cli", tmp_path)
    task = tasks["census trivial"]
    res = task.run()
    report = tmp_path / f"report-{list(tasks).index(task.name)}.json"
    good = report.read_text()
    data = json.loads(good)
    data["results"]["balls"][3] += 1
    report.write_text(json.dumps(data))
    assert task.check(res) is not None          # ball count off by one
    report.write_text(good)
    assert task.check(res) is None              # first pass: the reference
    report.write_text(good.replace('"free"', '"free" ', 1))
    assert task.check(res) is not None          # later passes: byte equality
    probe = tasks["probe dist --from zz"].check
    assert probe((1, "error: unknown vertex 'zz'\n", "")) is None
    assert probe((3, "error: unknown vertex 'zz'\n", "")) is not None
    assert probe((None, "", "KeyError")) is not None
