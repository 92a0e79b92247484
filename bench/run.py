#!/usr/bin/env python3
"""Fixed-work benchmark of bifol: periodic dynamics, wall metrics and the CLI.

    python3 bench/run.py                      # all three workloads
    python3 bench/run.py --workload dynamics --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --seconds 0   # smoke: one pass

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in its own single-threaded process.  A run sets up
(imports ``bifol`` and builds the inputs) several times and reports the
median, computes the reference values once, then repeats whole passes over
the workload's task list until ``--seconds`` have passed; the pass in
progress always completes.  One caller, closed loop: each task starts when
the previous one ends.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run spends half its time
untraced and half traced, and reports the per-layer metrics of the traced
passes and the ratio of traced to untraced pass time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
MODULES = ("pattern", "periodic", "graphs", "walls", "dynamics", "census",
           "io", "cli", "fixtures", "randgen")

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


def import_bifol():
    """Import ``bifol`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "bifol" or m.startswith("bifol.")]:
        del sys.modules[name]
    importlib.import_module("bifol")
    return SimpleNamespace(**{m: importlib.import_module(f"bifol.{m}")
                              for m in MODULES})


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = {}   # task name -> first reason

    def record(self, task, reason):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if not task.known_fault and task.name not in self.unexpected:
            self.unexpected[task.name] = reason
            sys.stderr.write(f"FAILED {task.name}: {reason}\n")


def run_passes(tasks, budget, tally, tracer=None):
    """Whole passes until ``budget`` seconds have gone; returns the pass
    times and every task time.  Checks run after each task's clock stops."""
    clock = time.perf_counter
    passes, task_times = [], []
    start = clock()
    while True:
        total = 0.0
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.start_task(i)
            reason = None
            t0 = clock()
            try:
                out = task.run()
            except Exception as e:  # a program error fails the task
                out, reason = None, f"{type(e).__name__}: {e}"
            dt = clock() - t0
            if reason is None:
                try:
                    reason = task.check(out)
                except Exception as e:
                    reason = f"check raised {type(e).__name__}: {e}"
            out = None
            tally.record(task, reason)
            total += dt
            task_times.append(dt)
        passes.append(total)
        if clock() - start >= budget:
            return passes, task_times


def run_workload(name, seed, seconds, trace):
    if not (SRC / "bifol" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no bifol sources under {SRC}; run from the "
                         "root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    tmp = OUT / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            b = import_bifol()
            inputs = W.INPUTS[name](b, seed, str(tmp))
            setups.append(time.perf_counter() - t0)
        tasks = W.TASKS[name](b, inputs)
        tally = Tally()
        if not trace:
            passes, task_times = run_passes(tasks, seconds, tally)
            metrics = {
                "pass_s": (statistics.median(passes), "s"),
                "task_p50_ms": (statistics.median(task_times) * 1e3, "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MiB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            plain, _ = run_passes(tasks, seconds / 2, tally)
            tracer = Tracer()
            tracer.install(b)
            try:
                traced, _ = run_passes(tasks, seconds / 2, tally, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.per_layer(len(traced))
            metrics["trace.overhead_ratio"] = {
                "value": statistics.median(traced) / statistics.median(plain),
                "unit": "ratio"}
            tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
            sys.stderr.write(f"largest self time: {tracer.largest_self_time()}\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for k, m in metrics.items():
        print(f"{name:9s} {k:32s} {m['value']:14.6f} {m['unit']}")
    print(f"{name:9s} attempted {tally.attempted} failed {tally.failed}")
    print(json.dumps({"correct": not tally.unexpected,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"bench: workload {name} exited "
                             f"{proc.returncode}\n")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the random patterns of the metrics workload")
    ap.add_argument("--seconds", type=float, default=20,
                    help="measure whole passes for this long (0: one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
