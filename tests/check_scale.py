"""Scale check of the bit-row layers against the pairwise oracles, on
periodic windows of 300 to 1300 leaves (well under MAX_WINDOW_LEAVES):

- both true-interval (gamma) graphs equal ``oracle_build_graph``;
- ``bottleneck_certify`` on the largest xplus component equals the
  per-pair midpoint oracle ``oracle_bottleneck_midpoints``;
- the wall witnesses of every kind between 8 crossing points equal
  ``oracle_longest_chain``, and the wall distances their lengths;
- every wall value of ``qi_metric_report`` over those points equals the
  per-kind ``wall_distance``;
- the affine census CSV that ``bifol census --csv`` writes, for the shipped
  set at radius 14 (the widest default packing) and an asymmetric set with
  a k = 2 letter at radius 12, equals the counts of ``oracle_affine_ball``;
- ``detect_lozenges`` on scalloped windows (-40, 40) and (-80, 80), chains
  of hundreds of lozenges, equals ``oracle_lozenges``: the lozenges in
  order, the chains and the corners.

Prints the time of each layer per window, census or lozenge window; exits
nonzero on a difference.

    PYTHONPATH=src python tests/check_scale.py
"""

import csv
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bifol import graphs as gr  # noqa: E402
from bifol.cli import main as cli_main  # noqa: E402
from bifol import walls as wl  # noqa: E402
from bifol.fixtures import load_fixture  # noqa: E402
from bifol.pattern import MINUS, PLUS, Point  # noqa: E402
from bifol.periodic import MAX_WINDOW_LEAVES, parse_leaf_name  # noqa: E402
from oracles import (  # noqa: E402
    oracle_affine_ball, oracle_bottleneck_midpoints, oracle_build_graph,
    oracle_longest_chain, oracle_lozenges,
)

# scalloped windows put hundreds of separators between nearby points (the
# chain oracle's cost), ladder windows hundreds of nonseparated pairs and a
# path-like xplus component (the midpoint oracle's cost)
WINDOWS = (("scalloped", 20), ("scalloped", 40),
           ("ladder_periodic", 25), ("ladder_periodic", 100))
POINTS = 8
# the shipped set is closed under v -> -v, so its spheres store one element
# per inversion and sign orbit; the asymmetric one, per inversion orbit only
CENSUSES = (("shipped", [(1, (0, 0)), (0, (1, 0)), (0, (0, 1))], 14),
            ("asymmetric", [(2, (1, 0)), (-1, (0, 3))], 12))
# scalloped windows (-w, w) hold two lozenge chains of about 4 w lozenges
LOZENGE_WINDOWS = (40, 80)


def _timed(f, *args):
    t0 = time.perf_counter()
    return f(*args), time.perf_counter() - t0


def check(name, w):
    p = load_fixture(name).materialize_window(-w, w)
    assert 300 <= len(p.leaves) <= 1300 < MAX_WINDOW_LEAVES, len(p.leaves)
    faults = []
    gamma_s = 0.0
    for kind in (gr.GAMMAPLUS, gr.GAMMAMINUS):
        G, s = _timed(gr.build_graph, p, kind)
        gamma_s += s
        if G != oracle_build_graph(p, kind):
            faults.append(f"{kind} graph differs from the oracle")

    X = gr.build_graph(p, gr.XPLUS)
    H = X.subgraph(max(gr.connected_components(X), key=len))
    res, bottleneck_s = _timed(gr.bottleneck_certify, H, 3)
    got = (res.passed, res.pairs_checked, res.witness)
    want = oracle_bottleneck_midpoints(H, 3)
    if got != want:
        faults.append(f"bottleneck {got} differs from the oracle {want}")

    # the points sit at crossings of blocks -2 to 2, so the chain oracle,
    # quadratic in the separators with a predicate per pair, stays within
    # seconds; the bit rows still span the whole window
    near = [(a, b) for a in sorted(p.leaf_ids(PLUS))
            for b in sorted(p.leaf_ids(MINUS)) if p.intersects(a, b)
            and abs(parse_leaf_name(a)[1]) <= 2 >= abs(parse_leaf_name(b)[1])]
    pts = [Point.crossing(f"q{i}", *near[i * len(near) // POINTS])
           for i in range(POINTS)]
    walls_s, most, timed = 0.0, 0, {}
    for a, b in itertools.permutations(pts, 2):
        for kind in wl.KINDS:
            d, s = _timed(wl.wall_distance, p, a, b, kind)
            walls_s += s
            timed[kind, a.id, b.id] = d, s
            sign = wl._SIGN_OF[kind]
            seps = [m for m in p._ids_of(p._point_seps(a, b))
                    if sign in (None, p.leaves[m].sign)]
            most = max(most, len(seps))
            chain = oracle_longest_chain(p, kind, seps, a)
            if wl.longest_chain_witness(p, a, b, kind).leaves != chain or \
                    d != len(chain) + (kind != wl.D_H):
                faults.append(f"{kind} wall {a.id} {b.id} differs from the "
                              f"oracle {chain}")
    # the QI report's wall values, one separator set per pair and one order
    # per (pair, sign), against the per-kind distances above
    qi, qi_s = _timed(wl.qi_metric_report, p, pts)
    for kind, a, b, dw, _ in qi.checks:
        if dw != timed[kind, a, b][0]:
            faults.append(f"qi report {kind} {a} {b}: wall {dw}, per kind "
                          f"{timed[kind, a, b][0]}")
    per_kind_s = sum(timed[c[:3]][1] for c in qi.checks)
    print(f"{name} (-{w}, {w}): {len(p.leaves)} leaves, "
          f"{len(p.nonseparated)} nonseparated pairs; gamma graphs "
          f"{gamma_s:.3f} s, bottleneck on {len(H.vertices)} vertices "
          f"{bottleneck_s:.3f} s, {len(pts) * (len(pts) - 1) * len(wl.KINDS)} "
          f"wall distances (up to {most} separators) {walls_s:.3f} s; "
          f"qi_metric_report on {len(qi.checks)} checks, its graphs and BFS "
          f"included, {qi_s:.3f} s, their per-kind wall distances "
          f"{per_kind_s:.3f} s")
    return faults


def check_census(name, gens, n):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "gens.json"), Path(tmp, "census.csv")
        path.write_text(json.dumps({f"g{i}": {"k": k, "v": list(v)}
                                    for i, (k, v) in enumerate(gens)}))
        code, census_s = _timed(cli_main, [
            "--report", str(Path(tmp, "report.json")), "census", "--model",
            "trivial", "--gens", str(path), "--nmax", str(n), "--csv", str(out)])
        if code != 0:
            return [f"census {name} exits {code}"]
        rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    ball, oracle_s = _timed(oracle_affine_ball, gens, n)
    per, free = [0] * (n + 1), [0] * (n + 1)
    for (k, v), r in ball.items():
        per[r] += 1
        free[r] += k == 0 and v != (0, 0)
    want = [(sum(per[:r + 1]), sum(free[:r + 1])) for r in range(n + 1)]
    got = [(int(r["ball"]), int(r["free"])) for r in rows]
    print(f"census {name} {gens} to radius {n}: {len(ball)} elements, "
          f"census {census_s:.3f} s, oracle {oracle_s:.3f} s")
    if got != want:
        return [f"census {name} CSV {got} differs from the oracle {want}"]
    return []


def check_lozenges(w):
    p = load_fixture("scalloped").materialize_window(-w, w)
    rep, detect_s = _timed(p.detect_lozenges)
    want, oracle_s = _timed(oracle_lozenges, p)
    print(f"lozenges on scalloped (-{w}, {w}): {len(p.perfect_fits())} fits, "
          f"{len(rep.lozenges)} lozenges in {len(rep.chains)} chains; "
          f"detect_lozenges {detect_s:.3f} s, oracle {oracle_s:.3f} s")
    got = ([(L.plus1, L.minus1, L.plus2, L.minus2) for L in rep.lozenges],
           list(rep.chains), rep.corners)
    if got != want:
        return [f"lozenges on scalloped (-{w}, {w}) differ from the oracle"]
    return []


def main():
    faults = [f for name, w in WINDOWS for f in check(name, w)]
    faults += [f for args in CENSUSES for f in check_census(*args)]
    faults += [f for w in LOZENGE_WINDOWS for f in check_lozenges(w)]
    for f in faults:
        print("FAULT:", f)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
