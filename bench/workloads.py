"""The three workloads: fixed, ordered task lists with their output checks.

Each workload has two phases.  ``inputs`` builds what the program receives
(JSON texts, seeded patterns, generator files); the benchmark times it as
set-up.  ``tasks`` computes the reference values with ``reference`` and
returns the task list; it is not timed.  A task is one public API call or
one in-process ``bifol.cli.main`` call, and every task starts from JSON
text, so parsing and validation run inside it with cold caches.

A check returns None when the output is right, else the reason it is not.
A task with ``known_fault`` fails on every run because of a fault in the
program named there; it counts as failed but does not make the run
incorrect.  Any other failure does.
"""

from __future__ import annotations

import contextlib
import io as _io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import reference as ref

WORKLOADS = ("dynamics", "metrics", "cli")


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_fault: str = ""


# -- dynamics ------------------------------------------------------------------

PERIODIC = ("ladder_periodic", "skew2", "skew3", "skew4", "scalloped",
            "trivial_periodic")


def dynamics_inputs(b, seed, tmp):
    return {nm: b.fixtures.fixture_text(nm) for nm in PERIODIC}


def _expect_loxodromic(disp):
    disp = tuple(disp)

    def check(v):
        if type(v).__name__ != "Loxodromic":
            return f"verdict {v!r}, want loxodromic"
        if tuple(v.displacements) != disp:
            return f"displacements {v.displacements}, want {disp}"
        upper = min(d / k for k, d in enumerate(disp, 1))
        if not math.isclose(v.tau_upper, upper):
            return f"tau_upper {v.tau_upper}, want {upper}"
        if not v.tau_lower > 0:
            return f"tau_lower {v.tau_lower} not > 0"
        return None
    return check


def _expect_elliptic(*certificates):
    def check(v):
        if type(v).__name__ != "Elliptic" or v.certificate not in certificates:
            return f"verdict {v!r}, want elliptic {certificates}"
        return None
    return check


def _expect_wpd(axis_given):
    def check(scan):
        if scan.witnesses != ("id",):
            return f"witnesses {scan.witnesses}, want ('id',)"
        if scan.stable is not True:
            return "witness set not stable"
        if axis_given and scan.block_constraint_ok is not True:
            return "block constraint failed"
        return None
    return check


def _expect_axis(d, lo, hi):
    on_axis = ref.axis_reference(d, lo, hi)
    leaves = ref.window_chords(d, lo, hi)
    blocks_per_period = len(d["nonsep"])
    declared = {frozenset((f"{a}{k}", f"{c}{k + o}")) for a, c, o in d["nonsep"]
                for k in range(lo, hi + 1)}

    def check(ax):
        if set(ax.leaves) != on_axis or len(ax.leaves) != len(on_axis):
            return f"axis leaves {sorted(ax.leaves)}, want {sorted(on_axis)}"
        for a, m, c in zip(ax.leaves, ax.leaves[1:], ax.leaves[2:]):
            if not ref.chord_separates(leaves[m][1], leaves[a][1], leaves[c][1]):
                return f"axis order: {m} does not separate {a} from {c}"
        breaks = sum(1 for a, c in zip(ax.leaves, ax.leaves[1:])
                     if frozenset((a, c)) in declared)
        if len(ax.blocks) != breaks + 1:
            return f"{len(ax.blocks)} blocks, want {breaks + 1}"
        if ax.period_blocks != blocks_per_period:
            return f"period_blocks {ax.period_blocks}, want {blocks_per_period}"
        return None
    return check


def dynamics_tasks(b, texts):
    dy, io, per = b.dynamics, b.io, b.periodic
    data = {nm: json.loads(t) for nm, t in texts.items()}
    tasks = []

    def element(spec):
        # spec names how the element is built from the parsed pattern
        def build(pp):
            s = pp.automorphisms.get("s")
            if spec == "s":
                return s
            if spec == "s^-1":
                return s.inverse()
            if spec == "s^2":
                return s.power(2)
            if spec == "swap":
                return pp.automorphisms["swap"]
            if spec == "s*swap":
                return s.compose(pp.automorphisms["swap"])
            if spec == "id":
                return dy.identity_automorphism(pp)
            plus, minus = spec
            return per.PatternAutomorphism(pp, per.IndexMap([plus]),
                                           per.IndexMap([minus]))
        return build

    def classify(nm, spec, window, nmax, check, known_fault=""):
        elem = element(spec)

        def run():
            pp = io.parse_pattern_text(texts[nm])
            return dy.classify_isometry(pp, elem(pp), window=window, nmax=nmax)
        tasks.append(Task(f"classify {nm} {spec}", run, check, known_fault))

    def wpd(nm, with_axis):
        def run():
            pp = io.parse_pattern_text(texts[nm])
            s = pp.automorphisms["s"]
            ax = dy.axis(pp, s, "plus", (-8, 8)) if with_axis else None
            return dy.wpd_scan(pp, s, pp.leaf_of_index("plus", 0), 1.0, 8,
                               pp.automorphisms, radius=4, window=8,
                               axis_data=ax)
        tasks.append(Task(f"wpd {nm}", run, _expect_wpd(with_axis)))

    def axis(nm, known_fault=""):
        def run():
            pp = io.parse_pattern_text(texts[nm])
            return dy.axis(pp, pp.automorphisms["s"], "plus", (-8, 8))
        tasks.append(Task(f"axis {nm}", run, _expect_axis(data[nm], -8, 8),
                          known_fault))

    # the README examples: classify and wpd of the ladder's shift
    adj = ref.window_xplus(data["ladder_periodic"], -8, 8)
    dist = ref.bfs(adj, "u0")
    classify("ladder_periodic", "s", 8, 8,
             _expect_loxodromic(dist[f"u{k}"] for k in range(1, 9)))
    wpd("ladder_periodic", False)
    axis("ladder_periodic")
    classify("ladder_periodic", "id", 5, 4, _expect_elliptic("fixed_point"))
    for W in (2, 3, 4):
        nm = f"skew{W}"
        for spec, step in (("s", 1), ("s^-1", -1), ("s^2", 2)):
            orbit = [j * step for j in range(1, 9) if abs(j * step) <= 8]
            classify(nm, spec, 8, 8, _expect_loxodromic(
                -(-abs(m) // (W - 1)) for m in orbit))
        # the chain's end p-7 and its neighbour p-6 both get depth 0, and
        # the tie is broken by id, so p-6 comes first
        axis(nm, known_fault="dynamics._order_chain: the end leaf and its "
                             "neighbour tie at depth 0 and are ordered by id")
        wpd(nm, True)
    classify("scalloped", "s", 5, 4, _expect_elliptic("scalloped"))
    classify("scalloped", "swap", 5, 4, _expect_elliptic("bounded_orbit"))
    # (s*swap)^2 = s^2 preserves the marked chain, so s*swap has bounded
    # orbits whenever s does
    classify("scalloped", "s*swap", 5, 4,
             _expect_elliptic("bounded_orbit", "scalloped"),
             known_fault="dynamics.classify_isometry: s*swap on scalloped is "
                         "called loxodromic while its square s^2 is elliptic")
    classify("trivial_periodic", (1, 1), 8, 4, _expect_elliptic("bounded_orbit"))
    classify("trivial_periodic", (0, 1), 8, 4, _expect_elliptic("fixed_leaf"))
    # The three long calls split the short ones into four groups, so the
    # short calls, which set task_p50_ms, are timed at four points of the
    # pass rather than at one.
    long = [t for t in tasks if t.name in LONG_DYNAMICS]
    short = [t for t in tasks if t.name not in LONG_DYNAMICS]
    k = -(-len(short) // 4)
    return [t for i in range(4)
            for t in short[i * k:(i + 1) * k] + long[i:i + 1]]


LONG_DYNAMICS = ("classify ladder_periodic s", "wpd ladder_periodic",
                 "classify scalloped s*swap")


# -- metrics -------------------------------------------------------------------

FINITE = ("grid3", "ladder2", "ladder4", "ladder8", "chain3", "loz1", "prong3",
          "prongdiv", "prongnondiv", "prongchain2", "partlink", "sinestrip4")
WINDOWS = (("skew2", -4, 4), ("skew3", -4, 4), ("skew4", -4, 4),
           ("skew2", -5, 5), ("skew3", -5, 5),
           ("ladder_periodic", -2, 2), ("ladder_periodic", -3, 3),
           ("ladder_periodic", -4, 4), ("ladder_periodic", -6, 6),
           ("scalloped", -1, 1), ("scalloped", -2, 2), ("scalloped", -3, 3))
# Few random draws among many fixed tasks: a random pattern costs anywhere
# from 1 to 60 ms, so with more draws the seed would move task_p50_ms.
RANDOM_DRAWS = 4
CROSSING_POINTS = 8
ONE_FAMILY = ("xplus", "xminus", "gammaplus", "gammaminus")


def random_seeds(seed):
    return [seed * 100 + i for i in range(RANDOM_DRAWS)]


def metrics_inputs(b, seed, tmp):
    texts = {nm: b.fixtures.fixture_text(nm) for nm in FINITE}
    for nm, lo, hi in WINDOWS:
        pp = b.io.parse_pattern_text(b.fixtures.fixture_text(nm))
        texts[f"{nm}[{lo},{hi}]"] = b.io.serialize(pp.materialize_window(lo, hi))
    for s in random_seeds(seed):
        texts[f"random{s}"] = b.io.serialize(
            b.randgen.random_pattern(s, max_leaves=20))
    return texts


def _spread(items, k):
    if len(items) <= k:
        return list(items)
    return [items[(i * len(items)) // k] for i in range(k)]


def _check_metrics(ch: "ref.Chords", pts, has_points):
    adj = {k: ch.adjacency(k) for k in ("x", "xplus", "xminus")}
    dist = {k: ref.all_distances(a) for k, a in adj.items()}
    # inclusion: expected pairs, artefacts (d_sign = inf), max ratio, and
    # the pairs where the inequalities fail on the reference graphs
    pairs, artefacts, ratio, broken = 0, [], 0.0, []
    for kind, sign in (("xplus", "plus"), ("xminus", "minus")):
        verts = sorted(adj[kind])
        for v, w in itertools.combinations(verts, 2):
            pairs += 1
            ds = dist[kind][v].get(w, ref.INF)
            dx = dist["x"][v].get(w, ref.INF)
            if ds == ref.INF:
                if dx != ref.INF:
                    artefacts.append((kind, v, w, ds, dx))
                continue
            if not ds <= dx <= 2 * ds:
                broken.append((kind, v, w, ds, dx))
            elif ds > 0:
                ratio = max(ratio, dx / ds)
    leaf_of = {q[0]: q[1:] for q in pts}

    def check(out):
        graphs, bott, inc, qi, axioms = out
        for k, a in adj.items():
            got = {v: set(n) for v, n in graphs[k].adj.items()}
            if got != a:
                return f"{k} graph differs from the reference crossing test"
        if broken:
            return f"d_sign <= d_X <= 2 d_sign fails at {broken[:3]}"
        for k, r in bott.items():
            if not r.passed:
                return f"bottleneck K=3 fails on {k}: {r.witness}"
        if inc.pairs_checked != pairs:
            return f"inclusion checked {inc.pairs_checked} pairs, want {pairs}"
        if list(inc.violations) != artefacts:
            return f"inclusion violations {inc.violations[:3]}"
        if not math.isclose(inc.max_ratio, ratio):
            return f"inclusion max_ratio {inc.max_ratio}, want {ratio}"
        if len(pts) >= 2:
            r = _check_qi(qi, dist, leaf_of)
            if r:
                return r
        for k, rep in axioms.items():
            if not rep.ok:
                return f"metric axioms fail for {k}: {rep.violations[:3]}"
        if has_points and len(axioms) != 5:
            return "metric axioms not checked for all five kinds"
        return None
    return check


def _check_qi(qi, dist, leaf_of):
    if qi.violations:
        return f"qi_metric violations {qi.violations[:3]}"
    n = len(leaf_of)
    if len(qi.checks) != 4 * n * (n - 1) // 2:
        return f"qi_metric made {len(qi.checks)} checks"
    wall = {}
    disconnected = 0
    for kind, a, c, dw, dg in qi.checks:
        wall[(kind, a, c)] = wall[(kind, c, a)] = dw
        if kind in ("d+", "d-"):
            gk, i = ("xplus", 0) if kind == "d+" else ("xminus", 1)
            la, lc = leaf_of[a][i], leaf_of[c][i]
            want = 0 if la == lc else dist[gk][la].get(lc, ref.INF)
            if dg != want:
                return f"{kind} graph distance {a},{c} = {dg}, want {want}"
        if dg == ref.INF:
            disconnected += 1
        elif not dw - 2 <= dg <= 5 * dw:
            return f"{kind} {a},{c}: d_wall {dw} and d_graph {dg} out of range"
    if disconnected != len(qi.disconnected):
        return "disconnected pairs miscounted"
    for kind in ("d+", "d-", "dR+", "dR-"):
        for a, c in itertools.combinations(leaf_of, 2):
            if wall[(kind, a, c)] <= 0:
                return f"{kind} {a},{c} is not positive"
        for a, c, e in itertools.permutations(leaf_of, 3):
            if wall[(kind, a, e)] > wall[(kind, a, c)] + wall[(kind, c, e)]:
                return f"{kind} triangle inequality fails at {a},{c},{e}"
    return None


def metrics_tasks(b, texts):
    io, gr, wl = b.io, b.graphs, b.walls
    Point = b.pattern.Point
    tasks = []
    for nm, text in texts.items():
        d = json.loads(text)
        ch = ref.Chords(d)
        pts = [(f"q{i}", plus, minus) for i, (plus, minus) in
               enumerate(_spread(ch.crossing_pairs(), CROSSING_POINTS))]
        has_points = bool(d.get("points"))

        def run(text=text, pts=pts, has_points=has_points):
            p = io.parse_pattern_text(text)
            graphs = {k: gr.build_graph(p, k) for k in gr.KINDS}
            bott = {k: gr.bottleneck_certify_components(graphs[k], 3)
                    for k in ONE_FAMILY}
            inc = gr.qi_inclusion_report(p)
            qi = None
            if len(pts) >= 2:
                qi = wl.qi_metric_report(
                    p, points=[Point.crossing(*q) for q in pts])
            axioms = ({k: wl.metric_axiom_check(p, k) for k in wl.KINDS}
                      if has_points else {})
            return graphs, bott, inc, qi, axioms
        tasks.append(Task(f"metrics {nm}", run,
                          _check_metrics(ch, pts, has_points)))
    return tasks


# -- cli -----------------------------------------------------------------------

SKEW_GENS = {"s": [1, 1], "f": [0, 2], "g": [2, 0]}
TRIVIAL_NMAX = 11
SKEW_NMAX = 12


def cli_inputs(b, seed, tmp):
    gens = os.path.join(tmp, "gens.json")
    with open(gens, "w", encoding="utf-8") as fh:
        json.dump(SKEW_GENS, fh)
    fixtures = os.path.dirname(b.fixtures.__file__)
    return {"fixtures": fixtures, "tmp": tmp, "gens": gens,
            "texts": {nm: b.fixtures.fixture_text(nm)
                      for nm in ("ladder8", "ladder4", "grid3", "chain3",
                                 "ladder_periodic")}}


def _parse_dot(text):
    verts, edges = [], []
    for line in text.splitlines():
        line = line.strip()
        if " -- " in line:
            u, v = line.rstrip(";").split(" -- ")
            edges.append((u.strip('"'), v.strip('"')))
        elif line.startswith('"'):
            verts.append(line.split('"')[1])
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _csv_matrix(text):
    rows = [r.split(",") for r in text.strip().splitlines()]
    head = rows[0][1:]
    return {r[0]: {c: (ref.INF if x == "inf" else int(x))
                   for c, x in zip(head, r[1:])} for r in rows[1:]}


def cli_tasks(b, inp):
    fx = lambda nm: os.path.join(inp["fixtures"], f"{nm}.json")
    tmp = inp["tmp"]
    out = lambda nm: os.path.join(tmp, nm)
    chords = {nm: ref.Chords(json.loads(t)) for nm, t in inp["texts"].items()
              if nm != "ladder_periodic"}
    first = {}
    tasks = []

    def add(name, argv, check, files=(), known_fault="", probe=False):
        report = out(f"report-{len(tasks)}.json")
        argv = ["--report", report] + argv

        def run():
            err = _io.StringIO()
            code, exc = None, ""
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(_io.StringIO()):
                try:
                    code = b.cli.main(argv)
                except Exception as e:  # an exception escaping main is data
                    exc = type(e).__name__
            return code, err.getvalue(), exc

        def read(path):
            with open(path, "rb") as fh:
                return fh.read()

        def full_check(res):
            code, err, exc = res
            if probe:
                if exc:
                    return f"{exc} escaped main"
                if code != 1:
                    return f"exit code {code}, want 1"
                if err.count("\n") != 1 or not err.strip():
                    return f"stderr is not one line: {err!r}"
                return None
            if exc or code != 0:
                return f"exit {code} {exc} {err.strip()[:200]}"
            got = (read(report), {f: read(f) for f in files})
            if name not in first:
                reason = check(json.loads(got[0]), got[1])
                if reason:
                    return reason
                first[name] = got
            elif got != first[name]:
                return "output differs from the first pass"
            return None
        tasks.append(Task(name, run, full_check, known_fault))

    def results_check(fn):
        return lambda rep, files: fn(rep["results"])

    def dot_graph_check(nm, kind, dot, csv=None):
        want = chords[nm].adjacency(kind)

        def check(rep, files):
            adj = _parse_dot(files[dot].decode())
            if adj != want:
                return f"DOT edges differ from the reference {kind} graph"
            if csv is not None:
                m = _csv_matrix(files[csv].decode())
                for v in adj:
                    bfs = ref.bfs(adj, v)
                    if any(m[v][w] != bfs.get(w, ref.INF) for w in adj):
                        return f"CSV row {v} differs from BFS over DOT edges"
            return None
        return check

    add("validate ladder8", ["validate", "--in", fx("ladder8")],
        results_check(lambda r: None if r == {"valid": True} else f"{r}"))
    add("validate scalloped", ["validate", "--in", fx("scalloped")],
        results_check(lambda r: None if r == {"valid": True} else f"{r}"))
    with open(fx("ladder4"), "rb") as fh:
        ladder4 = fh.read()
    gen_out = out("gen-ladder4.json")
    add("gen ladder 4", ["gen", "--kind", "ladder", "--params", "4",
                         "--out", gen_out],
        lambda rep, files: None if files[gen_out] == ladder4
        else "generated ladder4 differs from the shipped fixture",
        files=(gen_out,))
    dot, csv = out("graph.dot"), out("graph.csv")
    add("graph xplus ladder8", ["graph", "--kind", "xplus", "--in",
                                fx("ladder8"), "--dot", dot, "--csv", csv],
        dot_graph_check("ladder8", "xplus", dot, csv), files=(dot, csv))
    xadj = chords["ladder8"].adjacency("xplus")
    d_xy = ref.bfs(xadj, "x").get("y", ref.INF)
    add("dist xplus ladder8", ["dist", "--kind", "xplus", "--in",
                               fx("ladder8"), "--from", "x", "--to", "y"],
        results_check(lambda r: None if r["distance"] == d_xy
                      else f"distance {r['distance']}, want {d_xy}"))
    lp = json.loads(inp["texts"]["ladder_periodic"])
    d1 = ref.bfs(ref.window_xplus(lp, -4, 4), "u0")["u3"]
    d2 = ref.bfs(ref.window_xplus(lp, -8, 8), "u0")["u3"]
    add("dist xplus ladder_periodic",
        ["dist", "--kind", "xplus", "--in", fx("ladder_periodic"),
         "--from", "u0", "--to", "u3", "--window", "-4", "4"],
        results_check(lambda r: None if (r["distance"], r["stable_under_doubling"])
                      == (d1, d1 == d2) else f"{r}, want {d1} {d1 == d2}"))
    add("bottleneck ladder8", ["bottleneck", "--in", fx("ladder8"), "--K", "3"],
        lambda rep, files: None if rep["checks"] == {"bottleneck-k3": True}
        else f"{rep['results']}")

    def metric_points(r):
        # the one-family distances count the largest family plus one
        if r["distance"] != len(r["witness"]) + 1 or r["distance"] < 1:
            return f"{r}"
        return None
    add("metric d+ grid3", ["metric", "--in", fx("grid3"), "--kind", "d+",
                            "--points", "x00,x22"],
        results_check(metric_points))
    matrix = out("matrix.csv")

    def metric_matrix(rep, files):
        m = _csv_matrix(files[matrix].decode())
        pts = sorted(m)
        for a, c in itertools.product(pts, pts):
            if m[a][c] != m[c][a] or (m[a][c] == 0) != (a == c):
                return f"matrix not a metric at {a},{c}"
        for a, c, e in itertools.permutations(pts, 3):
            if m[a][e] > m[a][c] + m[c][e]:
                return f"triangle inequality fails at {a},{c},{e}"
        if len(rep["results"]["witnesses"]) != len(pts) * (len(pts) - 1) // 2:
            return "missing witnesses"
        return None
    add("metric dR+ grid3 all-pairs", ["metric", "--in", fx("grid3"), "--kind",
                                       "dR+", "--all-pairs", matrix],
        metric_matrix, files=(matrix,))

    def lozenges(r):
        # chain3 is a chain of three lozenges sharing corners
        if len(r["lozenges"]) != 3 or len(r["chains"]) != 1 \
                or len(r["corners"]) != 4:
            return f"{r}"
        return None
    add("lozenges chain3", ["lozenges", "--in", fx("chain3")],
        results_check(lozenges))
    add("classify skew2 s", ["classify", "--pattern", fx("skew2"), "--element",
                             "s", "--window", "8", "--nmax", "8"],
        results_check(lambda r: None if (r["verdict"], r["displacements"])
                      == ("loxodromic", list(range(1, 9))) else f"{r}"))
    for el, cert in (("s", "scalloped"), ("swap", "bounded_orbit")):
        add(f"classify scalloped {el}",
            ["classify", "--pattern", fx("scalloped"), "--element", el,
             "--window", "5", "--nmax", "4"],
            results_check(lambda r, cert=cert: None if (
                r["verdict"], r["certificate"]) == ("elliptic", cert)
                else f"{r}"))
    add("wpd skew2 s", ["wpd", "--pattern", fx("skew2"), "--g", "s", "--ball",
                        "4", "--eps", "1", "--n", "8"],
        results_check(lambda r: None if (r["witnesses"], r["stable"])
                      == (["id"], True) else f"{r}"))

    tb, tf, _ = ref.census_reference("trivial", [(1, (0, 0)), (0, (1, 0)),
                                                 (0, (0, 1))], TRIVIAL_NMAX)
    tcsv = out("census-trivial.csv")

    def census_rows(files, path, balls, frees):
        rows = [r.split(",") for r in files[path].decode().splitlines()[1:]]
        if [(int(r[1]), int(r[2])) for r in rows] != list(zip(balls, frees)):
            return "census CSV balls or free counts differ from the reference"
        return None

    def census_trivial(rep, files):
        r = rep["results"]
        if (r["balls"], r["free"]) != (tb, tf):
            return f"balls {r['balls']} free {r['free']}, want {tb} {tf}"
        return census_rows(files, tcsv, tb, tf)
    add("census trivial", ["census", "--model", "trivial", "--nmax",
                           str(TRIVIAL_NMAX), "--csv", tcsv],
        census_trivial, files=(tcsv,))
    sb, sf, radius = ref.census_reference(
        "skew", [tuple(g) for g in SKEW_GENS.values()], SKEW_NMAX)
    R = radius[(3, 3)]
    fractions = [sf[n + R] / sb[n + R] for n in range(SKEW_NMAX - R + 1)]
    scsv = out("census-skew.csv")

    def census_skew(rep, files):
        r = rep["results"]
        if r["R"] != R or r["K"] != sb[R]:
            return f"R {r['R']} K {r['K']}, want {R} {sb[R]}"
        if not all(math.isclose(x, y) for x, y in zip(r["fractions"], fractions)) \
                or len(r["fractions"]) != len(fractions):
            return f"fractions {r['fractions']}, want {fractions}"
        return census_rows(files, scsv, sb, sf)
    add("census skew", ["census", "--model", "skew", "--nmax", str(SKEW_NMAX),
                        "--gens", inp["gens"], "--h", "3,3", "--csv", scsv],
        census_skew, files=(scsv,))
    edot = out("export.dot")
    add("export x ladder4", ["export", "--in", fx("ladder4"), "--kind", "x",
                             "--dot", edot],
        dot_graph_check("ladder4", "x", edot), files=(edot,))

    # malformed input: each must exit 1 with one line on stderr
    probe = "cli: malformed argument is not a usage error (exit 1)"
    add("probe classify --element nope",
        ["classify", "--pattern", fx("skew2"), "--element", "nope"],
        None, known_fault=probe, probe=True)
    add("probe metric --points x00",
        ["metric", "--in", fx("grid3"), "--kind", "d+", "--points", "x00"],
        None, known_fault=probe, probe=True)
    add("probe census --h 3,x",
        ["census", "--model", "skew", "--nmax", "4", "--h", "3,x"],
        None, known_fault=probe, probe=True)
    add("probe dist --from zz",
        ["dist", "--kind", "xplus", "--in", fx("ladder8"), "--from", "zz",
         "--to", "y"],
        None, known_fault=probe, probe=True)
    return tasks


INPUTS = {"dynamics": dynamics_inputs, "metrics": metrics_inputs,
          "cli": cli_inputs}
TASKS = {"dynamics": dynamics_tasks, "metrics": metrics_tasks,
         "cli": cli_tasks}
