"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of ``bifol`` at the attribute
their callers look up (module attributes for functions, class attributes for
methods) with wrappers that time each call and count work.  Self time is a
call's duration minus the time spent in wrapped calls nested inside it.
Spans are kept in memory and written out by ``Tracer.write`` when the run
ends; the hot predicates only add to counters and timers, no spans.
``Tracer.uninstall`` restores every original.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _targets(b):
    """(layer, owner module or class, attribute, keep spans) for every
    wrapped entry point."""
    P, PP, PA = b.pattern.FinitePattern, b.periodic.PeriodicPattern, \
        b.periodic.PatternAutomorphism
    return [
        ("pattern.validate", P, "validate", True),
        ("pattern.predicate", P, "intersects", False),
        ("pattern.predicate", P, "separates_point", False),
        ("pattern.predicate", P, "separates_leaves", False),
        ("pattern.predicate", P, "separator_chain", False),
        ("pattern.predicate", P, "pseudo_interval", False),
        ("pattern.lozenges", P, "detect_lozenges", True),
        ("periodic.automorphism", PA, "__init__", True),
        ("periodic.materialize", PP, "materialize_window", True),
        ("periodic.generate", b.cli, "generate", True),
        ("graphs.build", b.graphs, "build_graph", True),
        ("graphs.bfs", b.graphs, "distances_from", False),
        ("graphs.bottleneck", b.graphs, "bottleneck_certify", True),
        ("graphs.bottleneck", b.graphs, "bottleneck_certify_components", True),
        ("graphs.inclusion", b.graphs, "qi_inclusion_report", True),
        ("walls.distance", b.walls, "wall_distance", True),
        ("walls.distance", b.walls, "longest_chain_witness", True),
        ("walls.report", b.walls, "qi_metric_report", True),
        ("walls.report", b.walls, "metric_axiom_check", True),
        ("dynamics.axis", b.dynamics, "axis", True),
        ("dynamics.classify", b.dynamics, "classify_isometry", True),
        ("dynamics.wpd", b.dynamics, "wpd_scan", True),
        ("dynamics.wpd", b.dynamics, "_wpd_witnesses", True),
        ("census.enumerate", b.census, "enumerate_ball", True),
        ("census.enumerate", b.dynamics, "automorphism_ball", True),
        ("census.report", b.census, "growth_report", True),
        ("census.report", b.census, "genericity_report", True),
        ("census.report", b.census, "ball_stats", True),
        ("io.parse", b.io, "parse_pattern_text", True),
        ("io.write", b.io, "write_pattern", True),
        ("io.write", b.io, "serialize", True),
        ("io.write", b.io, "export_dot", True),
        ("io.write", b.io, "census_csv", True),
        ("io.write", b.io, "distance_matrix_csv", True),
        ("cli.self", b.cli, "main", True),
    ]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.calls = defaultdict(int)      # "owner.attr" -> calls
        self.work = defaultdict(int)       # named work counters
        self.spans = []                    # (name, start, end, parent, task)
        self._stack = []                   # [child seconds, span index]
        self._saved = []
        self._task = -1
        self._origin = {}                  # id(window) -> (id(pp), lo, hi)
        self._keep = []                    # keeps ids stable within a task
        self._windows = set()
        self._graphs = set()

    def start_task(self, index: int) -> None:
        """Repeats are counted within one task, so forget the last task's
        windows and graphs."""
        self._task = index
        self._origin.clear()
        self._keep.clear()
        self._windows.clear()
        self._graphs.clear()

    def install(self, b) -> None:
        for layer, owner, attr, spans in _targets(b):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, f"{_name(owner)}.{attr}",
                                            fn, spans))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, layer, name, fn, keep_spans):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        after = getattr(self, "_after_" + name.split(".")[-1], None)
        clock = time.perf_counter

        if not keep_spans:
            def hot(*args, **kw):
                stack.append([0.0, -1])
                t0 = clock()
                try:
                    return fn(*args, **kw)
                finally:
                    dur = clock() - t0
                    child = stack.pop()[0]
                    self_s[layer] += dur - child
                    calls[name] += 1
                    if stack:
                        stack[-1][0] += dur
            return hot

        spans = self.spans

        def traced(*args, **kw):
            parent = stack[-1][1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append([0.0, idx])
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = clock()
                child = stack.pop()[0]
                self_s[layer] += (t1 - t0) - child
                calls[name] += 1
                spans[idx] = (name, t0, t1, parent, self._task)
                if stack:
                    stack[-1][0] += t1 - t0
            if after is not None:
                after(args, kw, out)
            return out
        return traced

    # -- work counters, taken from arguments and results ---------------------

    def _after_materialize_window(self, args, kw, out):
        pp, lo, hi = args[:3]
        key = (id(pp), lo, hi)
        self.work["materialize_repeats"] += key in self._windows
        self._windows.add(key)
        self.work["window_leaves"] += len(out.leaves)
        self._origin[id(out)] = key
        self._keep.append(out)

    def _after_build_graph(self, args, kw, out):
        p, kind = args[:2]
        key = (self._origin.get(id(p), id(p)), out.kind)
        self.work["build_repeats"] += key in self._graphs
        self._graphs.add(key)
        self._keep.append(p)
        self.work["edges_built"] += sum(len(n) for n in out.adj.values()) // 2

    def _after__wpd_witnesses(self, args, kw, out):
        self.work["wpd_candidates"] += len(args[5])

    def _after_enumerate_ball(self, args, kw, out):
        S, n = args[:2]
        gens = len(S.symmetrized())
        sphere = defaultdict(int)
        for _, r in out.values():
            sphere[r] += 1
        self._ball(len(out), sum(sphere[r] for r in range(n)) * gens)

    def _after_automorphism_ball(self, args, kw, out):
        gens, radius = args[1], args[2]
        sphere = defaultdict(int)
        for name, _ in out.values():
            sphere[0 if name == "id" else name.count("*") + 1] += 1
        self._ball(len(out), sum(sphere[r] for r in range(radius))
                   * 2 * len(gens))

    def _ball(self, elements, products):
        self.work["ball_elements"] += elements
        # every element but the identity is new from one product
        self.work["ball_new"] += elements - 1
        self.work["ball_products"] += products

    # -- summary ----------------------------------------------------------------

    def per_layer(self, passes: int) -> dict:
        """The per-layer metrics, each per traced pass."""
        c, w, s = self.calls, self.work, self.self_s
        n = float(passes)
        grp = lambda *names: sum(c[x] for x in names)
        out = {
            "periodic.automorphism_s": (s["periodic.automorphism"], "s"),
            "periodic.automorphism_checks":
                (c["PatternAutomorphism.__init__"], "count"),
            "periodic.materialize_s": (s["periodic.materialize"], "s"),
            "periodic.materialize_calls":
                (c["PeriodicPattern.materialize_window"], "count"),
            "periodic.materialize_repeats": (w["materialize_repeats"], "count"),
            "periodic.window_leaves": (w["window_leaves"], "count"),
            "pattern.validate_s": (s["pattern.validate"], "s"),
            "pattern.validate_calls": (c["FinitePattern.validate"], "count"),
            "pattern.predicate_s": (s["pattern.predicate"], "s"),
            "pattern.intersects_calls": (c["FinitePattern.intersects"], "count"),
            "pattern.pseudo_interval_calls":
                (c["FinitePattern.pseudo_interval"], "count"),
            "graphs.build_s": (s["graphs.build"], "s"),
            "graphs.build_calls": (c["graphs.build_graph"], "count"),
            "graphs.build_repeats": (w["build_repeats"], "count"),
            "graphs.edges_built": (w["edges_built"], "count"),
            "graphs.bfs_s": (s["graphs.bfs"], "s"),
            "graphs.bfs_calls": (c["graphs.distances_from"], "count"),
            "graphs.bottleneck_s": (s["graphs.bottleneck"], "s"),
            "walls.distance_s": (s["walls.distance"], "s"),
            "walls.distance_calls": (c["walls.wall_distance"], "count"),
            "dynamics.classify_s": (s["dynamics.classify"], "s"),
            "dynamics.classify_calls":
                (c["dynamics.classify_isometry"], "count"),
            "dynamics.wpd_s": (s["dynamics.wpd"], "s"),
            "dynamics.wpd_candidates": (w["wpd_candidates"], "count"),
            "census.enumerate_s": (s["census.enumerate"], "s"),
            "census.enumerate_calls":
                (grp("census.enumerate_ball", "dynamics.automorphism_ball"),
                 "count"),
            "census.ball_elements": (w["ball_elements"], "count"),
            "io.parse_s": (s["io.parse"], "s"),
            "io.parse_calls": (c["io.parse_pattern_text"], "count"),
            "io.write_s": (s["io.write"], "s"),
            "cli.self_s": (s["cli.self"], "s"),
        }
        metrics = {k: {"value": v / n, "unit": u} for k, (v, u) in out.items()}
        products = w["ball_products"]
        metrics["census.dedup_ratio"] = {
            "value": w["ball_new"] / products if products else 0.0,
            "unit": "ratio"}
        return metrics

    def largest_self_time(self) -> str:
        return max(self.self_s, key=self.self_s.get) if self.self_s else ""

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of totals."""
        t0 = min((sp[1] for sp in self.spans if sp), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                if sp is None:
                    continue
                name, a, z, parent, task = sp
                fh.write(json.dumps({"id": i, "name": name, "task": task,
                                     "parent": parent,
                                     "start_ms": round((a - t0) * 1e3, 4),
                                     "dur_ms": round((z - a) * 1e3, 4)})
                         + "\n")
            fh.write(json.dumps({"self_s": dict(self.self_s),
                                 "calls": dict(self.calls),
                                 "work": dict(self.work)}, sort_keys=True)
                     + "\n")


def _name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]
