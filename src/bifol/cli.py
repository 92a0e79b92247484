"""Command line interface: validation, generation, graphs, distances,
bottleneck certification, wall metrics, lozenge detection, isometry
classification, WPD scans, censuses and exports.

Exit codes: 0 success, 1 usage (a malformed argument, an unknown id or a
file that cannot be read or written), 2 validation failure, 3 property-check
failure, 4 budget exceeded.  Reports are JSON, deterministic for fixed inputs
and seed (the environment stamp carries only the seed and window sizes, never
wall-clock data).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

from . import census as cs
from . import dynamics as dy
from . import graphs as gr
from . import io as bio
from . import walls as wl
from .pattern import (
    BifolError, InvalidPatternError, PreconditionError, UnknownIdError,
    UsageError,
)
from .periodic import CertificateTooWideError, PeriodicPattern, generate

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_PROPERTY, EXIT_BUDGET = 0, 1, 2, 3, 4


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _report(verb, inputs, results, checks=None, seed=None, windows=None):
    return {
        "verb": verb,
        "inputs": inputs,
        "results": results,
        "checks": checks or {},
        "env": {"seed": seed, "windows": windows},
    }


def _emit(args, report) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if getattr(args, "report", None):
        bio.write_text(args.report, text)
    else:
        sys.stdout.write(text)


def _read(path) -> str:
    """The text of an input file; bytes that are not UTF-8 are a parse error
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise bio.ParseError(f"{path}: not UTF-8 text ({e.reason})",
                                 offset=e.start) from None


def _parse(path, text):
    """The pattern in a file's text; a parse error or an oversized
    certificate window names the file."""
    try:
        return bio.parse_pattern_text(text)
    except bio.ParseError as e:
        raise bio.ParseError(f"{path}: {e}") from None
    except CertificateTooWideError as e:
        raise InvalidPatternError(f"{path}: {e}") from None


def _load(path):
    text = _read(path)
    return _parse(path, text), _digest(text)


def _load_finite(args):
    """The --in pattern, materialized over --window when it is periodic, and
    the digest of its file."""
    p, dig = _load(args.input)
    if isinstance(p, PeriodicPattern):
        p = p.materialize_window(*args.window)
    return p, dig


def cmd_validate(args):
    text = _read(args.input)
    try:
        _parse(args.input, text)
    except InvalidPatternError as e:
        _emit(args, _report("validate", _digest(text), {"valid": False,
                                                        "violations": str(e)}))
        return EXIT_VALIDATION
    _emit(args, _report("validate", _digest(text), {"valid": True}))
    return EXIT_OK


def cmd_gen(args):
    try:
        params = [int(x) for x in args.params]
    except ValueError:
        raise UsageError(f"--kind {args.kind} takes integer --params, "
                         f"not {' '.join(args.params)!r}") from None
    p = generate(args.kind, *params)
    if args.materialize and isinstance(p, PeriodicPattern):
        p = p.materialize_window(*args.window)
    bio.write_pattern(p, args.out)
    _emit(args, _report("gen", args.kind, {"out": args.out,
                                           "kind": type(p).__name__}))
    return EXIT_OK


def cmd_graph(args):
    fp, dig = _load_finite(args)
    G = gr.build_graph(fp, args.kind)
    results = {"kind": G.kind, "vertices": len(G.vertices),
               "edges": len(G.edges()),
               "components": len(gr.connected_components(G))}
    if args.dot:
        bio.write_text(args.dot, bio.export_dot(fp, G))
        results["dot"] = args.dot
    if args.csv:
        bio.write_text(args.csv, bio.distance_matrix_csv(G))
        results["csv"] = args.csv
    _emit(args, _report("graph", dig, results, windows=args.window))
    return EXIT_OK


def cmd_dist(args):
    p, dig = _load(args.input)
    results = {"from": args.src, "to": args.dst}
    if isinstance(p, PeriodicPattern):
        lo, hi = args.window
        p.check_window(lo, hi)  # the given window, before it is widened
        d, stable = gr.windowed_distance(p, args.kind, args.src, args.dst,
                                         (min(lo, -2), max(hi, 2)))
        results["stable_under_doubling"] = stable
    else:
        d = gr.distance(gr.build_graph(p, args.kind), args.src, args.dst)
    results["distance"] = "inf" if d == gr.INF else d
    _emit(args, _report("dist", dig, results, windows=args.window))
    return EXIT_OK


def cmd_bottleneck(args):
    fp, dig = _load_finite(args)
    kinds = [args.kind] if args.kind else [k for k in gr.KINDS
                                           if k in gr._FAMILY]
    results, ok = {}, True
    for kind in kinds:
        res = gr.bottleneck_certify_components(gr.build_graph(fp, kind), args.K)
        results[kind] = {"passed": res.passed, "pairs": res.pairs_checked,
                         "witness": (None if res.witness is None else
                                     [res.witness.x, res.witness.y,
                                      res.witness.midpoint])}
        ok = ok and res.passed
    _emit(args, _report("bottleneck", dig, results,
                        checks={"bottleneck-k3": ok}, windows=args.window))
    return EXIT_OK if ok else EXIT_PROPERTY


def _metric(fp, a, b, kind):
    """The wall distance of two points and its witness."""
    d, chain = wl._walls(fp, fp.point(a), fp.point(b), (kind,))[kind]
    return d, list(chain)


def cmd_metric(args):
    fp, dig = _load_finite(args)
    if not args.all_pairs and not args.points:
        raise UsageError("metric needs --points a,b or --all-pairs FILE")
    results = {"kind": args.kind}
    if args.all_pairs:
        pts = sorted(fp.points)
        lines = ["point," + ",".join(pts)]
        witnesses = {}
        for a in pts:
            row = [a]
            for b in pts:
                d, wit = _metric(fp, a, b, args.kind)
                row.append(str(d))
                if a < b:
                    witnesses[f"{a},{b}"] = wit
            lines.append(",".join(row))
        bio.write_text(args.all_pairs, "\n".join(lines) + "\n")
        results["csv"] = args.all_pairs
        results["witnesses"] = witnesses
    else:
        if args.points.count(",") != 1:
            raise UsageError(f"--points wants two point ids a,b, not {args.points!r}")
        a, b = args.points.split(",")
        results["points"] = [a, b]
        results["distance"], results["witness"] = _metric(fp, a, b, args.kind)
    _emit(args, _report("metric", dig, results))
    return EXIT_OK


def cmd_lozenges(args):
    fp, dig = _load_finite(args)
    rep = fp.detect_lozenges()
    flag = any(rep.chain_quadrant_flags)
    _emit(args, _report("lozenges", dig, {
        "lozenges": [[L.plus1, L.minus1, L.plus2, L.minus2]
                     for L in rep.lozenges],
        "chains": [list(c) for c in rep.chains],
        "corners": sorted(sorted(c) for c in rep.corners),
        "quadrant_flags": list(rep.chain_quadrant_flags),
    }, checks={"chain-quadrant-spread": not flag}))
    return EXIT_OK if not flag else EXIT_PROPERTY


def cmd_classify(args):
    p, dig = _load(args.pattern)
    if not isinstance(p, PeriodicPattern):
        raise BifolError("classification needs a periodic pattern")
    g = p.automorphisms[args.element]
    verdict = dy.classify_isometry(p, g, window=args.window_size,
                                   nmax=args.nmax)
    results = {"element": args.element, "verdict": verdict.kind}
    if isinstance(verdict, dy.Elliptic):
        results["certificate"] = verdict.certificate
        results["detail"] = verdict.detail
    elif isinstance(verdict, dy.Loxodromic):
        results["tau"] = [verdict.tau_lower, verdict.tau_upper]
        results["displacements"] = list(verdict.displacements)
    else:
        results["reason"] = verdict.reason
    ok = verdict.kind != "inconclusive"
    _emit(args, _report("classify", dig, results,
                        checks={"isometry-classification": ok},
                        windows=[args.window_size]))
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_wpd(args):
    p, dig = _load(args.pattern)
    if not isinstance(p, PeriodicPattern):
        raise BifolError("WPD scans need a periodic pattern")
    g = p.automorphisms[args.g]
    base = args.base or p.leaf_of_index("plus", 0)
    sign, i = p.leaf_index(base)  # an unknown --base is a usage error
    if sign != "plus":  # so is a minus one, before any window is built
        raise UsageError(f"--base {base} is a minus leaf; the WPD scan needs "
                         f"a plus leaf")
    k = i // p.period
    w = args.window_size
    p.check_window(-w, w)  # both scan windows, before the axis is built
    p.check_window(-2 * w, 2 * w)
    if not -w <= k <= w:  # so is a base outside the window
        raise UsageError(f"--base {base} lies outside the window ({-w}, {w})")
    scan = dy.wpd_scan(p, g, base, args.eps, args.n, p.automorphisms,
                       radius=args.ball, window=w,
                       axis_data=dy.axis(p, g, "plus", (-w, w)))
    _emit(args, _report("wpd", dig, {
        "witnesses": list(scan.witnesses), "stable": scan.stable,
        "eps": scan.eps, "n": scan.n,
        "block_constraint_ok": scan.block_constraint_ok,
        "block_checked": scan.block_checked,
    }, windows=[args.window_size]))
    return EXIT_OK


def _load_gens(args):
    """The shipped generating set, or the --gens file's: {"A": {"k": 1, "v":
    [0, 0]}, ...} for the affine model, {"s": [1, 1], ...} offset vectors for
    the integer-map one.  A fault in the file is a usage error naming it."""
    trivial, at = args.model == "trivial", ""
    if not args.gens:
        return cs.trivial_affine_gens() if trivial else cs.skew_intmap_gens()
    try:
        with open(args.gens, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("wants an object of named generators")
        gens = {}
        for nm, g in data.items():
            at = f", generator {nm!r}"
            ints = [g["k"], *g["v"]] if trivial else g
            if not (isinstance(ints, list) and all(type(i) is int for i in ints)
                    and (len(ints) == 3 or not trivial)):
                raise ValueError(f"wants integers, not {json.dumps(g)}")
            gens[nm] = (cs.AffineElement(ints[0], tuple(ints[1:])) if trivial
                        else cs.IndexMap(ints))
        at = ""
        return cs.GeneratingSet(cs.TRIVIAL_AFFINE if trivial
                                else cs.SKEW_INTMAP, gens)
    except (OSError, KeyError, TypeError, ValueError, BifolError) as e:
        what = f"missing {e}" if isinstance(e, KeyError) else e
        raise UsageError(f"--gens {args.gens}{at}: {what}") from None


def cmd_census(args):
    S = _load_gens(args)
    if args.model == "trivial":
        if args.h:
            raise UsageError("--h takes effect only with --model skew")
        rep = cs.growth_report(S, args.nmax)
        results = {"model": S.model, "balls": list(rep.stats.ball),
                   "free": list(rep.stats.free),
                   "checks": rep.checks,
                   "loglog_slope_free": rep.loglog_slope_free,
                   "loglog_slope_intrinsic": rep.loglog_slope_intrinsic}
        ok, tag, stats = rep.ok, "census-trivial", rep.stats
    else:
        h = cs.skew_designated_shift()
        if args.h:
            try:
                h = cs.IndexMap(args.h.split(","))
                if h.N != next(iter(S.generators.values())).N:
                    raise ValueError("its period is not the generators'")
            except (ValueError, PreconditionError) as e:
                raise UsageError(f"--h {args.h}: {e}") from None
        gen_rep = cs.genericity_report(S, h, args.nmax)
        results = {"model": S.model, "R": gen_rep.R, "K": gen_rep.K,
                   "L": gen_rep.L, "dichotomy": gen_rep.dichotomy_ok,
                   "fraction_bound": gen_rep.fraction_bound_ok,
                   "fractions": list(gen_rep.fractions)}
        ok, tag, stats = gen_rep.ok, "census-skew", gen_rep.stats
    if args.csv:
        bio.write_text(args.csv, bio.census_csv(stats))
        results["csv"] = args.csv
    _emit(args, _report("census", args.model, results, checks={tag: ok},
                        seed=args.seed))
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_export(args):
    fp, dig = _load_finite(args)
    G = gr.build_graph(fp, args.kind)
    text = bio.export_dot(fp, G)
    bio.write_text(args.dot, text)
    _emit(args, _report("export", dig, {"dot": args.dot,
                                        "bytes": len(text)}))
    return EXIT_OK


def nonnegative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
    return int(text)


def positive(text: str) -> float:
    if not 0 < float(text) < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text}")
    return float(text)


def _add_window(sp):
    sp.add_argument("--window", nargs=2, type=int, default=(0, 6),
                    metavar=("LO", "HI"),
                    help="materialization window for periodic inputs")


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bifol",
        description="combinatorial bifoliated planes: graphs, metrics, "
                    "classification, censuses")
    ap.add_argument("--report", help="write the JSON report here")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("validate");  sp.add_argument("--in", dest="input", required=True)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("gen")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--params", nargs="*", default=())
    sp.add_argument("--out", required=True)
    sp.add_argument("--materialize", action="store_true")
    _add_window(sp)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("graph")
    sp.add_argument("--kind", required=True, choices=gr.KINDS)
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--dot")
    sp.add_argument("--csv")
    _add_window(sp)
    sp.set_defaults(fn=cmd_graph)

    sp = sub.add_parser("dist")
    sp.add_argument("--kind", required=True, choices=gr.KINDS)
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    _add_window(sp)
    sp.set_defaults(fn=cmd_dist)

    sp = sub.add_parser("bottleneck")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--K", type=nonnegative, default=3)
    sp.add_argument("--kind", choices=gr.KINDS)
    _add_window(sp)
    sp.set_defaults(fn=cmd_bottleneck)

    sp = sub.add_parser("metric")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--kind", required=True, choices=wl.KINDS)
    sp.add_argument("--points", help="a,b")
    sp.add_argument("--all-pairs", dest="all_pairs",
                    help="write the all-pairs matrix over marked points here")
    _add_window(sp)
    sp.set_defaults(fn=cmd_metric)

    sp = sub.add_parser("lozenges")
    sp.add_argument("--in", dest="input", required=True)
    _add_window(sp)
    sp.set_defaults(fn=cmd_lozenges)

    sp = sub.add_parser("classify")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--element", required=True)
    sp.add_argument("--window", dest="window_size", type=int, default=8)
    sp.add_argument("--nmax", type=nonnegative, default=8)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("wpd")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--ball", type=nonnegative, default=4)
    sp.add_argument("--eps", type=positive, default=1.0)
    sp.add_argument("--n", type=nonnegative, default=8)
    sp.add_argument("--base")
    sp.add_argument("--window", dest="window_size", type=int, default=8)
    sp.set_defaults(fn=cmd_wpd)

    sp = sub.add_parser("census")
    sp.add_argument("--model", required=True, choices=("trivial", "skew"))
    sp.add_argument("--nmax", type=int, default=8)
    sp.add_argument("--gens", help="JSON file with named generators")
    sp.add_argument("--h", help="designated shift offsets, e.g. 3,3")
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_census)

    sp = sub.add_parser("export")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--kind", default="xplus", choices=gr.KINDS)
    sp.add_argument("--dot", required=True)
    _add_window(sp)
    sp.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InvalidPatternError as e:
        sys.stderr.write(f"validation error: {e}\n")
        return EXIT_VALIDATION
    except cs.BudgetExceededError as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return EXIT_BUDGET
    except bio.ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_VALIDATION
    except (UsageError, UnknownIdError) as e:
        sys.stderr.write(f"usage error: {e.args[0]}\n")
        return EXIT_USAGE
    except OSError as e:  # an input or output file named on the command line
        if e.filename is None:
            raise
        sys.stderr.write(f"usage error: {e.filename}: {e.strerror}\n")
        return EXIT_USAGE
    except BifolError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
