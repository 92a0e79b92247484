"""Regenerate tests/data/expected_values.json from the enumeration oracles.

Run from the repository root:  python3 tests/gen_expected.py
The committed file is frozen; the acceptance suite compares against it.
"""

import json
from pathlib import Path

from bifol import census as cs
from bifol import graphs as gr
from bifol.periodic import generate


def ladder_tables():
    dx, dg = {}, {}
    for n in range(2, 9):
        p = generate("ladder", n)
        dx[str(n)] = gr.distance(gr.build_graph(p, gr.XPLUS), "x", "y")
        dg[str(n)] = gr.distance(gr.build_graph(p, gr.GAMMAPLUS), "x", "y")
    return dx, dg


def prong_table():
    out = {}
    for name, kind, prongs in (("prongdiv", "prongdiv", 1),
                               ("prongchain2", "prongchain", 2)):
        p = generate(kind)
        d = gr.distance(gr.build_graph(p, gr.XPLUS), "x", "y")
        out[name] = {"prongs": prongs, "d_xplus": d}
    return out


def bottleneck_x_table():
    out = {}
    fixture_specs = [("grid3", generate("trivial", 3)),
                     ("loz1", generate("lozenge")),
                     ("chain3", generate("chain", 3)),
                     ("prong3", generate("prong", 3)),
                     ("sinestrip4", generate("sinestrip", 4))]
    for n in (2, 4, 8):
        fixture_specs.append((f"ladder{n}", generate("ladder", n)))
    for W in (2, 3, 4):
        fixture_specs.append((f"skew{W}w8",
                              generate("skew", W).materialize_window(0, 8)))
    for name, p in fixture_specs:
        G = gr.build_graph(p, gr.XFULL)
        out[name] = gr.minimal_bottleneck_constant(G, 8)
    return out


def census_tables():
    S = cs.trivial_affine_gens()
    trep = cs.growth_report(S, 10)
    Sk = cs.skew_intmap_gens()
    h = cs.skew_designated_shift()
    grep = cs.genericity_report(Sk, h, 8)
    kst = cs.ball_stats(Sk, 8)
    return {
        "trivial": {
            "balls": list(trep.stats.ball),
            "free": list(trep.stats.free),
            "loglog_slope_free_ambient": round(trep.loglog_slope_free, 6),
            "loglog_slope_free_intrinsic": round(trep.loglog_slope_intrinsic, 6),
            "lambda_hat_10": round(trep.stats.lambda_hat[10], 6),
        },
        "skew": {
            "balls": list(kst.ball),
            "free": list(kst.free),
            "R": grep.R, "K": grep.K, "L": grep.L,
            "fractions": [round(f, 6) for f in grep.fractions],
        },
    }


def main():
    dx, dg = ladder_tables()
    data = {
        "ladder_d_xplus": dx,
        "ladder_d_gammaplus": dg,
        "prong_chains": prong_table(),
        "bottleneck_K_for_x": bottleneck_x_table(),
        "census": census_tables(),
    }
    out = Path(__file__).parent / "data" / "expected_values.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
