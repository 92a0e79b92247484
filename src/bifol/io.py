"""File formats: JSON patterns (round-trip byte-stable under canonical key
ordering), DOT graph export with stable vertex order, CSV reports."""

from __future__ import annotations

import json
from fractions import Fraction

from .pattern import (
    FinitePattern, InvalidPatternError, Leaf, Point, PreconditionError,
    Singularity,
)
from .periodic import (
    Family, NonsepTemplate, PeriodicPattern, ScallopedMarker, Track,
)


class ParseError(PreconditionError):
    """Malformed input file; carries the byte offset when known."""

    def __init__(self, msg, offset=None):
        super().__init__(msg if offset is None else f"{msg} (byte {offset})")
        self.offset = offset


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- finite patterns -----------------------------------------------------------

def finite_to_dict(p: FinitePattern) -> dict:
    pts = []
    for pid in sorted(p.points):
        pt = p.points[pid]
        if pt.kind == "crossing":
            pts.append({"id": pid, "crossing": [pt.plus_leaf, pt.minus_leaf]})
        else:
            pts.append({"id": pid, "region": {"after_label": pt.anchor}})
    return {
        "boundary": list(p.boundary),
        "leaves": [{"id": lid, "sign": p.leaves[lid].sign,
                    "endpoints": list(p.leaves[lid].endpoints)}
                   for lid in sorted(p.leaves)],
        "singularities": [{"plus": s.plus_leaf, "minus": s.minus_leaf}
                          for s in p.singularities],
        "nonseparated": sorted(sorted(pair) for pair in p.nonseparated),
        "points": pts,
    }


def finite_from_dict(d: dict) -> FinitePattern:
    try:
        leaves = [Leaf(x["id"], x["sign"], tuple(x["endpoints"]))
                  for x in d["leaves"]]
        sigs = [Singularity(x["plus"], x["minus"])
                for x in d.get("singularities", [])]
        pts = []
        for x in d.get("points", []):
            if "crossing" in x:
                pts.append(Point.crossing(x["id"], *x["crossing"]))
            else:
                pts.append(Point.region(x["id"], x["region"]["after_label"]))
        p = FinitePattern(d["boundary"], leaves, sigs,
                          d.get("nonseparated", []), pts)
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad pattern structure: {e}") from e
    return p


# -- periodic patterns ----------------------------------------------------------

def periodic_to_dict(pp: PeriodicPattern) -> dict:
    def fams(fl):
        return [{"name": f.name,
                 "endpoints": [[t, f"{v.numerator}/{v.denominator}"]
                               for t, v in f.endpoints]}
                for f in fl]

    return {
        "period": pp.period,
        "name": pp.name,
        "tracks": [[t.name, t.direction] for t in pp.tracks],
        "plus_families": fams(pp.plus_families),
        "minus_families": fams(pp.minus_families),
        "band": pp.band,
        "nonsep": [[t.fam_a, t.fam_b, t.offset] for t in pp.nonsep],
        "scalloped": (None if pp.scalloped is None else
                      {"plus": list(pp.scalloped.plus_families),
                       "minus": list(pp.scalloped.minus_families)}),
        "automorphisms": {nm: {"plus": list(g.plus.offsets),
                               "minus": list(g.minus.offsets)}
                          for nm, g in sorted(pp.automorphisms.items())},
    }


def periodic_from_dict(d: dict) -> PeriodicPattern:
    try:
        def fams(key, sign):
            return [Family(x["name"], sign,
                           tuple((t, Fraction(v)) for t, v in x["endpoints"]))
                    for x in d[key]]

        marker = d.get("scalloped")
        pp = PeriodicPattern(
            tracks=[Track(nm, dr) for nm, dr in d["tracks"]],
            plus_families=fams("plus_families", "plus"),
            minus_families=fams("minus_families", "minus"),
            nonsep=[NonsepTemplate(a, b, o) for a, b, o in d.get("nonsep", [])],
            scalloped=(None if marker is None else
                       ScallopedMarker(tuple(marker["plus"]),
                                       tuple(marker["minus"]))),
            automorphisms={nm: (x["plus"], x["minus"])
                           for nm, x in d.get("automorphisms", {}).items()},
            band=d.get("band"),
            name=d.get("name", ""),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad periodic pattern structure: {e}") from e
    return pp


# -- top level -----------------------------------------------------------------

def serialize(p) -> str:
    if isinstance(p, FinitePattern):
        return _canonical(finite_to_dict(p))
    if isinstance(p, PeriodicPattern):
        return _canonical(periodic_to_dict(p))
    raise PreconditionError(f"cannot serialize {type(p).__name__}")


def parse_pattern_text(text: str):
    """Parse and validate a pattern; finite patterns are validated here,
    periodic ones by their constructor, on the window (0, reach)."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON: {e.msg}", offset=e.pos) from e
    if not isinstance(d, dict):
        raise ParseError("top level must be an object")
    if "period" in d:
        return periodic_from_dict(d)
    p = finite_from_dict(d)
    rep = p.validate()
    if not rep.ok:
        raise InvalidPatternError(str(rep))
    return p


def write_pattern(p, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(p))


# -- exports ---------------------------------------------------------------------

def export_dot(p: FinitePattern, G, path=None) -> str:
    """DOT text for a leaf graph; vertex order is sorted, singular leaves are
    flagged in the label."""
    lines = [f'graph "{G.kind}" {{']
    for v in sorted(G.vertices):
        sign = p.leaves[v].sign if v in p.leaves else "?"
        flag = ",singular" if v in p.leaves and p.leaves[v].is_singular else ""
        lines.append(f'  "{v}" [label="{v} ({sign}{flag})"];')
    for u, v in sorted(G.edges()):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


CENSUS_CSV_HEADER = "n,ball,free,fraction,lambda_G,lambda_Free"


def census_csv(stats) -> str:
    lines = [CENSUS_CSV_HEADER]
    for n, ball, free, frac, lam, lamf in stats.rows():
        lines.append(f"{n},{ball},{free},{frac:.6f},{lam:.6f},{lamf:.6f}")
    return "\n".join(lines) + "\n"


def distance_matrix_csv(G, distances_from) -> str:
    verts = sorted(G.vertices)
    lines = ["vertex," + ",".join(verts)]
    for u in verts:
        d = distances_from(G, u)
        row = [u] + [("inf" if v not in d else str(d[v])) for v in verts]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
