"""File formats: JSON patterns (round-trip byte-stable under canonical key
ordering), DOT graph export with stable vertex order, CSV reports."""

from __future__ import annotations

import json
from fractions import Fraction

from . import graphs as gr
from .pattern import (
    MINUS, PLUS, FinitePattern, InvalidPatternError, Leaf, Point,
    PreconditionError, Singularity,
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
    leaves = [Leaf(_field(x, "id", str, at), _field(x, "sign", str, at),
                   _strings(x, "endpoints", at))
              for at, x in _items(d, "leaves", dict)]
    sigs = [Singularity(_field(x, "plus", str, at), _field(x, "minus", str, at))
            for at, x in _items(d, "singularities", dict, default=[])]
    pts = []
    for at, x in _items(d, "points", dict, default=[]):
        pid = _field(x, "id", str, at)
        if "crossing" in x:
            pts.append(Point.crossing(
                pid, *_tuple(x["crossing"], f"{at}.crossing", str, str)))
        else:
            region = _field(x, "region", dict, at)
            pts.append(Point.region(
                pid, _field(region, "after_label", str, f"{at}.region")))
    nonsep = [_tuple(x, at, *[str] * len(x))
              for at, x in _items(d, "nonseparated", list, default=[])]
    return FinitePattern(_strings(d, "boundary"), leaves, sigs, nonsep, pts)


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
    tracks = []
    for at, x in _items(d, "tracks", list):
        name, direction = _tuple(x, at, str, int)
        if direction not in (1, -1):
            raise ParseError(f"{at}[1]: expected 1 or -1, got {direction}")
        tracks.append(Track(name, direction))
    track_names = {t.name for t in tracks}

    def families(key):
        out = []
        for at, x in _items(d, key, dict):
            name, endpoints = _field(x, "name", str, at), []
            for where, ep in _items(x, "endpoints", list, at):
                track, offset = _tuple(ep, where, str, (str, int))
                if track not in track_names:
                    raise ParseError(f"{where}[0]: unknown track {track!r}")
                try:
                    endpoints.append((track, Fraction(offset)))
                except (ValueError, ZeroDivisionError):
                    raise ParseError(
                        f"{where}[1]: not a fraction: {offset!r}") from None
            if not endpoints:
                raise ParseError(f"{at}.endpoints: expected an endpoint")
            out.append((name, tuple(endpoints)))
        return out

    plus, minus = families("plus_families"), families("minus_families")
    if len(plus) != len(minus):
        raise ParseError(f"minus_families: expected {len(plus)} families, one "
                         f"per plus family, got {len(minus)}")
    nonsep = [NonsepTemplate(*_tuple(x, at, str, str, int))
              for at, x in _items(d, "nonsep", list, default=[])]
    marker = _field(d, "scalloped", (dict, type(None)), default=None)
    if marker is not None:
        marker = ScallopedMarker(*(
            _strings(marker, key, "scalloped", {name for name, _ in fl})
            for key, fl in (("plus", plus), ("minus", minus))))
    automorphisms = {}
    for name, x in _field(d, "automorphisms", dict, default={}).items():
        at, maps = f"automorphisms.{name}", []
        for key in ("plus", "minus"):
            offsets = [y for _, y in _items(_typed(x, dict, at), key, int, at)]
            if len(offsets) != len(plus):
                raise ParseError(f"{at}.{key}: expected {len(plus)} offsets, "
                                 f"got {len(offsets)}")
            maps.append(offsets)
        automorphisms[name] = maps
    try:
        return PeriodicPattern(
            tracks, [Family(name, PLUS, eps) for name, eps in plus],
            [Family(name, MINUS, eps) for name, eps in minus], nonsep=nonsep,
            scalloped=marker, automorphisms=automorphisms, band=d.get("band"),
            name=_field(d, "name", str, default=""))
    except PreconditionError as e:  # family names, index maps that do not fit
        raise InvalidPatternError(f"invalid periodic pattern: {e}") from None


# -- shape checks: every value of a file is of the expected JSON type, and a
# -- fault names its JSON path ---------------------------------------------------

_REQUIRED = object()
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               type(None): "null"}


def _typed(x, types, at: str):
    """``x``, checked to be of one of the JSON types ``types``; exactly, so
    a boolean is not an integer."""
    types = types if isinstance(types, tuple) else (types,)
    if type(x) not in types:
        want = " or ".join(_TYPE_NAMES[t] for t in types)
        got = _TYPE_NAMES.get(type(x), type(x).__name__)
        raise ParseError(f"{at}: expected {want}, got {got}")
    return x


def _field(d: dict, key: str, types, at: str = "", default=_REQUIRED):
    """``d[key]`` of the given types; a missing key is a fault unless a
    default is given."""
    where = f"{at}.{key}" if at else key
    if key not in d:
        if default is _REQUIRED:
            raise ParseError(f"{where}: missing")
        return default
    return _typed(d[key], types, where)


def _items(d: dict, key: str, types, at: str = "", default=_REQUIRED) -> list:
    """(JSON path, item) for every item of the list ``d[key]``, each of the
    given types."""
    where = f"{at}.{key}" if at else key
    return [(f"{where}[{i}]", _typed(x, types, f"{where}[{i}]"))
            for i, x in enumerate(_field(d, key, list, at, default))]


def _strings(d: dict, key: str, at: str = "", known=None) -> tuple:
    """The list of strings ``d[key]``, each one of ``known`` when given."""
    for where, x in _items(d, key, str, at):
        if known is not None and x not in known:
            raise ParseError(f"{where}: unknown family {x!r}")
    return tuple(d[key])


def _tuple(x, at: str, *types) -> tuple:
    """A list of len(types) values, the i-th of types[i]."""
    if type(x) is not list or len(x) != len(types):
        raise ParseError(f"{at}: expected a list of {len(types)} values")
    return tuple(_typed(y, t, f"{at}[{i}]")
                 for i, (y, t) in enumerate(zip(x, types)))


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
    return finite_from_dict(d).require_valid()


def write_text(path, text: str) -> None:
    """Write a pattern, report or export file: UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_pattern(p, path):
    write_text(path, serialize(p))


# -- exports ---------------------------------------------------------------------

def export_dot(p: FinitePattern, G) -> str:
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
    return "\n".join(lines) + "\n"


CENSUS_CSV_HEADER = "n,ball,free,fraction,lambda_G,lambda_Free"


def census_csv(stats) -> str:
    lines = [CENSUS_CSV_HEADER]
    for n, ball, free, frac, lam, lamf in stats.rows():
        lines.append(f"{n},{ball},{free},{frac:.6f},{lam:.6f},{lamf:.6f}")
    return "\n".join(lines) + "\n"


def distance_matrix_csv(G) -> str:
    verts = sorted(G.vertices)
    lines = ["vertex," + ",".join(verts)]
    for u in verts:
        d = gr.distances_from(G, u)
        row = [u] + [("inf" if v not in d else str(d[v])) for v in verts]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
