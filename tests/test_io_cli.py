import contextlib
import functools
import io
import itertools
import json
import operator
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bifol import io as bio
from bifol import graphs as gr
from bifol.cli import main
from bifol.fixtures import MANIFEST, fixture_text, load_fixture, regenerate
from bifol import cli
from bifol.pattern import (
    FinitePattern, InvalidPatternError, PreconditionError, UsageError,
)
from bifol.periodic import (
    MAX_WINDOW_LEAVES, CertificateTooWideError, PeriodicPattern, generate,
    parse_leaf_name,
)

FIXDIR = Path(__file__).parent.parent / "src" / "bifol" / "fixtures"


def test_fixture_files_match_generators():
    for name in sorted(MANIFEST):
        assert fixture_text(name) == bio.serialize(regenerate(name)), name


def test_round_trip_every_fixture():
    for name in sorted(MANIFEST):
        text = fixture_text(name)
        p = bio.parse_pattern_text(text)
        assert bio.serialize(p) == text, name


def test_grid3_loads(grid3):
    p = load_fixture("grid3")
    assert isinstance(p, FinitePattern)
    assert sorted(p.leaves) == sorted(grid3.leaves)


def test_parse_error_offset(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"boundary": [', encoding="utf-8")
    with pytest.raises(bio.ParseError) as err:
        bio.parse_pattern_text(bad.read_text(encoding="utf-8"))
    assert "byte" in str(err.value)


def test_parse_validates():
    text = json.dumps({
        "boundary": ["a", "b", "c", "d"],
        "leaves": [{"id": "p1", "sign": "plus", "endpoints": ["a", "c"]},
                   {"id": "p2", "sign": "plus", "endpoints": ["b", "d"]}],
        "singularities": [], "nonseparated": [], "points": [],
    })
    with pytest.raises(InvalidPatternError):
        bio.parse_pattern_text(text)


# plus families p and q cross at block distance 3 only: p3 x q0
CROSSING_AT_THREE = {
    "period": 2, "name": "crossing_at_three",
    "tracks": [["bot", 1], ["top", -1]],
    "plus_families": [
        {"name": "p", "endpoints": [["bot", "0"], ["top", "0"]]},
        {"name": "q", "endpoints": [["bot", "7/2"], ["top", "5/2"]]}],
    "minus_families": [
        {"name": "m", "endpoints": [["bot", "1/4"], ["bot", "1/3"]]},
        {"name": "n", "endpoints": [["bot", "2/3"], ["bot", "4/5"]]}],
    "nonsep": [], "automorphisms": {},
}


def test_periodic_crossing_past_the_sample_window_rejected(tmp_path, capsys):
    text = json.dumps(CROSSING_AT_THREE)
    with pytest.raises(InvalidPatternError, match="same-sign crossing: p3, q0"):
        bio.parse_pattern_text(text)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--in", str(path)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["valid"] is False


def test_periodic_shared_position_is_invalid_data(tmp_path, capsys):
    # the plus family on bot 0 / bot 1: p0 and p1 share the position bot 1;
    # on top 3/2 twice, each leaf meets itself
    d = json.loads(fixture_text("skew2"))
    path = tmp_path / "bad.json"
    for eps, found in (([["bot", "0/1"], ["bot", "1/1"]],
                        "same-sign leaves share an endpoint: p0, p1"),
                       ([["top", "3/2"], ["top", "3/2"]],
                        "leaf endpoints not distinct: p0")):
        d["plus_families"][0]["endpoints"] = eps
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["validate", "--in", str(path)]) == 2
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["valid"] is False
        assert found in rep["results"]["violations"].split("\n")


PERIODIC_FIXTURES = [name for name in sorted(MANIFEST)
                     if "period" in json.loads(fixture_text(name))]


def _slot_collisions(doc):
    """Oracle from the template offsets alone: per sign, the pairs of
    endpoint slots on one track whose offsets differ by an integer d, as
    (family, family, d).  Such slots meet at block distance d, and
    |d| <= span < reach, so they meet in the certificate window."""
    found = []
    for key in ("plus_families", "minus_families"):
        slots = [(f["name"], tr, Fraction(off)) for f in doc[key]
                 for tr, off in f["endpoints"]]
        for (fa, ta, oa), (fb, tb, ob) in itertools.combinations(slots, 2):
            if ta == tb and (oa - ob).denominator == 1:
                found.append((fa, fb, oa - ob))
    return found


def _moved_slots(doc):
    """Copies of a periodic file, one per ordered pair of distinct endpoint
    slots of one sign on one track, with the first slot's offset moved to
    the second's plus -1, 0 or +1 block."""
    for key in ("plus_families", "minus_families"):
        slots = [(i, j) for i, f in enumerate(doc[key])
                 for j in range(len(f["endpoints"]))]
        for (i, j), (k, m) in itertools.permutations(slots, 2):
            track, off = doc[key][k]["endpoints"][m]
            if doc[key][i]["endpoints"][j][0] != track:
                continue
            for block in (-1, 0, 1):
                moved = json.loads(json.dumps(doc))
                moved[key][i]["endpoints"][j][1] = str(Fraction(off) + block)
                yield moved


def test_colliding_translates_are_refused_by_leaf_name(tmp_path, capsys):
    path, files = tmp_path / "moved.json", 0
    for name in PERIODIC_FIXTURES:
        for doc in _moved_slots(json.loads(fixture_text(name))):
            files += 1
            found = _slot_collisions(doc)
            loops = {fa for fa, fb, d in found if fa == fb and d == 0}
            with pytest.raises(InvalidPatternError) as e:
                bio.parse_pattern_text(json.dumps(doc))
            named = {"same-sign leaves share an endpoint": set(),
                     "leaf endpoints not distinct": set()}
            for line in str(e.value).splitlines():
                rule, _, leaves = line.partition(": ")
                if rule in named:
                    named[rule].add(frozenset(parse_leaf_name(lf)[0]
                                              for lf in leaves.split(", ")))
            # validate stops at a leaf that meets itself, before any pair
            if loops:
                assert named["leaf endpoints not distinct"] == {
                    frozenset([f]) for f in loops}, (name, doc)
            else:
                assert named["same-sign leaves share an endpoint"] == {
                    frozenset([fa, fb]) for fa, fb, _ in found}, (name, doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["validate", "--in", str(path)]) == 2
            assert json.loads(capsys.readouterr().out)["results"]["valid"] is False
    # ladder_periodic has 28 such slot pairs and scalloped 16; the skew
    # patterns and trivial_periodic have one endpoint per sign and track
    assert files == 3 * (28 + 16)


def test_periodic_certificate_past_the_leaf_limit(tmp_path, capsys):
    # skew2 has period 1: a top offset of 1e6 asks for a certificate window
    # of about two million leaves; it is refused before any window is built
    d = json.loads(fixture_text("skew2"))
    d["plus_families"][0]["endpoints"][1][1] = "1e6"
    with pytest.raises(InvalidPatternError, match="certificate window"):
        bio.parse_pattern_text(json.dumps(d))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    assert main(["validate", "--in", str(path)]) == 2
    violations = json.loads(capsys.readouterr().out)["results"]["violations"]
    assert violations.startswith(f"{path}: certificate window (0, 1000001) "
                                 f"would hold 2000004 leaves, more than 4096")
    assert main(["classify", "--pattern", str(path), "--element", "s"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err, err
    # the widest window under the limit is accepted: reach 2047, 4096
    # leaves; the automorphism s would compare 4099 leaf pairs, so it goes
    d["plus_families"][0]["endpoints"][1][1] = "2046"
    with pytest.raises(CertificateTooWideError, match="automorphism 's'"):
        bio.parse_pattern_text(json.dumps(d))
    d["automorphisms"] = {}
    assert bio.parse_pattern_text(json.dumps(d)).reach() == 2047


def test_automorphism_offsets_past_the_leaf_limit(tmp_path, capsys):
    # offsets of 1e9 would ask the template check for about two billion
    # pairs; the map is refused before any pair is compared
    d = json.loads(fixture_text("skew2"))
    d["automorphisms"]["s"] = {"plus": [10 ** 9], "minus": [10 ** 9]}
    with pytest.raises(CertificateTooWideError,
                       match="automorphism 's': its template check would "
                             "compare 2000000009 leaf pairs, more than 4096"):
        bio.parse_pattern_text(json.dumps(d))
    path = tmp_path / "far.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    assert main(["validate", "--in", str(path)]) == 2
    violations = json.loads(capsys.readouterr().out)["results"]["violations"]
    assert violations.startswith(f"{path}: automorphism 's'"), violations
    # the widest shipped check, scalloped's s, is far under the limit
    g = load_fixture("scalloped").automorphisms["s"]
    assert (2 * g._reach() + 1) * g.pattern.period == 324


def _validate_file(path):
    """(exit code, stdout, stderr) of ``validate --in path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--in", str(path)])
    return code, out.getvalue(), err.getvalue()


def _set(value):
    return lambda parent, key: parent.__setitem__(key, value)


def _delete(parent, key):
    del parent[key]


def _update(**fields):
    return lambda parent, key: parent[key].update(fields)


def _edited_fixture(name, at, edit, tmp_path):
    """A copy of a shipped fixture with ``edit(parent, key)`` applied at the
    JSON path ``at``; the empty path edits the top level."""
    doc, at = [json.loads(fixture_text(name))], (0, *at)
    edit(functools.reduce(operator.getitem, at[:-1], doc), at[-1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc[0]), encoding="utf-8")
    return path


@pytest.mark.parametrize("name, at, edit, message", [
    ("prong3", ("leaves", 0, "endpoints", 0), _set({"a": 1}),
     "leaves[0].endpoints[0]: expected a string, got an object"),
    ("skew2", ("plus_families", 0, "name"), _set(["p"]),
     "plus_families[0].name: expected a string, got a list"),
    ("skew2", ("plus_families", 0, "endpoints", 0, 1), _set("1/0"),
     "plus_families[0].endpoints[0][1]: not a fraction: '1/0'"),
    ("skew2", ("minus_families", 0, "endpoints", 1, 0), _set("nope"),
     "minus_families[0].endpoints[1][0]: unknown track 'nope'"),
    ("scalloped", ("automorphisms", "swap", "minus", 3), _delete,
     "automorphisms.swap.minus: expected 4 offsets, got 3"),
    ("ladder_periodic", ("tracks", 1, 1), _set(True),
     "tracks[1][1]: expected an integer, got a boolean"),
    ("ladder_periodic", ("tracks", 1, 1), _set(2),
     "tracks[1][1]: expected 1 or -1, got 2"),
    ("skew2", ("plus_families", 0, "endpoints"), _set([]),
     "plus_families[0].endpoints: expected an endpoint"),
    ("skew2", ("minus_families", 0), _delete,
     "minus_families: expected 1 families, one per plus family, got 0"),
    ("scalloped", ("scalloped", "plus", 0), _set("zz"),
     "scalloped.plus[0]: unknown family 'zz'"),
    ("skew2", (), _set([1]), "top level must be an object"),
], ids=["endpoint-object", "name-list", "offset-1/0", "unknown-track",
        "short-map", "direction-bool", "direction-2", "no-endpoints",
        "family-counts", "marker-family", "top-level-list"])
def test_cli_malformed_file_is_a_parse_error(name, at, edit, message, tmp_path):
    path = _edited_fixture(name, at, edit, tmp_path)
    assert _validate_file(path) == (2, "", f"parse error: {path}: {message}\n")


@pytest.mark.parametrize("name, at, edit, violations", [
    ("prong3", ("singularities", 0, "plus"), _set("zz"),
     "singularity names unknown leaf: zz\n"
     "singular leaf lacks singularity record: sm\n"
     "singular leaf lacks singularity record: sp\n"
     "forced multiple crossing: sm, sp"),
    ("prong3", ("singularities", 0, "plus"), _set("sm"),
     "singularity leaf has wrong sign: sm\n"
     "singular leaf lacks singularity record: sp\n"
     "leaf in several singularity records: sm\n"
     "forced multiple crossing: sm, sp"),
    ("prong3", ("singularities", 0), _delete,
     "singular leaf lacks singularity record: sm\n"
     "singular leaf lacks singularity record: sp\n"
     "forced multiple crossing: sm, sp"),
    ("prong3", ("singularities",), _set([{"plus": "sp", "minus": "sm"}] * 2),
     "leaf in several singularity records: sp\n"
     "leaf in several singularity records: sm"),
    ("grid3", ("nonseparated",), _set([["v0", "h0"]]),
     "nonseparated pair has mixed signs: h0, v0"),
    ("grid3", ("points", 0, "crossing"), _set(["h0", "v0"]),
     "crossing point signs wrong: x00"),
    ("grid3", ("points", 0), _set({"id": "x00", "region": {"after_label": "zz"}}),
     "region point anchor not on boundary: x00"),
    ("skew2", ("minus_families", 0, "name"), _set("p"),
     "invalid periodic pattern: family names must be unique"),
    # without the automorphisms, whose offset counts are checked first
    ("skew2", (), _update(plus_families=[], minus_families=[], automorphisms={}),
     "invalid periodic pattern: period must be >= 1"),
], ids=["singularity-unknown-leaf", "singularity-wrong-sign",
        "singular-without-record", "several-records", "nonsep-mixed-signs",
        "crossing-point-signs", "region-anchor-unknown", "repeated-family",
        "no-families"])
def test_cli_invalid_file_is_reported(name, at, edit, violations, tmp_path):
    code, out, err = _validate_file(_edited_fixture(name, at, edit, tmp_path))
    assert (code, err) == (2, "")
    assert json.loads(out)["results"] == {"valid": False,
                                          "violations": violations}


def test_round_trip_region_point():
    d = json.loads(fixture_text("grid3"))
    # points are written sorted by id: r before x00
    d["points"].insert(0, {"id": "r", "region": {"after_label": d["boundary"][0]}})
    text = bio._canonical(d)
    p = bio.parse_pattern_text(text)
    assert p.points["r"].kind == "region"
    assert bio.serialize(p) == text


def _json_paths(x, at=()):
    """The path of every value inside a JSON document."""
    items = (x.items() if isinstance(x, dict) else
             enumerate(x) if isinstance(x, list) else ())
    for key, value in items:
        yield at + (key,)
        yield from _json_paths(value, at + (key,))


_WRONG_TYPED = (None, True, 7, 0.5, "x", ["x"], {"a": 1})


def test_cli_mutated_fixtures_exit_cleanly(tmp_path):
    """One edit to a shipped fixture (a key or list entry deleted, or a value
    swapped for one of another JSON type): validate exits 0, 1 or 2, with
    one line on stderr or an invalid report, and nothing escapes main."""
    path = tmp_path / "mutated.json"
    texts = {name: fixture_text(name) for name in MANIFEST}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def run(data):
        d = json.loads(texts[data.draw(st.sampled_from(sorted(texts)))])
        at = data.draw(st.sampled_from(list(_json_paths(d))))
        parent = functools.reduce(operator.getitem, at[:-1], d)
        old = parent[at[-1]]
        edit = data.draw(st.sampled_from(
            [_delete] + [_set(v) for v in _WRONG_TYPED if type(v) is not type(old)]))
        edit(parent, at[-1])
        path.write_text(json.dumps(d), encoding="utf-8")
        code, out, err = _validate_file(path)
        assert code in (0, 1, 2), (at, code, err)
        if code == 0 or err:
            assert err.count("\n") == (code != 0), (at, err)
        else:
            assert code == 2 and json.loads(out)["results"]["valid"] is False

    run()


@pytest.mark.parametrize("fam_a, fam_b", [("zz", "w"), ("u", "zz")])
def test_cli_validate_nonsep_unknown_family(fam_a, fam_b, tmp_path, capsys):
    d = json.loads(fixture_text("ladder_periodic"))
    d["nonsep"] = [[fam_a, fam_b, 0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    assert main(["validate", "--in", str(path)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["valid"] is False
    assert "nonseparated pair names unknown leaf" in rep["results"]["violations"]


def test_cli_validate_unknown_sign_names_the_leaf(tmp_path):
    # a Leaf is built unchecked; validate reports the sign, before any
    # relation is derived
    d = json.loads(fixture_text("loz1"))
    d["leaves"][1]["sign"] = "neutral"
    leaf = d["leaves"][1]["id"]
    path = tmp_path / "neutral.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = _validate_file(path)
    assert (code, err) == (2, "")
    assert json.loads(out)["results"]["violations"] == (
        f"leaf sign not plus or minus: {leaf}, neutral")
    p = bio.finite_from_dict(d)
    assert [str(v) for v in p.validate().violations] == [
        f"leaf sign not plus or minus: {leaf}, neutral"]


def test_cli_validate_family_name_not_alphabetic(tmp_path):
    d = json.loads(fixture_text("skew2"))
    d["plus_families"][0]["name"] = "p1"
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, out, err = _validate_file(path)
    assert (code, err) == (2, "")
    assert json.loads(out)["results"]["violations"] == (
        "invalid periodic pattern: family names must be alphabetic")


def test_dot_export(grid3, tmp_path):
    G = gr.build_graph(grid3, gr.XPLUS)
    text = bio.export_dot(grid3, G)
    assert text.count("--") == 3  # complete graph on three vertices
    assert text.count('[label=') == 3


def test_ladder_gamma_dot_count():
    p = generate("ladder", 3)
    G = gr.build_graph(p, gr.GAMMAPLUS)
    text = bio.export_dot(p, G)
    assert text.count("[label=") == len(p.leaf_ids("plus"))


def test_census_csv_header():
    from bifol import census as cs

    st = cs.ball_stats(cs.skew_intmap_gens(), 3)
    text = bio.census_csv(st)
    assert text.splitlines()[0] == "n,ball,free,fraction,lambda_G,lambda_Free"


# -- CLI ------------------------------------------------------------------------

def _fx(name):
    return str(FIXDIR / f"{name}.json")


def test_cli_validate_ok(capsys):
    assert main(["validate", "--in", _fx("grid3")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["valid"] is True


def test_cli_validate_corrupted(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "boundary": ["a", "b", "c", "d"],
        "leaves": [{"id": "p1", "sign": "plus", "endpoints": ["a", "c"]},
                   {"id": "p2", "sign": "plus", "endpoints": ["b", "d"]}],
    }), encoding="utf-8")
    assert main(["validate", "--in", str(bad)]) == 2


def test_cli_bottleneck_all_kinds(capsys):
    assert main(["bottleneck", "--in", _fx("grid3"), "--K", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"]["bottleneck-k3"] is True


def test_cli_census_budget(capsys, monkeypatch):
    monkeypatch.delenv("BIFOL_BUDGET_MS", raising=False)
    assert main(["census", "--model", "trivial", "--nmax", "99"]) == 4
    assert capsys.readouterr().err == ("budget exceeded: radius 15: projected "
                                       "2446421 elements exceeds budget 2000000\n")


def test_cli_census_budget_counts_packed_words(tmp_path, capsys, monkeypatch):
    # a cyclic set: the ball grows linearly, but its packs widen by about 1.4
    # bits per radius, so a budget of elements alone ran for about an hour
    monkeypatch.delenv("BIFOL_BUDGET_MS", raising=False)
    gens = tmp_path / "cyclic.json"
    gens.write_text('{"g": {"k": 1, "v": [1, 0]}}', encoding="utf-8")

    def late(signum, frame):
        pytest.fail("the census ran for more than a second")

    old = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = main(["census", "--model", "trivial", "--gens", str(gens),
                     "--nmax", "1000000"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 4
    assert capsys.readouterr().err == ("budget exceeded: radius 5617: projected "
                                       "2000186 elements exceeds budget 2000000\n")


def test_cli_census_budget_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("BIFOL_BUDGET_MS", "1")
    assert main(["census", "--model", "trivial", "--nmax", "99"]) == 4
    assert capsys.readouterr().err == ("budget exceeded: radius 4: projected "
                                       "523 elements exceeds budget 500\n")


@pytest.mark.parametrize("ms", ["0", "-5"])
def test_cli_census_budget_clamps_to_one_ms(ms, capsys, monkeypatch):
    monkeypatch.setenv("BIFOL_BUDGET_MS", ms)
    assert main(["census", "--model", "trivial", "--nmax", "99"]) == 4
    assert capsys.readouterr().err == ("budget exceeded: radius 4: projected "
                                       "523 elements exceeds budget 500\n")


@pytest.mark.parametrize("ms", ["abc", "1e3"])
def test_cli_census_budget_that_is_not_an_integer(ms, capsys, monkeypatch):
    monkeypatch.setenv("BIFOL_BUDGET_MS", ms)
    assert main(["census", "--model", "trivial", "--nmax", "3"]) == 1
    assert capsys.readouterr().err == (
        f"usage error: BIFOL_BUDGET_MS {ms!r}: wants an integer number of "
        f"milliseconds\n")


@pytest.mark.parametrize("model, text, named", [
    ("trivial", '{"A": {"k": 1}}', "generator 'A'"),
    ("trivial", '{"A": {"k": 1.5, "v": [0, 0]}}', "generator 'A'"),
    ("trivial", '{"A": {"k": 1, "v": [0, 0, 1]}}', "generator 'A'"),
    ("trivial", '{"e": {"k": 0, "v": [0, 0]}}', "generator 'e'"),
    ("skew", '{"s": [1, 1], "f": "x"}', "generator 'f'"),
    ("skew", '[[1, 1]]', "named generators"),
    ("skew", '{"s": [1, 0]}', "generator 's'"),
    ("skew", '{"s": [1, 1], "t": [1, 1, 1]}', "generator 't': period mismatch"),
    ("skew", '{}', "empty generating set"),
    ("skew", '{"e": [0, 0]}', "generator 'e'"),
    ("skew", '{"s": [1,', "line 1"),
    ("trivial", '{"t": {"k": 0, "v": [1, 0]}, "B": {"k": 200000, "v": [1, 0]}}',
     "generator 'B': matrix exponent 200000 exceeds 100"),
    ("trivial", '{"B": {"k": -101, "v": [0, 0]}}', "generator 'B'"),
], ids=["missing-v", "float-k", "long-v", "affine-identity", "string-offsets",
        "top-level-list", "not-a-permutation", "mixed-period", "empty",
        "identity", "bad-json", "large-exponent", "exponent-past-limit"])
def test_cli_census_malformed_gens_is_a_usage_error(model, text, named,
                                                    tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(text, encoding="utf-8")
    assert main(["census", "--model", model, "--nmax", "4",
                 "--gens", str(gens)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(gens) in err and named in err, err


def test_cli_gen_and_graph(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["gen", "--kind", "chain", "--params", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    dot = tmp_path / "g.dot"
    assert main(["graph", "--kind", "x", "--in", str(out),
                 "--dot", str(dot)]) == 0
    assert dot.exists()


def test_cli_dist(capsys):
    assert main(["dist", "--kind", "xplus", "--in", _fx("grid3"),
                 "--from", "v0", "--to", "v2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["distance"] == 1


def test_cli_metric(capsys):
    assert main(["metric", "--in", _fx("grid3"), "--kind", "d+",
                 "--points", "x00,x22"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["distance"] == 2


def test_cli_lozenges(capsys):
    assert main(["lozenges", "--in", _fx("chain3")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["results"]["lozenges"]) == 3


def test_cli_classify_loxodromic(capsys):
    assert main(["classify", "--pattern", _fx("ladder_periodic"),
                 "--element", "s", "--window", "6", "--nmax", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["verdict"] == "loxodromic"


@pytest.mark.parametrize("nmax", [0, 1])
def test_cli_classify_nmax_below_two_names_nmax(nmax, capsys):
    # a loxodromic element: no certificate needs a window, and a bracket
    # needs two displacements whatever the window
    assert main(["classify", "--pattern", _fx("ladder_periodic"),
                 "--element", "s", "--nmax", str(nmax)]) == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == {
        "element": "s", "verdict": "inconclusive",
        "reason": f"nmax {nmax} is below 2: a displacement bracket needs at "
                  f"least two displacements"}


def test_cli_classify_window_too_small_for_a_bracket(capsys):
    # a loxodromic element whose window (-1, 1) holds one displacement
    assert main(["classify", "--pattern", _fx("ladder_periodic"),
                 "--element", "s", "--window", "1"]) == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"] == {
        "element": "s", "verdict": "inconclusive",
        "reason": "window too small for a displacement bracket"}


def test_cli_wpd(capsys):
    assert main(["wpd", "--pattern", _fx("ladder_periodic"), "--g", "s",
                 "--ball", "3", "--eps", "1", "--n", "4",
                 "--window", "6"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["witnesses"] == ["id"]


@pytest.mark.parametrize("name", ["skew3", "skew4"])
def test_cli_wpd_small_n(name, capsys):
    # a short axis segment does not cut the classification short
    assert main(["wpd", "--pattern", _fx(name), "--g", "s", "--n", "4",
                 "--window", "6"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["witnesses"] == ["id"]


def test_cli_wpd_checks_blocks_on_the_axis(capsys, monkeypatch):
    from bifol import dynamics as dy
    seen, scan = [], dy.wpd_scan

    def spy(*args, **kw):
        seen.append(kw.get("axis_data"))
        return scan(*args, **kw)
    monkeypatch.setattr(dy, "wpd_scan", spy)
    assert main(["wpd", "--pattern", _fx("ladder_periodic"), "--g", "s",
                 "--ball", "3", "--eps", "1", "--n", "4",
                 "--window", "6"]) == 0
    assert len(seen) == 1 and isinstance(seen[0], dy.AxisData)
    # one block per period: the block constraint is evaluated
    assert seen[0].window == (-6, 6) and seen[0].period_blocks == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["block_constraint_ok"] is True


@pytest.mark.parametrize("name, checked", [("skew2", False),
                                           ("ladder_periodic", True)])
def test_cli_wpd_says_whether_the_block_check_ran(name, checked, capsys):
    # the axis of s on skew2 is one block: there is no period to check
    assert main(["wpd", "--pattern", _fx(name), "--g", "s", "--n", "4",
                 "--window", "6"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["block_checked"] is checked
    assert results["block_constraint_ok"] is True


@pytest.mark.parametrize("argv, named", [
    (["classify", "--pattern", _fx("skew2"), "--element", "nope"], "nope"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "nope"], "nope"),
    (["metric", "--in", _fx("grid3"), "--kind", "d+", "--points", "x00"],
     "--points"),
    (["census", "--model", "skew", "--nmax", "4", "--h", "3,x"], "--h"),
    (["dist", "--kind", "xplus", "--in", _fx("ladder8"), "--from", "zz",
      "--to", "r1"], "zz"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--base", "zz9"], "zz9"),
    (["gen", "--kind", "lozenge", "--params", "3", "--out", "x.json"],
     "lozenge"),
    (["gen", "--kind", "chain", "--params", "x", "--out", "x.json"], "chain"),
    (["gen", "--kind", "nope", "--out", "x.json"], "nope"),
    (["gen", "--kind", "scalloped", "--params", "2", "--out", "x.json"],
     "scalloped"),
    (["census", "--model", "skew", "--nmax", "4", "--h", "1,0"], "--h"),
    (["census", "--model", "skew", "--nmax", "4", "--h", "4,4,4"], "--h"),
    (["census", "--model", "trivial", "--nmax", "4", "--h", "3,3"], "--h"),
    (["classify", "--pattern", _fx("skew2"), "--element", "s", "--window", "0"],
     "window (0, 0)"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--window", "0"],
     "window (0, 0)"),
    (["graph", "--kind", "xplus", "--in", _fx("skew2"), "--window", "3", "1"],
     "window (3, 1)"),
    (["lozenges", "--in", _fx("skew2"), "--window", "5", "5"], "window (5, 5)"),
    (["census", "--model", "skew", "--nmax", "-1"], "radius"),
    (["gen", "--kind", "ladder", "--params", "0", "--out", "x.json"], "ladder"),
    # dist widens a periodic window to hold (-2, 2), after checking it
    (["dist", "--kind", "xplus", "--in", _fx("skew2"), "--from", "p0", "--to",
      "p1", "--window", "3", "1"], "window (3, 1)"),
    (["dist", "--kind", "xplus", "--in", _fx("skew2"), "--from", "p0", "--to",
      "p1", "--window", "5", "5"], "window (5, 5)"),
    # a name whose index is not an integer (it raised ValueError)
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--base", "p-"], "'p-'"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--base", "p1-2"], "p1-2"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--base", "zz"],
     "usage error: not a periodic leaf name: 'zz'"),
    (["dist", "--kind", "xplus", "--in", _fx("ladder8"), "--from", "r1",
      "--to", "zz"], "usage error: vertex 'zz' not in graph"),
    (["metric", "--in", _fx("grid3"), "--kind", "d+", "--points", "x00,zz"],
     "usage error: unknown point 'zz'"),
    (["classify", "--pattern", _fx("scalloped"), "--element", "zz"],
     "usage error: unknown element 'zz'"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--base", "q0"],
     "usage error: unknown leaf 'q0': no family 'q'"),
    # the least refused trivial size: 129 * 129 marked points, past
    # MAX_WINDOW_LEAVES; refused before any record is built
    (["gen", "--kind", "trivial", "--params", "129", "--out", "x.json"],
     "usage error: trivial(129) would hold 16641 leaves or marked points"),
    # a --base outside the scan window, refused before the axis is built
    (["wpd", "--pattern", _fx("ladder_periodic"), "--g", "s", "--base",
      "u100"], "usage error: --base u100 lies outside the window (-8, 8)"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--base", "p-4",
      "--window", "3"], "usage error: --base p-4 lies outside the window "
                        "(-3, 3)"),
    # an oversize window is named as given, not as widened to (-2, 9000)
    (["dist", "--kind", "xplus", "--in", _fx("ladder_periodic"), "--from",
      "u0", "--to", "w0", "--window", "0", "9000"],
     "usage error: window (0, 9000) would hold 54006 leaves, more than 16384"),
])
def test_cli_malformed_input_is_a_usage_error(argv, named, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err, err


@pytest.mark.parametrize("argv, window, leaves", [
    # scalloped has 8 leaves per block, so (-1024, 1023) is the widest
    (["graph", "--kind", "xplus", "--in", _fx("scalloped"), "--window",
      "-1024", "1024"], "(-1024, 1024)", 2049 * 8),
    # refused before the window is built; the doubled windows of classify,
    # wpd and dist are checked in the same place
    (["classify", "--pattern", _fx("ladder_periodic"), "--element", "s",
      "--window", "1500"], "(-1500, 1500)", 3001 * 6),
])
def test_cli_window_past_the_leaf_limit_is_a_usage_error(argv, window, leaves,
                                                         capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"usage error: window {window} would hold {leaves} leaves, more than "
        f"{MAX_WINDOW_LEAVES}\n")


def test_cli_dist_refuses_a_doubled_window_before_building_any(capsys,
                                                               monkeypatch):
    # (-700, 700) holds 8406 leaves, (-1400, 1400) 16806: past the limit;
    # the only window built is the certificate, when the file is read
    built, materialize = [], PeriodicPattern.materialize_window
    reach = load_fixture("ladder_periodic").reach()

    def spy(self, lo, hi):
        built.append((lo, hi))
        return materialize(self, lo, hi)

    monkeypatch.setattr(PeriodicPattern, "materialize_window", spy)
    assert main(["dist", "--kind", "xplus", "--in", _fx("ladder_periodic"),
                 "--from", "u0", "--to", "u3", "--window", "-700", "700"]) == 1
    assert capsys.readouterr().err == (
        f"usage error: window (-1400, 1400) would hold 16806 leaves, more than "
        f"{MAX_WINDOW_LEAVES}\n")
    assert built == [(0, reach)]


def test_cli_wpd_refuses_a_doubled_window_before_building_any(capsys,
                                                              monkeypatch):
    # (-700, 700) holds 8406 leaves, (-1400, 1400) 16806: past the limit;
    # not even the axis window is built, only the certificate
    built, materialize = [], PeriodicPattern.materialize_window
    reach = load_fixture("ladder_periodic").reach()

    def spy(self, lo, hi):
        built.append((lo, hi))
        return materialize(self, lo, hi)

    monkeypatch.setattr(PeriodicPattern, "materialize_window", spy)
    assert main(["wpd", "--pattern", _fx("ladder_periodic"), "--g", "s",
                 "--window", "700"]) == 1
    assert capsys.readouterr().err == (
        f"usage error: window (-1400, 1400) would hold 16806 leaves, more than "
        f"{MAX_WINDOW_LEAVES}\n")
    assert built == [(0, reach)]


def test_cli_wpd_refuses_an_outside_base_before_building_the_axis(
        capsys, monkeypatch):
    from bifol import dynamics as dy
    monkeypatch.setattr(dy, "axis", lambda *args: pytest.fail("axis built"))
    assert main(["wpd", "--pattern", _fx("ladder_periodic"), "--g", "s",
                 "--base", "w9"]) == 1
    assert capsys.readouterr().err == (
        "usage error: --base w9 lies outside the window (-8, 8)\n")
    # the window's end blocks are inside
    monkeypatch.undo()
    assert main(["wpd", "--pattern", _fx("ladder_periodic"), "--g", "s",
                 "--base", "w8", "--n", "1", "--ball", "1"]) == 0


def test_cli_wpd_refuses_a_minus_base_before_any_window(capsys, monkeypatch):
    from bifol import dynamics as dy
    monkeypatch.setattr(dy, "axis", lambda *args: pytest.fail("axis built"))
    # --window 0 is refused by check_window: the sign is read before it
    for extra in ([], ["--window", "0"]):
        assert main(["wpd", "--pattern", _fx("ladder_periodic"), "--g", "s",
                     "--base", "al0"] + extra) == 1
        assert capsys.readouterr().err == (
            "usage error: --base al0 is a minus leaf; the WPD scan needs a "
            "plus leaf\n")


@pytest.mark.parametrize("flag, argv", [
    ("--ball", ["wpd", "--pattern", _fx("skew2"), "--g", "s"]),
    ("--n", ["wpd", "--pattern", _fx("skew2"), "--g", "s"]),
    ("--K", ["bottleneck", "--in", _fx("grid3")]),
    ("--nmax", ["classify", "--pattern", _fx("skew2"), "--element", "s"]),
])
def test_cli_negative_count_is_a_usage_error(flag, argv, capsys):
    assert main(argv + [flag, "-1"]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f": error: argument {flag}: must be >= 0, not -1\n"), err


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf", "1e400"])
def test_cli_wpd_eps_must_be_positive_and_finite(eps, capsys):
    # NaN and infinity would reach the report as NaN and Infinity, not JSON
    argv = ["wpd", "--pattern", _fx("skew2"), "--g", "s", "--eps", eps]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith(": error: argument --eps: must be positive and "
                        f"finite, not {eps}\n"), err


def test_cli_parser_built_once_parses_each_call_afresh(tmp_path, capsys):
    # the parser is cached: options set by one call must not leak into the
    # next, whose report must match one from a fresh parser
    cli.build_parser.cache_clear()
    first = ["--report", str(tmp_path / "first.json"), "graph", "--kind",
             "xplus", "--in", _fx("skew2"), "--window", "-3", "3"]
    second = ["graph", "--kind", "xplus", "--in", _fx("skew2")]
    assert main(first) == 0 and main(second) == 0
    cached = capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    assert main(second) == 0
    assert capsys.readouterr().out == cached
    assert json.loads(cached)["env"]["windows"] == [0, 6]


def test_generate_checks_kind_and_arity_before_building():
    with pytest.raises(UsageError, match="'nope'"):
        generate("nope")
    with pytest.raises(UsageError, match="lozenge takes at most 0 argument"):
        generate("lozenge", 3)
    with pytest.raises(UsageError, match="chain takes at most 1 argument"):
        generate("chain", 2, 3)
    assert issubclass(UsageError, PreconditionError)


def test_cli_os_error_without_a_file_is_not_a_usage_error(monkeypatch):
    def closed_pipe(args, rep):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(cli, "_emit", closed_pipe)
    with pytest.raises(BrokenPipeError):
        main(["validate", "--in", _fx("grid3")])


def test_cli_census_shift_outside_the_ball_fails_the_check(capsys):
    assert main(["census", "--model", "skew", "--nmax", "4", "--h", "9,9"]) == 3


@pytest.mark.parametrize("argv", [
    ["validate", "--in", "{missing}"],
    ["graph", "--kind", "x", "--in", "{dir}"],
    ["classify", "--pattern", "{missing}", "--element", "s"],
    ["gen", "--kind", "chain", "--out", "{missing}/x.json"],
    ["--report", "{missing}/r.json", "validate", "--in", _fx("grid3")],
    ["graph", "--kind", "x", "--in", _fx("grid3"), "--csv", "{dir}"],
    ["export", "--in", _fx("grid3"), "--dot", "{missing}/g.dot"],
    ["metric", "--in", _fx("grid3"), "--kind", "d+", "--all-pairs", "{dir}"],
], ids=["in-missing", "in-directory", "pattern-missing", "out", "report",
        "csv", "dot", "all-pairs"])
def test_cli_file_error_is_a_usage_error(argv, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "nope"), "dir": str(tmp_path)}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    named = next(a for a in argv if a.startswith(str(tmp_path)))
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert named in err, err


@pytest.mark.parametrize("argv", [
    ["validate", "--in", "{bad}"],
    ["graph", "--kind", "xplus", "--in", "{bad}"],
], ids=["validate", "graph"])
def test_cli_non_utf8_input_is_a_parse_error(argv, tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main([a.format(bad=bad) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: {bad}: not UTF-8 text (invalid start byte) " \
                  "(byte 0)\n", err


def _req(flag, values):
    return st.sampled_from(values).map(lambda v: (flag, v))


def _opt(flag, values):
    return st.one_of(st.just(()), _req(flag, values))


def _argv(verb, *parts):
    return st.tuples(*parts).map(lambda ps: [verb] + [a for p in ps for a in p])


_FILES = ("grid3.json", "skew2.json", "ladder_periodic.json", "{missing}",
          "{dir}")
_OUTS = ("{tmp}/out", "{missing}/out", "{dir}")
_IDS = ("v0", "x00", "x22", "p0", "m1", "s", "zz", "-1")
_INTS = ("-2", "-1", "0", "1", "2", "3", "x", "1.5")
_WINDOW = st.one_of(st.just(()), st.tuples(st.just("--window"),
                                           st.sampled_from(_INTS),
                                           st.sampled_from(_INTS)))
_GRAPH_KINDS = ("xplus", "gammaminus", "nope")

_MALFORMED = st.one_of(
    _argv("gen", _req("--kind", ("chain", "lozenge", "skew", "scalloped",
                                 "nope")),
          st.lists(st.sampled_from(_INTS), max_size=2).map(
              lambda ps: ("--params", *ps)),
          _req("--out", _OUTS), st.sampled_from(((), ("--materialize",))),
          _WINDOW),
    _argv("validate", _req("--in", _FILES)),
    _argv("graph", _req("--kind", _GRAPH_KINDS), _req("--in", _FILES),
          _opt("--dot", _OUTS), _opt("--csv", _OUTS), _WINDOW),
    _argv("dist", _req("--kind", _GRAPH_KINDS), _req("--in", _FILES),
          _req("--from", _IDS), _req("--to", _IDS), _WINDOW),
    _argv("metric", _req("--in", _FILES), _req("--kind", ("d+", "dR-", "x")),
          _opt("--points", ("x00,x22", "x00", "zz,x00")),
          _opt("--all-pairs", _OUTS), _WINDOW),
    _argv("census", _req("--model", ("trivial", "skew", "nope")),
          _req("--nmax", ("-1", "0", "2", "x")),
          _opt("--h", ("3,3", "1,0", "4,4,4", "9,9", "x")),
          _opt("--gens", _FILES), _opt("--csv", _OUTS)),
    _argv("classify", _req("--pattern", _FILES), _req("--element", _IDS),
          _req("--window", _INTS), _opt("--nmax", _INTS)),
    _argv("wpd", _req("--pattern", _FILES), _req("--g", _IDS),
          _req("--window", _INTS), _opt("--ball", _INTS),
          _opt("--eps", ("-1", "0.5", "x")), _opt("--n", _INTS),
          _opt("--base", _IDS)),
    _argv("bottleneck", _req("--in", _FILES), _opt("--K", _INTS),
          _opt("--kind", _GRAPH_KINDS), _WINDOW),
)


def test_cli_malformed_vectors_exit_cleanly(tmp_path):
    """Unknown ids, non-integers, negative sizes, missing files and
    directories: every vector ends in an exit code, never a traceback."""
    paths = {"missing": str(tmp_path / "nope"), "dir": str(tmp_path),
             "tmp": str(tmp_path)}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_MALFORMED)
    def run(argv):
        argv = [a.format(**paths) if "{" in a else
                _fx(a[:-5]) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(5), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    run()


def test_cli_census_skew_csv(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    assert main(["census", "--model", "skew", "--nmax", "6",
                 "--csv", str(csv)]) == 0
    assert csv.read_text().splitlines()[0] == bio.CENSUS_CSV_HEADER


def test_cli_reports_deterministic(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert main(["--report", str(r), "--seed", "7", "census",
                     "--model", "skew", "--nmax", "6"]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_entry_point():
    res = subprocess.run([sys.executable, "-m", "bifol.cli", "validate",
                          "--in", _fx("loz1")], capture_output=True)
    assert res.returncode == 0


def test_cli_bottleneck_every_fixture(capsys):
    for name in sorted(MANIFEST):
        code = main(["bottleneck", "--in", _fx(name), "--K", "3",
                     "--window", "0", "4"])
        capsys.readouterr()
        assert code == 0, name


def test_cli_graph_csv(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    assert main(["graph", "--kind", "xplus", "--in", _fx("grid3"),
                 "--csv", str(csv)]) == 0
    rows = csv.read_text().splitlines()
    assert rows[0] == "vertex,v0,v1,v2"
    assert rows[1] == "v0,0,1,1"


def test_serialize_refuses_what_is_not_a_pattern():
    with pytest.raises(PreconditionError, match="cannot serialize dict"):
        bio.serialize({})
