import json
import subprocess
import sys
from pathlib import Path

import pytest

from bifol import io as bio
from bifol import graphs as gr
from bifol.cli import main
from bifol.fixtures import MANIFEST, fixture_text, load_fixture, regenerate
from bifol.pattern import FinitePattern, InvalidPatternError
from bifol.periodic import generate

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
        bio.parse_pattern(bad)
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


def test_cli_census_budget(capsys):
    assert main(["census", "--model", "trivial", "--nmax", "99"]) == 4


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


@pytest.mark.parametrize("argv, named", [
    (["classify", "--pattern", _fx("skew2"), "--element", "nope"], "nope"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "nope"], "nope"),
    (["metric", "--in", _fx("grid3"), "--kind", "d+", "--points", "x00"],
     "--points"),
    (["census", "--model", "skew", "--nmax", "4", "--h", "3,x"], "--h"),
    (["dist", "--kind", "xplus", "--in", _fx("ladder8"), "--from", "zz",
      "--to", "r1"], "zz"),
    (["wpd", "--pattern", _fx("skew2"), "--g", "s", "--base", "zz9"], "zz9"),
])
def test_cli_malformed_input_is_a_usage_error(argv, named, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err, err


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
