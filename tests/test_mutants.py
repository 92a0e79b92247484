from mutants import MUTANTS, ROOT


def test_every_mutant_edits_its_file_once():
    # a mutant whose snippet is gone or repeated tests nothing: the runner
    # reports it stale, and this catches it in the fast suite
    for m in MUTANTS:
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert m.file.startswith("src/") and text.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        assert all((ROOT / t).is_file() for t in m.tests), m.name
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
