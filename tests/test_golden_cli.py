"""The report, DOT and CSV bytes of the README's CLI verbs on the shipped
fixtures, against the frozen set in tests/data/golden/ (regenerated by
tests/gen_golden.py)."""

import os

from gen_golden import GOLDEN, run_all


def test_cli_outputs_match_the_golden_files_byte_for_byte(tmp_path):
    run_all(tmp_path)
    want, got = sorted(os.listdir(GOLDEN)), sorted(os.listdir(tmp_path))
    assert got == want
    differ = [name for name in want
              if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert not differ, f"{len(differ)} files differ from the golden set: {differ[:10]}"
