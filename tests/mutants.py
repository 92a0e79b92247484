"""Mutation check: each mutant is one exact edit of a file under ``src/``,
and the test files named with it must fail once the edit is applied.

    python tests/mutants.py

For each mutant the runner copies ``src/`` to a temporary directory, applies
the edit there and runs the mutant's test files against the copy with ``-x``
and a timeout of TIMEOUT_S seconds.  It first runs the same files against an
unedited copy, since a failing baseline would make every mutant look killed.  It prints one JSON summary: per mutant ``killed``,
``survived``, ``timeout`` or ``stale`` (its snippet is not found exactly
once, so the code it mutated has changed), with seconds.  The exit code is 1
when the baseline fails or any mutant is not killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # under src/, relative to the repository root
    snippet: str  # exact text, found once in the file
    replacement: str
    tests: tuple[str, ...]  # test files that must fail


DYNAMICS = "src/bifol/dynamics.py"
DYNAMICS_TESTS = ("tests/test_dynamics.py",)
PATTERN = "src/bifol/pattern.py"
# the shared-position tests, by leaf name, and the moved-slot oracle test
PATTERN_TESTS = ("tests/test_pattern.py", "tests/test_io_cli.py")

MUTANTS = (
    Mutant("axis: on-axis test without the backward image in the window",
           DYNAMICS,
           "if first <= m(i) < last and first <= minv(i) < last",
           "if first <= m(i) < last", DYNAMICS_TESTS),
    Mutant("axis: window indices end at hi * P, dropping block hi",
           DYNAMICS,
           "first, last = lo * pp.period, (hi + 1) * pp.period\n",
           "first, last = lo * pp.period, hi * pp.period\n",
           DYNAMICS_TESTS),
    Mutant("verdict: the step taken at the orbit's first exit from the window",
           DYNAMICS,
           "            if j > nmax or not lo <= i < hi:\n"
           "                return Inconclusive(\n"
           "                    \"orbit leaves the base component in this "
           "window\")\n"
           "            if d is not None:\n",
           "            if j > nmax:\n"
           "                return Inconclusive(\n"
           "                    \"orbit leaves the base component in this "
           "window\")\n"
           "            if d is not None or not lo <= i < hi:\n",
           DYNAMICS_TESTS),
    Mutant("wpd: block check without its identity skip",
           DYNAMICS,
           "            if h.is_identity():\n                continue\n", "",
           DYNAMICS_TESTS),
    Mutant("wpd: fixed residues read off the other sign's map",
           DYNAMICS,
           "fixed = set(_fixed_residues(h._map(axis_data.sign)))",
           "fixed = set(_fixed_residues(h._map(MINUS if axis_data.sign == "
           "PLUS else PLUS)))",
           DYNAMICS_TESTS),
    Mutant("cli wpd: a base in the window's last block refused",
           "src/bifol/cli.py",
           "if not -w <= k <= w:", "if not -w <= k < w:",
           ("tests/test_io_cli.py",)),
    Mutant("validate: same-sign leaves may share an endpoint",
           PATTERN,
           "                if shared:\n"
           "                    v.append(Violation(\"same-sign leaves share an "
           "endpoint\", (l1, l2)))\n"
           "                elif len(s12) >= 2 or len(s21) >= 2:\n",
           "                if len(s12) >= 2 or len(s21) >= 2:\n",
           PATTERN_TESTS),
    Mutant("validate: a leaf's endpoints need not be distinct",
           PATTERN,
           "if len(set(lf.endpoints)) != len(lf.endpoints) or lf.k < 2:",
           "if lf.k < 2:", PATTERN_TESTS),
)


def _run_tests(tests, edit=None) -> str:
    """'passed', 'failed' or 'timeout' for the test files against a copy of
    src/ with ``edit`` = (file, text) written over one of its files."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            (Path(tmp) / edit[0]).write_text(edit[1], encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            r = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    return "passed" if r.returncode == 0 else "failed"


def run_mutant(mutant: Mutant) -> str:
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if not mutant.file.startswith("src/") or text.count(mutant.snippet) != 1:
        return "stale"
    outcome = _run_tests(mutant.tests, (mutant.file, text.replace(
        mutant.snippet, mutant.replacement)))
    return {"passed": "survived", "failed": "killed"}.get(outcome, outcome)


def main() -> int:
    start = time.monotonic()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    summary = {"baseline": _run_tests(tests), "mutants": []}
    for m in MUTANTS:
        t0 = time.monotonic()
        status = run_mutant(m)
        summary["mutants"].append({"name": m.name, "status": status,
                                   "seconds": round(time.monotonic() - t0, 1)})
    statuses = [r["status"] for r in summary["mutants"]]
    summary["killed"] = statuses.count("killed")
    summary["not_killed"] = len(statuses) - summary["killed"]
    summary["seconds"] = round(time.monotonic() - start, 1)
    print(json.dumps(summary, indent=1))
    return 0 if summary["baseline"] == "passed" and \
        not summary["not_killed"] else 1


if __name__ == "__main__":
    sys.exit(main())
