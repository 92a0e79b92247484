"""Statement coverage of ``src/bifol`` by tier-1, as a check.

Runs the tier-1 suite in-process under a ``sys.settrace`` line trace limited
to the files of ``src/bifol`` (coverage.py is not a dependency), and lists
the statements that never ran.  A statement is executable when the lines it
owns (a simple statement's whole span, a compound statement's header and
decorators) hold an instruction of the compiled file, and it ran when one of
those lines did.  The list must equal UNRUN, the committed statements that
tier-1 is known not to run, each with its reason; a statement that stops
running, or a listed one that now runs, makes the exit code 1, and so does
a failing test.  Statements are keyed by (file, text of their first line),
so an edit above a listed statement does not move it.

    PYTHONPATH=src python tests/check_coverage.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bifol"

# (file under src/bifol, its first line, stripped) -> why tier-1 never runs it
UNRUN = {
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m bifol.cli`: the CLI tests call main() in "
        "this process, and the one test that starts that command runs it "
        "in an untraced child",
}


def _code_lines(code) -> set[int]:
    """Lines of the instructions of ``code`` and of the code objects nested
    in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, the lines it owns) of each executable statement."""
    text = path.read_text(encoding="utf-8")
    compiled = _code_lines(compile(text, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        owned = set(range(first, last + 1)) & compiled
        if owned:
            found.append((node.lineno, owned))
    return found


def traced_run(args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and the lines of src/bifol that ran,
    by absolute file name.  The package must not be imported before this
    starts, or its module-level lines would not be seen."""
    ran: dict[str, set[int]] = {}
    adders = {}  # co_filename -> the set's add, or None off src/bifol

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in adders:
            path = os.path.realpath(name)
            adders[name] = (ran.setdefault(path, set()).add
                            if path.startswith(str(SRC) + os.sep) else None)
        add = adders[name]
        if add is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    assert "bifol" not in sys.modules
    os.chdir(ROOT)
    # read before the run, so that the trace and the sources agree
    files = {path: (path.read_text(encoding="utf-8").splitlines(),
                    statements(path)) for path in sorted(SRC.rglob("*.py"))}
    code, ran = traced_run(["-q", "-p", "no:cacheprovider", "tests"])
    unrun = []
    for path, (text, stmts) in files.items():
        name = path.relative_to(SRC).as_posix()
        traced = ran.get(str(path), set())
        unrun += [(name, first, text[first - 1].strip())
                  for first, owned in sorted(stmts) if not owned & traced]
    for name, line, text in unrun:
        print(f"never run: src/bifol/{name}:{line}: {text}")
    found = {(name, text) for name, _, text in unrun}
    listed = set(UNRUN)
    for name, text in sorted(found - listed):
        print(f"not in UNRUN: src/bifol/{name}: {text}")
    for name, text in sorted(listed - found):
        print(f"listed in UNRUN but run: src/bifol/{name}: {text}")
    if code:
        print(f"tier-1 failed under the trace: pytest exit code {code}")
    return 1 if code or found != listed else 0


if __name__ == "__main__":
    sys.exit(main())
