"""Regenerate tests/data/golden/: the report, DOT and CSV bytes of the
README's CLI verbs on the shipped fixtures.

Run from the repository root:  PYTHONPATH=src python3 tests/gen_golden.py
Every command runs inside the output directory and names its output files
relatively, so no report holds a path that depends on where it ran.
``exit_codes.txt`` records each command's exit code.  The committed files
are frozen; test_golden_cli.py reruns the commands in a temporary directory
and compares every file byte for byte.
"""

import contextlib
import io
import os
import shutil
from importlib import resources
from pathlib import Path

from bifol import cli
from bifol import graphs as gr
from bifol import walls as wl
from bifol.fixtures import MANIFEST

GOLDEN = Path(__file__).parent / "data" / "golden"

PERIODIC = ("ladder_periodic", "scalloped", "skew2", "skew3", "skew4",
            "trivial_periodic")
ELEMENTS = {"ladder_periodic": ("s",), "scalloped": ("s", "swap"),
            "skew2": ("s",), "skew3": ("s",), "skew4": ("s",)}
POINTS = {"chain3": "k0,k3", "grid3": "x00,x22", "ladder2": "px,py",
          "ladder4": "px,py", "ladder8": "px,py", "loz1": "ca,cb",
          "partlink": "a,b"}


def commands():
    """(stem, argv) of every golden run; each writes its report to
    ``<stem>.json`` and any other output to files named after the stem."""
    root = resources.files("bifol.fixtures")

    def fx(name):
        return str(root.joinpath(f"{name}.json"))

    out = []
    for name in sorted(MANIFEST):
        out.append((f"validate-{name}", ["validate", "--in", fx(name)]))
        for kind in gr.KINDS:
            stem = f"graph-{name}-{kind}"
            out.append((stem, ["graph", "--kind", kind, "--in", fx(name),
                               "--dot", f"{stem}.dot", "--csv", f"{stem}.csv"]))
        out.append((f"bottleneck-{name}", ["bottleneck", "--in", fx(name),
                                           "--K", "3"]))
        out.append((f"lozenges-{name}", ["lozenges", "--in", fx(name)]))
        out.append((f"export-{name}", ["export", "--in", fx(name), "--kind",
                                       "x", "--dot", f"export-{name}.dot"]))
    for name in PERIODIC:
        for kind in (gr.XFULL, gr.XPLUS, gr.XMINUS):
            stem = f"graph-{name}-{kind}-w4"
            out.append((stem, ["graph", "--kind", kind, "--in", fx(name),
                               "--window", "-4", "4", "--dot", f"{stem}.dot",
                               "--csv", f"{stem}.csv"]))
    for name, pts in sorted(POINTS.items()):
        for kind in wl.KINDS:
            stem = f"metric-{name}-{kind}"
            out.append((stem, ["metric", "--in", fx(name), "--kind", kind,
                               "--points", pts]))
            out.append((f"{stem}-all", ["metric", "--in", fx(name), "--kind",
                                        kind, "--all-pairs", f"{stem}-all.csv"]))
    for name, elements in sorted(ELEMENTS.items()):
        for g in elements:
            out.append((f"classify-{name}-{g}", [
                "classify", "--pattern", fx(name), "--element", g,
                "--window", "8", "--nmax", "8"]))
            out.append((f"classify-{name}-{g}-w3", [
                "classify", "--pattern", fx(name), "--element", g,
                "--window", "3", "--nmax", "4"]))
        out.append((f"wpd-{name}", ["wpd", "--pattern", fx(name), "--g", "s",
                                    "--ball", "4", "--eps", "1", "--n", "8"]))
    out += [
        ("dist-ladder4", ["dist", "--kind", "xplus", "--in", fx("ladder4"),
                          "--from", "x", "--to", "y"]),
        ("dist-ladder_periodic", ["dist", "--kind", "xplus", "--in",
                                  fx("ladder_periodic"), "--from", "u0",
                                  "--to", "u3"]),
        ("dist-scalloped", ["dist", "--kind", "xminus", "--in",
                            fx("scalloped"), "--from", "H0", "--to", "H3"]),
        ("gen-ladder4", ["gen", "--kind", "ladder", "--params", "4", "--out",
                         "gen-ladder4.pattern.json"]),
        ("gen-scalloped", ["gen", "--kind", "scalloped", "--materialize",
                           "--window", "-2", "2", "--out",
                           "gen-scalloped.pattern.json"]),
        ("census-trivial", ["census", "--model", "trivial", "--nmax", "10",
                            "--csv", "census-trivial.csv"]),
        ("census-skew", ["census", "--model", "skew", "--nmax", "8", "--h",
                         "3,3", "--csv", "census-skew.csv"]),
    ]
    return out


def run_all(outdir) -> None:
    """Run every command inside ``outdir``, which must exist."""
    here = os.getcwd()
    codes = []
    os.chdir(outdir)
    try:
        for stem, argv in commands():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--report", f"{stem}.json", *argv])
            codes.append(f"{stem} {code}\n")
        with open("exit_codes.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(codes)
    finally:
        os.chdir(here)


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    run_all(GOLDEN)
    print(f"wrote {len(os.listdir(GOLDEN))} files to {GOLDEN}")
