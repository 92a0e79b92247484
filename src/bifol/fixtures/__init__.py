"""Shipped pattern fixtures, stored as canonical JSON package data.

Fixture files are exactly the serialized outputs of the generators in
:mod:`bifol.periodic`; a regression test asserts byte equality.
"""

from importlib import resources

from ..io import parse_pattern_text

MANIFEST = {
    "grid3": ("trivial", (3,)),
    "skew2": ("skew", (2,)),
    "skew3": ("skew", (3,)),
    "skew4": ("skew", (4,)),
    "ladder2": ("ladder", (2,)),
    "ladder4": ("ladder", (4,)),
    "ladder8": ("ladder", (8,)),
    "ladder_periodic": ("ladder_periodic", ()),
    "trivial_periodic": ("trivial_periodic", ()),
    "scalloped": ("scalloped", ()),
    "loz1": ("lozenge", ()),
    "chain3": ("chain", (3,)),
    "prong3": ("prong", (3,)),
    "prongdiv": ("prongdiv", ()),
    "prongchain2": ("prongchain", ()),
    "prongnondiv": ("prongnondiv", ()),
    "partlink": ("partlink", ()),
    "sinestrip4": ("sinestrip", (4,)),
}


def fixture_text(name: str) -> str:
    return resources.files(__package__).joinpath(f"{name}.json").read_text(
        encoding="utf-8")


def load_fixture(name: str):
    return parse_pattern_text(fixture_text(name))


def regenerate(name: str):
    """Rebuild the fixture from its generator (the committed file must match
    this byte for byte)."""
    from ..periodic import generate

    kind, args = MANIFEST[name]
    return generate(kind, *args)
