"""Combinatorial bifoliated planes at desk scale.

Finite chord-diagram patterns and periodic planes, the leaf graphs they
induce, wall-counting metrics, isometry classification of pattern
automorphisms, and exact word-ball censuses.
"""

from .pattern import (
    PLUS, MINUS, Mode, BifolError, InvalidPatternError, UnknownIdError,
    PreconditionError, DegenerateInputError, FinitePattern, Leaf, Singularity,
    Point, PseudoInterval, Lozenge, LozengeReport, ValidationReport,
)
from .periodic import (
    PeriodicPattern, PatternAutomorphism, IndexMap, AffineElement, Family,
    Track, NonsepTemplate, ScallopedMarker, generate, scalloped_invariant,
    identity_automorphism,
)

__version__ = "0.1.0"
