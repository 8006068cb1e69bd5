"""Exact enumeration and closed-form counting of 2-bridge knots by crossing number.

The names below are the public API that README documents.  Generation
helpers, the single identity checks and the bug-sentinel errors live in
their submodules.
"""

from .contfrac import (
    EvenSequence,
    NoEvenExpansion,
    NotAKnotFraction,
    OutOfRange,
    RejectOddEntry,
    RejectOddLength,
    RejectZeroEntry,
    SequenceError,
    cf_value,
    crossing_number,
    even_expansion,
    genus,
    sign_changes,
)
from .enumeration import Tally, enumerate_classes, enumerate_sequences, tallies, tally
from .formulas import (
    avg_genus,
    avg_genus_mirror,
    check_tallies,
    correction,
    correction_mirror,
    residual,
    residual_mirror,
    stratum_closed_A,
    stratum_closed_B,
    tg_closed,
    tg_mirror_closed,
    tk_closed,
    tk_mirror_closed,
)
from .identities import IdentityReport, identity_suite
from .knots import KnotClass, Mode, canonicalize, is_amphichiral

__version__ = "0.1.0"

__all__ = [
    "EvenSequence",
    "IdentityReport",
    "KnotClass",
    "Mode",
    "NoEvenExpansion",
    "NotAKnotFraction",
    "OutOfRange",
    "RejectOddEntry",
    "RejectOddLength",
    "RejectZeroEntry",
    "SequenceError",
    "Tally",
    "avg_genus",
    "avg_genus_mirror",
    "canonicalize",
    "cf_value",
    "check_tallies",
    "correction",
    "correction_mirror",
    "crossing_number",
    "enumerate_classes",
    "enumerate_sequences",
    "even_expansion",
    "genus",
    "identity_suite",
    "is_amphichiral",
    "residual",
    "residual_mirror",
    "sign_changes",
    "stratum_closed_A",
    "stratum_closed_B",
    "tallies",
    "tally",
    "tg_closed",
    "tg_mirror_closed",
    "tk_closed",
    "tk_mirror_closed",
]
