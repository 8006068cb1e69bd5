"""Knot identity for even sequences.

Two sequences present the same knot exactly when one is the
reverse-negation of the other.  Negating (equivalently, reversing) a
sequence presents the mirror image.  Canonical forms are therefore
taken over a two-element orbit when mirrors are kept distinct and over
a four-element orbit when they are collapsed; the representative is the
lexicographic minimum under plain entrywise integer comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import neg

from .contfrac import EvenSequence, SequenceError


class Mode(enum.Enum):
    """Whether mirror-image knots count as distinct or as one."""

    MIRROR_DISTINCT = "D"
    MIRROR_COLLAPSED = "C"


def _require_mode(mode):
    if not isinstance(mode, Mode):  # a letter would silently get the collapsed rules
        raise TypeError(f"mode {mode!r} is not a Mode member")


def _require_c(c: int):
    if not isinstance(c, int):
        raise TypeError(f"crossing number {c!r} is not an int")
    if c < 3:
        raise ValueError("crossing number must be >= 3")


def _orbit_min(entries: tuple, mode: Mode) -> tuple:
    # Hot path: plain tuples in, plain tuple out.
    rn = tuple(map(neg, entries[::-1]))
    if mode is Mode.MIRROR_DISTINCT:
        return entries if entries <= rn else rn
    return min(entries, rn, tuple(map(neg, entries)), entries[::-1])


@dataclass(frozen=True)
class KnotClass:
    """Canonical representative of an equivalence class of even sequences."""

    canonical: EvenSequence
    mode: Mode

    def to_text(self) -> str:
        return f"{self.mode.value}:{self.canonical.to_text()}"

    @classmethod
    def from_text(cls, text: str) -> "KnotClass":
        """Parse ``D:-2,-4``; the sequence must be its class's canonical form."""
        letter, _, body = text.partition(":")
        try:
            mode = Mode(letter)
        except ValueError:
            raise SequenceError(f"invalid mode letter {letter!r}") from None
        seq = EvenSequence.from_text(body)
        kc = canonicalize(seq, mode)
        if kc.canonical != seq:
            raise SequenceError(f"{text!r} is not canonical; its canonical form is {kc.to_text()}")
        return kc


def canonicalize(seq, mode: Mode) -> KnotClass:
    """Orbit minimum of ``seq`` under the identifications of ``mode``.

    Constant on orbits and idempotent: canonicalizing a canonical
    representative returns it unchanged.
    """
    _require_mode(mode)
    s = EvenSequence(seq)
    # Reversal and negation keep a sequence valid, so the minimum needs no check.
    return KnotClass(tuple.__new__(EvenSequence, _orbit_min(tuple(s), mode)), mode)


def is_amphichiral(seq) -> bool:
    """True when the knot equals its own mirror image.

    That is when the sequence is a palindrome: the mirror-distinct class
    of s is {s, -rev s} and that of its mirror -s is {-s, rev s}, and
    these are equal exactly when s = rev s.  Only possible at even
    crossing number.
    """
    s = EvenSequence(seq)
    return s == s[::-1]
