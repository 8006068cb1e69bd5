"""Even continued fractions for 2-bridge knot presentations.

A 2-bridge knot presentation is a sequence of nonzero even integers of
even length, here called an even sequence.  The fraction attached to
(e_1, ..., e_n) is the nested value 1/(e_1 + 1/(e_2 + ... + 1/e_n)); for
valid even sequences it is always a reduced fraction with even numerator
and odd denominator, strictly between -1 and 1.  This module provides
sequence validation, exact fraction evaluation, the inverse expansion,
and the elementary invariants read off a sequence: sign-change count,
crossing number and genus.
"""

import re
from fractions import Fraction


class SequenceError(ValueError):
    """A proposed entry list is not a valid even sequence."""


class RejectOddEntry(SequenceError):
    """An entry is odd; every entry must be even."""


class RejectZeroEntry(SequenceError):
    """An entry is zero; every entry must be nonzero."""


class RejectOddLength(SequenceError):
    """The entry count is odd or below two; it must be even and >= 2."""


class DegenerateTail(ArithmeticError):
    """A zero denominator appeared inside the nested evaluation.

    Unreachable for valid even sequences; raised instead of dividing by
    zero so that a corrupted input surfaces as a bug, not an exception
    from deep inside the arithmetic.
    """


class OutOfRange(ValueError):
    """The fraction is not strictly between -1 and 1, or is zero."""


class NotAKnotFraction(ValueError):
    """The fraction has an even denominator (a 2-bridge link, not a knot)."""


class NoEvenExpansion(ValueError):
    """Numerator and denominator are both odd, so no all-even expansion exists.

    Values of even sequences always have even numerator and odd
    denominator in lowest terms; an odd/odd input is outside the image.
    """


def _shown(v) -> str:
    """``repr(v)`` for an error message, cut to a few dozen characters."""
    try:
        text = repr(v)
    except ValueError:  # an int past the int/text digit limit
        return f"<int of {v.bit_length()} bits>"
    return text if len(text) <= 40 else f"{text[:24]}... ({len(text)} characters)"


def _require_int(name: str, value, low: int | None = None):
    """Refuse, by name, a non-int argument (a bool too) or one below ``low``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} {_shown(value)} is not an int")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, not {_shown(value)}")


# A sign and ASCII digits: int() alone would also take "2_0" and non-ASCII digits.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


class EvenSequence(tuple):
    """Immutable sequence of nonzero even integers with even length >= 2.

    Subclasses ``tuple``, so even sequences are hashable, iterable and
    compare entrywise by integer value, which is also the total order
    used for canonical forms.  Like ``tuple``, it returns an even
    sequence passed to it unchanged.
    """

    __slots__ = ()

    def __new__(cls, entries):
        if type(entries) is cls:
            return entries  # immutable, and checked when it was built
        entries = tuple(entries)
        for i, e in enumerate(entries):
            if isinstance(e, int) and e and not e % 2:
                continue  # a bool is 0 or 1, so it never gets past here
            if not isinstance(e, int) or isinstance(e, bool):
                raise RejectOddEntry(
                    f"entry {_shown(e)} at index {i} is not an integer"
                )
            if e == 0:
                raise RejectZeroEntry(f"entry at index {i} is zero")
            raise RejectOddEntry(f"entry {_shown(e)} at index {i} is odd")
        if len(entries) < 2 or len(entries) % 2:
            raise RejectOddLength(
                f"length {len(entries)} is not an even number >= 2"
            )
        return super().__new__(cls, entries)

    @classmethod
    def from_text(cls, text: str) -> "EvenSequence":
        """Parse the comma-separated text form, e.g. ``"2,-2,4"``.

        Each token, stripped of spaces, is an optional sign and ASCII digits.
        """
        entries = []
        for i, tok in enumerate(t.strip() for t in text.split(",")):
            if not _INT_TOKEN.fullmatch(tok):
                raise SequenceError(f"invalid integer token {_shown(tok)} at index {i}")
            try:
                entries.append(int(tok))
            except ValueError:  # a well-formed token: only the digit limit refuses it
                raise SequenceError(
                    f"entry at index {i} has {len(tok.lstrip('+-'))} digits, more than"
                    " this interpreter converts from text") from None
        return cls(entries)

    def to_text(self) -> str:
        return ",".join(str(e) for e in self)


def cf_value(seq) -> Fraction:
    """Exact value of 1/(e_1 + 1/(e_2 + ... + 1/e_n)) in lowest terms, for any int entries."""
    entries = tuple(seq)
    if type(seq) is not EvenSequence:  # whose entries were checked when it was built
        for i, a in enumerate(entries):
            _require_int(f"entry {i}", a)
    num, den = 0, 1
    for a in reversed(entries):
        num, den = den, a * den + num
        if den == 0:
            raise DegenerateTail(
                "zero denominator inside nested evaluation (invalid sequence?)"
            )
    return Fraction(num, den)


def _exact(x) -> Fraction:
    # An int or a Fraction, nothing else: a float is a dyadic approximation, never
    # the fraction meant; a bool is no number, and text or a Decimal no exact point.
    if isinstance(x, Fraction) or isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"{_shown(x)} is a {type(x).__name__}; pass a Fraction or an int")


def even_expansion(x) -> EvenSequence:
    """Expand a fraction into the unique even sequence evaluating to it.

    The input must satisfy 0 < |x| < 1 and have an odd denominator in
    lowest terms; the numerator is then necessarily even for an
    expansion to exist.  At every step the reciprocal of the current
    value is divided with the nearest even quotient, which keeps the
    remainder strictly smaller than the divisor; the divisor chain
    strictly decreases in absolute value, so the loop terminates.  For
    admissible inputs the parities of numerator and denominator
    alternate in a way that makes every quotient even and nonzero and
    the final length even.  Anything but an int or a Fraction (a float,
    a bool, text) is refused.
    """
    x = _exact(x)
    if not 0 < abs(x) < 1:
        raise OutOfRange(f"{x} is not strictly between -1 and 1, or is zero")
    if x.denominator % 2 == 0:
        raise NotAKnotFraction(f"{x} has an even denominator")
    if x.numerator % 2:
        raise NoEvenExpansion(
            f"{x} has odd numerator and odd denominator; no even expansion"
        )
    entries = []
    num, den = x.numerator, x.denominator
    while num:
        # nearest integer to den/(2*num), then doubled: the even quotient
        t = (den + num) // (2 * num)
        e = 2 * t
        r = den - e * num
        entries.append(e)
        num, den = (r, num) if num > 0 else (-r, -num)
    return EvenSequence(entries)


def sign_changes(seq) -> int:
    """Number of adjacent entry pairs with opposite signs."""
    s = EvenSequence(seq)
    return sum(1 for a, b in zip(s, s[1:]) if (a > 0) != (b > 0))


def crossing_number(seq) -> int:
    """Sum of absolute entries minus the sign-change count."""
    s = EvenSequence(seq)
    return sum(abs(e) for e in s) - sign_changes(s)


def genus(seq) -> int:
    """Half the sequence length."""
    return len(EvenSequence(seq)) // 2
