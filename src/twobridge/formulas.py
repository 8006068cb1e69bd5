"""Closed forms for 2-bridge knot counts, total genus and average genus.

Every function returns exact integers or fractions.  The knot count and
total genus split into branches by the residue of the crossing number c
mod 4, with the two even residues sharing a branch in the
mirror-distinct forms; the average genus in either counting mode is
c/4 + 1/12 plus an exponentially small correction.  Divisions are
checked: the closed forms are integral by construction, so an inexact
division can only mean an implementation fault and raises instead of
truncating.  ``check_tallies`` compares the closed forms with one
enumeration result; the CLI and the tests both read its verdicts.
"""

from __future__ import annotations

from fractions import Fraction

from .identities import binom
from .knots import Mode, _require_c


class InexactDivision(ArithmeticError):
    """A division that must be exact left a remainder (bug sentinel)."""


class BranchMismatch(ArithmeticError):
    """Two independent evaluations of the same value disagree (bug sentinel)."""


def _exact_div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise InexactDivision(f"{n} is not divisible by {d}")
    return q


def tk_closed(c: int) -> int:
    """Number of 2-bridge knots with crossing number c, mirrors distinct."""
    _require_c(c)
    if c % 2 == 0:
        return _exact_div((1 << (c - 2)) - 1, 3)
    if c % 4 == 1:
        return _exact_div((1 << (c - 2)) + (1 << ((c - 1) // 2)), 3)
    return _exact_div((1 << (c - 2)) + (1 << ((c - 1) // 2)) + 2, 3)


def tg_closed(c: int) -> int:
    """Total genus of all 2-bridge knots with crossing number c, mirrors distinct."""
    _require_c(c)
    lead = (3 * c + 1) << (c - 2)
    if c % 2 == 0:
        return _exact_div(lead - 16, 36)
    mid = (3 * c + 5) << ((c - 1) // 2)
    if c % 4 == 1:
        return _exact_div(lead + mid + 8, 36)
    return _exact_div(lead + mid + 24, 36)


def tk_mirror_closed(c: int) -> int:
    """Number of 2-bridge knots with crossing number c, mirrors collapsed."""
    _require_c(c)
    r = c % 4
    if r == 0:
        return _exact_div((1 << (c - 3)) + (1 << ((c - 4) // 2)), 3)
    if r == 1:
        return _exact_div((1 << (c - 3)) + (1 << ((c - 3) // 2)), 3)
    if r == 2:
        return _exact_div((1 << (c - 3)) + (1 << ((c - 4) // 2)) - 1, 3)
    return _exact_div((1 << (c - 3)) + (1 << ((c - 3) // 2)) + 1, 3)


def tg_mirror_closed(c: int) -> int:
    """Total genus with crossing number c, mirrors collapsed.

    For odd c this is exactly half the mirror-distinct total, since no
    knot with odd crossing number equals its own mirror image.
    """
    _require_c(c)
    r = c % 4
    lead = (3 * c + 1) << (c - 2)
    if r == 0:
        return _exact_div(lead + ((3 * c + 2) << ((c - 2) // 2)) - 8, 72)
    if r == 1:
        return _exact_div(lead + ((3 * c + 5) << ((c - 1) // 2)) + 8, 72)
    if r == 2:
        return _exact_div(lead + ((3 * c + 2) << ((c - 2) // 2)) - 24, 72)
    return _exact_div(lead + ((3 * c + 5) << ((c - 1) // 2)) + 24, 72)


def correction(c: int) -> Fraction:
    """The exponentially small term in the mirror-distinct average genus."""
    _require_c(c)
    if c % 2 == 0:
        return Fraction(c - 5, (1 << c) - 4)
    if c % 4 == 1:
        return Fraction(1, 3 * (1 << ((c - 3) // 2)))
    return Fraction(
        (1 << ((c + 1) // 2)) - 3 * c + 11,
        12 * ((1 << (c - 3)) + (1 << ((c - 3) // 2)) + 1),
    )


def correction_mirror(c: int) -> Fraction:
    """The exponentially small term in the mirror-collapsed average genus."""
    _require_c(c)
    r = c % 4
    if r == 0:
        return Fraction((1 << ((c - 4) // 2)) - 4, 3 * ((1 << (c - 1)) + (1 << (c // 2))))
    if r == 2:
        return Fraction(
            (1 << ((c - 4) // 2)) + 3 * c - 11,
            12 * ((1 << (c - 3)) + (1 << ((c - 4) // 2)) - 1),
        )
    return correction(c)


def _average(c: int, tg: int, tk: int, corr: Fraction) -> Fraction:
    """tg/tk, checked against the piecewise form c/4 + 1/12 + corr.

    With corr = p/q the two agree iff tg·12q = tk·((3c + 1)q + 12p), an
    integer test; Fractions are built only for the result and the error.
    """
    p, q = corr.numerator, corr.denominator
    if tg * 12 * q != tk * ((3 * c + 1) * q + 12 * p):
        piecewise = Fraction(c, 4) + Fraction(1, 12) + corr
        raise BranchMismatch(f"c={c}: {Fraction(tg, tk)} != {piecewise}")
    return Fraction(tg, tk)


def avg_genus(c: int) -> Fraction:
    """Average genus at crossing number c, mirrors distinct.

    Evaluated both as total genus over knot count and through the
    piecewise form c/4 + 1/12 + correction(c); the two must agree.
    """
    return _average(c, tg_closed(c), tk_closed(c), correction(c))


def avg_genus_mirror(c: int) -> Fraction:
    """Average genus at crossing number c, mirrors collapsed.

    Equals the mirror-distinct average for odd c.
    """
    return _average(c, tg_mirror_closed(c), tk_mirror_closed(c), correction_mirror(c))


def residual(c: int) -> Fraction:
    """avg_genus(c) - c/4 - 1/12, exactly."""
    return avg_genus(c) - Fraction(c, 4) - Fraction(1, 12)


def residual_mirror(c: int) -> Fraction:
    """avg_genus_mirror(c) - c/4 - 1/12, exactly."""
    return avg_genus_mirror(c) - Fraction(c, 4) - Fraction(1, 12)


def _check_stratum_args(k: int, l: int, parity: str):
    for name, value in (("k", k), ("l", l)):
        if not isinstance(value, int) or isinstance(value, bool):  # True would count as 1
            raise TypeError(f"{name}={value!r} is not an int")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    kmin = 2 if parity == "even" else 1
    if k < kmin:
        raise ValueError(f"k={k} gives a crossing number below 3")
    if not 0 <= l <= k - 1:
        raise ValueError(f"l={l} outside [0, {k - 1}]")


def stratum_closed_A(k: int, l: int, parity: str) -> int:
    """Knot count of the sign-change stratum, mirrors distinct.

    ``parity`` selects crossing number c = 2k (``"even"``, stratum of
    2l sign changes) or c = 2k+1 (``"odd"``, stratum of 2l+1 changes).
    For odd c the count includes the classes built from symmetric
    magnitude vectors, which exist exactly when k+l is odd.
    """
    _check_stratum_args(k, l, parity)
    if parity == "even":
        if l == k - 1:
            return 0
        return 2 ** (k - l - 2) * binom(k + l - 1, k - l - 1)
    symmetric = 0
    if (k + l) % 2 == 1:
        symmetric = binom((k + l - 1) // 2, l) * 2 ** ((k - l - 1) // 2)
    if l == k - 1:
        return 1 + symmetric
    return binom(k + l, 2 * l + 1) * 2 ** (k - l - 2) + symmetric


def stratum_closed_B(k: int, l: int, parity: str) -> int:
    """Genus sum of the sign-change stratum, mirrors distinct.

    Its terms carry powers of two down to 1/8 and, in the boundary cases
    l = k-2 and l = k-1, halves, so the sum is built as 8 times its value
    in integers and divided exactly once.
    """
    _check_stratum_args(k, l, parity)
    if parity == "even":
        eight = ((k + 3 * l + 1) << (k - l - 1)) * binom(k + l - 1, k - l - 1)
        if l == k - 2:
            eight += 4 * k - 6
        elif l == k - 1:
            eight -= 4 * k - 2
        return _exact_div(eight, 8)
    eight = ((k + 3 * l + 3) << (k - l - 1)) * binom(k + l, 2 * l + 1)
    if l == k - 2:
        eight -= 4 * (k - 1)
    elif l == k - 1:
        eight += 4 * k
    if (k + l) % 2 == 1:
        eight += ((k + 3 * l + 3) << ((k - l + 1) // 2)) * binom((k + l - 1) // 2, l)
    return _exact_div(eight, 8)


def check_tallies(found: dict) -> dict:
    """Compare one ``tallies`` result with the closed forms, exactly.

    Returns ``{c: (totals_ok, strata_ok)}``.  ``totals_ok`` holds when the
    knot count and total genus equal the closed forms in both modes;
    ``strata_ok`` when every mirror-distinct sign-change stratum equals
    stratum_closed_A and stratum_closed_B.
    """
    verdicts = {}
    for c, by_mode in found.items():
        td, tc = by_mode[Mode.MIRROR_DISTINCT], by_mode[Mode.MIRROR_COLLAPSED]
        totals_ok = (td.knot_count, td.total_genus, tc.knot_count, tc.total_genus) == (
            tk_closed(c), tg_closed(c), tk_mirror_closed(c), tg_mirror_closed(c)
        )
        k, parity = c // 2, ("even" if c % 2 == 0 else "odd")
        strata_ok = all(
            td.by_ell.get(2 * l + c % 2, (0, 0))
            == (stratum_closed_A(k, l, parity), stratum_closed_B(k, l, parity))
            for l in range(k)
        )
        verdicts[c] = (totals_ok, strata_ok)
    return verdicts
