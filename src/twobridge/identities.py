"""Point checks of the binomial-coefficient identities behind the closed forms.

Every check compares a direct summation against a closed form or a
recurrence, exactly, over a range of integer (and rational) points, and
reports the first counterexample if any.  Each sum is evaluated over the
integers and reduced once: at x = p/d the alpha and beta sums are
accumulated as integer numerators over d^k, and the binomial tables are
compared entry by entry as integers.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .contfrac import _exact, _require_int


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check over a range of evaluation points."""

    identity_id: str
    n_range: tuple
    x_values: tuple = ()
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        xs = ""
        if self.x_values:
            xs = " at x in {" + ", ".join(str(x) for x in self.x_values) + "}"
        verdict = "pass" if self.passed else f"fail: {self.counterexample}"
        return f"{self.identity_id}: n in [{self.n_range[0]}, {self.n_range[1]}]{xs}: {verdict}"


def _diagonal_at(k: int, x: Fraction) -> tuple:
    """Sum of x^q * C(k-q, q) over q = 0 .. floor(k/2), as (numerator, d^floor(k/2)).

    With x = p/d, the numerator sum C(k-q, q) p^q d^(floor(k/2)-q) is
    accumulated in integers by Horner's rule; for k < 0 the sum is empty,
    (0, 1).
    """
    coeffs = [comb(k - q, q) for q in range(k // 2 + 1)]
    if not coeffs:
        return 0, 1
    p, d = x.numerator, x.denominator
    num, den = coeffs[-1], 1
    for a in coeffs[-2::-1]:
        den *= d
        num = num * p + a * den
    return num, den


def alpha_sum(n: int, x) -> Fraction:
    """Sum of x^q * C(2n-1-q, q) over q = 0 .. n-1, for int n >= 0 and int or Fraction x."""
    _require_int("n", n, 0)
    return Fraction(*_diagonal_at(2 * n - 1, _exact(x)))


def beta_sum(n: int, x) -> Fraction:
    """Sum of x^q * C(2n-q, q) over q = 0 .. n, for int n >= 0 and int or Fraction x."""
    _require_int("n", n, 0)
    return Fraction(*_diagonal_at(2 * n, _exact(x)))


def _report(identity_id: str, lo: int, n_max: int, x_values: tuple, failures,
            below: int = 0) -> IdentityReport:
    """Run one check over n in [lo, n_max - below] and report its first failure, if any.

    ``failures`` yields counterexample text and is called only once
    ``n_max`` is an int (a bool is refused) and the range is nonempty;
    an empty range is refused, not reported as a pass.
    """
    _require_int("n_max", n_max)
    n_range = (lo, n_max - below)
    if n_range[0] > n_range[1]:
        raise ValueError(f"{identity_id}: n in [{n_range[0]}, {n_range[1]}] is empty")
    return IdentityReport(identity_id, n_range, x_values, next(failures(), None))


def alpha_recurrence_check(n_max: int, x) -> IdentityReport:
    """Verify a(n+1) = (2x+1) a(n) - x^2 a(n-1) and b(n) = a(n+1) - x a(n).

    Both recurrences are checked against the direct sums for all
    1 <= n < n_max at the given rational x, in integers: with x = p/d,
    A(n) = d^(n-1) a(n) and B(n) = d^n b(n) are the sums' numerators, and
    A(n+1) = (2p + d) A(n) - p^2 A(n-1), B(n) = A(n+1) - p A(n).
    """
    x = _exact(x)
    p, d = x.numerator, x.denominator

    def failures():
        a = [_diagonal_at(2 * n - 1, x)[0] for n in range(n_max + 1)]
        b = [_diagonal_at(2 * n, x)[0] for n in range(n_max)]
        for n in range(1, n_max):
            rhs = (2 * p + d) * a[n] - p * p * a[n - 1]
            if a[n + 1] != rhs:
                yield f"n={n}: {Fraction(a[n + 1], d**n)} != {Fraction(rhs, d**n)}"
            if b[n] != a[n + 1] - p * a[n]:
                yield f"n={n}: beta {Fraction(b[n], d**n)} != {Fraction(a[n + 1] - p * a[n], d**n)}"

    return _report("alpha_recurrence", 1, n_max, (x,), failures, below=1)


def x2_specialization_check(n_max: int) -> IdentityReport:
    """At x = 2: alpha sums to (4^n - 1)/3 and beta to (2*4^n + 1)/3."""

    def failures():
        for n in range(n_max + 1):
            if alpha_sum(n, 2) != Fraction(4**n - 1, 3):
                yield f"alpha n={n}"
            if beta_sum(n, 2) != Fraction(2 * 4**n + 1, 3):
                yield f"beta n={n}"

    return _report("x2_specialization", 0, n_max, (Fraction(2),), failures)


def weighted_sum_check(n_max: int) -> IdentityReport:
    """Closed forms of the q-weighted sums at base 2, against direct summation.

    For all 1 <= n <= n_max:
      sum q 2^q C(2n-1-q, q), q=0..n-1  ==  (2/27) ((4^n - 1)(3n - 2) - 3n)
      sum q 2^q C(2n-q, q),   q=0..n    ==  (2/27) ((4^n - 1)(6n - 1) + 12n)
    each compared as 27 times the sum, in integers.
    """

    def failures():
        for n in range(1, n_max + 1):
            first = sum(q * 2**q * comb(2 * n - 1 - q, q) for q in range(n))
            if 27 * first != 2 * ((4**n - 1) * (3 * n - 2) - 3 * n):
                yield f"first, n={n}"
            second = sum(q * 2**q * comb(2 * n - q, q) for q in range(n + 1))
            if 27 * second != 2 * ((4**n - 1) * (6 * n - 1) + 12 * n):
                yield f"second, n={n}"

    return _report("weighted_sums", 1, n_max, (), failures)


def wellknown_check(n_max: int) -> IdentityReport:
    """The four standard binomial identities, exactly, for n <= n_max.

    Subset-of-subset product, row sum 2^n, even-index row sum 2^(n-1)
    (for n >= 1), and the weighted row sum n 2^(n-1).
    """

    def failures():
        rows = [[comb(n, q) for q in range(n + 1)] for n in range(n_max + 1)]
        for a, row in enumerate(rows):
            for b in range(a + 1):
                ab, rb = row[b], rows[b]
                for c in range(b + 1):
                    if ab * rb[c] != row[c] * rows[a - c][b - c]:
                        yield f"product, a={a} b={b} c={c}"
        for n in range(1, n_max + 1):
            row = rows[n]
            if sum(row) != 2**n:
                yield f"row sum, n={n}"
            if sum(row[::2]) != 2 ** (n - 1):
                yield f"even row sum, n={n}"
            if sum(map(mul, range(n + 1), row)) != n * 2 ** (n - 1):
                yield f"weighted row sum, n={n}"

    return _report("wellknown", 0, n_max, (), failures)


def identity_suite(n_max: int) -> list:
    """Every identity check up to n_max, the recurrence at five rational points.

    The recurrence needs n_max >= 2; at n_max = 1 the suite leaves it
    out, since the check refuses its empty range.  The first check
    refuses a non-int ``n_max`` before the suite compares it.
    """
    reports = [wellknown_check(n_max), x2_specialization_check(n_max), weighted_sum_check(n_max)]
    points = (0, 1, 2, -1, Fraction(3, 2)) if n_max >= 2 else ()
    return reports + [alpha_recurrence_check(n_max, x) for x in points]
