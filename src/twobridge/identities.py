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


def _poly_at(coeffs: list, x: Fraction) -> Fraction:
    """Sum of coeffs[q] * x^q, by Horner's rule over the integers.

    With x = p/d and k = len(coeffs) - 1, the numerator
    sum a_q p^q d^(k-q) is accumulated in integers and reduced once, as
    Fraction(numerator, d^k).
    """
    if not coeffs:
        return Fraction(0)
    p, d = x.numerator, x.denominator
    num, den = coeffs[-1], 1
    for a in coeffs[-2::-1]:
        den *= d
        num = num * p + a * den
    return Fraction(num, den)


def alpha_sum(n: int, x) -> Fraction:
    """Sum of x^q * C(2n-1-q, q) over q = 0 .. n-1, for int n >= 0 and int or Fraction x."""
    _require_int("n", n, 0)
    return _poly_at([comb(2 * n - 1 - q, q) for q in range(n)], _exact(x))


def beta_sum(n: int, x) -> Fraction:
    """Sum of x^q * C(2n-q, q) over q = 0 .. n, for int n >= 0 and int or Fraction x."""
    _require_int("n", n, 0)
    return _poly_at([comb(2 * n - q, q) for q in range(n + 1)], _exact(x))


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
    1 <= n < n_max at the given rational x.
    """
    x = _exact(x)

    def failures():
        a = [alpha_sum(n, x) for n in range(n_max + 1)]
        b = [beta_sum(n, x) for n in range(n_max)]
        for n in range(1, n_max):
            lhs = a[n + 1]
            rhs = (2 * x + 1) * a[n] - x * x * a[n - 1]
            if lhs != rhs:
                yield f"n={n}: {lhs} != {rhs}"
            if b[n] != a[n + 1] - x * a[n]:
                yield f"n={n}: beta {b[n]} != {a[n + 1] - x * a[n]}"

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
