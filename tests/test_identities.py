from fractions import Fraction
from math import comb

import pytest

from twobridge import IdentityReport, identity_suite
from twobridge import identities
from twobridge.identities import (
    alpha_recurrence_check,
    alpha_sum,
    beta_sum,
    weighted_sum_check,
    wellknown_check,
    x2_specialization_check,
)

RECURRENCE_POINTS = (0, 1, 2, -1, Fraction(3, 2))
SUM_POINTS = RECURRENCE_POINTS + (Fraction(-7, 5), Fraction(5, 3))


def termwise_sum(coeffs, x):
    """Sum of coeffs[q] * x^q, one Fraction term at a time."""
    x = Fraction(x)
    return sum((a * x**q for q, a in enumerate(coeffs)), Fraction(0))


def test_alpha_base_values():
    for x in RECURRENCE_POINTS:
        assert alpha_sum(0, x) == 0
        assert alpha_sum(1, x) == 1


def test_alpha_beta_frozen_values():
    assert alpha_sum(2, 2) == 1 + 2 * comb(2, 1) == 5
    assert beta_sum(2, 2) == 1 + 2 * comb(3, 1) + 4 * comb(2, 2) == 11
    assert alpha_sum(2, 2) == Fraction(4**2 - 1, 3)
    assert beta_sum(2, 2) == Fraction(2 * 16 + 1, 3)


@pytest.mark.parametrize("x", SUM_POINTS, ids=str)
def test_sums_equal_termwise_reference(x):
    for n in range(71):
        alpha = alpha_sum(n, x)
        assert alpha == termwise_sum([comb(2 * n - 1 - q, q) for q in range(n)], x), n
        assert beta_sum(n, x) == termwise_sum([comb(2 * n - q, q) for q in range(n + 1)], x), n
        assert type(alpha) is Fraction


def test_suite_reports_a_wrong_binomial(monkeypatch):
    # One coefficient off by one, C(5, 2) = 11: alpha(4) changes at every
    # x but 0, so some check in the suite must fail.
    assert all(rep.passed for rep in identity_suite(16))
    monkeypatch.setattr(identities, "comb", lambda n, k: comb(n, k) + ((n, k) == (5, 2)))
    assert not all(rep.passed for rep in identity_suite(16))


@pytest.mark.parametrize("x", RECURRENCE_POINTS + (Fraction(-5, 7),), ids=str)
def test_recurrence_holds(x):
    # -5/7: a negative numerator over a denominator above 1, where the
    # integer numerators carry both signs and powers of d.
    assert alpha_recurrence_check(40, x).passed


@pytest.mark.parametrize(
    "wrong,x,text",
    [
        ((5, 2), Fraction(-5, 7), "n=3: 298/343 != 123/343"),
        ((5, 2), 2, "n=3: 89 != 85"),
        ((9, 3), Fraction(3, 2), "n=6: beta 59575/64 != 59359/64"),
        ((9, 3), Fraction(-5, 7), "n=6: beta -49986/117649 != -7111/117649"),
    ],
    ids=["alpha_x=-5/7", "alpha_x=2", "beta_x=3/2", "beta_x=-5/7"],
)
def test_recurrence_counterexample_in_lowest_terms(monkeypatch, wrong, x, text):
    # One coefficient off by one.  The check runs in integer numerators,
    # and its counterexample shows both sides as the rational values.
    monkeypatch.setattr(identities, "comb", lambda n, k: comb(n, k) + ((n, k) == wrong))
    assert alpha_recurrence_check(12, x).counterexample == text


def test_recurrence_degenerate_point():
    # At x = 0 only the q = 0 term survives, so the alpha sums collapse
    # to the constant 1 from n = 1 on; the recurrence still holds.
    assert all(alpha_sum(n, 0) == 1 for n in range(1, 10))
    assert alpha_recurrence_check(10, 0).passed


def test_specialization_at_two():
    report = x2_specialization_check(64)
    assert report.passed, report
    for n in range(65):
        assert alpha_sum(n, 2) == Fraction(4**n - 1, 3)
        assert beta_sum(n, 2) == Fraction(2 * 4**n + 1, 3)


def test_specialization_reads_beta(monkeypatch):
    # beta_sum wrong at n = 7 only, where alpha_sum is right.
    real = identities.beta_sum
    monkeypatch.setattr(identities, "beta_sum", lambda n, x: real(n, x) + (n == 7))
    report = x2_specialization_check(16)
    assert report.counterexample == "beta n=7"


def test_weighted_sums_frozen_points():
    # n = 1: the first sum has a single zero-weight term; the second is 2.
    assert sum(q * 2**q * comb(1 - q, q) for q in range(1)) == 0
    assert Fraction(2, 27) * ((4 - 1) * 1 - 3) == 0
    assert sum(q * 2**q * comb(2 - q, q) for q in range(2)) == 2
    assert Fraction(2, 27) * ((4 - 1) * 5 + 12) == 2
    # n = 2, first sum: direct summation gives 4.
    assert sum(q * 2**q * comb(3 - q, q) for q in range(2)) == 4
    assert Fraction(2, 27) * ((16 - 1) * 4 - 6) == 4


def test_weighted_sums_read_the_second_sum(monkeypatch):
    # C(k, k) is read by the second sum alone, at q = n.
    monkeypatch.setattr(identities, "comb", lambda n, k: comb(n, k) + (n == k))
    report = weighted_sum_check(8)
    assert report.counterexample == "second, n=1"


def test_wellknown_spot_values():
    assert sum(comb(4, q) for q in range(5)) == 16
    assert sum(comb(5, 2 * q) for q in range(3)) == 16 == 2**4
    assert sum(q * comb(3, q) for q in range(4)) == 12 == 3 * 2**2


def test_report_rendering():
    report = alpha_recurrence_check(8, 1)
    assert str(report) == "alpha_recurrence: n in [1, 7] at x in {1}: pass"
    assert report.n_range == (1, 7)


def test_report_counterexample_surfaces():
    # A deliberately broken comparison: claim alpha(n, 3) matches the
    # x = 2 closed form.  The report must carry the first failure, and a
    # report with a counterexample cannot pass.
    bad = IdentityReport("demo", (1, 4), (), "n=2: 22 != 5")
    assert not bad.passed
    assert str(bad) == "demo: n in [1, 4]: fail: n=2: 22 != 5"
    assert IdentityReport("demo", (1, 4)).passed


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21])
def test_alpha_sum_definition_cross_check(n):
    # The defining sum at a rational point against values unrolled from
    # the recurrence alone.
    x = Fraction(3, 2)
    prev, cur = Fraction(0), Fraction(1)
    for _ in range(n - 1):
        prev, cur = cur, (2 * x + 1) * cur - x * x * prev
    assert alpha_sum(n, x) == cur
    assert beta_sum(n, x) == (2 * x + 1) * cur - x * x * prev - x * cur


@pytest.mark.parametrize(
    "call,empty",
    [
        (lambda: alpha_recurrence_check(1, 2), r"n in \[1, 0\] is empty"),
        (lambda: alpha_recurrence_check(0, 2), r"n in \[1, -1\] is empty"),
        (lambda: weighted_sum_check(0), r"n in \[1, 0\] is empty"),
        (lambda: wellknown_check(-1), r"^wellknown: n in \[0, -1\] is empty"),
        (lambda: x2_specialization_check(-1), r"^x2_specialization: n in \[0, -1\] is empty"),
    ],
    ids=[
        "alpha_recurrence_1", "alpha_recurrence_0", "weighted_sums_0", "wellknown_-1",
        "x2_specialization_-1",
    ],
)
def test_empty_range_refused(call, empty):
    with pytest.raises(ValueError, match=empty):
        call()


@pytest.mark.parametrize("n_max", [True, 2.0, "4", None], ids=repr)
@pytest.mark.parametrize(
    "check",
    [identity_suite, wellknown_check, x2_specialization_check, weighted_sum_check,
     lambda n_max: alpha_recurrence_check(n_max, 2)],
    ids=["identity_suite", "wellknown", "x2_specialization", "weighted_sums",
         "alpha_recurrence"],
)
def test_non_int_n_max_refused_before_any_sum(check, n_max, monkeypatch):
    # True would run as n_max = 1, and 2.0 would fail inside range unnamed.
    def refuse(*_):
        raise AssertionError("a sum started")

    monkeypatch.setattr(identities, "comb", refuse)
    with pytest.raises(TypeError, match=f"^n_max {n_max!r} is not an int$"):
        check(n_max)


def test_suite_reports_no_empty_range():
    for n_max in range(1, 5):
        for report in identity_suite(n_max):
            assert report.n_range[0] <= report.n_range[1], report
    assert len(identity_suite(1)) == 3
    assert len(identity_suite(2)) == 8
