import dataclasses
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner

from twobridge import (
    Mode,
    avg_genus,
    avg_genus_mirror,
    check_tallies,
    correction,
    correction_mirror,
    residual,
    residual_mirror,
    stratum_closed_A,
    stratum_closed_B,
    tallies,
    tally,
    tg_closed,
    tg_mirror_closed,
    tk_closed,
    tk_mirror_closed,
)
from twobridge import cli, formulas
from twobridge.formulas import (
    BranchMismatch,
    InexactDivision,
    _exact_div,
)
from twobridge.identities import binom

CLOSED_FORMS_OF_C = (
    tk_closed, tg_closed, tk_mirror_closed, tg_mirror_closed,
    correction, correction_mirror, avg_genus, avg_genus_mirror,
    residual, residual_mirror,
)


def stratum_sum_A(k, l, parity):
    """Direct summation over the genus window, the defining expression."""
    if parity == "even":
        return sum(
            binom(k + l - 1, 2 * l) * binom(k - l - 1, 2 * m - 2 * l - 1)
            for m in range(l + 1, (k + l) // 2 + 1)
        )
    total = 0
    for m in range(l + 1, (k + l + 1) // 2 + 1):
        total += binom(k + l, 2 * l + 1) * binom(k - l - 1, 2 * m - 2 * l - 2)
        if (k + l) % 2 == 1:
            total += binom((k + l - 1) // 2, l) * binom((k - l - 1) // 2, m - l - 1)
    return total


def stratum_sum_B(k, l, parity):
    if parity == "even":
        return sum(
            m * binom(k + l - 1, 2 * l) * binom(k - l - 1, 2 * m - 2 * l - 1)
            for m in range(l + 1, (k + l) // 2 + 1)
        )
    total = 0
    for m in range(l + 1, (k + l + 1) // 2 + 1):
        total += m * binom(k + l, 2 * l + 1) * binom(k - l - 1, 2 * m - 2 * l - 2)
        if (k + l) % 2 == 1:
            total += (
                m * binom((k + l - 1) // 2, l) * binom((k - l - 1) // 2, m - l - 1)
            )
    return total


def tg_mirror_double_sum(c):
    """Mirror-collapsed total genus for even c by direct double summation.

    Half a genus per mirror-distinct class over all strata, plus half a
    genus per class fixed by mirroring (symmetric sign assignments over
    symmetric magnitude vectors).
    """
    k = c // 2
    total = Fraction(0)
    for l in range(k):
        for m in range(l + 1, (k + l) // 2 + 1):
            total += Fraction(m, 2) * binom(k + l - 1, 2 * m - 1) * binom(2 * m - 1, 2 * l)
            if (l + k) % 2 == 0:
                total += Fraction(m, 2) * binom((k + l - 2) // 2, m - 1) * binom(m - 1, l)
    assert total.denominator == 1, f"c={c}: total genus {total} is not an integer"
    return total.numerator


class TestKnotCounts:
    @pytest.mark.parametrize("c,expected", [(7, 14), (13, 704), (4, 1)])
    def test_tk(self, c, expected):
        assert tk_closed(c) == expected

    @pytest.mark.parametrize("c,expected", [(8, 44), (15, 10646), (3, 2)])
    def test_tg(self, c, expected):
        assert tg_closed(c) == expected

    @pytest.mark.parametrize("c,expected", [(12, 176), (5, 2), (6, 3)])
    def test_tk_mirror(self, c, expected):
        assert tk_mirror_closed(c) == expected

    @pytest.mark.parametrize("c,expected", [(14, 2485), (11, 259), (4, 1)])
    def test_tg_mirror(self, c, expected):
        assert tg_mirror_closed(c) == expected

    @pytest.mark.parametrize("fn", CLOSED_FORMS_OF_C, ids=lambda fn: fn.__name__)
    def test_rejects_small_c(self, fn):
        with pytest.raises(ValueError, match="crossing number must be >= 3"):
            fn(2)
        with pytest.raises(TypeError, match="crossing number 7.0 is not an int"):
            fn(7.0)


class TestAverages:
    @pytest.mark.parametrize(
        "c,expected",
        [(6, Fraction(8, 5)), (9, Fraction(19, 8)), (13, Fraction(107, 32))],
    )
    def test_avg_genus(self, c, expected):
        assert avg_genus(c) == expected

    @pytest.mark.parametrize(
        "c,expected",
        [
            (8, Fraction(25, 12)),
            (14, Fraction(355, 99)),
            (15, Fraction(5323, 1387)),
        ],
    )
    def test_avg_genus_mirror(self, c, expected):
        assert avg_genus_mirror(c) == expected

    @pytest.mark.parametrize(
        "c,expected",
        [(6, Fraction(1, 60)), (5, Fraction(1, 6)), (7, Fraction(1, 42))],
    )
    def test_residual(self, c, expected):
        assert residual(c) == expected
        assert correction(c) == expected

    def test_residual_equals_correction(self):
        for c in range(3, 2001):
            assert residual(c) == correction(c)
            assert residual_mirror(c) == correction_mirror(c)

    def test_consistency_triangle(self):
        for c in range(3, 10_001):
            assert avg_genus(c) * tk_closed(c) == tg_closed(c)

    def test_averages_agree_at_odd_c(self):
        for c in range(3, 2001, 2):
            assert avg_genus_mirror(c) == avg_genus(c)


class TestMirrorRelations:
    def test_odd_crossings_halve_exactly(self):
        for c in range(3, 10_001, 2):
            assert tk_closed(c) == 2 * tk_mirror_closed(c)
            assert tg_closed(c) == 2 * tg_mirror_closed(c)


class TestStratumClosedForms:
    def test_examples(self):
        assert stratum_closed_A(3, 0, "even") == 2
        assert stratum_closed_A(2, 1, "even") == 0
        # At three crossings the single stratum holds the chiral pair of
        # trefoils: two mirror-distinct classes of genus one each.
        assert stratum_closed_A(1, 0, "odd") == 2
        assert stratum_closed_B(1, 0, "odd") == 2
        assert tally(3, Mode.MIRROR_DISTINCT).by_ell[1] == (2, 2)

    def test_against_direct_sums(self):
        for c in range(3, 122):  # k = c // 2 up to 60 at both parities
            k, parity = c // 2, ("even" if c % 2 == 0 else "odd")
            for l in range(k):
                assert stratum_closed_A(k, l, parity) == stratum_sum_A(k, l, parity)
                genus_sum = stratum_closed_B(k, l, parity)
                assert type(genus_sum) is int, (k, l, parity)
                assert genus_sum == stratum_sum_B(k, l, parity)

    def test_sums_reproduce_totals(self):
        spots = list(range(3, 501)) + [1000, 2005, 5000]
        for c in spots:
            k, parity = c // 2, ("even" if c % 2 == 0 else "odd")
            assert sum(stratum_closed_A(k, l, parity) for l in range(k)) == tk_closed(c)
            assert sum(stratum_closed_B(k, l, parity) for l in range(k)) == tg_closed(c)

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            stratum_closed_A(2, 2, "even")
        with pytest.raises(ValueError):
            stratum_closed_A(2, 0, "both")
        with pytest.raises(ValueError):
            stratum_closed_B(1, 0, "even")

    @pytest.mark.parametrize("fn", [stratum_closed_A, stratum_closed_B], ids=["A", "B"])
    @pytest.mark.parametrize(
        "args,named",
        [((True, 0, "odd"), "k=True"), ((2, True, "even"), "l=True"),
         ((3.0, 0, "even"), "k=3.0"), ((3, 0.0, "odd"), "l=0.0")],
    )
    def test_non_int_argument_named(self, fn, args, named, monkeypatch):
        # A bool must not count as 0 or 1, nor a float reach math.comb.
        monkeypatch.setattr(formulas, "binom", None)
        with pytest.raises(TypeError, match=f"^{re.escape(named)} is not an int$"):
            fn(*args)


class TestMirrorGenusByStrata:
    def test_matches_closed_form(self):
        for c in range(4, 201, 2):
            assert tg_mirror_double_sum(c) == tg_mirror_closed(c)

    def test_matches_enumeration(self):
        for c in range(4, 15, 2):
            assert tg_mirror_double_sum(c) == tally(c, Mode.MIRROR_COLLAPSED).total_genus


class TestSentinels:
    def test_inexact_division(self):
        with pytest.raises(InexactDivision):
            _exact_div(5, 3)
        assert _exact_div(6, 3) == 2

    # A corrupted term, and for each average the crossing numbers it reaches:
    # correction_mirror(c) is correction(c) at odd c.
    MUTANTS = {
        "correction": (lambda real: lambda c: real(c) + Fraction(1, 10**9),
                       {"avg_genus": range(3, 21), "avg_genus_mirror": range(3, 21, 2)}),
        "tk_closed": (lambda real: lambda c: real(c) + 1, {"avg_genus": range(3, 21)}),
        "tg_mirror_closed": (lambda real: lambda c: real(c) - 1,
                             {"avg_genus_mirror": range(3, 21)}),
    }

    @pytest.mark.parametrize("name", MUTANTS)
    def test_corrupted_term_raises_branch_mismatch(self, monkeypatch, name):
        corrupt, reached = self.MUTANTS[name]
        monkeypatch.setattr(formulas, name, corrupt(getattr(formulas, name)))
        for average in ("avg_genus", "avg_genus_mirror"):
            for c in range(3, 21):
                if c in reached.get(average, ()):
                    with pytest.raises(BranchMismatch, match=f"^c={c}: "):
                        getattr(formulas, average)(c)
                else:
                    getattr(formulas, average)(c)
        # The CLI reuses each row's totals for its averages, and checks them too.
        result = CliRunner().invoke(cli.main, ["formulas", "--max-c", "20"])
        assert isinstance(result.exception, BranchMismatch) and result.exit_code != 0
        assert result.stdout_bytes == b""  # a table prints nothing on a failed row


@pytest.fixture(scope="module")
def found():
    return tallies(range(3, 11))


def corrupt(found, c, mode, **changes):
    """check_tallies of ``found`` with some fields of one Tally replaced."""
    copy = {k: dict(by_mode) for k, by_mode in found.items()}
    copy[c][mode] = dataclasses.replace(copy[c][mode], **changes)
    return check_tallies(copy)


class TestCheckTallies:
    def test_enumeration_agrees(self, found):
        assert check_tallies(found) == {c: (True, True) for c in range(3, 11)}

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("field", ["knot_count", "total_genus"])
    def test_each_total_flagged(self, found, mode, field):
        verdicts = corrupt(found, 7, mode, **{field: getattr(found[7][mode], field) + 1})
        assert verdicts[7] == (False, True)
        assert all(verdicts[c] == (True, True) for c in verdicts if c != 7)

    def test_stratum_entry_flagged(self, found):
        by_ell = dict(found[8][Mode.MIRROR_DISTINCT].by_ell)
        count, gsum = by_ell[2]
        by_ell[2] = (count + 1, gsum)
        verdicts = corrupt(found, 8, Mode.MIRROR_DISTINCT, by_ell=by_ell)
        assert verdicts[8] == (True, False)
        assert all(verdicts[c] == (True, True) for c in verdicts if c != 8)
