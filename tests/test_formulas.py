import dataclasses
import re
from fractions import Fraction
from math import comb

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
    tg_closed,
    tg_mirror_closed,
    tk_closed,
    tk_mirror_closed,
)
from twobridge import cli, formulas
from twobridge.formulas import (
    BranchMismatch,
    InexactDivision,
    _amphichiral_stratum,
    _exact_div,
)
from twobridge.enumeration import strata

from test_enumeration import burnside_unit

CLOSED_FORMS_OF_C = (
    tk_closed, tg_closed, tk_mirror_closed, tg_mirror_closed,
    correction, correction_mirror, avg_genus, avg_genus_mirror,
    residual, residual_mirror,
)


def stratum_sum_A(k, l, parity):
    """Direct summation over the genus window, the defining expression."""
    if parity == "even":
        return sum(
            comb(k + l - 1, 2 * l) * comb(k - l - 1, 2 * m - 2 * l - 1)
            for m in range(l + 1, (k + l) // 2 + 1)
        )
    total = 0
    for m in range(l + 1, (k + l + 1) // 2 + 1):
        total += comb(k + l, 2 * l + 1) * comb(k - l - 1, 2 * m - 2 * l - 2)
        if (k + l) % 2 == 1:
            total += comb((k + l - 1) // 2, l) * comb((k - l - 1) // 2, m - l - 1)
    return total


def stratum_sum_B(k, l, parity):
    if parity == "even":
        return sum(
            m * comb(k + l - 1, 2 * l) * comb(k - l - 1, 2 * m - 2 * l - 1)
            for m in range(l + 1, (k + l) // 2 + 1)
        )
    total = 0
    for m in range(l + 1, (k + l + 1) // 2 + 1):
        total += m * comb(k + l, 2 * l + 1) * comb(k - l - 1, 2 * m - 2 * l - 2)
        if (k + l) % 2 == 1:
            total += (
                m * comb((k + l - 1) // 2, l) * comb((k - l - 1) // 2, m - l - 1)
            )
    return total


class TestKnotCounts:
    @pytest.mark.parametrize("fn", CLOSED_FORMS_OF_C, ids=lambda fn: fn.__name__)
    def test_rejects_small_c(self, fn):
        # Non-int c: tests/test_public_api.py, test_non_int_refused_by_name.
        with pytest.raises(ValueError, match="^crossing number must be >= 3, not 2$"):
            fn(2)


class TestStratumClosedForms:
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
        [((True, 0, "odd"), "k True"), ((2, True, "even"), "l True"),
         ((3.0, 0, "even"), "k 3.0"), ((3, 0.0, "odd"), "l 0.0")],
        ids=["args0-k=True", "args1-l=True", "args2-k=3.0", "args3-l=0.0"],
    )
    def test_non_int_argument_named(self, fn, args, named, monkeypatch):
        # A bool must not count as 0 or 1, nor a float reach math.comb.
        monkeypatch.setattr(formulas, "comb", None)
        with pytest.raises(TypeError, match=f"^{re.escape(named)} is not an int$"):
            fn(*args)


class TestMirrorGenusByStrata:
    def test_matches_closed_form(self):
        for c in range(4, 201, 2):
            total = sum(m * burnside_unit(c, ell, m)[Mode.MIRROR_COLLAPSED] for ell, m in strata(c))
            assert total == tg_mirror_closed(c), c


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

    def test_last_stratum_at_odd_c_flagged(self, found):
        # At odd c the last stratum, ell = c - 2, holds knots (1 + symmetric).
        by_ell = dict(found[9][Mode.MIRROR_DISTINCT].by_ell)
        assert max(by_ell) == 7
        count, gsum = by_ell[7]
        by_ell[7] = (count + 1, gsum)
        verdicts = corrupt(found, 9, Mode.MIRROR_DISTINCT, by_ell=by_ell)
        assert verdicts[9] == (True, False)
        assert all(verdicts[c] == (True, True) for c in verdicts if c != 9)

    @pytest.mark.parametrize("field", [0, 1], ids=["count", "genus_sum"])
    def test_collapsed_stratum_entry_flagged(self, found, field):
        # One mirror-collapsed stratum wrong, every total and every
        # mirror-distinct stratum right: ell = 4 at c = 8 holds the
        # amphichiral class [2, -2, 2, 2, -2, 2], of genus 3.
        by_ell = dict(found[8][Mode.MIRROR_COLLAPSED].by_ell)
        assert _amphichiral_stratum(4, 2, "even") == (1, 3)
        pair = list(by_ell[4])
        pair[field] += 1
        by_ell[4] = tuple(pair)
        verdicts = corrupt(found, 8, Mode.MIRROR_COLLAPSED, by_ell=by_ell)
        assert verdicts[8] == (True, False)
        assert all(verdicts[c] == (True, True) for c in verdicts if c != 8)


def test_amphichiral_strata_sum_to_the_mirror_totals():
    # Burnside over {1, mirror}: the amphichiral classes number
    # 2 tk_mirror - tk, with genus sum 2 tg_mirror - tg; none at odd c.
    for c in range(3, 401):
        k, parity = c // 2, ("even" if c % 2 == 0 else "odd")
        pairs = [_amphichiral_stratum(k, l, parity) for l in range(k)]
        assert sum(p for p, _ in pairs) == 2 * tk_mirror_closed(c) - tk_closed(c), c
        assert sum(g for _, g in pairs) == 2 * tg_mirror_closed(c) - tg_closed(c), c
        assert c % 2 == 0 or not any(p or g for p, g in pairs), c
