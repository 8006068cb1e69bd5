"""Acceptance sweep: one test per criterion, one pass/fail line each.

Every comparison is exact; there are no tolerances anywhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

from fractions import Fraction

from twobridge import (
    Mode,
    avg_genus,
    avg_genus_mirror,
    cf_value,
    check_tallies,
    correction,
    correction_mirror,
    enumerate_classes,
    enumerate_sequences,
    even_expansion,
    identity_suite,
    is_amphichiral,
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

D = Mode.MIRROR_DISTINCT
C = Mode.MIRROR_COLLAPSED

# Reference values for crossing numbers 3..15: knot count, total genus
# and average genus, mirrors distinct then mirrors collapsed.
TABLE1 = {
    "tk": [2, 1, 4, 5, 14, 21, 48, 85, 182, 341, 704, 1365, 2774],
    "tg": [2, 1, 6, 8, 26, 44, 114, 220, 518, 1052, 2354, 4892, 10646],
    "avg": ["1", "1", "3/2", "8/5", "13/7", "44/21", "19/8", "44/17",
            "37/13", "1052/341", "107/32", "4892/1365", "5323/1387"],
    "tk*": [1, 1, 2, 3, 7, 12, 24, 45, 91, 176, 352, 693, 1387],
    "tg*": [1, 1, 3, 5, 13, 25, 57, 117, 259, 543, 1177, 2485, 5323],
    "avg*": ["1", "1", "3/2", "5/3", "13/7", "25/12", "19/8", "13/5",
             "37/13", "543/176", "107/32", "355/99", "5323/1387"],
}


def report(name, failures):
    print(f"{'PASS' if not failures else 'FAIL'}: {name}")
    assert not failures, failures[:10]


def test_criterion_1_table1_reproduction():
    failures = []
    found = tallies(range(3, 16))
    for i, c in enumerate(range(3, 16)):
        closed = (
            tk_closed(c), tg_closed(c), avg_genus(c),
            tk_mirror_closed(c), tg_mirror_closed(c), avg_genus_mirror(c),
        )
        td, tc = found[c][D], found[c][C]
        enum = (
            td.knot_count, td.total_genus,
            Fraction(td.total_genus, td.knot_count),
            tc.knot_count, tc.total_genus,
            Fraction(tc.total_genus, tc.knot_count),
        )
        expected = (
            TABLE1["tk"][i], TABLE1["tg"][i], Fraction(TABLE1["avg"][i]),
            TABLE1["tk*"][i], TABLE1["tg*"][i], Fraction(TABLE1["avg*"][i]),
        )
        if closed != expected:
            failures.append(("closed", c, closed, expected))
        if enum != expected:
            failures.append(("enum", c, enum, expected))
    report("criterion 1: table values for c in 3..15, closed and enumerated", failures)


def test_criterion_2_closed_form_oracle_sweep():
    verdicts = check_tallies(tallies(range(3, 23)))
    failures = [("totals", c) for c, (totals_ok, _) in verdicts.items() if not totals_ok]
    if list(verdicts) != list(range(3, 23)):
        failures.append(("coverage", list(verdicts)))
    report("criterion 2: closed forms equal enumeration for c in 3..22, both modes", failures)


def test_criterion_3_stratum_sweep():
    verdicts = check_tallies(tallies(range(3, 19)))
    failures = [("strata", c) for c, (_, strata_ok) in verdicts.items() if not strata_ok]
    if list(verdicts) != list(range(3, 19)):
        failures.append(("coverage", list(verdicts)))
    for c in range(3, 19):
        k, parity = c // 2, ("even" if c % 2 == 0 else "odd")
        sum_a = sum(stratum_closed_A(k, l, parity) for l in range(k))
        sum_b = sum(stratum_closed_B(k, l, parity) for l in range(k))
        if sum_a != tk_closed(c) or sum_b != tg_closed(c):
            failures.append(("sums", c))
    report("criterion 3: strata reconcile and sum to the totals for c in 3..18", failures)


def test_criterion_4_identity_suite():
    reports = identity_suite(64)
    failures = [str(r) for r in reports if not r.passed]
    ids = [r.identity_id for r in reports]
    if ids != ["wellknown", "x2_specialization", "weighted_sums"] + ["alpha_recurrence"] * 5:
        failures.append(("coverage", ids))
    report("criterion 4: identity suite exact for n <= 64", failures)


def test_criterion_5_asymptote_property():
    failures = []
    for c in range(3, 10_001):
        r = residual(c)
        if r != correction(c):
            failures.append(("distinct", c))
        if residual_mirror(c) != correction_mirror(c):
            failures.append(("collapsed", c))
        if c >= 20:
            # |r| < 2^(-c/4) compared through fourth powers, exactly.
            if abs(r.numerator) ** 4 * 2**c >= r.denominator**4:
                failures.append(("bound", c))
    report("criterion 5: residuals equal the printed corrections and decay, c <= 10000", failures)


def test_criterion_6_mirror_relations():
    failures = []
    for c in range(3, 10_001, 2):
        if tk_closed(c) != 2 * tk_mirror_closed(c):
            failures.append(("tk", c))
        if tg_closed(c) != 2 * tg_mirror_closed(c):
            failures.append(("tg", c))
    for c in range(4, 19, 2):
        amph = sum(
            1 for kc in enumerate_classes(c, D) if is_amphichiral(kc.canonical)
        )
        if amph != 2 * tk_mirror_closed(c) - tk_closed(c):
            failures.append(("amphichiral", c, amph))
    report("criterion 6: mirror halving at odd c <= 10000, amphichiral counts at even c <= 18", failures)


def test_criterion_7_round_trip():
    failures = []
    for c in range(3, 15):
        for s in enumerate_sequences(c):
            e = even_expansion(cf_value(s))
            if e != s:
                failures.append((tuple(s), tuple(e)))
    report("criterion 7: expansion round trip returns each sequence itself for c <= 14", failures)
