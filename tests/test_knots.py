import re
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from twobridge import (
    EvenSequence,
    KnotClass,
    Mode,
    SequenceError,
    canonicalize,
    cf_value,
    enumerate_classes,
    enumerate_sequences,
    is_amphichiral,
    tally,
)
from twobridge import enumeration, knots
from twobridge.enumeration import sign_patterns
from twobridge.identities import binom
from twobridge.knots import _orbit_min

D = Mode.MIRROR_DISTINCT
C = Mode.MIRROR_COLLAPSED


def stratum_classes(b, ell, mode):
    """Classes of the stratum of halved magnitudes b with ell sign changes.

    Brute force: the sequences of b and of reversed b, deduplicated by
    orbit minimum.
    """
    return {
        _orbit_min(tuple(2 * x * s for x, s in zip(mags, signs)), mode)
        for mags in (b, b[::-1])
        for signs in sign_patterns(len(mags), ell)
    }


@st.composite
def even_sequences(draw, max_m=5, max_abs=6):
    m = draw(st.integers(1, max_m))
    return EvenSequence(
        2 * draw(st.integers(1, max_abs)) * draw(st.sampled_from((1, -1)))
        for _ in range(2 * m)
    )


class TestCanonicalize:
    def test_singleton_orbit(self):
        assert tuple(canonicalize((2, -2), D).canonical) == (2, -2)

    def test_two_element_orbit(self):
        # reverse-negation of (4, 2) is (-2, -4), which precedes it.
        assert tuple(canonicalize((4, 2), D).canonical) == (-2, -4)

    def test_collapsed_orbit(self):
        assert tuple(canonicalize((2, -2), C).canonical) == (-2, 2)

    def test_idempotent(self):
        for mode in (D, C):
            kc = canonicalize((4, -2, 2, 6), mode)
            assert canonicalize(kc.canonical, mode) == kc

    @given(even_sequences(), st.sampled_from((D, C)))
    def test_constant_on_orbits(self, seq, mode):
        images = [tuple(-e for e in seq[::-1])]
        if mode is C:
            images += [tuple(-e for e in seq), seq[::-1]]
        base = canonicalize(seq, mode)
        for g in images:
            assert canonicalize(g, mode) == base

    @given(even_sequences(max_abs=10**6), st.sampled_from((D, C)))
    def test_canonical_form_passes_validation(self, seq, mode):
        # Built without the check, so it must pass the check when made again.
        canonical = canonicalize(list(seq), mode).canonical
        assert type(canonical) is EvenSequence
        assert EvenSequence(list(canonical)) == canonical

    def test_text_round_trip(self):
        kc = canonicalize((4, 2), D)
        assert kc.to_text() == "D:-2,-4"
        assert KnotClass.from_text("D:-2,-4") == kc

    def test_bad_mode_letter_named(self):
        with pytest.raises(SequenceError, match="'X'"):
            KnotClass.from_text("X:2,2")

    @given(even_sequences(max_abs=10**6), st.sampled_from((D, C)))
    def test_text_round_trip_property(self, seq, mode):
        kc = canonicalize(seq, mode)
        assert KnotClass.from_text(kc.to_text()) == kc

    @given(even_sequences(), st.sampled_from((D, C)))
    def test_non_canonical_text_names_canonical_form(self, seq, mode):
        kc = canonicalize(seq, mode)
        assume(kc.canonical != seq)
        with pytest.raises(SequenceError, match=re.escape(kc.to_text())):
            KnotClass.from_text(f"{mode.value}:{seq.to_text()}")


@pytest.mark.parametrize(
    "entry",
    [
        lambda mode: canonicalize((2, -4), mode),
        lambda mode: next(enumerate_classes(7, mode)),
        lambda mode: tally(7, mode),
    ],
    ids=["canonicalize", "enumerate_classes", "tally"],
)
def test_mode_letter_refused_before_any_work(entry, monkeypatch):
    # A letter must neither take the collapsed rules unnoticed ("D" would
    # give 7 classes at c = 7, not 14) nor die with a bare KeyError.
    def refuse(*_, **__):
        raise AssertionError("work started")

    monkeypatch.setattr(knots, "_orbit_min", refuse)
    monkeypatch.setattr(enumeration, "strata", refuse)
    monkeypatch.setattr(enumeration, "tallies", refuse)
    with pytest.raises(TypeError, match="mode 'D' is not a Mode member"):
        entry("D")


class TestAmphichiral:
    def test_examples(self):
        assert is_amphichiral((2, 2)) is True
        assert is_amphichiral((2, -2)) is False
        assert is_amphichiral((2, 4)) is False

    def test_single_amphichiral_class_at_six_crossings(self):
        amph = [
            kc
            for kc in enumerate_classes(6, D)
            if is_amphichiral(kc.canonical)
        ]
        assert len(amph) == 1
        assert tuple(amph[0].canonical) == (-2, 2, 2, -2)

    def test_never_at_odd_crossing_number(self):
        for c in (3, 5, 7, 9):
            assert not any(
                is_amphichiral(kc.canonical) for kc in enumerate_classes(c, D)
            )

    def test_same_class_as_negation_iff_palindrome(self):
        # Measured up to 12 crossings and pinned: a sequence shares its
        # mirror-distinct class with its negation exactly when it is a
        # palindrome, and never when its magnitude vector is asymmetric.
        for c in range(3, 13):
            for s in enumerate_sequences(c):
                t = tuple(s)
                same = canonicalize(t, D) == canonicalize(tuple(-e for e in t), D)
                assert same == (t == t[::-1])
                assert is_amphichiral(t) == same
                mags = tuple(abs(e) for e in t)
                if mags != mags[::-1]:
                    assert not same


class TestStrata:
    def test_members_examples(self):
        assert stratum_classes((1, 1), 1, D) == {
            canonicalize((2, -2), D).canonical,
            canonicalize((-2, 2), D).canonical,
        }
        assert len(stratum_classes((1, 1), 0, D)) == 1
        assert stratum_classes((1, 2), 0, D) == {
            canonicalize((2, 4), D).canonical,
            canonicalize((-2, -4), D).canonical,
        }

    def test_member_cardinalities(self):
        # Asymmetric magnitudes give 2 C(2m-1, ell) classes; symmetric
        # magnitudes give C(2m-1, ell) for even ell and
        # C(2m-1, ell) + C(m-1, (ell-1)/2) for odd ell.
        for m in (1, 2, 3):
            for b in product(range(1, 4), repeat=2 * m):
                for ell in range(2 * m):
                    got = len(stratum_classes(b, ell, D))
                    if b[::-1] != b:
                        want = 2 * binom(2 * m - 1, ell)
                    elif ell % 2 == 0:
                        want = binom(2 * m - 1, ell)
                    else:
                        want = binom(2 * m - 1, ell) + binom(m - 1, (ell - 1) // 2)
                    assert got == want, (b, ell)


class TestModeRelations:
    def test_collapsed_classes_contain_one_or_two_distinct(self):
        for c in range(3, 11):
            groups = {}
            for kc in enumerate_classes(c, D):
                key = canonicalize(kc.canonical, C)
                groups.setdefault(key, []).append(kc)
            assert len(groups) == tally(c, C).knot_count
            for key, members in groups.items():
                assert len(members) in (1, 2)
                amph = is_amphichiral(members[0].canonical)
                assert (len(members) == 1) == amph

    def test_odd_crossings_double(self):
        for c in (3, 5, 7, 9, 11):
            assert tally(c, D).knot_count == 2 * tally(c, C).knot_count

    def test_fraction_separates_classes(self):
        # Consistency audit: distinct classes with a common denominator p
        # are never related by q1 == q2 or q1 q2 == 1 mod p, while the
        # two presentations inside one class always are.
        for c in range(3, 13):
            by_den = {}
            for kc in enumerate_classes(c, D):
                v = cf_value(kc.canonical)
                w = cf_value(tuple(-e for e in kc.canonical[::-1]))
                assert w.denominator == v.denominator
                p = v.denominator
                qs = {v.numerator % p, w.numerator % p}
                by_den.setdefault(p, []).append(qs)
            for p, entries in by_den.items():
                for i in range(len(entries)):
                    for j in range(i + 1, len(entries)):
                        for q1 in entries[i]:
                            for q2 in entries[j]:
                                assert q1 != q2
                                assert (q1 * q2) % p != 1 % p
