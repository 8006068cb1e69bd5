import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from twobridge import (
    EvenSequence,
    NoEvenExpansion,
    NotAKnotFraction,
    OutOfRange,
    RejectOddEntry,
    RejectOddLength,
    RejectZeroEntry,
    SequenceError,
    cf_value,
    crossing_number,
    enumerate_sequences,
    even_expansion,
    genus,
    sign_changes,
)


class Entries(tuple):
    """A tuple subclass other than EvenSequence."""


@st.composite
def even_sequences(draw, max_m=6, max_abs=8):
    m = draw(st.integers(1, max_m))
    return EvenSequence(
        2 * draw(st.integers(1, max_abs)) * draw(st.sampled_from((1, -1)))
        for _ in range(2 * m)
    )


@st.composite
def admissible_fractions(draw, max_digits=30):
    """0 < |x| < 1 with even numerator and odd denominator.

    The gcd of an even and an odd number is odd, so reduction keeps the
    parities.  The denominator's digit count is drawn first, so that every
    size up to ``max_digits`` digits is common.  The numerator is drawn
    modulo its range: Hypothesis favours the ends of a range, and
    num = den - 1 expands into den - 1 entries.
    """
    digits = draw(st.integers(1, max_digits))
    den = 2 * draw(st.integers(max(1, 10 ** (digits - 1) // 2), (10**digits - 1) // 2)) + 1
    num = 2 + 2 * (draw(st.integers(0, 10**max_digits)) % ((den - 1) // 2))
    return Fraction(draw(st.sampled_from((1, -1))) * num, den)


def tail_quotient_sum(x):
    """Sum of the partial quotients a1, a2, ... of |1/x| = [a0; a1, a2, ...]."""
    a = abs(x.numerator)
    b = x.denominator % a
    total = 0
    while b:
        total += a // b
        a, b = b, a % b
    return total


def all_sequences_with_weight(max_weight):
    """Every valid even sequence with sum of |entries| <= max_weight."""
    out = []
    values = [e for a in range(2, max_weight + 1, 2) for e in (a, -a)]
    for length in range(2, max_weight // 2 + 1, 2):
        for entries in product(values, repeat=length):
            if sum(abs(e) for e in entries) <= max_weight:
                out.append(entries)
    return out


def cf_value_matrix(seq):
    """Independent evaluation through 2x2 integer continuant products.

    The left-to-right product of the matrices [[a, 1], [1, 0]] carries
    the continuant of the whole sequence in its top-left entry and the
    continuant of the tail in its bottom-left entry; their ratio is the
    nested value.
    """
    p, q, r, s = 1, 0, 0, 1
    for a in seq:
        p, q, r, s = p * a + q, p, r * a + s, r
    return Fraction(r, p)


class TestValidate:
    def test_text_round_trip(self):
        seq = EvenSequence.from_text("2,-2,4,-6")
        assert tuple(seq) == (2, -2, 4, -6)
        assert seq.to_text() == "2,-2,4,-6"
        assert tuple(EvenSequence.from_text(" +2 , -2 ")) == (2, -2)

    @given(even_sequences(max_abs=10**20))
    def test_text_round_trip_property(self, seq):
        assert EvenSequence.from_text(seq.to_text()) == seq

    def test_bad_token(self):
        # int() alone takes digit-group underscores and non-ASCII digits.
        for text, token in [("2,x", "x"), ("2_0,2", "2_0"), ("２,２", "２")]:
            with pytest.raises(SequenceError, match=f"invalid integer token '{token}'"):
                EvenSequence.from_text(text)

    @pytest.mark.parametrize(
        "text,named",
        [
            # Well formed, so only int()'s digit limit refuses it.
            ("2,-" + "2" * 4301, "entry at index 1 has 4301 digits"),
            ("2," + "x" * 5000, "invalid integer token 'xxx"),
            ("3" * 600 + ",2", "entry 333"),
        ],
        ids=["past_the_limit", "bad_token", "long_odd_entry"],
    )
    def test_long_token_named_briefly(self, int_digit_limit, text, named):
        with pytest.raises(SequenceError) as err:
            EvenSequence.from_text(text)
        message = str(err.value)
        assert message.startswith(named) and len(message) < 200, message

    def test_odd_entry_past_the_limit(self, int_digit_limit):
        # str() of the entry would raise; the message gives its size instead.
        with pytest.raises(RejectOddEntry) as err:
            EvenSequence([2, 10**5000 + 1])
        assert str(err.value) == "entry <int of 16610 bits> at index 1 is odd"

    def test_even_sequence_returned_unchanged(self):
        seq = EvenSequence([2, -4])
        assert EvenSequence(seq) is seq

    @pytest.mark.parametrize("container", [list, tuple, Entries], ids=["list", "tuple", "subclass"])
    @pytest.mark.parametrize(
        "entries,error,message",
        [
            ([2, 3], RejectOddEntry, "entry 3 at index 1 is odd"),
            ([2, 0], RejectZeroEntry, "entry at index 1 is zero"),
            ([2, 2.0], RejectOddEntry, "entry 2.0 at index 1 is not an integer"),
            ([True, True], RejectOddEntry, "entry True at index 0 is not an integer"),
            ([2, -2, 4], RejectOddLength, "length 3 is not an even number >= 2"),
            ([], RejectOddLength, "length 0 is not an even number >= 2"),
        ],
        ids=["odd", "zero", "float", "bool", "odd_length", "empty"],
    )
    def test_other_containers_still_checked(self, container, entries, error, message):
        with pytest.raises(error) as err:
            EvenSequence(container(entries))
        assert str(err.value) == message
        seq = EvenSequence(container([2, -4]))
        assert type(seq) is EvenSequence and seq == (2, -4)


class TestCfValue:
    def test_four_level_nest(self):
        # 1/(2 + 1/(2 + 1/(2 + 1/2))) evaluated by hand: 12/29.
        assert cf_value((2, 2, 2, 2)) == Fraction(12, 29)
        assert cf_value_matrix((2, 2, 2, 2)) == Fraction(12, 29)

    def test_matrix_route_agrees_on_random_sequences(self):
        rng = random.Random(20260810)
        for _ in range(10_000):
            m = rng.randint(1, 6)
            seq = tuple(
                2 * rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(2 * m)
            )
            assert cf_value(seq) == cf_value_matrix(seq)

    def test_degenerate_tail_on_corrupt_input(self):
        # Only reachable by bypassing validation; the guard must fire
        # instead of a bare ZeroDivisionError.
        from twobridge.contfrac import DegenerateTail

        with pytest.raises(DegenerateTail):
            cf_value((1, -1))

    def test_value_shape(self):
        # Even length forces even numerator over odd denominator, inside (-1, 1).
        for seq in all_sequences_with_weight(8):
            v = cf_value(seq)
            assert v.numerator % 2 == 0
            assert v.denominator % 2 == 1
            assert 0 < abs(v) < 1


class TestEvenExpansion:
    def test_even_denominator_rejected(self):
        with pytest.raises(NotAKnotFraction):
            even_expansion(Fraction(1, 2))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            even_expansion(Fraction(3, 2))
        with pytest.raises(OutOfRange):
            even_expansion(Fraction(0))

    @pytest.mark.parametrize("x", [0.25, 0.4])
    def test_float_refused(self, x):
        with pytest.raises(TypeError, match=f"{x!r} is a float"):
            even_expansion(x)

    def test_odd_over_odd_has_no_expansion(self):
        with pytest.raises(NoEvenExpansion):
            even_expansion(Fraction(1, 3))

    def test_uniqueness_by_exhaustion(self):
        # Among all even sequences of weight <= 8, exactly one evaluates
        # to 2/5 and exactly one to 2/3.
        hits_2_5 = [s for s in all_sequences_with_weight(8) if cf_value(s) == Fraction(2, 5)]
        hits_2_3 = [s for s in all_sequences_with_weight(8) if cf_value(s) == Fraction(2, 3)]
        assert hits_2_5 == [(2, 2)]
        assert hits_2_3 == [(2, -2)]

    @given(admissible_fractions())
    def test_fraction_round_trip_property(self, x):
        # Values near 1/(e +- 1) expand into about as many entries as their
        # denominator, e.g. (q-1)/q into q-1 entries.  Such values have a
        # large partial quotient past the first; skip them so every draw
        # stays fast.
        assume(tail_quotient_sum(x) <= 2000)
        assert cf_value(even_expansion(x)) == x


class TestInvariants:
    @pytest.mark.parametrize(
        "seq,expected",
        [((2, 2), 0), ((2, -2), 1), ((2, -2, 2, 2), 2)],
    )
    def test_sign_changes(self, seq, expected):
        assert sign_changes(seq) == expected

    @pytest.mark.parametrize(
        "seq,expected",
        [((2, 2), 4), ((2, -2), 3), ((2, -2, 2, 2), 6)],
    )
    def test_crossing_number(self, seq, expected):
        assert crossing_number(seq) == expected

    @pytest.mark.parametrize(
        "seq,expected",
        [((2, 2), 1), ((2, -2, 2, 2), 2), ((2, 2, 2, 2, 2, 2), 3)],
    )
    def test_genus(self, seq, expected):
        assert genus(seq) == expected

    @pytest.mark.parametrize("fn", [sign_changes, crossing_number, genus],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize(
        "seq,error",
        [([0, 2], RejectZeroEntry), ([3], RejectOddEntry), ([1, 2, 3], RejectOddEntry),
         ([2], RejectOddLength), ([2, 2.0], RejectOddEntry)],
        ids=["zero", "odd_single", "odd_entries", "odd_length", "float"],
    )
    def test_invalid_sequence_refused(self, fn, seq, error):
        # Unchecked, these read sign_changes([0, 2]) == 1, crossing_number([3]) == 3
        # and genus([1, 2, 3]) == 1.
        with pytest.raises(error):
            fn(seq)

    @given(even_sequences())
    def test_parity_and_bounds(self, seq):
        ell = sign_changes(seq)
        c = crossing_number(seq)
        m2 = len(seq)
        assert ell % 2 == c % 2
        assert 0 <= ell <= m2 - 1
        assert m2 <= c - 1

    def test_reverse_negate_fraction_relation(self):
        # Measured on every sequence with crossing number <= 12 and then
        # pinned: the two presentations of a knot share a denominator p
        # and their numerators multiply to 1 mod p.
        for c in range(3, 13):
            for s in enumerate_sequences(c):
                v = cf_value(s)
                w = cf_value(tuple(-e for e in s[::-1]))
                p = v.denominator
                assert w.denominator == p
                assert (v.numerator * w.numerator) % p == 1 % p
