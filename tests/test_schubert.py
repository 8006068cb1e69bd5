"""A second brute-force count of 2-bridge knots, from Schubert's fractions.

For 0 < q < p the regular continued fraction [a1; ..., ak] of p/q with
ak >= 2 gives a reduced alternating diagram of K(p/q) with a1 + ... + ak
crossings (Kauffman, Murasugi, Thistlethwaite 1987), and for odd p,
K(p/q) = K(p/q') iff q' = q or q**-1 (mod p), the mirror image being
q -> -q (Schubert 1956).  So the knots with crossing number c are the
odd-p fractions folded from the compositions of c with last part >= 2,
one class per key (p, min(q, q**-1)), or with mirrors collapsed
(p, min(q, q**-1, p - q, p - q**-1)).  Genus and sign changes come
from the even expansion of q/p or (q - p)/p, whichever numerator is
even.  Nothing here rests on even sequences up to reverse-negation.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from twobridge import Mode, crossing_number, even_expansion, genus, is_amphichiral, sign_changes, tallies


def schubert_classes(c):
    """{Mode: {class key: (genus, sign changes)}} of the knots with crossing number c."""
    found = {mode: {} for mode in Mode}
    for k in range(c - 1):
        for cuts in combinations(range(1, c - 1), k):
            parts = [b - a for a, b in zip((0, *cuts), (*cuts, c))]
            p, q = parts[-1], 1
            for a in reversed(parts[:-1]):
                p, q = a * p + q, p
            if p % 2 == 0:
                continue  # a two-component link
            seq = even_expansion(Fraction(q if q % 2 == 0 else q - p, p))
            assert crossing_number(seq) == c, (p, q)
            assert is_amphichiral(seq) == (q * q % p == p - 1), (p, q)
            inverse = pow(q, -1, p)
            invariants = genus(seq), sign_changes(seq)
            found[Mode.MIRROR_DISTINCT][p, min(q, inverse)] = invariants
            found[Mode.MIRROR_COLLAPSED][p, min(q, inverse, p - q, p - inverse)] = invariants
    return found


def check(c):
    """Require knot count, total genus, by_genus and by_ell of c to equal tallies' in both modes."""
    counted = tallies([c])[c]
    for mode, classes in schubert_classes(c).items():
        t = counted[mode]
        by_ell = {}
        for g, ell in classes.values():
            n, genus_sum = by_ell.get(ell, (0, 0))
            by_ell[ell] = (n + 1, genus_sum + g)
        assert len(classes) == t.knot_count, (c, mode)
        assert sum(g for g, _ in classes.values()) == t.total_genus, (c, mode)
        assert dict(Counter(g for g, _ in classes.values())) == t.by_genus, (c, mode)
        assert by_ell == t.by_ell, (c, mode)


@pytest.mark.parametrize("c", range(3, 17))
def test_schubert_counts_equal_tallies(c):
    check(c)
