"""Program-independent reference values for the benchmark's checks.

Nothing here imports twobridge.  Work counts come from binomials and the
paper's closed forms; the seeded fraction batch and the checks of its
results use a separate evaluator and orbit minimum, so a defect in the
program cannot also hide in its own yardstick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb


@dataclass
class Checks:
    """Exact checks attempted, and a label for each one that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def units(c: int) -> list:
    """The (ell, m) units at crossing number c: ell sign changes, genus m.

    ell has the parity of c and runs up to c - 2; a sequence of genus m
    has 2m entries with magnitudes summing to (c + ell)/2, so
    ell < 2m <= (c + ell)/2.
    """
    return [
        (ell, m)
        for ell in range(c % 2, c - 1, 2)
        for m in range(ell // 2 + 1, (c + ell) // 4 + 1)
    ]


def unit_sequences(c: int, ell: int, m: int) -> int:
    """Even sequences in one unit: compositions times sign patterns."""
    return comb((c + ell) // 2 - 1, 2 * m - 1) * 2 * comb(2 * m - 1, ell)


def sequences(c: int) -> int:
    """Even sequences with crossing number c."""
    return sum(unit_sequences(c, ell, m) for ell, m in units(c))


def classes(c: int, mode: str) -> int:
    """2-bridge knots with crossing number c; mode D keeps mirrors distinct, C collapses them."""
    if mode == "D":
        if c % 2 == 0:
            return (2 ** (c - 2) - 1) // 3
        extra = 0 if c % 4 == 1 else 2
        return (2 ** (c - 2) + 2 ** ((c - 1) // 2) + extra) // 3
    if c % 2 == 0:
        extra = 0 if c % 4 == 0 else -1
        return (2 ** (c - 3) + 2 ** ((c - 4) // 2) + extra) // 3
    extra = 0 if c % 4 == 1 else 1
    return (2 ** (c - 3) + 2 ** ((c - 3) // 2) + extra) // 3


BATCH_LENGTHS = (2, 4, 8, 16, 32, 64)
BATCH_MAX_ENTRY = 16


def fraction_batch(seed: int, count: int):
    """Yield seeded admissible fractions: values of random even sequences.

    Sequence lengths are drawn from BATCH_LENGTHS and entries from the
    nonzero even integers up to BATCH_MAX_ENTRY in absolute value, so
    short and long expansions, and small and large denominators, are
    mixed in every batch.  Drawing p/q uniformly instead gives
    expansions whose length has a heavy tail (p/q near 1 expands to
    about q entries), so the cost of a batch would swing from seed to
    seed.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(BATCH_LENGTHS)
        yield value([rng.choice((-2, 2)) * rng.randint(1, BATCH_MAX_ENTRY // 2)
                     for _ in range(n)])


def value(seq) -> Fraction:
    """1/(e_1 + 1/(e_2 + ... + 1/e_n)), evaluated from the tail."""
    num, den = 0, 1
    for e in reversed(seq):
        num, den = den, e * den + num
    return Fraction(num, den)


def orbit_min(seq: tuple, mode: str) -> tuple:
    rn = tuple(-e for e in reversed(seq))
    if mode == "D":
        return min(seq, rn)
    return min(seq, rn, tuple(-e for e in seq), seq[::-1])


def batch_line_ok(x: Fraction, line: str) -> bool:
    """Check one output line of the batch against x, independently.

    The line is "p/q sequence cf_value canonical_D canonical_C amphichiral".
    """
    fields = line.split(" ")
    if len(fields) != 6 or fields[0] != f"{x.numerator}/{x.denominator}":
        return False
    _, seq_text, cf_text, canon_d, canon_c, amph = fields
    seq = tuple(int(t) for t in seq_text.split(","))
    if len(seq) % 2 or any(e == 0 or e % 2 for e in seq):
        return False
    neg = tuple(-e for e in seq)
    return (
        cf_text == fields[0]
        and value(seq) == x
        and canon_d == "D:" + ",".join(map(str, orbit_min(seq, "D")))
        and canon_c == "C:" + ",".join(map(str, orbit_min(seq, "C")))
        and amph == str(orbit_min(seq, "D") == orbit_min(neg, "D"))
    )
