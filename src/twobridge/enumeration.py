"""Brute-force generation of all 2-bridge knots with a given crossing number.

Sequences with crossing number c are generated stratum by stratum: the
sign-change count ell runs over the residue class of c mod 2, the genus
m over the feasible window, the magnitude vector over all positive
compositions of (c + ell)/2 into 2m parts, and the signs over all
patterns with exactly ell changes.  Counting the sequences that are
their own orbit minimum turns the sequence stream into knot counts,
which serve as the oracle for every closed form in
:mod:`twobridge.formulas`.
"""

import os
import signal
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from math import comb
from operator import mul, sub

from .contfrac import EvenSequence, _require_int
from .knots import KnotClass, Mode, _require_mode


class ProcessPoolExecutor:
    """This module's own fork pool, not ``concurrent.futures``': one child per task.

    The pool is as wide as the list it maps: ``map(fn, tasks)`` forks one
    child for each task.  Child k pins itself to ``cpus[k]`` unless ``cpus``
    is empty, one CPU per task (a refused pin is ignored, and a ``cpus``
    shorter than the tasks is refused before any fork), writes the ints of
    ``fn(task)`` as text down its own pipe and leaves by ``os._exit``, so
    it never flushes this process's buffers or runs its exit handlers.
    The parent only waits: it reads each pipe and reaps each child in task
    order, and raises ``ChildProcessError`` naming the exit status of the
    first child that failed.  A fork that fails closes its pipe before the
    error propagates.  ``shutdown``, which ``__exit__`` calls, kills and
    reaps every child that ``map`` left behind, so none outlives the pool.
    Needs ``os.fork``; ``tallies`` reads the class from this module at
    each call, so a caller may replace it.
    """

    def __init__(self, cpus):
        self._cpus = cpus
        self._children = []  # (pid, read end of its pipe), not yet reaped

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def map(self, fn, tasks) -> list:
        """A list of ``list(fn(task))`` for each task, each run in its own child.

        Raises ``ValueError`` before any fork if ``cpus`` is not empty and
        holds fewer CPUs than there are tasks.
        """
        tasks = list(tasks)
        if self._cpus and len(self._cpus) < len(tasks):
            raise ValueError(f"{len(tasks)} tasks need one CPU each, but the pool has {len(self._cpus)}")
        for k, task in enumerate(tasks):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    if self._cpus:
                        try:
                            os.sched_setaffinity(0, {self._cpus[k]})
                        except OSError:  # placement only speeds the pool up
                            pass
                    with open(w, "wb") as out:
                        out.write(" ".join(map(str, fn(task))).encode())
                    code = 0
                except BaseException as exc:  # a child never returns into the caller's code
                    os.write(2, f"pool child {os.getpid()}: {exc!r}\n".encode())
                finally:
                    os._exit(code)
            os.close(w)
            self._children.append((pid, open(r, "rb")))
        results = []
        while self._children:
            pid, pipe = self._children[0]
            with pipe:
                text = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self._children[0]
            if code:
                raise ChildProcessError(f"pool child {pid} failed with exit status {code}")
            results.append(list(map(int, text.split())))
        return results

    def shutdown(self):
        """Kill and reap every child that ``map`` has not reaped."""
        while self._children:
            pid, pipe = self._children.pop()
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def compositions(total: int, parts: int):
    """Yield every list of ``parts`` positive integers summing to ``total``.

    Lexicographic order; yields nothing when total < parts.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < parts:
        return
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def sign_patterns(length: int, ell: int):
    """Yield every +/-1 tuple of ``length`` with exactly ``ell`` adjacent changes.

    2 * C(length-1, ell) patterns: a leading sign (positive first) and a
    choice of change positions, in lexicographic position order.
    """
    if not 0 <= ell <= length - 1:
        return
    for first in (1, -1):
        for changes in combinations(range(1, length), ell):
            flips = [first] + [1] * (length - 1)
            for i in changes:
                flips[i] = -1
            yield tuple(accumulate(flips, mul))


def strata(c: int):
    """Feasible (ell, m) pairs for crossing number c, in generation order."""
    _require_int("crossing number", c, 3)
    for ell in range(c % 2, c - 1, 2):
        for m in range(ell // 2 + 1, (c + ell) // 4 + 1):
            yield ell, m


def enumerate_sequences(c: int):
    """Yield every valid even sequence with crossing number ``c`` exactly once.

    Sequences, not knots: each knot usually appears twice (once per
    presentation).  Order is deterministic: ell ascending, genus
    ascending, compositions and sign patterns lexicographic.
    """
    for ell, m in strata(c):
        patterns = list(sign_patterns(2 * m, ell))
        for b in compositions((c + ell) // 2, 2 * m):
            mags = [2 * x for x in b]
            for signs in patterns:
                yield EvenSequence(map(mul, mags, signs))


def _class_keys(c: int, mode: Mode):
    """Yield the canonical key of each knot class with crossing number ``c``, as a tuple.

    Order: first encounter in the sequence stream of
    :func:`enumerate_sequences` (ell, genus, composition, sign-pattern
    index), with no set and no per-sequence canonicalisation.  Every
    orbit lies in the sequences of one composition b and its reverse, so
    the walk zips each b with ``b <= b[::-1]`` into its sequences ``own``
    and their reversals ``rev``.  sign_patterns yields the negative-first
    half last, in the same change order, so negation moves a pattern
    index by ``half`` (mod P), and reverse-negation is the reversal of
    the negation.  Each key is the least of a sequence and its partners
    (mode C: of a positive-first one, its negation and their reversals),
    at the orbit's first member in b's block.  A palindromic block holds
    whole orbits, and ``dict.fromkeys`` keeps each key where it first
    occurs, at its member of least index.
    """
    _require_mode(mode)
    distinct = mode is Mode.MIRROR_DISTINCT
    for ell, m in strata(c):
        half = comb(2 * m - 1, ell)
        # columns[j][x] lists 2x * p[j] over the sign patterns p, for every
        # part x a composition of (c + ell)/2 into 2m parts can have.  Row 0
        # is a placeholder: in the largest units every part is 1, so a row
        # of zeros would double the table.
        columns = [[None] + [[2 * x * s for s in signs] for x in range(1, (c + ell) // 2 - 2 * m + 2)]
                   for signs in zip(*sign_patterns(2 * m, ell))]
        for b in compositions((c + ell) // 2, 2 * m):
            rb = b[::-1]
            if rb < b:
                continue
            cols = list(map(list.__getitem__, columns, b))
            own = list(zip(*cols))
            rev = list(zip(*reversed(cols)))
            if distinct:
                keys = map(min, own, rev[half:] + rev[:half])
            else:
                keys = map(min, own, own[half:], rev[half:], rev)
            yield from (dict.fromkeys(keys) if rb == b else keys)


def enumerate_classes(c: int, mode: Mode):
    """Yield each knot class with crossing number ``c`` once, in the order of ``_class_keys``."""
    for key in _class_keys(c, mode):
        # Every key is 2m entries 2x * (+/-1) from the unit's columns: valid, unchecked.
        yield KnotClass(tuple.__new__(EvenSequence, key), mode)


@dataclass(frozen=True)
class Tally:
    """Aggregate knot counts for one crossing number and counting mode.

    ``by_genus`` maps genus to class count; ``by_ell`` maps sign-change
    count to a (class count, genus sum) pair.
    """

    c: int
    mode: Mode
    knot_count: int
    total_genus: int
    by_genus: dict
    by_ell: dict


# Swaps the sign bytes of _sign_columns: 2 (+1) and 0 (-1).
_NEGATE = bytes.maketrans(b"\0\2", b"\2\0")


@cache
def _sign_columns(length: int, changes: int) -> tuple:
    """The signs of the positive-first patterns of ``sign_patterns(length, changes)``, by position.

    Column j holds one byte per pattern, in pattern order: 2 for +1, 0
    for -1.  A pattern whose first change is at p is +1 before p, and
    from p on the negation of a positive-first pattern of length
    ``length - p`` with one change fewer, taken in their order; the
    patterns whose first change is after j, C(length - 1 - j, changes)
    of them, come last and are +1 at j.  So each column is the join of
    shorter columns, negated with one ``bytes.translate``, then its +1
    bytes.  ``tallies`` clears the cache when it returns or raises.
    """
    if not changes:
        return (b"\2",) * length
    return tuple(b"".join([_sign_columns(length - p, changes - 1)[j - p]
                           for p in range(1, min(j, length - changes) + 1)]).translate(_NEGATE)
                 + b"\2" * comb(length - 1 - j, changes)
                 for j in range(length))


def _packed_tables(ell: int, m: int, c: int):
    """Packed masks of the (ell, m) units for crossing numbers up to ``c``.

    A sequence 2x * p is coded by the digits x_j * p_j + top in base
    2**bits, the first entry most significant, for top the largest part a
    composition of (c + ell)/2 into 2m parts can have.  Digits lie in
    [0, 2 top] and every code of a unit has 2m of them, so numeric order
    of codes is tuple order of sequences.  A field is whole bytes: the
    code, then a guard bit, zero in every code.

    With P sign patterns in ``sign_patterns`` order, the negative-first
    half the negations of the first, one big int per composition b holds
    P fields, code(reverse_negate(s)) - code(s) for each sequence s in
    pattern order, and above them P/2 fields, code(reverse(s)) - code(s)
    for each negative-first s.  Both are linear in b: the reverse-negation
    of b * p has digit -b_j * p_j at the mirrored position 2m - 1 - j, and
    the reversal of a negative-first sequence is the reverse-negation of
    its negation, so top cancels.  Written over the cut points
    k_1 < ... < k_{2m-1} of b, with k_0 = 0 and k_{2m} = (c + ell)/2
    (Abel summation), the int is sum_j k_j (A_{j-1} - A_j) + k_{2m} A_{2m-1}
    for A_j the coefficient of b_j.  The signs at position j come from
    ``_sign_columns``, one byte per positive-first pattern, assigned
    straight into their strided fields.

    Returns ``(steps, end, guards, shift)``: the coefficients of
    k_1..k_{2m-1}, A_{2m-1}, the guard bit of all 3P/2 fields, and the
    width of P/2 fields.  Each A_j is dropped once its step is formed.
    """
    digits = 2 * m
    half = comb(digits - 1, ell)  # the positive-first patterns, which sign_patterns yields first
    bits = (2 * ((c + ell) // 2 - digits + 1)).bit_length()
    size = bits * digits // 8 + 1  # bytes per field: the code and its guard bit
    shift = 8 * size * half
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * half, "little")
    field = bytearray(size * half)
    steps = []
    for j, column in enumerate(_sign_columns(digits, ell)):
        # ``sign`` is +1 or -1 in each of P/2 fields: the sign at position
        # j.  sign - (sign << shift) adds the negated signs of the
        # negative-first patterns above them.
        field[::size] = column
        sign = int.from_bytes(field, "little") - ones
        # The weights of entry j in a sequence's code and in its partner's.
        own, mirrored = 1 << bits * (digits - 1 - j), 1 << bits * j
        coefficient = ((sign * (own - mirrored) << 2 * shift)
                       - (sign - (sign << shift)) * (own + mirrored))
        if j:
            steps.append(previous - coefficient)
        previous = coefficient
    guards = (ones + (ones << shift) + (ones << 2 * shift)) << bits * digits
    return steps, previous, guards, shift


def _orbit_minima(ell: int, m: int, cs: list) -> list:
    """Class counts in both modes of the (c, ell, m) unit for each c in ``cs``, without a set.

    Canonical forms preserve ell, genus and the magnitude multiset, so
    every orbit lies inside one unit, and the unit's class count is the
    number of its sequences that are their own orbit minimum.  A sequence
    ``s`` is a mirror-distinct minimum iff ``s <= reverse_negate(s)``, and
    a mirror-collapsed one iff in addition ``s <= negate(s)`` (that is,
    ``s[0] < 0``) and ``s <= reverse(s)``.

    Per composition, one packed int holds the code differences of every
    sequence and its partners (see ``_packed_tables``).  It is linear in
    the cut points, and ``combinations`` mostly moves only the last cut
    or two, so one running int per unit takes the sum of each cut's move
    times its step: a cut that did not move adds a product of zero.
    With a guard bit added, each field lies in [1, 2**width): no borrow
    crosses a field, and its guard bit is set iff the partner is not
    below the sequence.  So one bit count of the first P guard bits gives
    the mirror-distinct minima, and one of the negative-first half of
    them ANDed with the reversal fields' guard bits the mirror-collapsed
    minima.  The units share one set of masks, dropped on return; every
    sequence is still coded and compared with its partners.
    """
    steps, end, guards, shift = _packed_tables(ell, m, max(cs))
    below_rn = guards & ((1 << 2 * shift) - 1)
    negative_first = below_rn >> shift << shift
    counts = []
    for c in cs:
        t = (c + ell) // 2
        packed = t * end + guards  # the int at cut points all 0
        previous = (0,) * (2 * m - 1)
        distinct = collapsed = 0
        for cuts in combinations(range(1, t), 2 * m - 1):
            packed += sum(map(mul, map(sub, cuts, previous), steps))
            previous = cuts
            distinct += (packed & below_rn).bit_count()
            collapsed += (packed >> shift & packed & negative_first).bit_count()
        counts.append({Mode.MIRROR_DISTINCT: distinct, Mode.MIRROR_COLLAPSED: collapsed})
    return counts


def _unit_size(c: int, ell: int, m: int) -> int:
    # Sequences in a (c, ell, m) unit, up to the factor 2 of the leading
    # sign: compositions of (c + ell)/2 into 2m parts times change positions.
    return comb((c + ell) // 2 - 1, 2 * m - 1) * comb(2 * m - 1, ell)


def tallies(cs, threads: int = 1) -> dict:
    """Count knot classes for every crossing number in ``cs``, in both modes.

    Returns ``{c: {Mode: Tally}}``.  Each (c, ell, m) unit is walked once
    for both modes, and the units of one (ell, m) share its tables, built
    once per call from sign columns that all groups of the call share and
    that are dropped when it returns or raises.  These groups are dealt
    into one share per worker, most work first, each to the least loaded
    share.  There are at most ``threads`` workers, one per group and per
    CPU of this process's affinity set (read once per call, for both the
    count and the placement), and one where the platform has no
    ``os.fork``.  One share runs here; two or more are mapped by this
    module's ``ProcessPoolExecutor``, one forked child per share, each
    pinned to its own CPU of the set, while this process only waits.
    Results fold in order of first appearance (c, then ell, then m), so
    keys ascend and the outcome is the serial run's.  A ``threads`` that
    is not a positive ``int`` is refused before any unit runs.
    """
    _require_int("threads", threads, 1)
    cs = list(dict.fromkeys(cs))
    groups = {}
    for c in cs:
        for g in strata(c):
            groups.setdefault(g, []).append(c)
    sizes = {g: sum(_unit_size(c, *g) for c in group) for g, group in groups.items()}
    order = sorted(groups, key=sizes.__getitem__, reverse=True)
    # The CPUs this process may run on, read once for the clamp and the
    # placement; [] where the platform has no affinity call.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    # Never more workers than groups or CPUs, and one where there is no fork.
    workers = (min(threads, len(groups), len(cpus) or os.cpu_count() or 1)
               if hasattr(os, "fork") else 1)
    # The largest group first, to the least loaded share: at c <= 26 the
    # largest share of 2 or 4 stays within 0.1% of the mean.
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for g in order:
        k = loads.index(min(loads))
        shares[k].append(g)
        loads[k] += sizes[g]

    def run(share):
        # Plain ints, each unit's counts in Mode order, for the pool's pipe.
        return [counts[mode] for g in share for counts in _orbit_minima(*g, groups[g]) for mode in Mode]

    try:
        if workers > 1:
            with ProcessPoolExecutor(cpus) as pool:
                results = pool.map(run, shares)
        else:
            results = list(map(run, shares))
    finally:
        _sign_columns.cache_clear()  # the columns serve the groups of this call only
    done = {}
    for share, ints in zip(shares, results):
        ints = iter(ints)
        for g in share:
            done[g] = [{mode: next(ints) for mode in Mode} for _ in groups[g]]

    # Per (c, mode): knot count, total genus, by_genus, by_ell.
    acc = {(c, mode): [0, 0, {}, {}] for c in cs for mode in Mode}
    for (ell, m), group in groups.items():
        for c, counts in zip(group, done[ell, m]):
            for mode, n in counts.items():
                a = acc[c, mode]
                a[0] += n
                a[1] += m * n
                a[2][m] = a[2].get(m, 0) + n
                cnt, gsum = a[3].get(ell, (0, 0))
                a[3][ell] = (cnt + n, gsum + m * n)
    return {c: {mode: Tally(c, mode, *acc[c, mode]) for mode in Mode} for c in cs}


def tally(c: int, mode: Mode, threads: int = 1) -> Tally:
    """Count knot classes with crossing number ``c`` in one mode, stratified."""
    _require_mode(mode)
    return tallies([c], threads)[c][mode]
