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

import importlib
import os
import sys
from dataclasses import dataclass
from itertools import accumulate, combinations, compress
from math import comb
from operator import and_, itemgetter, le, mul, sub

from .contfrac import EvenSequence, _require_int
from .knots import KnotClass, Mode, _require_mode


def __getattr__(name: str):
    # PEP 562, as in concurrent.futures: the pool class, and multiprocessing
    # with it, loads on first use, so a process that starts no pool never
    # imports it.  tallies reads the class from the module, so a caller may
    # replace it.  importlib, because no module here imports in a function.
    if name == "ProcessPoolExecutor":
        return importlib.import_module("concurrent.futures").ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _unit_tables(ell: int, m: int, c: int):
    """Tables of the (ell, m) units for crossing numbers up to ``c``: columns and one index map.

    Returns ``(columns, rn, half)``.  ``columns[j][x]`` lists 2x * p[j]
    over the sign patterns p, for every part x a composition of
    (c + ell)/2 into 2m parts can have; a smaller crossing number of the
    same (ell, m) reads a prefix of each column.  With magnitudes b and
    the i-th pattern p, reverse_negate(b * p) is reversed(b) times the
    ``rn[i]``-th pattern.  sign_patterns yields the negative-first half
    last, in the same change order, so negation moves an index by
    ``half`` (mod ``len(rn)``), and reversal, being reverse-negation
    after negation, is ``rn[(i + half) % len(rn)]``.  So one gather
    ``r`` of the ``rn`` indices from the sequences of reversed(b) holds
    every orbit partner of the sequences ``seqs`` of b: ``r[i]`` is the
    reverse-negation of ``seqs[i]``, ``r[k]`` the reversal of
    ``seqs[half + k]`` and ``r[half + k]`` that of ``seqs[k]``.
    """
    patterns = list(sign_patterns(2 * m, ell))
    index = {p: i for i, p in enumerate(patterns)}
    half = len(patterns) // 2
    rn = [(index[p[::-1]] + half) % len(patterns) for p in patterns]
    del index  # freed before the columns are built, which set the peak RSS
    columns = [[None] + [[2 * x * s for s in signs] for x in range(1, (c + ell) // 2 - 2 * m + 2)]
               for signs in zip(*patterns)]
    return columns, rn, half


def _blocks(c: int, ell: int, m: int, columns: list):
    """Yield ``(own, mirror)``, the sequences of b and of reversed(b) by pattern index.

    b runs over the unit's compositions that are not after their reverse;
    ``mirror is own`` on a palindrome.  Every orbit lies in one pair.
    A block zips one column per position (see ``_unit_tables``), each
    sequence one tuple built in C.
    """
    for b in compositions((c + ell) // 2, 2 * m):
        rb = b[::-1]
        if rb < b:
            continue
        own = list(zip(*map(list.__getitem__, columns, b)))
        yield own, (own if rb == b else list(zip(*map(list.__getitem__, columns, rb))))


def _class_keys(c: int, mode: Mode):
    """Yield the canonical key of each knot class with crossing number ``c``, as a tuple.

    Order: first encounter in the sequence stream of
    :func:`enumerate_sequences` (ell, genus, composition, sign-pattern
    index).  An orbit is met first in the earlier of its two composition
    blocks (see ``_blocks``), at its member of smallest pattern index
    there; the stream yields exactly at that member, keyed by the orbit
    minimum.  So it gives the classes a set of seen keys would, in the
    same order, with no set and no per-sequence canonicalisation.
    """
    _require_mode(mode)
    distinct = mode is Mode.MIRROR_DISTINCT
    for ell, m in strata(c):
        columns, rn, half = _unit_tables(ell, m, c)
        partners_of = itemgetter(*rn)
        # A palindromic block is one list for both sides: an orbit is met
        # first at its member of least index there, which in mode C is
        # positive-first, half before its negation.
        if distinct:
            first = [i <= j for i, j in enumerate(rn)]
        else:
            first = [i <= rn[i] and i <= rn[i + half] for i in range(half)]
        for own, mirror in _blocks(c, ell, m, columns):
            r = partners_of(mirror)
            keys = map(min, own, r) if distinct else map(min, own, own[half:], r, r[half:])
            yield from (compress(keys, first) if mirror is own else keys)


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


def _orbit_minima(ell: int, m: int, cs: list) -> list:
    """Class counts in both modes of the (c, ell, m) unit for each c in ``cs``, without a set.

    Canonical forms preserve ell, genus and the magnitude multiset, so
    every orbit lies inside one unit, and the unit's class count is the
    number of its sequences that are their own orbit minimum.  A sequence
    ``s`` is a mirror-distinct minimum iff ``s <= reverse_negate(s)``, and
    a mirror-collapsed one iff in addition ``s <= negate(s)`` (that is,
    ``s[0] < 0``) and ``s <= reverse(s)``.  The units share one column
    table and one index map, dropped on return; every sequence of each is
    still built and compared with its partners.
    """
    columns, rn, half = _unit_tables(ell, m, max(cs))
    # Every partner of a block side in one C call (see _unit_tables).  The
    # negative-first half comes last: there s[0] < 0, and r[k] is the
    # reversal of seqs[half + k], so map stops at the end of seqs[half:].
    partners_of = itemgetter(*rn)
    counts = []
    for c in cs:
        distinct = collapsed = 0
        for own, mirror in _blocks(c, ell, m, columns):
            pairs = ((own, own),) if mirror is own else ((own, mirror), (mirror, own))
            for seqs, partners in pairs:
                r = partners_of(partners)
                below_rn = list(map(le, seqs, r))
                distinct += below_rn.count(True)
                collapsed += sum(map(and_, below_rn[half:], map(le, seqs[half:], r)))
        counts.append({Mode.MIRROR_DISTINCT: distinct, Mode.MIRROR_COLLAPSED: collapsed})
    return counts


def _cpus() -> list:
    """Ids of the CPUs this process may run on, ascending; [] with no affinity call."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, where the platform has one."""
    return len(_cpus()) or os.cpu_count() or 1


def _unit_size(c: int, ell: int, m: int) -> int:
    # Sequences in a (c, ell, m) unit, up to the factor 2 of the leading
    # sign: compositions of (c + ell)/2 into 2m parts times change positions.
    return comb((c + ell) // 2 - 1, 2 * m - 1) * comb(2 * m - 1, ell)


def tallies(cs, threads: int = 1) -> dict:
    """Count knot classes for every crossing number in ``cs``, in both modes.

    Returns ``{c: {Mode: Tally}}``.  Each (c, ell, m) unit is walked once
    for both modes, and the units of one (ell, m) share its tables, built
    once per call.  These groups are one task list, most work first, mapped
    here or, with ``threads`` > 1, over one process pool with at most one
    worker per group and per CPU.  Once map has started the workers, this
    process moves each to its own CPU of its affinity set, where the
    platform has one, and leaves its other children alone.  Results fold in
    order of first appearance (c, then ell, then m), so keys ascend and the
    outcome is the serial run's.  A ``threads`` that is not a positive
    ``int`` is refused before any unit runs.
    """
    _require_int("threads", threads, 1)
    cs = list(dict.fromkeys(cs))
    groups = {}
    for c in cs:
        for g in strata(c):
            groups.setdefault(g, []).append(c)
    # The most work first, so no worker starts a group late and runs alone.
    order = sorted(groups, reverse=True,
                   key=lambda g: sum(_unit_size(c, *g) for c in groups[g]))
    tasks = (*zip(*order), [groups[g] for g in order])
    # A pool starts every worker at once: never more than groups or CPUs.
    workers = min(threads, len(groups), _cpu_count())
    if workers > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            children = importlib.import_module("multiprocessing").active_children
            others = set(children())
            minima = pool.map(_orbit_minima, *tasks, chunksize=max(1, len(groups) // (8 * workers)))
            # Forked workers start on this process's CPU and, in a short run,
            # stay there: once map has started them, move each child the pool
            # added to its own CPU of this process's set.  The caller's stay.
            for cpu, worker in zip(_cpus(), set(children()) - others):
                try:
                    os.sched_setaffinity(worker.pid, {cpu})
                except OSError:  # placement only speeds the pool up
                    pass
            done = dict(zip(order, minima))
    else:
        done = dict(zip(order, map(_orbit_minima, *tasks)))

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
