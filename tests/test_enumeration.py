import errno
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from pathlib import Path

import pytest

from twobridge import (
    EvenSequence,
    Mode,
    canonicalize,
    crossing_number,
    enumerate_classes,
    enumerate_sequences,
    genus,
    sign_changes,
    stratum_closed_A,
    tallies,
    tally,
)
from twobridge import enumeration
from twobridge.cli import MAX_ENUM_C
from twobridge.enumeration import (
    _class_keys,
    _orbit_minima,
    _packed_tables,
    _sign_columns,
    compositions,
    sign_patterns,
    strata,
)

D = Mode.MIRROR_DISTINCT
C = Mode.MIRROR_COLLAPSED


class TestCompositions:
    def test_empty_when_total_too_small(self):
        assert list(compositions(3, 4)) == []

    def test_count_matches_binomial(self):
        assert len(list(compositions(5, 2))) == comb(4, 1)
        for total in range(1, 9):
            for parts in range(1, total + 1):
                got = list(compositions(total, parts))
                assert len(got) == comb(total - 1, parts - 1)
                assert got == sorted(got)
                assert all(len(t) == parts and sum(t) == total and min(t) >= 1 for t in got)
                assert len(set(got)) == len(got)


def loop_sign_patterns(length, ell):
    """Sign patterns built entry by entry from the change positions: a reference."""
    if not 0 <= ell <= length - 1:
        return
    for first in (1, -1):
        for changes in combinations(range(length - 1), ell):
            pat = [first] * length
            cur = first
            j = 0
            for i in range(1, length):
                if j < ell and changes[j] == i - 1:
                    cur = -cur
                    j += 1
                pat[i] = cur
            yield tuple(pat)


class TestSignPatterns:
    def test_equals_loop_reference(self):
        for length in range(1, 15):
            for ell in range(-1, length + 1):
                assert list(sign_patterns(length, ell)) == list(loop_sign_patterns(length, ell))

    def test_negation_shifts_pattern_index_by_half(self):
        # The class stream and the tally kernel both read negation partners
        # by this shift: the negative-first half last, in the same order.
        for m in range(1, 8):
            for ell in range(2 * m):
                patterns = list(sign_patterns(2 * m, ell))
                half = len(patterns) // 2
                assert [tuple(-x for x in p) for p in patterns] == patterns[half:] + patterns[:half]

    def test_one_change(self):
        assert list(sign_patterns(2, 1)) == [(1, -1), (-1, 1)]

    def test_constant(self):
        assert list(sign_patterns(2, 0)) == [(1, 1), (-1, -1)]

    def test_count(self):
        assert len(list(sign_patterns(6, 2))) == 2 * comb(5, 2)
        for length in range(2, 8):
            for ell in range(length):
                pats = list(sign_patterns(length, ell))
                assert len(pats) == 2 * comb(length - 1, ell)
                assert len(set(pats)) == len(pats)
                for p in pats:
                    changes = sum(1 for a, b in zip(p, p[1:]) if a != b)
                    assert changes == ell


class TestEnumerateSequences:
    def test_three_crossings(self):
        assert {tuple(s) for s in enumerate_sequences(3)} == {(2, -2), (-2, 2)}

    def test_four_crossings(self):
        assert {tuple(s) for s in enumerate_sequences(4)} == {(2, 2), (-2, -2)}

    def test_each_sequence_once_with_right_invariants(self):
        for c in range(3, 11):
            seen = set()
            for s in enumerate_sequences(c):
                t = tuple(s)
                assert t not in seen
                seen.add(t)
                assert crossing_number(s) == c
                assert 2 * genus(s) <= c - 1

    def test_rejects_small_c(self):
        with pytest.raises(ValueError):
            list(enumerate_sequences(2))


def groups(cs):
    """Each (ell, m) with a unit in cs, mapped to its crossing numbers in stream order."""
    found = {}
    for c in cs:
        for ell, m in strata(c):
            found.setdefault((ell, m), []).append(c)
    return found


def unit_sequences(c, ell, m):
    """Each sequence of one (ell, m) unit written out entry by entry, in stream order."""
    patterns = list(sign_patterns(2 * m, ell))
    for b in compositions((c + ell) // 2, 2 * m):
        for p in patterns:
            yield tuple(2 * x * s for x, s in zip(b, p))


def set_route_classes(c, mode):
    """The set-based stream: first encounter of each orbit minimum, per unit."""
    out = []
    for ell, m in strata(c):
        seen = set()
        for entries in unit_sequences(c, ell, m):
            key = canonicalize(entries, mode).canonical
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


class TestEnumerateClasses:
    @pytest.mark.parametrize("mode", [D, C], ids=["D", "C"])
    def test_equals_set_route_in_order(self, mode):
        for c in range(3, 17):
            got = list(enumerate_classes(c, mode))
            assert all(kc.mode is mode for kc in got)
            assert [tuple(kc.canonical) for kc in got] == set_route_classes(c, mode), c

    @pytest.mark.parametrize("mode", [D, C], ids=["D", "C"])
    def test_keys_are_the_class_stream(self, mode):
        # The CLI prints _class_keys directly; enumerate_classes wraps the same walk.
        for c in range(3, 17):
            keys = list(_class_keys(c, mode))
            assert all(type(key) is tuple for key in keys)
            assert keys == [tuple(kc.canonical) for kc in enumerate_classes(c, mode)], c

    @pytest.mark.parametrize("mode", [D, C], ids=["D", "C"])
    def test_unit_counts_equal_orbit_minima(self, mode):
        per_unit = Counter(
            (crossing_number(kc.canonical), sign_changes(kc.canonical), genus(kc.canonical))
            for c in range(3, 17) for kc in enumerate_classes(c, mode)
        )
        for (ell, m), cs in groups(range(3, 17)).items():
            for c, counts in zip(cs, _orbit_minima(ell, m, cs), strict=True):
                assert per_unit.pop((c, ell, m), 0) == counts[mode], (c, ell, m)
        assert not per_unit


    @pytest.mark.parametrize("mode", [D, C], ids=["D", "C"])
    def test_keys_pass_validation(self, mode):
        # Built without the check, so each key must pass it when made again.
        for c in range(3, 15):
            for kc in enumerate_classes(c, mode):
                assert type(kc.canonical) is EvenSequence
                assert EvenSequence(list(kc.canonical)) == kc.canonical, (c, kc)


class TestTally:
    def test_internal_consistency(self):
        for c in range(3, 13):
            for mode in (D, C):
                t = tally(c, mode)
                assert t.knot_count == sum(t.by_genus.values())
                assert t.knot_count == sum(n for n, _ in t.by_ell.values())
                assert t.total_genus == sum(g * n for g, n in t.by_genus.items())
                assert t.total_genus == sum(gs for _, gs in t.by_ell.values())
                assert all(ell % 2 == c % 2 for ell in t.by_ell)

    def test_top_stratum_empty_at_even_c(self):
        # The reconciled reading of the garbled boundary expression,
        # 2^(k-l-2) C(k+l-1, k-l-1) - 1/2 at l = k-1, evaluates to zero,
        # and enumeration indeed finds no knots with c - 2 sign changes.
        for c in (4, 6, 8, 10, 12, 14):
            k = c // 2
            reconciled = (
                Fraction(2) ** (k - (k - 1) - 2) * comb(2 * k - 2, 0)
                - Fraction(1, 2)
            )
            assert reconciled == 0
            assert stratum_closed_A(k, k - 1, "even") == 0
            assert c - 2 not in tally(c, D).by_ell

class TestTallies:
    def test_orbit_minima_equal_set_dedupe_per_unit(self, monkeypatch):
        # The set route counts distinct orbit minima; the kernel counts
        # sequences that are their own minimum.  Unit by unit, both modes,
        # each (ell, m) group in one call.  The set counts, rolled up by
        # genus and by ell, are also what tallies reports, serially and
        # through the recording pool.
        cs = range(3, 17)
        want = {(c, mode): ({}, {}) for c in cs for mode in (D, C)}
        for (ell, m), group in groups(cs).items():
            for c, got in zip(group, _orbit_minima(ell, m, group), strict=True):
                for mode in (D, C):
                    keys = {canonicalize(s, mode).canonical for s in unit_sequences(c, ell, m)}
                    assert got[mode] == len(keys), (c, ell, m, mode)
                    by_genus, by_ell = want[c, mode]
                    by_genus[m] = by_genus.get(m, 0) + len(keys)
                    n, genus_sum = by_ell.get(ell, (0, 0))
                    by_ell[ell] = (n + len(keys), genus_sum + m * len(keys))
        # pool_sizes leaves its recording pool in place for the run at 2.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert pool_sizes(monkeypatch, cs, 2) == [2]
        for threads in (1, 2):
            found = tallies(cs, threads)
            for (c, mode), (by_genus, by_ell) in want.items():
                assert found[c][mode].by_genus == by_genus, (c, mode, threads)
                assert found[c][mode].by_ell == by_ell, (c, mode, threads)

    def test_both_modes_match_tally(self):
        found = tallies(range(3, 13))
        assert list(found) == list(range(3, 13))
        for c, by_mode in found.items():
            for mode in (D, C):
                assert by_mode[mode] == tally(c, mode)

    @pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
    def test_repeated_crossing_number_counted_once(self, threads):
        # Keys in first-appearance order; a repeated c adds nothing.
        once = tallies([12, 5], threads)
        assert once[12][D].knot_count == 341
        assert list(tallies([12, 12, 5], threads).items()) == list(once.items())

    def test_no_pool_module_loads(self):
        # In a fresh interpreter: this process may have loaded them already.
        code = (
            "import json, os, sys\n"
            "import twobridge.cli\n"
            "from twobridge.enumeration import tallies\n"
            + FAKE_TWO_CPUS_AND_COUNT_FORKS +
            "same = all(tallies(range(3, 15), t) == tallies(range(3, 15)) for t in (1, 2, 4))\n"
            "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
            "print(json.dumps([loaded, same, len(forks)]))\n"
        )
        loaded, same, forks = json.loads(fresh_python(code))
        # Two children each at 2 and 4 threads, for the two faked CPUs.
        assert loaded == [] and same and forks == 4

    def test_deal_balances_shares(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for cs, threads in ((range(3, 21), 2), (range(3, 21), 4), ([3, 5], 4)):
            dealt = []
            workers = min(threads, len(groups(cs)))
            assert pool_sizes(monkeypatch, cs, threads, dealt) == [workers]
            # One pool, one share per worker, every group in exactly one share.
            assert len(dealt) == workers
            assert sorted(g for share in dealt for g in share) == sorted(groups(cs))
            size = {(ell, m): sum(len(list(compositions((c + ell) // 2, 2 * m))) for c in group)
                    * len(list(sign_patterns(2 * m, ell))) for (ell, m), group in groups(cs).items()}
            loads = [sum(map(size.__getitem__, share)) for share in dealt]
            # Each share runs its largest group first, and no two shares'
            # loads differ by more than the largest group.
            for share in dealt:
                assert [size[g] for g in share] == sorted((size[g] for g in share), reverse=True)
            assert max(loads) - min(loads) <= max(size.values()), (cs, threads, loads)
            # At c <= 20 the largest share is within 0.1% of the mean.
            if len(cs) > 2:
                assert max(loads) * workers <= 1.001 * sum(loads), (cs, threads, loads)

    @pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
    def test_one_table_per_group(self, monkeypatch, threads):
        # The recording pool maps in this process, so every table build is seen.
        built = Counter()

        def counted(ell, m, c):
            built[ell, m] += 1
            return _packed_tables(ell, m, c)

        monkeypatch.setattr(enumeration, "_packed_tables", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cs = range(3, 17)
        assert pool_sizes(monkeypatch, cs, threads) == ([2] if threads > 1 else [])
        # pool_sizes tallies twice: at ``threads`` and serially.
        assert built == Counter({g: 2 for g in groups(cs)})

    @pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
    def test_keys_ascend(self, monkeypatch, threads):
        # Results fold by each group's first appearance, not in task order,
        # which runs the largest groups first.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for cs in (range(3, 17), range(16, 2, -1)):
            assert pool_sizes(monkeypatch, cs, threads) == ([2] if threads > 1 else [])
            for by_mode in tallies(cs, threads).values():
                for mode in (D, C):
                    assert list(by_mode[mode].by_genus) == sorted(by_mode[mode].by_genus)
                    assert list(by_mode[mode].by_ell) == sorted(by_mode[mode].by_ell)

    def test_one_pool_per_call(self, monkeypatch):
        started = []

        class CountingPool(enumeration.ProcessPoolExecutor):
            # One list per pool, of the number of shares each map call maps.
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append([])

            def map(self, fn, tasks):
                tasks = list(tasks)
                started[-1].append(len(tasks))
                return super().map(fn, tasks)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        tallies(range(3, 13), threads=2)
        assert started == [[2]]

    @pytest.mark.parametrize("fault", [False, True], ids=["returns", "raises"])
    def test_sign_columns_kept_within_one_call(self, monkeypatch, fault):
        # The groups of one call share the columns; none outlives the call,
        # whether it returns or a group raises after building its tables.
        _sign_columns.cache_clear()
        held = []

        def minima(*args):
            counts = _orbit_minima(*args)
            held.append(_sign_columns.cache_info().currsize)
            if fault:
                raise ArithmeticError("fault after the tables")
            return counts

        monkeypatch.setattr(enumeration, "_orbit_minima", minima)
        if fault:
            with pytest.raises(ArithmeticError):
                tallies(range(3, 13))
        else:
            tallies(range(3, 13))
        # One group before the fault, else all 18, the memo never emptied between them.
        assert len(held) == (1 if fault else 18)
        assert held[0] > 0 and held == sorted(held)
        assert _sign_columns.cache_info().currsize == 0

    def test_empty_range_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", None)
        assert tallies(range(3, 3), threads=2) == {}

    @pytest.mark.parametrize(
        "threads,error,named",
        [
            (0, ValueError, r"^threads must be >= 1, not 0$"),
            (-3, ValueError, r"^threads must be >= 1, not -3$"),
            ("2", TypeError, r"^threads '2' is not an int$"),
            (None, TypeError, r"^threads None is not an int$"),
            (2.5, TypeError, r"^threads 2\.5 is not an int$"),
            (True, TypeError, r"^threads True is not an int$"),
        ],
        ids=["zero", "negative", "str", "none", "float", "bool"],
    )
    def test_bad_threads_refused_before_any_work(self, monkeypatch, threads, error, named):
        def refuse(*_, **__):
            raise AssertionError("work started")

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(enumeration, "_orbit_minima", refuse)
        monkeypatch.setattr(os, "fork", refuse, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        with pytest.raises(error, match=named):
            tallies([9], threads=threads)
        with pytest.raises(error, match=named):
            tally(9, D, threads=threads)


def burnside_unit(c, ell, m):
    """Classes of the (c, ell, m) unit in both modes, by Burnside's lemma in binomials.

    With T = (c + ell)/2 the unit has |X| = 2 C(T-1, 2m-1) C(2m-1, ell)
    sequences.  A reverse-negation fixed point has palindromic magnitudes
    and a sign change at the middle, so it needs odd ell and even T; a
    reversal fixed point needs even ell and even T; negation fixes none.
    Mode D counts orbits of {1, rn}, mode C of {1, rn, rev, neg}.
    """
    t = (c + ell) // 2
    size = 2 * comb(t - 1, 2 * m - 1) * comb(2 * m - 1, ell)
    halves = 2 * comb(t // 2 - 1, m - 1) if t % 2 == 0 else 0
    fix_rn = halves * comb(m - 1, (ell - 1) // 2) if ell % 2 else 0
    fix_rev = 0 if ell % 2 else halves * comb(m - 1, ell // 2)
    distinct, odd = divmod(size + fix_rn, 2)
    collapsed, rest = divmod(size + fix_rn + fix_rev, 4)
    assert odd == rest == 0, (c, ell, m)
    return {D: distinct, C: collapsed}


class TestBurnside:
    def test_unit_counts_equal_orbit_minima(self):
        for (ell, m), cs in groups(range(3, 21)).items():
            for c, counts in zip(cs, _orbit_minima(ell, m, cs), strict=True):
                assert counts == burnside_unit(c, ell, m), (c, ell, m)

    def test_roll_up_equals_tallies(self):
        # The genus histogram and the strata, both modes, to c = 22: past
        # the set route (c <= 16) and the unit check above.
        cs = range(3, 23)
        found = tallies(cs)
        for c in cs:
            for mode in (D, C):
                by_genus, by_ell = {}, {}
                for ell, m in strata(c):
                    n = burnside_unit(c, ell, m)[mode]
                    by_genus[m] = by_genus.get(m, 0) + n
                    count, genus_sum = by_ell.get(ell, (0, 0))
                    by_ell[ell] = (count + n, genus_sum + m * n)
                assert found[c][mode].by_genus == by_genus, (c, mode)
                assert found[c][mode].by_ell == by_ell, (c, mode)


class TestPackedKernel:
    def test_guard_bits_are_tuple_comparisons(self):
        # Sequence by sequence, in sign_patterns order: the guard bit of
        # each field is a comparison made on tuples, for masks built for
        # the unit's own crossing number and for a larger one, as when one
        # set of masks serves every c of an (ell, m) group.
        for c in range(3, 15):
            for ell, m in strata(c):
                t = (c + ell) // 2
                patterns = list(sign_patterns(2 * m, ell))
                half = len(patterns) // 2
                for top in (c, c + 4):
                    steps, end, guards, shift = _packed_tables(ell, m, top)
                    width = shift // half
                    guard = guards & ((1 << width) - 1)
                    for cuts, b in zip(combinations(range(1, t), 2 * m - 1),
                                       compositions(t, 2 * m), strict=True):
                        packed = sum(x * step for x, step in zip(cuts, steps)) + t * end + guards
                        bits = [bool(packed >> width * i & guard) for i in range(3 * half)]
                        seqs = [tuple(2 * x * s for x, s in zip(b, p)) for p in patterns]
                        assert bits[:2 * half] == [s <= tuple(-e for e in reversed(s))
                                                   for s in seqs], (c, ell, m, b, top)
                        assert bits[2 * half:] == [s <= s[::-1] for s in seqs[half:]], (c, ell, m, b, top)

    def test_sign_columns_are_pattern_bytes(self):
        # Every (2m, ell) the kernel builds up to MAX_ENUM_C: one byte per
        # positive-first pattern of sign_patterns, 2 for +1 and 0 for -1.
        try:
            for length, ell in {(2 * m, ell) for c in range(3, MAX_ENUM_C + 1) for ell, m in strata(c)}:
                positive_first = islice(sign_patterns(length, ell), comb(length - 1, ell))
                assert _sign_columns(length, ell) == tuple(bytes(1 + s for s in column)
                                                           for column in zip(*positive_first)), (length, ell)
        finally:
            _sign_columns.cache_clear()

    @pytest.mark.parametrize("c", [25, 26])
    def test_extreme_units_equal_burnside(self, c):
        # Past the unit check above (c <= 20): the widest digits (m = 1,
        # every part up to (c + ell)/2 - 1), the most sign patterns (at
        # c = 26, 38,896 for ell = 10, m = 9), and the m = 1 group read
        # at every c from one set of masks built for this c.
        widest = min(strata(c), key=lambda g: g[1])
        most = max(strata(c), key=lambda g: comb(2 * g[1] - 1, g[0]))
        assert widest[1] == 1
        if c == 26:
            assert most == (10, 9) and 2 * comb(17, 10) == 38_896
        for ell, m in (widest, most):
            assert _orbit_minima(ell, m, [c]) == [burnside_unit(c, ell, m)], (ell, m)
        ell, m = widest
        cs = [d for d in range(3, c + 1) if (ell, m) in strata(d)]
        assert _orbit_minima(ell, m, cs) == [burnside_unit(d, ell, m) for d in cs]


def pool_sizes(monkeypatch, cs, threads, dealt=None):
    """The width of each pool that tallies(cs, threads) starts: the number of shares it maps.

    The pool is a recording fake that runs each task in this process and
    forks nothing; the counts must equal the serial run's.  Given
    ``dealt``, a list, each pool appends the tasks (shares) it maps.
    """
    started = []

    class RecordingPool:
        def __init__(self, cpus):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            started.append(len(tasks))
            if dealt is not None:
                dealt.extend(tasks)
            return [list(fn(task)) for task in tasks]

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    assert tallies(cs, threads) == tallies(cs)
    return started


def pins(monkeypatch, tmp_path, cs, threads, refuse=False):
    """[caller pid, pid, cpus] of each affinity call tallies(cs, threads) makes, through real forks.

    The recording affinity call is carried into every forked child and
    appends to a file, so calls made in the children and in this process
    are both seen; with ``refuse`` each call then fails.  The counts must
    equal the serial run's, which makes no pool.
    """
    log = tmp_path / "pins"
    log.write_text("")

    def record(pid, cpus):
        with open(log, "a") as f:
            f.write(json.dumps([os.getpid(), pid, sorted(cpus)]) + "\n")
        if refuse:
            raise OSError("not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
    assert tallies(cs, threads) == tallies(cs)
    return [json.loads(line) for line in log.read_text().splitlines()]


# For fresh_python: two CPUs faked, so that a pool starts on any host (a
# refused pin costs the children nothing), and the list ``forks`` of the
# children this process forks.
FAKE_TWO_CPUS_AND_COUNT_FORKS = (
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "forks, fork = [], os.fork\n"
    "def counted():\n"
    "    pid = fork()\n"
    "    if pid:\n"
    "        forks.append(pid)\n"
    "    return pid\n"
    "os.fork = counted\n"
)


def fresh_python(code):
    """Stdout of ``code`` run, warnings as errors, in a fresh interpreter with this tree's twobridge."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(enumeration.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


class TestWorkerCount:
    # A pool task is a share of (ell, m) groups, and no more workers start
    # than there are groups: [3, 5] holds three units in two groups, and
    # range(3, 13) holds 44 units in 18 groups.
    def test_huge_request_clamped_to_cpus_and_units(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert pool_sizes(monkeypatch, range(3, 13), 10**6) == [4]
        assert pool_sizes(monkeypatch, [3, 5], 10**6) == [2]
        assert pool_sizes(monkeypatch, range(3, 13), 2) == [2]
        assert pool_sizes(monkeypatch, [3], 10**6) == []

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        # A platform with no affinity call falls back on the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_sizes(monkeypatch, range(3, 13), 10**6) == []

    def test_no_fork_means_one(self, monkeypatch):
        # Where os.fork is missing (Windows) the groups run in this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.delattr(os, "fork", raising=False)
        assert pool_sizes(monkeypatch, range(3, 13), 10**6) == []

    def test_cpu_count_without_affinity_call(self, monkeypatch, tmp_path):
        # The pool still starts, with no placement to make.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert pins(monkeypatch, tmp_path, range(3, 13), 10**6) == []
        assert pool_sizes(monkeypatch, range(3, 13), 10**6) == [6]

    def test_one_cpu_per_worker_in_affinity_order(self, monkeypatch, tmp_path):
        # Through real forks: each child pins itself, and this process, with
        # its own affinity and its other children, is never placed.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 0, 3}, raising=False)
        for threads, cpus in ((8, [0, 3, 5]), (2, [0, 3])):
            calls = pins(monkeypatch, tmp_path, range(3, 13), threads)
            # One call per child, each on itself, to one CPU, no two alike.
            assert len({caller for caller, _, _ in calls}) == len(calls) == len(cpus)
            assert os.getpid() not in {caller for caller, _, _ in calls}
            assert all(pid == 0 for _, pid, _ in calls)
            assert sorted(cpu for _, _, [cpu] in calls) == cpus

    def test_refused_placement_fails_no_count(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # pins requires the counts to equal the serial run's.
        assert len(pins(monkeypatch, tmp_path, range(3, 13), 2, refuse=True)) == 2

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs an affinity call and two CPUs")
    def test_workers_pinned_to_distinct_cpus(self):
        # In a fresh interpreter, through the real pool and the real affinity
        # calls: each child reports its own affinity as it runs its share.
        code = (
            "import json, os, sys\n"
            "from twobridge import enumeration\n"
            "minima = enumeration._orbit_minima\n"
            "def probe(*args):\n"
            "    os.write(sys.stdout.fileno(), (json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))])\n"
            "                                   + '\\n').encode())\n"
            "    return minima(*args)\n"
            "enumeration._orbit_minima = probe\n"
            "before = sorted(os.sched_getaffinity(0))\n"
            "same = enumeration.tallies(range(3, 15), threads=2) == enumeration.tallies(range(3, 15))\n"
            "print(json.dumps([os.getpid(), before, sorted(os.sched_getaffinity(0)), same]))\n"
        )
        *lines, last = fresh_python(code).splitlines()
        parent, before, after, same = json.loads(last)
        assert after == before and same
        children = {pid: cpus for pid, cpus in map(json.loads, lines) if pid != parent}
        assert len(children) == 2
        assert all(len(cpus) == 1 for cpus in children.values())
        assert sorted(cpu for [cpu] in children.values()) == before[:2]

    def test_affinity_counts_not_the_machine(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert pool_sizes(monkeypatch, range(3, 13), 8) == [3]

    def test_affinity_read_once_per_call(self, monkeypatch, tmp_path):
        # A set that changes after its first read: the clamp and the
        # placement must both follow that one read.
        reads = []

        def affinity(pid):
            reads.append(pid)
            return {0, 1, 2} if len(reads) == 1 else {7}

        monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
        calls = pins(monkeypatch, tmp_path, range(3, 13), 8)
        # Three children, one per CPU of the first read.
        assert len({caller for caller, _, _ in calls}) == len(calls) == 3
        assert sorted(cpu for _, _, [cpu] in calls) == [0, 1, 2]
        # pins tallies twice: at 8 threads and serially.
        assert len(reads) == 2

    def test_affinity_of_one_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert pool_sizes(monkeypatch, range(3, 13), 8) == []


class TestForkPool:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        # No child of this process is left running or unreaped.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fault,status", [
        (lambda: 1 // 0, "1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9"),
    ], ids=["raises", "killed"])
    def test_failing_child_named_by_exit_status(self, monkeypatch, fault, status):
        # The fork carries the patch into the children; this process runs no share.
        monkeypatch.setattr(enumeration, "_orbit_minima", lambda *args: fault())
        with pytest.raises(ChildProcessError, match=rf"exit status {status}$"):
            tallies(range(3, 13), threads=2)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_closes_its_pipe(self, monkeypatch):
        # The second fork fails: the error propagates, the first child is
        # killed and reaped, and no pipe end is left open.
        fork, calls = os.fork, []

        def fork_once():
            calls.append(None)
            if len(calls) > 1:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as raised:
            tallies(range(3, 13), threads=2)
        assert raised.value.errno == errno.EAGAIN and len(calls) == 2
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_fewer_cpus_than_tasks_refused_before_any_fork(self):
        # Named in this process, not as a child's IndexError on cpus[1];
        # the fixture checks that no child is left.
        before = sorted(os.listdir("/proc/self/fd"))
        with enumeration.ProcessPoolExecutor([0]) as pool:
            with pytest.raises(ValueError, match=r"^2 tasks need one CPU each, but the pool has 1$"):
                pool.map(list, [[1], [2]])
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_subclass_opened_and_shut_once_per_call(self, monkeypatch):
        # A subclass that opens something in __init__ and closes it in
        # shutdown, as a tracing one may: one of each per pooled call,
        # whether the children succeed or fail, and none for a serial call.
        events = []

        class SpannedPool(enumeration.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                events.append("init")

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    events.append("shutdown")

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", SpannedPool)
        serial = tallies(range(3, 13))
        assert events == []
        assert tallies(range(3, 13), threads=2) == serial
        assert events == ["init", "shutdown"]
        monkeypatch.setattr(enumeration, "_orbit_minima", lambda *args: 1 // 0)
        with pytest.raises(ChildProcessError):
            tallies(range(3, 13), threads=2)
        assert events == ["init", "shutdown"] * 2

    def test_interrupt_while_children_run_propagates(self, monkeypatch):
        # The children sleep; a timer in this process interrupts its wait,
        # and the pool kills and reaps them rather than waiting them out.
        monkeypatch.setattr(enumeration, "_orbit_minima", lambda *args: time.sleep(60))

        def interrupt(*_):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                tallies(range(3, 13), threads=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30

    def test_children_leave_stdout_and_exit_handlers_alone(self):
        # A buffered write and an exit handler in a fresh interpreter: a
        # child that flushed or ran them would print them again.
        code = (
            "import atexit, os, sys\n"
            "from twobridge.enumeration import tallies\n"
            + FAKE_TWO_CPUS_AND_COUNT_FORKS +
            "atexit.register(lambda: sys.stdout.write('exit handler\\n'))\n"
            "sys.stdout.write('pending ')\n"
            "same = tallies(range(3, 15), threads=2) == tallies(range(3, 15))\n"
            "sys.stdout.write(f'{len(forks)} {same}\\n')\n"
        )
        assert fresh_python(code) == "pending 2 True\nexit handler\n"
