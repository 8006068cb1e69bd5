import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
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
from twobridge.enumeration import (
    _blocks,
    _class_keys,
    _orbit_minima,
    _cpu_count,
    _unit_tables,
    compositions,
    sign_patterns,
    strata,
)

D = Mode.MIRROR_DISTINCT
C = Mode.MIRROR_COLLAPSED


class TestCompositions:
    def test_three_into_two(self):
        assert list(compositions(3, 2)) == [(1, 2), (2, 1)]

    def test_unique_composition(self):
        assert list(compositions(4, 4)) == [(1, 1, 1, 1)]

    def test_empty_when_total_too_small(self):
        assert list(compositions(3, 4)) == []

    def test_count_matches_binomial(self):
        assert len(list(compositions(5, 2))) == comb(4, 1)
        for total in range(1, 9):
            for parts in range(1, total + 1):
                got = list(compositions(total, parts))
                assert len(got) == comb(total - 1, parts - 1)
                assert got == sorted(got)
                assert all(sum(t) == total and min(t) >= 1 for t in got)
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

    def test_rn_table_equals_explicit_lookup(self):
        # Reversal is read from the same map, shifted by the negation offset.
        for m in range(1, 8):
            for ell in range(2 * m):
                patterns = list(sign_patterns(2 * m, ell))
                n = len(patterns)
                _, rn, half = _unit_tables(ell, m, 4 * m - ell)
                index = {p: i for i, p in enumerate(patterns)}
                assert rn == [index[tuple(-x for x in reversed(p))] for p in patterns]
                assert 2 * half == n
                assert [rn[(i + half) % n] for i in range(n)] == [index[p[::-1]] for p in patterns]

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

    def test_seven_crossings_dedupes_to_fourteen(self):
        assert tally(7, D).knot_count == 14

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


class TestBlocks:
    def test_equal_per_sequence_reference(self):
        # Each sequence written out entry by entry, for b and reversed(b),
        # over the compositions that are not after their reverse, in order.
        # A column table built for a larger crossing number gives the same
        # blocks, as when one table serves every c of an (ell, m) group.
        for c in range(3, 17):
            for ell, m in strata(c):
                patterns = list(sign_patterns(2 * m, ell))
                want = [
                    [[tuple(2 * x * s for x, s in zip(mags, p)) for p in patterns]
                     for mags in (b, b[::-1])] + [b == b[::-1]]
                    for b in compositions((c + ell) // 2, 2 * m)
                    if b <= b[::-1]
                ]
                for top in (c, c + 4):
                    got = [[own, mirror, mirror is own]
                           for own, mirror in _blocks(c, ell, m, _unit_tables(ell, m, top)[0])]
                    assert got == want, (c, top, ell, m)


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
    def test_trefoil_row(self):
        t = tally(3, D)
        assert (t.knot_count, t.total_genus) == (2, 2)

    def test_twelve_crossings(self):
        t = tally(12, D)
        assert (t.knot_count, t.total_genus) == (341, 1052)

    def test_ten_crossings_collapsed(self):
        t = tally(10, C)
        assert (t.knot_count, t.total_genus) == (45, 117)

    def test_internal_consistency(self):
        for c in range(3, 13):
            for mode in (D, C):
                t = tally(c, mode)
                assert t.knot_count == sum(t.by_genus.values())
                assert t.knot_count == sum(n for n, _ in t.by_ell.values())
                assert t.total_genus == sum(g * n for g, n in t.by_genus.items())
                assert t.total_genus == sum(gs for _, gs in t.by_ell.values())
                assert all(ell % 2 == c % 2 for ell in t.by_ell)

    def test_matches_class_stream(self):
        for c in (6, 9):
            for mode in (D, C):
                classes = list(enumerate_classes(c, mode))
                assert len(classes) == len(set(classes)) == tally(c, mode).knot_count

    def test_deterministic(self):
        assert tally(10, D) == tally(10, D)

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
        monkeypatch.setattr(enumeration, "_cpu_count", lambda: 2)
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

    def test_parallel_equals_serial(self):
        assert tallies(range(3, 15), threads=2) == tallies(range(3, 15), threads=1)

    @pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
    def test_repeated_crossing_number_counted_once(self, threads):
        # Keys in first-appearance order; a repeated c adds nothing.
        once = tallies([12, 5], threads)
        assert once[12][D].knot_count == 341
        assert list(tallies([12, 12, 5], threads).items()) == list(once.items())

    def test_pool_module_loads_only_with_a_pool(self):
        # In a fresh interpreter: this process may have loaded it already.
        code = (
            "import json, sys\n"
            "import twobridge.cli\n"
            "from twobridge.enumeration import tallies\n"
            "loaded = lambda: [m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules]\n"
            "before = loaded()\n"
            "same = tallies(range(3, 15), threads=2) == tallies(range(3, 15))\n"
            "print(json.dumps([before, same, loaded()]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(enumeration.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        before, same, after = json.loads(out)
        assert before == [] and same
        # A pool starts only with two CPUs to run it.
        assert after == (["concurrent.futures", "multiprocessing"]
                         if _cpu_count() > 1 else [])

    def test_pool_takes_groups_largest_first(self, monkeypatch):
        handed = []

        class RecordingPool(enumeration.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1):
                tasks = list(zip(*iterables))
                handed.append((tasks, chunksize))
                return super().map(fn, *zip(*tasks), chunksize=chunksize)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(enumeration, "_cpu_count", lambda: 2)
        cs = range(3, 19)
        assert tallies(cs, threads=2) == tallies(cs)
        [(tasks, chunksize)] = handed
        # One task per (ell, m) group, holding each of its crossing numbers once.
        assert sorted(tasks) == sorted((ell, m, group) for (ell, m), group in groups(cs).items())
        sizes = [sum(len(list(compositions((c + ell) // 2, 2 * m))) for c in group)
                 * len(list(sign_patterns(2 * m, ell))) for ell, m, group in tasks]
        assert sizes == sorted(sizes, reverse=True)
        assert chunksize == len(tasks) // 16 > 1

    @pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
    def test_one_table_per_group(self, monkeypatch, threads):
        # The recording pool maps in this process, so every table build is seen.
        built = Counter()

        def counted(ell, m, c):
            built[ell, m] += 1
            return _unit_tables(ell, m, c)

        monkeypatch.setattr(enumeration, "_unit_tables", counted)
        monkeypatch.setattr(enumeration, "_cpu_count", lambda: 2)
        cs = range(3, 17)
        assert pool_sizes(monkeypatch, cs, threads) == ([2] if threads > 1 else [])
        # pool_sizes tallies twice: at ``threads`` and serially.
        assert built == Counter({g: 2 for g in groups(cs)})

    @pytest.mark.parametrize("threads", [1, 2], ids=["serial", "pool"])
    def test_keys_ascend(self, monkeypatch, threads):
        # Results fold by each group's first appearance, not in task order,
        # which runs the largest groups first.
        monkeypatch.setattr(enumeration, "_cpu_count", lambda: 2)
        for cs in (range(3, 17), range(16, 2, -1)):
            assert pool_sizes(monkeypatch, cs, threads) == ([2] if threads > 1 else [])
            for by_mode in tallies(cs, threads).values():
                for mode in (D, C):
                    assert list(by_mode[mode].by_genus) == sorted(by_mode[mode].by_genus)
                    assert list(by_mode[mode].by_ell) == sorted(by_mode[mode].by_ell)

    def test_one_pool_per_call(self, monkeypatch):
        started = []

        class CountingPool(enumeration.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(kwargs["max_workers"])

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(enumeration, "_cpu_count", lambda: 2)
        tallies(range(3, 13), threads=2)
        assert started == [2]

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
        monkeypatch.setattr(enumeration, "_cpu_count", lambda: 4)
        with pytest.raises(error, match=named):
            tallies([9], threads=threads)
        with pytest.raises(error, match=named):
            tally(9, D, threads=threads)


class Child:
    """A stand-in for a live multiprocessing child: a pid, hashed by identity."""

    def __init__(self, pid):
        self.pid = pid


def pool_sizes(monkeypatch, cs, threads, live=None):
    """max_workers of each pool that tallies(cs, threads) starts.

    The pool is a recording fake that maps serially and starts no
    process; the counts must equal the serial run's.  Given ``live``, a
    list standing for this process's live children, each pool adds one
    fake worker per max_workers to it when it maps, as a real pool's
    workers appear once map starts them, and takes them out on exit.
    """
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)
            self.workers = [Child(10_000 + 100 * len(started) + k) for k in range(max_workers)]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            if live is not None:
                for worker in self.workers:
                    live.remove(worker)
            return False

        def map(self, fn, *iterables, chunksize=1):
            if live is not None:
                live.extend(self.workers)
            return map(fn, *iterables)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    assert tallies(cs, threads) == tallies(cs)
    return started


class TestWorkerCount:
    # A pool task is one (ell, m) group: [3, 5] holds three units in two
    # groups, and range(3, 13) holds 44 units in 18 groups.
    def test_huge_request_clamped_to_cpus_and_units(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_cpu_count", lambda: 4)
        assert pool_sizes(monkeypatch, range(3, 13), 10**6) == [4]
        assert pool_sizes(monkeypatch, [3, 5], 10**6) == [2]
        assert pool_sizes(monkeypatch, range(3, 13), 2) == [2]
        assert pool_sizes(monkeypatch, [3], 10**6) == []

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        # A platform with no affinity call falls back on the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cpu_count() == 1
        assert pool_sizes(monkeypatch, range(3, 13), 10**6) == []

    def test_cpu_count_without_affinity_call(self, monkeypatch):
        # The pool still starts, with no placement to make.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _cpu_count() == 6
        moved = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda *call: moved.append(call),
                            raising=False)
        live = []
        monkeypatch.setattr("multiprocessing.active_children", lambda: list(live))
        assert pool_sizes(monkeypatch, range(3, 13), 10**6, live) == [6]
        assert moved == []

    def test_one_cpu_per_worker_in_affinity_order(self, monkeypatch):
        # The recording pool's fake workers join the live children once it
        # maps, beside one child of the caller's own, which must stay put.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 0, 3}, raising=False)
        moved = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda *call: moved.append(call),
                            raising=False)
        own = Child(7)
        live = [own]
        monkeypatch.setattr("multiprocessing.active_children", lambda: list(live))
        for threads, cpus in ((8, {0, 3, 5}), (2, {0, 3})):
            moved.clear()
            assert pool_sizes(monkeypatch, range(3, 13), threads, live) == [len(cpus)]
            assert live == [own]
            # One call per worker, each to one CPU, no two alike.
            assert own.pid not in {pid for pid, _ in moved}
            assert len({pid for pid, _ in moved}) == len(moved) == len(cpus)
            assert all(len(cpu) == 1 for _, cpu in moved)
            assert set().union(*(cpu for _, cpu in moved)) == cpus

    def test_refused_placement_fails_no_count(self, monkeypatch):
        refused = []

        def refuse(pid, cpus):
            refused.append(pid)
            raise OSError("not permitted")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        live = []
        monkeypatch.setattr("multiprocessing.active_children", lambda: list(live))
        # pool_sizes requires the counts to equal the serial run's.
        assert pool_sizes(monkeypatch, range(3, 13), 2, live) == [2]
        assert len(refused) == 2

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or _cpu_count() < 2,
                        reason="needs an affinity call and two CPUs")
    def test_workers_pinned_to_distinct_cpus(self, tmp_path):
        # In a fresh interpreter, through the real pool: the probe reads each
        # worker's affinity from outside before the pool shuts down, and the
        # affinity of a child the probe started itself, which tallies must not
        # move.  A script file, so a start method that re-imports the main
        # module can find the child's target.
        script = tmp_path / "probe.py"
        script.write_text(
            "import json, multiprocessing, os\n"
            "from twobridge import enumeration\n"
            "from twobridge.enumeration import tallies\n"
            "\n"
            "def wait(stop):\n"
            "    stop.wait(60)\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    reports = []\n"
            "\n"
            "    class Probe(enumeration.ProcessPoolExecutor):\n"
            "        def __exit__(self, *exc):\n"
            "            reports.extend((pid, sorted(os.sched_getaffinity(pid)))\n"
            "                           for pid in self._processes)\n"
            "            return super().__exit__(*exc)\n"
            "\n"
            "    enumeration.ProcessPoolExecutor = Probe\n"
            "    stop = multiprocessing.Event()\n"
            "    own = multiprocessing.Process(target=wait, args=(stop,))\n"
            "    own.start()\n"
            "    before = sorted(os.sched_getaffinity(0))\n"
            "    same = tallies(range(3, 15), threads=2) == tallies(range(3, 15))\n"
            "    kept = sorted(os.sched_getaffinity(own.pid))\n"
            "    stop.set()\n"
            "    own.join()\n"
            "    print(json.dumps([before, sorted(os.sched_getaffinity(0)), kept, same, reports]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(enumeration.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-W", "error", str(script)], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        before, after, kept, same, reports = json.loads(out)
        assert after == before == kept and same
        assert len({pid for pid, _ in reports}) == len(reports) == 2
        assert all(len(cpus) == 1 for _, cpus in reports)
        assert sorted(cpu for _, [cpu] in reports) == before[:2]

    def test_affinity_counts_not_the_machine(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _cpu_count() == 3
        assert pool_sizes(monkeypatch, range(3, 13), 8) == [3]

    def test_affinity_of_one_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert pool_sizes(monkeypatch, range(3, 13), 8) == []
