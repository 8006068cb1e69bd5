"""Per-layer probes: timed calls into each twobridge module's public functions.

Runs inside one traced process (see tracer.py).  Every probe is a span
named ``probe.*`` around calls whose own spans come from the installed
wrappers; the per-layer metrics are durations and self times of those
spans.  Exact work counts are checked against reference.py, which knows
nothing of the program, and each mismatch is a failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction

import reference
from tracer import Tracer

GENERATE_CS = (20, 21, 22)
TALLY_C = 22
STREAM_C = 20
RESIDUAL_MAX_C = 10000
STRATA_MAX_C = 22
IDENTITY_N = 64
ALPHA_XS = (0, 1, 2, -1, Fraction(3, 2))
POOL_SWEEP_MAX_C = 12


class _Digest(io.RawIOBase):
    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0

    def writable(self):
        return True

    def write(self, b):
        self.sha.update(b)
        self.bytes += len(b)
        return len(b)


def run_cli(args) -> tuple[object, str, int]:
    """Run the CLI in this process; return (exit value, stdout sha256, stdout bytes)."""
    from twobridge import cli

    sink = _Digest()
    text = io.TextIOWrapper(sink, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(text):
        rv = cli.main.main(list(args), prog_name="twobridge", standalone_mode=False)
        text.flush()
    return rv, sink.sha.hexdigest(), sink.bytes


def _generate(enumeration, c: int) -> dict:
    # The loop of the program's raw generation, written against the
    # public compositions and sign_patterns; counts sequences per unit.
    per_unit = {}
    for ell, m in enumeration.strata(c):
        total = (c + ell) // 2
        patterns = list(enumeration.sign_patterns(2 * m, ell))
        n = 0
        for b in enumeration.compositions(total, 2 * m):
            mags = tuple(2 * x for x in b)
            for signs in patterns:
                tuple(x * s for x, s in zip(mags, signs))
                n += 1
        per_unit[(ell, m)] = n
    return per_unit


def batch_line(x: Fraction) -> str:
    """One fraction through even_expansion, cf_value, canonicalize and is_amphichiral."""
    from twobridge import contfrac, knots

    s = contfrac.even_expansion(x)
    v = contfrac.cf_value(s)
    return " ".join((
        f"{x.numerator}/{x.denominator}", s.to_text(), f"{v.numerator}/{v.denominator}",
        knots.canonicalize(s, knots.Mode.MIRROR_DISTINCT).to_text(),
        knots.canonicalize(s, knots.Mode.MIRROR_COLLAPSED).to_text(),
        str(knots.is_amphichiral(s)),
    ))


def run_layers(tr: Tracer, seed: int, expected: dict, formulas_max_c: int,
               batch_size: int) -> tuple[dict, reference.Checks]:
    from twobridge import enumeration, formulas, identities, knots

    D, C = knots.Mode.MIRROR_DISTINCT, knots.Mode.MIRROR_COLLAPSED
    modes = {"D": D, "C": C}
    ck = reference.Checks()
    m = {}

    # enumeration: raw generation, validation, tallies, streams, pools
    for c in GENERATE_CS:
        sid, per_unit = tr.call(f"probe.generate.c{c}", _generate, enumeration, c)
        m[f"generate_s.c{c}"] = tr.duration(sid)
        units = reference.units(c)
        ck.expect(f"units.c{c}", list(per_unit) == units)
        ck.expect(f"sequences.c{c}", all(
            per_unit.get(u) == reference.unit_sequences(c, *u) for u in units))
        m[f"sequences.c{c}"] = sum(per_unit.values())
        m[f"units.c{c}"] = len(per_unit)
        if c == TALLY_C:
            m[f"max_unit_share.c{c}"] = max(per_unit.values()) / sum(per_unit.values())

    sid, n = tr.call(f"probe.enumerate_sequences.c{STREAM_C}",
                     lambda: sum(1 for _ in enumeration.enumerate_sequences(STREAM_C)))
    ck.expect(f"enumerate_sequences.c{STREAM_C}", n == reference.sequences(STREAM_C))
    m[f"validate_s.c{STREAM_C}"] = tr.duration(sid) - m[f"generate_s.c{STREAM_C}"]

    serial = {}
    for letter, mode in modes.items():
        sid, t = tr.call(f"probe.tally.c{TALLY_C}.{letter}", enumeration.tally, TALLY_C, mode)
        serial[letter] = t
        ck.expect(f"tally.c{TALLY_C}.{letter}",
                  t.knot_count == reference.classes(TALLY_C, letter))
        m[f"tally_s.c{TALLY_C}.{letter}"] = tr.duration(sid)
        m[f"canon_dedupe_s.c{TALLY_C}.{letter}"] = (
            tr.duration(sid) - m[f"generate_s.c{TALLY_C}"])
        m[f"classes_per_sequence.c{TALLY_C}.{letter}"] = (
            t.knot_count / reference.sequences(TALLY_C))
    for letter, mode in modes.items():
        sid, t = tr.call(f"probe.pool.c{TALLY_C}.{letter}", enumeration.tally,
                         TALLY_C, mode, threads=2)
        ck.expect(f"pool.c{TALLY_C}.{letter}", t == serial[letter])
        m[f"pool_s.c{TALLY_C}.{letter}"] = tr.duration(sid)
    sid1, t1 = tr.call("probe.pool_overhead.t1", enumeration.tally, 6, D, threads=1)
    sid2, t2 = tr.call("probe.pool_overhead.t2", enumeration.tally, 6, D, threads=2)
    ck.expect("pool_overhead.c6", t1 == t2)
    m["pool_overhead_s"] = tr.duration(sid2) - tr.duration(sid1)
    pools_before = tr.pools_started
    _, (rv, _, _) = tr.call("probe.pool_sweep", run_cli, [
        "--threads", "2", "verify", "--max-c", str(POOL_SWEEP_MAX_C), "--max-n", "1"])
    ck.expect("pool_sweep.status", rv == 0)
    m["pools_started"] = tr.pools_started - pools_before

    for letter, mode in modes.items():
        sid, n = tr.call(f"probe.stream.c{STREAM_C}.{letter}",
                         lambda: sum(1 for _ in enumeration.enumerate_classes(STREAM_C, mode)))
        ck.expect(f"stream.c{STREAM_C}.{letter}", n == reference.classes(STREAM_C, letter))
        m[f"stream_s.c{STREAM_C}.{letter}"] = tr.duration(sid)

    # knots and contfrac: the seeded fraction batch, one call at a time
    batch = list(reference.fraction_batch(seed, batch_size))
    _, lines = tr.call("probe.batch", lambda: [batch_line(x) for x in batch])
    for x, line in zip(batch, lines):
        ck.expect(f"batch {x}", reference.batch_line_ok(x, line))
    for metric, name in (("cf_value_s", "contfrac.cf_value"),
                         ("even_expansion_s", "contfrac.even_expansion"),
                         ("canonicalize_s", "knots.canonicalize"),
                         ("amphichiral_s", "knots.is_amphichiral")):
        m[metric] = tr.total(name)

    # formulas
    def totals():
        bits = 0
        for c in range(3, formulas_max_c + 1):
            formulas.tk_closed(c)
            formulas.tk_mirror_closed(c)
            formulas.tg_mirror_closed(c)
            bits = max(bits, formulas.tg_closed(c).bit_length())
        return bits

    sid, m["max_bits"] = tr.call("probe.totals", totals)
    m["totals_s"] = tr.duration(sid)
    sid, _ = tr.call("probe.avg_genus", lambda: [
        (formulas.avg_genus(c), formulas.avg_genus_mirror(c))
        for c in range(3, formulas_max_c + 1)])
    m["avg_genus_s"] = tr.duration(sid)
    sid, _ = tr.call("probe.residual", lambda: [
        (formulas.residual(c), formulas.residual_mirror(c))
        for c in range(3, RESIDUAL_MAX_C + 1)])
    m["residual_s"] = tr.duration(sid)

    def strata_sums():
        ok = True
        for c in range(3, STRATA_MAX_C + 1):
            k, parity = c // 2, ("even" if c % 2 == 0 else "odd")
            count = sum(formulas.stratum_closed_A(k, l, parity) for l in range(k))
            gsum = sum(formulas.stratum_closed_B(k, l, parity) for l in range(k))
            ok = ok and count == reference.classes(c, "D") and gsum == formulas.tg_closed(c)
        return ok

    sid, ok = tr.call("probe.strata", strata_sums)
    ck.expect("strata", ok)
    m["strata_s"] = tr.duration(sid)

    # identities
    for metric, fn, args in (
        ("wellknown_s", identities.wellknown_check, [(IDENTITY_N,)]),
        ("x2_specialization_s", identities.x2_specialization_check, [(IDENTITY_N,)]),
        ("weighted_sums_s", identities.weighted_sum_check, [(IDENTITY_N,)]),
        ("alpha_recurrence_s", identities.alpha_recurrence_check,
         [(IDENTITY_N, x) for x in ALPHA_XS]),
    ):
        sid, reports = tr.call(f"probe.{metric}", lambda: [fn(*a) for a in args])
        ck.expect(metric, all(r.passed for r in reports))
        m[metric] = tr.duration(sid)

    # cli: output formatting is the command's self time
    for fmt in ("table", "json"):
        args = ["--format", fmt, "formulas", "--max-c", str(formulas_max_c)]
        sid, (_, sha, nbytes) = tr.call(f"probe.cli.formulas.{fmt}", run_cli, args)
        ck.expect(f"formulas.{fmt}", expected.get(" ".join(args), {}).get("sha256") == sha)
        m[f"emit_s.formulas.{fmt}"] = tr.self_time(sid)
        m[f"bytes_out.formulas.{fmt}"] = nbytes
    args = ["enumerate", "--crossings", str(STREAM_C)]
    sid, (_, sha, nbytes) = tr.call(f"probe.cli.enumerate.c{STREAM_C}", run_cli, args)
    ck.expect(f"enumerate.c{STREAM_C}", expected.get(" ".join(args), {}).get("sha256") == sha)
    m[f"emit_s.enumerate.c{STREAM_C}"] = tr.self_time(sid)
    m[f"bytes_out.enumerate.c{STREAM_C}"] = nbytes
    return m, ck
