"""Command-line front end: tables, enumeration streams and verification runs.

Usage:
    twobridge table1 --max-c 15            # closed forms vs enumeration
    twobridge formulas --max-c 30          # closed forms only
    twobridge enumerate --crossings 9      # canonical sequences, one per line
    twobridge knot --cf "2,-2"             # invariants of one presentation
    twobridge verify --max-c 14 --max-n 32 # identity and oracle sweeps

Global flags: ``--format table|csv|json`` and ``--threads T`` (T may be
"auto"; the TWOBRIDGE_THREADS environment variable overrides the
default).  A command starts at most one process pool, with no more
workers than the CPUs the process may run on.  Rationals print as "p/q"
in tables and CSV; JSON carries them as {"num": "...", "den": "..."}
decimal strings, and unbounded integer columns as decimal strings, so
consumers never face 64-bit overflow.

Output is written in blocks of about BLOCK_CHARS characters as rows are
computed: ``formulas`` and ``table1`` in every format, and the class
stream of ``enumerate``, run in memory that does not grow with the row
count.  The class stream prints the plain-tuple keys of the
enumeration's key walker through a table of entry texts made once per
command, so no line builds a KnotClass or calls str() per entry.
JSON records are laid out here with the bytes of
``json.dumps(rows, indent=2)``, since the encoder runs in pure Python
once given an indent.  A table needs every column width before its
first line, so it computes its rows twice, once for the widths and once
to print, instead of keeping them; the width pass converts no value to
text.  The process pool module loads only when ``--threads`` above 1
starts a pool.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from types import SimpleNamespace

import click

from . import formulas, identities
from .contfrac import (
    SequenceError,
    EvenSequence,
    cf_value,
    crossing_number,
    genus,
    sign_changes,
)
from .enumeration import _class_keys, _cpu_count, tallies
from .knots import Mode, canonicalize, is_amphichiral

# Largest crossing number a command enumerates, a work budget:
# tallies([24]) took 1.2 to 1.4 s on a shared 2-vCPU host with Python 3.11,
# and each +2 in c costs about 4 times more.
MAX_ENUM_C = 26

# Characters per write of streamed output: click.echo flushes stdout on
# every call, and a block bounded in characters, not rows, keeps memory
# flat both for the short lines of the class stream (5.6 million in mode D
# at MAX_ENUM_C) and for formula rows, which grow like c digits each.
BLOCK_CHARS = 1 << 16

FORMULA_COLUMNS = [
    "c", "tk", "tg", "avg_genus", "tk_mirror", "tg_mirror", "avg_genus_mirror",
]


def _cell_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# log10(2) cut to 40 decimals, so k * _LOG10_2 // _LOG10_2_SCALE is
# floor(k log10 2) for every bit length k < 2^64: the cut loses under 2e-21
# there, and the convergents of log10 2 show that k log10 2 stays over
# 2e-20 from every integer for 0 < k < 2^64.
_LOG10_2 = 3010299956639811952137388947244930267681
_LOG10_2_SCALE = 10**40


@lru_cache(maxsize=64)
def _pow10(e: int) -> int:
    # Bounded, so memory does not grow with c: the values of a column grow
    # by a digit every few rows, and a row mostly meets the last rows' powers.
    return 10**e


def _int_text_len(n: int) -> int:
    """len(str(n)), from the bit length and one power of ten, with no text."""
    a = abs(n)
    # 2^(b-1) <= a < 2^b has e = floor((b-1) log10 2) + 1 digits or e + 1.
    e = max(a.bit_length() - 1, 0) * _LOG10_2 // _LOG10_2_SCALE + 1
    return (n < 0) + e + (a >= _pow10(e))


def _cell_text_len(v) -> int:
    """len(_cell_text(v)); ints and Fractions are not converted to text."""
    if type(v) is int:
        return _int_text_len(v)
    if type(v) is Fraction:
        return _int_text_len(v.numerator) + 1 + _int_text_len(v.denominator)
    return len(_cell_text(v))


def _cell_json(v):
    # Counts can exceed 2^53 for large c, so integers travel as strings.
    if isinstance(v, Fraction):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    return v


def _json_field(v) -> str:
    """``_cell_json(v)`` as json.dumps(..., indent=2) prints it in a list's record."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return f'"{v}"'
    if isinstance(v, Fraction):
        return f'{{\n      "num": "{v.numerator}",\n      "den": "{v.denominator}"\n    }}'
    return json.dumps(v)  # no indent, so the C encoder quotes strings


@contextlib.contextmanager
def _unbounded_int_text():
    """Lift the int-to-str digit limit of Python 3.11+ for output, then restore it.

    Closed-form values pass its default of 4300 digits from c = 14277 on.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # Python 3.10 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _echo_blocks(chunks):
    """Print an iterable of strings, read once, in writes of about BLOCK_CHARS.

    If drawing a chunk raises, the chunks before it are still printed.
    """
    block, size = [], 0
    try:
        for chunk in chunks:
            block.append(chunk)
            size += len(chunk)
            if size >= BLOCK_CHARS:
                text, block, size = "".join(block), [], 0
                click.echo(text, nl=False)
    finally:
        if block:
            click.echo("".join(block), nl=False)


def _json_chunks(rows, columns):
    # The bytes of json.dumps(list_of_records, indent=2), one record at a
    # time, laid out here: json.JSONEncoder runs in pure Python when given
    # an indent, and only keys and strings need its quoting.
    keys = [json.dumps(k) + ": " for k in columns]
    head, tail = ("{\n    ", "\n  }") if columns else ("{", "}")
    sep = "[\n  "
    for row in rows:
        fields = map(_json_field, map(row.get, columns))
        yield sep + head + ",\n    ".join(map(str.__add__, keys, fields)) + tail
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


@_unbounded_int_text()
def _emit_rows(rows, columns, fmt):
    """Print the rows of ``rows()``, an iterable of dicts, under the given columns.

    ``rows`` is called once for CSV and JSON.  A table calls it twice: the
    first pass keeps only the column widths, the second prints, so a row
    that raises leaves a table unprinted.
    """
    def text():
        return ([_cell_text(row.get(k)) for k in columns] for row in rows())

    if fmt == "json":
        _echo_blocks(_json_chunks(rows(), columns))
        return
    if fmt == "csv":
        # csv.writer returns what its file's write returns: each row's text.
        writer = csv.writer(SimpleNamespace(write=lambda line: line))
        _echo_blocks(map(writer.writerow, chain([columns], text())))
        return
    widths = list(map(len, columns))
    for row in rows():
        widths = list(map(max, widths, map(_cell_text_len, map(row.get, columns))))
    lines = chain(["  ".join(map(str.ljust, columns, widths))],
                  ("  ".join(map(str.rjust, r, widths)) for r in text()))
    _echo_blocks(line.rstrip() + "\n" for line in lines)


@_unbounded_int_text()
def _emit_record(row, fmt):
    """Print one record: a JSON object, a one-row CSV, or key/value lines.

    JSON carries Fractions as decimal strings; integers stay plain JSON
    numbers, so a row holds an unbounded integer as its text.
    """
    if fmt == "json":
        click.echo(json.dumps(row, indent=2, default=_cell_json))
    elif fmt == "csv":
        _emit_rows(lambda: [row], list(row), fmt)
    else:
        width = max(map(len, row))
        for k, v in row.items():
            click.echo(f"{k.ljust(width)}  {_cell_text(v)}")


def _ok_text(ok: bool) -> str:
    return "ok" if ok else "MISMATCH"


def _parse_threads(ctx, param, value: str) -> int:
    # A callback, so click's error names --threads, also for TWOBRIDGE_THREADS.
    if value == "auto":
        return _cpu_count()
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise click.BadParameter(f"{value!r} is not a positive integer or 'auto'")
    return n


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "csv", "json"]),
    default="table",
    show_default=True,
    help="Output format.",
)
@click.option(
    "--threads",
    default="1",
    show_default=True,
    envvar="TWOBRIDGE_THREADS",
    callback=_parse_threads,
    help="Worker processes for enumeration, at most one per CPU ('auto' for CPU count).",
)
@click.pass_context
def main(ctx, fmt, threads):
    """Exact 2-bridge knot counts, genera and verification sweeps."""
    ctx.obj = {"fmt": fmt, "threads": threads}


def _formula_row(c: int) -> dict:
    # Each closed form once: the averages reuse the totals (see formulas.avg_genus).
    tk, tg = formulas.tk_closed(c), formulas.tg_closed(c)
    tk_mirror, tg_mirror = formulas.tk_mirror_closed(c), formulas.tg_mirror_closed(c)
    return {
        "c": c,
        "tk": tk,
        "tg": tg,
        "avg_genus": formulas._average(c, tg, tk, formulas.correction(c)),
        "tk_mirror": tk_mirror,
        "tg_mirror": tg_mirror,
        "avg_genus_mirror": formulas._average(
            c, tg_mirror, tk_mirror, formulas.correction_mirror(c)),
    }


@main.command("formulas")
@click.option("--max-c", type=click.IntRange(min=3), required=True,
              help="Largest crossing number.")
@click.pass_context
def cmd_formulas(ctx, max_c):
    """Closed-form counts, total genera and average genera per row."""
    rows = partial(map, _formula_row, range(3, max_c + 1))
    _emit_rows(rows, FORMULA_COLUMNS, ctx.obj["fmt"])


@main.command("table1")
@click.option("--max-c", type=click.IntRange(min=3), required=True,
              help="Largest crossing number.")
@click.option(
    "--cutoff",
    type=click.IntRange(max=MAX_ENUM_C),
    default=18,
    show_default=True,
    help="Largest crossing number that is also cross-checked by enumeration.",
)
@click.pass_context
def cmd_table1(ctx, max_c, cutoff):
    """Closed forms with an enumeration cross-check column.

    Rows up to the cutoff carry the enumerated counts and a match flag;
    the exit status is nonzero if any row mismatches.
    """
    checked = tallies(range(3, min(max_c, cutoff) + 1), ctx.obj["threads"])
    totals_ok = {c: ok for c, (ok, _) in formulas.check_tallies(checked).items()}

    def table_row(c):
        row = _formula_row(c)
        if c in checked:  # rows past the cutoff leave the enumeration columns blank
            td, tc = checked[c][Mode.MIRROR_DISTINCT], checked[c][Mode.MIRROR_COLLAPSED]
            row.update(
                enum_tk=td.knot_count,
                enum_tg=td.total_genus,
                enum_tk_mirror=tc.knot_count,
                enum_tg_mirror=tc.total_genus,
                match=_ok_text(totals_ok[c]),
            )
        return row

    rows = partial(map, table_row, range(3, max_c + 1))
    columns = FORMULA_COLUMNS + [
        "enum_tk", "enum_tg", "enum_tk_mirror", "enum_tg_mirror", "match",
    ]
    _emit_rows(rows, columns, ctx.obj["fmt"])
    if not all(totals_ok.values()):
        ctx.exit(1)


@main.command("enumerate")
@click.option("--crossings", type=click.IntRange(3, MAX_ENUM_C), required=True,
              help="Crossing number.")
@click.option(
    "--mode",
    type=click.Choice(["D", "C"]),
    default="D",
    show_default=True,
    help="D keeps mirror images distinct, C collapses them.",
)
@click.pass_context
def cmd_enumerate(ctx, crossings, mode):
    """Stream canonical sequences, or export the tally as CSV/JSON."""
    m = Mode(mode)
    fmt = ctx.obj["fmt"]
    if fmt == "table":
        click.echo(f"c={crossings} mode={mode}")
        # Every entry of a class key has |e| <= c - 1, so the text of each value
        # is made once; a value past the table raises KeyError, never prints.
        text = {v: str(v) for v in range(-crossings, crossings + 1)}.__getitem__
        _echo_blocks(",".join(map(text, key)) + "\n" for key in _class_keys(crossings, m))
        return
    t = tallies([crossings], ctx.obj["threads"])[crossings][m]
    gmax = (crossings - 1) // 2
    row = {"c": t.c, "mode": mode, "knot_count": t.knot_count,
           "total_genus": t.total_genus}
    for g in range(1, gmax + 1):
        row[f"g{g}"] = t.by_genus.get(g, 0)
    _emit_record(row, fmt)


@main.command("knot")
@click.option("--cf", "text", required=True, help="Sequence text, e.g. \"2,-2\".")
@click.pass_context
def cmd_knot(ctx, text):
    """Invariants and canonical forms of one presentation."""
    try:
        seq = EvenSequence.from_text(text)
    except SequenceError as exc:
        raise click.ClickException(str(exc))
    # The crossing number sums the entries, which are unbounded user input, so
    # it travels as text, made past the digit limit that parsing above keeps;
    # genus and sign changes are bounded by the entry count.
    with _unbounded_int_text():
        crossings = str(crossing_number(seq))
    row = {
        "sequence": seq.to_text(),
        "value": cf_value(seq),
        "genus": genus(seq),
        "sign_changes": sign_changes(seq),
        "crossing_number": crossings,
        "canonical_mirror_distinct": canonicalize(seq, Mode.MIRROR_DISTINCT).to_text(),
        "canonical_mirror_collapsed": canonicalize(seq, Mode.MIRROR_COLLAPSED).to_text(),
        "amphichiral": is_amphichiral(seq),
    }
    _emit_record(row, ctx.obj["fmt"])


@main.command("verify")
@click.option("--max-c", type=click.IntRange(3, MAX_ENUM_C), default=14, show_default=True,
              help="Largest crossing number for the enumeration sweeps.")
@click.option("--max-n", type=click.IntRange(min=1), default=32, show_default=True,
              help="Largest n for the identity checks.")
@click.option("--identities", "identities_only", is_flag=True,
              help="Run only the identity checks.")
@click.pass_context
def cmd_verify(ctx, max_c, max_n, identities_only):
    """Run every oracle comparison and print a summary.

    Checks the binomial identities for n up to --max-n, then, unless
    --identities is given, the closed-form totals in both modes and the
    per-stratum closed forms against enumeration for c up to --max-c.
    Exit status is a bitmask of failing suites: 1 identities, 2 closed
    forms vs enumeration, 4 strata.
    """
    suites = [(1, f"identities (n <= {max_n}):",
               [(str(rep), rep.passed) for rep in identities.identity_suite(max_n)])]
    if not identities_only:
        found = tallies(range(3, max_c + 1), ctx.obj["threads"])
        totals, strata = [], []
        for c, (totals_ok, strata_ok) in formulas.check_tallies(found).items():
            td, tc = found[c][Mode.MIRROR_DISTINCT], found[c][Mode.MIRROR_COLLAPSED]
            totals.append((f"c={c}: distinct {td.knot_count}/{td.total_genus}"
                           f" collapsed {tc.knot_count}/{tc.total_genus} {_ok_text(totals_ok)}",
                           totals_ok))
            strata.append((f"c={c}: strata {_ok_text(strata_ok)}", strata_ok))
        suites += [(2, f"closed forms vs enumeration (c <= {max_c}, both modes):", totals),
                   (4, f"stratum closed forms vs enumeration (c <= {max_c}):", strata)]
    status = 0
    for bit, header, lines in suites:
        click.echo(header)
        for line, _ in lines:
            click.echo(f"  {line}")
        if not all(passed for _, passed in lines):
            status |= bit
    click.echo("summary: " + ("all checks passed" if status == 0 else f"FAILURES (status {status})"))
    ctx.exit(status)


if __name__ == "__main__":
    main()
