"""Command-line front end: tables, enumeration streams and verification runs.

Usage:
    twobridge table1 --max-c 15            # closed forms vs enumeration
    twobridge formulas --max-c 30          # closed forms only
    twobridge enumerate --crossings 9      # canonical sequences, one per line
    twobridge knot --cf "2,-2"             # invariants of one presentation
    twobridge verify --max-c 14 --max-n 32 # identity and oracle sweeps

Global flags: ``--format table|csv|json`` and ``--threads T`` (T is a
sign and ASCII digits, at least 1; ``verify`` prints only ``table``).  A
command starts at most one process pool, with no more workers than the
CPUs the process may run on; once the workers start, it moves each to
its own CPU of them.
Rationals print as "p/q" in tables and CSV; JSON carries them as
{"num": "...", "den": "..."} decimal strings, and unbounded integer
columns as decimal strings, so consumers never face 64-bit overflow.
Each command lifts the int/text digit limit once, in the group callback,
before it parses ``--threads``, and restores it when its context closes,
so it reads and prints integers of any length.

Output is written in blocks of about BLOCK_CHARS characters as rows are
computed: ``formulas`` and ``table1`` in every format, and the class
stream of ``enumerate``, run in memory that does not grow with the row
count.  The class stream prints the plain-tuple keys of the
enumeration's key walker through a table of entry texts made once per
command, so no line builds a KnotClass or calls str() per entry.
JSON records are laid out here with the bytes of
``json.dumps(rows, indent=2)``, since the encoder runs in pure Python
once given an indent.  A table needs every column width before its
first line, so it computes each row once and spools its cell text to a
temporary file under TMPDIR (41 MB for ``formulas --max-c 6000``, whose
table is 87 MB), then pads the lines it reads back; the file is
unlinked when the table is printed or a row raises.  The process pool
module loads only when ``--threads`` above 1 starts a pool.
"""

import csv
import json
import sys
import tempfile
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import click

from . import formulas, identities
from .contfrac import (
    _INT_TOKEN,
    SequenceError,
    EvenSequence,
    _shown,
    cf_value,
    crossing_number,
    genus,
    sign_changes,
)
from .enumeration import _class_keys, tallies
from .knots import Mode, canonicalize, is_amphichiral

# Largest crossing number a command enumerates, a work budget:
# tallies([24]) took 1.0 to 1.3 s on a shared 2-vCPU host with Python 3.11,
# and each +2 in c costs about 4 times more.
MAX_ENUM_C = 26

# Largest n of the identity checks, a work budget: wellknown_check is
# cubic in n, and verify --identities took 2.2 s at n = 256 and 9.0 s at
# n = 384 on the same host.
MAX_IDENTITY_N = 256

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


def _cell_json(v: Fraction) -> dict:
    # The default hook of json.dumps, which calls it only for values it cannot
    # encode: of a record's, a Fraction alone.
    return {"num": str(v.numerator), "den": str(v.denominator)}


def _json_field(v) -> str:
    """A cell as json.dumps(..., indent=2) prints it in a list's record.

    A cell is None, an int, a Fraction or text; no row holds a bool.
    Integers exceed 2^53 for large c, so they travel as decimal strings.
    """
    if v is None:
        return "null"
    if isinstance(v, int):
        return f'"{v}"'
    if isinstance(v, Fraction):
        return f'{{\n      "num": "{v.numerator}",\n      "den": "{v.denominator}"\n    }}'
    return json.dumps(v)  # no indent, so the C encoder quotes strings


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
    # time, laid out here for one or more columns: json.JSONEncoder runs in
    # pure Python when given an indent, and only keys and strings need its quoting.
    keys = [json.dumps(k) + ": " for k in columns]
    sep = "[\n  "
    for row in rows:
        fields = map(_json_field, map(row.get, columns))
        yield sep + "{\n    " + ",\n    ".join(map(str.__add__, keys, fields)) + "\n  }"
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _emit_rows(rows, columns, fmt):
    """Print ``rows``, an iterable of dicts read once, under the given columns.

    A table needs every column width before its first line, so it spools
    each row's cell text, tab-joined, to a temporary file, then pads the
    lines it reads back; a row that raises leaves a table unprinted.
    Table cells hold no tab or newline.
    """
    if fmt == "json":
        _echo_blocks(_json_chunks(rows, columns))
        return
    text = ([_cell_text(row.get(k)) for k in columns] for row in rows)
    if fmt == "csv":
        # csv.writer returns what its file's write returns: each row's text.
        writer = csv.writer(SimpleNamespace(write=lambda line: line))
        _echo_blocks(map(writer.writerow, chain([columns], text)))
        return
    widths = list(map(len, columns))
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
        for cells in text:
            widths = list(map(max, widths, map(len, cells)))
            spool.write("\t".join(cells) + "\n")
        spool.seek(0)
        lines = chain(["  ".join(map(str.ljust, columns, widths))],
                      ("  ".join(map(str.rjust, line[:-1].split("\t"), widths))
                       for line in spool))
        _echo_blocks(line.rstrip() + "\n" for line in lines)


def _emit_record(row, fmt):
    """Print one record: a JSON object, a one-row CSV, or key/value lines.

    JSON carries Fractions as decimal strings; integers stay plain JSON
    numbers, so a row holds an unbounded integer as its text.
    """
    if fmt == "json":
        click.echo(json.dumps(row, indent=2, default=_cell_json))
    elif fmt == "csv":
        _emit_rows([row], list(row), fmt)
    else:
        width = max(map(len, row))
        for k, v in row.items():
            click.echo(f"{k.ljust(width)}  {_cell_text(v)}")


def _ok_text(ok: bool) -> str:
    return "ok" if ok else "MISMATCH"


def _parse_threads(value: str) -> int:
    # The token rule of sequence text; called once the digit limit is lifted.
    token = value.strip()
    threads = int(token) if _INT_TOKEN.fullmatch(token) else 0
    if threads >= 1:
        return threads
    raise click.BadParameter(f"{_shown(value)} is not a positive integer", param_hint="'--threads'")


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
    help="Worker processes for enumeration, at most one per CPU and per (ell, m) group.",
)
@click.pass_context
def main(ctx, fmt, threads):
    """Exact 2-bridge knot counts, genera and verification sweeps."""
    # Python refuses int/text conversion past 4300 digits by default, which closed
    # forms pass from c = 14277 on and --cf and --threads values at any length:
    # lift the limit for the command, and restore it when its context closes.
    old = sys.get_int_max_str_digits()
    ctx.call_on_close(lambda: sys.set_int_max_str_digits(old))
    sys.set_int_max_str_digits(0)
    ctx.obj = {"fmt": fmt, "threads": _parse_threads(threads)}


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
    _emit_rows(map(_formula_row, range(3, max_c + 1)), FORMULA_COLUMNS, ctx.obj["fmt"])


@main.command("table1")
@click.option("--max-c", type=click.IntRange(min=3), required=True,
              help="Largest crossing number.")
@click.option(
    "--cutoff",
    type=click.IntRange(3, MAX_ENUM_C),
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

    columns = FORMULA_COLUMNS + [
        "enum_tk", "enum_tg", "enum_tk_mirror", "enum_tg_mirror", "match",
    ]
    _emit_rows(map(table_row, range(3, max_c + 1)), columns, ctx.obj["fmt"])
    if not all(totals_ok.values()):
        ctx.exit(1)


@main.command("enumerate")
@click.option("--crossings", type=click.IntRange(3, MAX_ENUM_C), required=True,
              help="Crossing number.")
@click.option(
    "--mode",
    type=click.Choice([m.value for m in Mode]),
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
    row = {
        "sequence": seq.to_text(),
        "value": cf_value(seq),
        "genus": genus(seq),
        "sign_changes": sign_changes(seq),
        "crossing_number": str(crossing_number(seq)),  # sums unbounded entries
        "canonical_mirror_distinct": canonicalize(seq, Mode.MIRROR_DISTINCT).to_text(),
        "canonical_mirror_collapsed": canonicalize(seq, Mode.MIRROR_COLLAPSED).to_text(),
        "amphichiral": is_amphichiral(seq),
    }
    _emit_record(row, ctx.obj["fmt"])


@main.command("verify")
@click.option("--max-c", type=click.IntRange(3, MAX_ENUM_C), default=14, show_default=True,
              help="Largest crossing number for the enumeration sweeps.")
@click.option("--max-n", type=click.IntRange(1, MAX_IDENTITY_N), default=32, show_default=True,
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
    forms vs enumeration, 4 strata.  The report is text: --format table only.
    """
    if ctx.obj["fmt"] != "table":
        raise click.BadParameter(f"verify prints only 'table', not {ctx.obj['fmt']!r}",
                                 param_hint="'--format'")
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
