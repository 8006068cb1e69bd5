import contextlib
import csv
import dataclasses
import io
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from twobridge import KnotClass, Mode, cli, crossing_number, enumerate_classes, formulas, identities
from twobridge.cli import _emit_rows, main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


@pytest.fixture
def corrupt_tallies(monkeypatch):
    """Make cli.tallies overcount the c = 5 mirror-distinct knots by one.

    The extra knot lands in the one-sign-change stratum, so both the
    totals and the strata comparison must flag c = 5.
    """
    real = cli.tallies

    def tallies(cs, threads=1):
        found = real(cs, threads)
        if 5 in found:
            t = found[5][Mode.MIRROR_DISTINCT]
            count, gsum = t.by_ell[1]
            found[5][Mode.MIRROR_DISTINCT] = dataclasses.replace(
                t, knot_count=t.knot_count + 1, by_ell={**t.by_ell, 1: (count + 1, gsum)}
            )
        return found

    monkeypatch.setattr(cli, "tallies", tallies)


@pytest.fixture
def corrupt_binom(monkeypatch):
    """Make C(5, 2) come out as 11, so some identity check fails from n = 3 on."""
    real = identities.binom
    monkeypatch.setattr(identities, "binom", lambda n, k: real(n, k) + ((n, k) == (5, 2)))


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def json_value(cell):
    """Collapse the JSON cell encodings back to comparable values."""
    if isinstance(cell, dict):
        return Fraction(int(cell["num"]), int(cell["den"]))
    if isinstance(cell, str):
        try:
            return int(cell)
        except ValueError:
            return cell
    return cell


def csv_value(cell):
    if cell == "":
        return None
    if "/" in cell:
        try:
            return Fraction(cell)
        except ValueError:
            return cell
    try:
        return int(cell)
    except ValueError:
        return cell


FORMATS = ["table", "csv", "json"]


def reference_output(rows, columns, fmt):
    """What _emit_rows prints for a row list, built in one piece."""
    if fmt == "json":
        records = [{k: cli._cell_json(r.get(k)) for k in columns} for r in rows]
        return json.dumps(records, indent=2) + "\n"
    text = [[cli._cell_text(r.get(k)) for k in columns] for r in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([columns, *text])
        return buf.getvalue()
    widths = [max(len(r[i]) for r in [columns, *text]) for i in range(len(columns))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(columns, widths))]
    lines += ["  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in text]
    return "".join(line.rstrip() + "\n" for line in lines)


def second_row_end(text, fmt):
    """Offset where the second streamed piece of an emitted document ends.

    The pieces are the CSV or table header and each row, or each JSON
    record with the separator before it.
    """
    if fmt == "json":
        return text.index(",\n  {", text.index(",\n  {") + 1)
    nl = "\r\n" if fmt == "csv" else "\n"
    return text.index(nl, text.index(nl) + 1) + len(nl)


class _CountingSink(io.RawIOBase):
    def __init__(self):
        self.bytes = 0

    def writable(self):
        return True

    def write(self, b):
        self.bytes += len(b)
        return len(b)


class TestEmitRows:
    @pytest.fixture
    def emitted(self, monkeypatch):
        """Record the rows each command's row source yields, and every write.

        The real emitter still prints the rows, from a fresh iterator per pass.
        """
        seen = {"rows": [], "writes": []}
        real_emit, real_echo = cli._emit_rows, cli.click.echo

        def emit(rows, columns, fmt):
            listed = list(rows())
            seen["rows"].append((listed, columns))
            real_emit(lambda: iter(listed), columns, fmt)

        def echo(message=None, **kwargs):
            seen["writes"].append(message)
            real_echo(message, **kwargs)

        monkeypatch.setattr(cli, "_emit_rows", emit)
        monkeypatch.setattr(cli.click, "echo", echo)
        return seen

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("max_c", [12, 300], ids=["one_block", "many_blocks"])
    @pytest.mark.parametrize("command", [["formulas"], ["table1", "--cutoff", "8"]],
                             ids=["formulas", "table1"])
    def test_commands_equal_reference(self, runner, emitted, command, max_c, fmt):
        result = run(runner, "--format", fmt, *command, "--max-c", str(max_c))
        assert result.exit_code == 0
        [(rows, columns)] = emitted["rows"]
        assert len(rows) == max_c - 2
        want = reference_output(rows, columns, fmt)
        assert result.stdout_bytes.decode() == want
        assert (len(emitted["writes"]) > 1) == (len(want) > cli.BLOCK_CHARS)
        assert max(map(len, emitted["writes"])) < 2 * cli.BLOCK_CHARS

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("shift", [-1, 0, 1], ids=["below", "at", "above"])
    def test_block_boundary_at_a_row_end(self, runner, emitted, monkeypatch, fmt, shift):
        args = ["--format", fmt, "formulas", "--max-c", "12"]
        want = run(runner, *args).stdout_bytes.decode()
        emitted["writes"].clear()
        end = second_row_end(want, fmt)
        monkeypatch.setattr(cli, "BLOCK_CHARS", end + shift)
        assert run(runner, *args).stdout_bytes.decode() == want
        first = len(emitted["writes"][0])
        assert first == end if shift <= 0 else first > end

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_no_rows(self, capsys, fmt):
        columns = ["c", "tk"]
        _emit_rows(lambda: iter(()), columns, fmt)
        out = capsys.readouterr().out
        assert out == reference_output([], columns, fmt)
        assert out == {"json": "[]\n", "csv": "c,tk\r\n", "table": "c  tk\n"}[fmt]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_one_shot_generator_streamed(self, fmt):
        raw = io.BytesIO()
        text = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        cs = range(3, 301)
        written_before_last = []

        def rows():
            for c in cs:
                if c == cs[-1]:
                    written_before_last.append(len(raw.getvalue()))
                yield cli._formula_row(c)

        with contextlib.redirect_stdout(text):
            _emit_rows(rows, cli.FORMULA_COLUMNS, fmt)
            text.flush()
        want = reference_output(list(map(cli._formula_row, cs)), cli.FORMULA_COLUMNS, fmt)
        assert raw.getvalue().decode() == want
        # A table needs every column width first; CSV and JSON do not wait.
        assert (written_before_last[0] >= cli.BLOCK_CHARS) == (fmt != "table")
        # A table reads its rows twice, printing as it goes the second time.
        assert len(written_before_last) == (2 if fmt == "table" else 1)
        assert written_before_last[-1] >= cli.BLOCK_CHARS

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_formulas_memory_below_half_the_output(self, fmt):
        # In process, as perfbench/layers.run_cli runs the CLI.  Holding
        # the rows or the document costs several times the output size.
        sink = _CountingSink()
        text = io.TextIOWrapper(sink, encoding="utf-8", newline="\n")
        args = ["--format", fmt, "formulas", "--max-c", "1500"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(text):
                main.main(args, prog_name="twobridge", standalone_mode=False)
                text.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.bytes > 1_000_000
        assert peak < sink.bytes / 2, (peak, sink.bytes)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_failure_mid_stream_leaves_a_prefix(self, runner, monkeypatch, fmt):
        args = ["--format", fmt, "formulas", "--max-c", "60"]
        full = run(runner, *args).stdout_bytes.decode()
        real = formulas.tg_closed

        def tg_closed(c):
            if c == 50:
                raise formulas.BranchMismatch("c=50: injected")
            return real(c)

        monkeypatch.setattr(formulas, "tg_closed", tg_closed)
        result = runner.invoke(main, args)
        assert result.exit_code != 0
        assert isinstance(result.exception, formulas.BranchMismatch)
        out = result.stdout_bytes.decode()
        assert full.startswith(out) and out != full
        if fmt == "table":  # nothing is printed before every width is known
            assert out == ""
        elif fmt == "csv":
            assert [r["c"] for r in parse_csv(out)] == [str(c) for c in range(3, 50)]
        else:
            assert out.endswith("}") and '"c": "49"' in out and '"c": "50"' not in out


@contextlib.contextmanager
def default_int_text_limit():
    """Hold Python 3.11+'s default int-to-str digit limit, so a long str() raises."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # Python 3.10 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    try:
        yield
    finally:
        set_limit(old)


class TestCellTextLen:
    def test_ints_around_powers_of_ten(self):
        # 10^k - 1 has k digits (0 has one), 10^k and 10^k + 1 have k + 1;
        # a minus sign adds one.  Six cases per k.
        cases = []
        for k in range(5001):
            p = 10**k
            for d, digits in ((-1, max(k, 1)), (0, k + 1), (1, k + 1)):
                cases += [(p + d, digits), (-(p + d), digits + (p + d > 0))]
        values, want = map(list, zip(*cases))
        with default_int_text_limit():
            assert list(map(cli._cell_text_len, values)) == want
        # The digit counts above are those of the text, checked where str()
        # is cheap (it is quadratic in the digits) and around the limit.
        text_ks = {*range(2001), 4299, 4300, 4301, 5000}
        with cli._unbounded_int_text():
            for i in (i for i in range(len(cases)) if i // 6 in text_ks):
                assert len(cli._cell_text(values[i])) == want[i], values[i]

    def test_fractions_and_other_cells(self):
        big = 10**5000
        values = [Fraction(-2, 3), Fraction(-10**9, 10**9 + 1), Fraction(1, 10),
                  Fraction(-(big - 1), 7), Fraction(big + 1, big - 3), Fraction(0),
                  None, True, False, "", "ok", "MISMATCH", "héllo"]
        with cli._unbounded_int_text():
            want = [len(cli._cell_text(v)) for v in values]
        with default_int_text_limit():
            got = list(map(cli._cell_text_len, values))
        assert got == want


JSON_TEXT = st.text() | st.text(st.sampled_from('a"\\/\n\r\t\x00\x1f\x7f\u2028é€😀'))
JSON_CELLS = (st.none() | st.booleans() | st.integers()
              | st.integers(-(10**80), 10**80) | st.fractions() | JSON_TEXT)


@st.composite
def json_tables(draw):
    columns = draw(st.lists(JSON_TEXT, unique=True, max_size=5))
    keys = st.sampled_from(columns) if columns else st.nothing()
    # A row may miss any column, and may carry keys that are no column.
    rows = draw(st.lists(st.dictionaries(keys | JSON_TEXT, JSON_CELLS, max_size=6), max_size=4))
    return rows, columns


class TestJsonChunks:
    @given(json_tables())
    def test_equals_json_dumps(self, table):
        rows, columns = table
        records = [{k: cli._cell_json(r.get(k)) for k in columns} for r in rows]
        want = json.dumps(records, indent=2) + "\n"
        assert "".join(cli._json_chunks(iter(rows), columns)) == want

    def test_no_columns(self):
        assert "".join(cli._json_chunks([{}, {"x": 1}], [])) == "[\n  {},\n  {}\n]\n"


class TestKnot:
    def test_trefoil_fields(self, runner):
        result = run(runner, "knot", "--cf", "2,-2")
        assert result.exit_code == 0
        fields = dict(line.split(None, 1) for line in result.output.strip().splitlines())
        assert fields["crossing_number"] == "3"
        assert fields["genus"] == "1"
        assert fields["value"] == "2/3"
        assert fields["sign_changes"] == "1"
        assert fields["amphichiral"] == "false"
        assert fields["canonical_mirror_distinct"] == "D:2,-2"
        assert fields["canonical_mirror_collapsed"] == "C:-2,2"

    def test_figure_eight_json(self, runner):
        result = run(runner, "--format", "json", "knot", "--cf", "2,2")
        data = json.loads(result.output)
        assert data["crossing_number"] == "4"
        assert data["value"] == {"num": "2", "den": "5"}
        assert data["amphichiral"] is True
        assert data["canonical_mirror_distinct"].startswith("D:")

    def test_crossing_number_json_is_decimal_string(self, runner):
        # 4 * 10^30 overflows a 64-bit consumer, as a JSON number would.
        entry = "2" + "0" * 30
        result = run(runner, "--format", "json", "knot", "--cf", f"{entry},{entry}")
        data = json.loads(result.output)
        assert data["crossing_number"] == "4" + "0" * 30
        assert data["genus"] == 1 and data["sign_changes"] == 0

    def test_zero_entry_rejected(self, runner):
        result = runner.invoke(main, ["knot", "--cf", "2,0"])
        assert result.exit_code != 0
        assert "zero" in result.output

    def test_bad_token_named(self, runner):
        result = runner.invoke(main, ["knot", "--cf", "2,huh"])
        assert result.exit_code != 0
        assert "huh" in result.output


class TestLongIntegers:
    # Python 3.11+ refuses int-to-str conversion past 4300 digits unless
    # the limit is lifted; closed forms pass it from c = 14277 on.
    DIGITS = "1" + "0" * 5000

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_rows_over_5000_digits(self, capsys, fmt):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        big = 10**5000
        row = {"c": 3, "tk": big, "avg": Fraction(big + 1, 3)}
        _emit_rows(lambda: [row], ["c", "tk", "avg"], fmt)
        out = capsys.readouterr().out
        num = self.DIGITS[:-1] + "1"
        if fmt == "json":
            row = json.loads(out)[0]
            assert row["tk"] == self.DIGITS
            assert row["avg"] == {"num": num, "den": "3"}
        else:
            assert self.DIGITS in out
            assert f"{num}/3" in out
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_knot_value_over_4300_digits(self, runner):
        entry = str(2 * 10**400)
        result = run(runner, "knot", "--cf", ",".join([entry] * 12))
        assert result.exit_code == 0
        fields = dict(line.split(None, 1) for line in result.output.strip().splitlines())
        assert len(fields["value"]) > 4300

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_knot_crossing_number_over_4300_digits(self, runner, fmt):
        # Each entry has 4300 digits, the most that parsing accepts, and their
        # sum 2 * 88...80 = 177...760 has 4301, past the limit of Python 3.11+.
        entry = "8" * 4299 + "0"
        result = run(runner, "--format", fmt, "knot", "--cf", f"{entry},{entry}")
        assert result.exit_code == 0
        if fmt == "json":
            fields = json.loads(result.output)
        elif fmt == "csv":
            fields = parse_csv(result.output)[0]
        else:
            fields = dict(line.split(None, 1) for line in result.output.strip().splitlines())
        assert fields["crossing_number"] == "1" + "7" * 4298 + "60"


class TestEnumerate:
    def test_stream_five_crossings(self, runner):
        result = run(runner, "enumerate", "--crossings", "5")
        lines = result.output.strip().splitlines()
        assert lines[0] == "c=5 mode=D"
        assert sorted(lines[1:]) == sorted(["2,-4", "-4,2", "2,-2,2,-2", "-2,2,-2,2"])

    def test_csv_tally(self, runner):
        result = run(runner, "--format", "csv", "enumerate", "--crossings", "9")
        rows = parse_csv(result.output)
        assert rows[0]["c"] == "9"
        assert rows[0]["mode"] == "D"
        assert rows[0]["knot_count"] == "48"
        assert rows[0]["total_genus"] == "114"
        assert [rows[0][f"g{g}"] for g in (1, 2, 3, 4)] == ["4", "24", "18", "2"]

    def test_json_matches_csv(self, runner):
        out_csv = parse_csv(
            run(runner, "--format", "csv", "enumerate", "--crossings", "8", "--mode", "C").output
        )[0]
        out_json = json.loads(
            run(runner, "--format", "json", "enumerate", "--crossings", "8", "--mode", "C").output
        )
        assert {k: csv_value(v) for k, v in out_csv.items()} == {
            k: (v if not isinstance(v, str) else csv_value(v)) for k, v in out_json.items()
        }

    @pytest.mark.parametrize("mode", ["D", "C"])
    def test_stream_in_blocks_equals_class_stream(self, runner, mode):
        # The CLI prints class keys through its own entry-text table, not
        # through KnotClass: every c up to 16 must give the library's text.
        for c in range(3, 17):
            want = f"c={c} mode={mode}\n" + "".join(
                kc.canonical.to_text() + "\n" for kc in enumerate_classes(c, Mode(mode))
            )
            args = ["enumerate", "--crossings", str(c), "--mode", mode]
            assert run(runner, *args).output == want, c
        # c = 16 has 5,461 mirror-distinct classes: more than one block.
        if mode == "D":
            assert len(want) > cli.BLOCK_CHARS
        # In process, as a caller that swaps sys.stdout for a text wrapper.
        raw = io.BytesIO()
        text = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        with contextlib.redirect_stdout(text):
            main.main(args, prog_name="twobridge", standalone_mode=False)
            text.flush()
        assert raw.getvalue().decode() == want

    @pytest.mark.parametrize("mode", ["D", "C"])
    def test_every_line_is_a_canonical_class(self, runner, mode):
        for c in range(3, 15):
            lines = run(runner, "enumerate", "--crossings", str(c), "--mode", mode).output
            for line in lines.splitlines()[1:]:
                # from_text refuses text that is not its class's canonical form.
                kc = KnotClass.from_text(f"{mode}:{line}")
                assert crossing_number(kc.canonical) == c, (c, line)

    def test_entry_past_the_text_table_raises(self, runner, monkeypatch):
        # The table covers |e| <= c; a key outside it is a broken bound, not text.
        monkeypatch.setattr(cli, "_class_keys", lambda c, mode: iter([(2, -2), (2, 2 * c)]))
        with pytest.raises(KeyError):
            run(runner, "enumerate", "--crossings", "5")

    def test_collapsed_mode(self, runner):
        result = run(runner, "--format", "csv", "enumerate", "--crossings", "10", "--mode", "C")
        assert parse_csv(result.output)[0]["knot_count"] == "45"


class TestFormulas:
    def test_csv_and_json_value_identical(self, runner):
        rows_csv = parse_csv(run(runner, "--format", "csv", "formulas", "--max-c", "12").output)
        rows_json = json.loads(run(runner, "--format", "json", "formulas", "--max-c", "12").output)
        assert len(rows_csv) == len(rows_json) == 10
        for rc, rj in zip(rows_csv, rows_json):
            assert {k: csv_value(v) for k, v in rc.items()} == {
                k: json_value(v) for k, v in rj.items()
            }

    def test_fraction_text_format(self, runner):
        rows = parse_csv(run(runner, "--format", "csv", "formulas", "--max-c", "6").output)
        assert rows[-1]["avg_genus"] == "8/5"
        assert rows[-1]["avg_genus_mirror"] == "5/3"

    def test_rejects_small_max_c(self, runner):
        result = runner.invoke(main, ["formulas", "--max-c", "2"])
        assert result.exit_code != 0


class TestTable1:
    def test_all_rows_match(self, runner):
        result = run(runner, "--format", "csv", "table1", "--max-c", "12")
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert all(r["match"] == "ok" for r in rows)
        by_c = {r["c"]: r for r in rows}
        assert by_c["12"]["tk"] == by_c["12"]["enum_tk"] == "341"
        assert by_c["12"]["avg_genus"] == "1052/341"

    def test_rows_beyond_cutoff_left_blank(self, runner):
        result = run(runner, "--format", "csv", "table1", "--max-c", "10", "--cutoff", "6")
        rows = parse_csv(result.output)
        beyond = [r for r in rows if int(r["c"]) > 6]
        assert beyond and all(r["enum_tk"] == "" and r["match"] == "" for r in beyond)
        assert result.exit_code == 0

    def test_threads_option(self, runner):
        result = run(runner, "--threads", "2", "table1", "--max-c", "8", "--cutoff", "8")
        assert result.exit_code == 0

    def test_mismatch_row_and_exit_status(self, runner, corrupt_tallies):
        result = run(runner, "--format", "csv", "table1", "--max-c", "7")
        assert result.exit_code == 1
        match = {r["c"]: r["match"] for r in parse_csv(result.output)}
        assert match == {"3": "ok", "4": "ok", "5": "MISMATCH", "6": "ok", "7": "ok"}

    def test_bad_threads_value(self, runner):
        result = runner.invoke(main, ["--threads", "zero", "table1", "--max-c", "4"])
        assert result.exit_code != 0

    def test_threads_env_var_and_flag_precedence(self, runner, monkeypatch):
        asked = []
        real = cli.tallies

        def spy(cs, threads=1):
            asked.append(threads)
            return real(cs)

        monkeypatch.setattr(cli, "tallies", spy)
        monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
        env = {"TWOBRIDGE_THREADS": "2"}
        assert runner.invoke(main, ["table1", "--max-c", "4"], env=env).exit_code == 0
        args = ["--threads", "1", "table1", "--max-c", "4"]
        assert runner.invoke(main, args, env=env).exit_code == 0
        args = ["--threads", "auto", "table1", "--max-c", "4"]
        assert runner.invoke(main, args, env=env).exit_code == 0
        assert asked == [2, 1, 3]
        bad = runner.invoke(main, ["table1", "--max-c", "4"], env={"TWOBRIDGE_THREADS": "0"})
        assert bad.exit_code == 2
        assert "Invalid value for '--threads': '0'" in bad.output


class TestVerify:
    def test_small_sweep_passes(self, runner):
        result = run(runner, "verify", "--max-c", "8", "--max-n", "12")
        assert result.exit_code == 0
        assert "all checks passed" in result.output

    def test_minimal_sweep(self, runner):
        result = run(runner, "verify", "--max-c", "3", "--max-n", "1")
        assert result.exit_code == 0

    def test_mismatch_sets_totals_and_strata_bits(self, runner, corrupt_tallies):
        result = run(runner, "verify", "--max-c", "6", "--max-n", "4")
        assert result.exit_code == 6
        assert "  c=5: distinct 5/6 collapsed 2/3 MISMATCH" in result.output
        assert "  c=5: strata MISMATCH" in result.output
        assert "summary: FAILURES (status 6)" in result.output

    def test_identity_failure_sets_identities_bit(self, runner, corrupt_binom):
        result = run(runner, "verify", "--max-c", "6", "--max-n", "16")
        assert result.exit_code == 1
        assert ": fail: " in result.output
        assert "summary: FAILURES (status 1)" in result.output

    def test_every_suite_failing_sets_every_bit(self, runner, corrupt_binom, corrupt_tallies):
        result = run(runner, "verify", "--max-c", "6", "--max-n", "16")
        assert result.exit_code == 7
        assert "summary: FAILURES (status 7)" in result.output

    def test_no_empty_identity_range_reported(self, runner):
        result = run(runner, "verify", "--identities", "--max-n", "1")
        assert result.exit_code == 0
        assert "[1, 0]" not in result.output
        assert "alpha_recurrence" not in result.output

    def test_identities_only(self, runner):
        result = run(runner, "verify", "--identities", "--max-n", "4")
        assert result.exit_code == 0
        assert "enumeration" not in result.output
        assert result.output.count("pass") >= 8


class TestBounds:
    @pytest.mark.parametrize(
        "args,named",
        [
            (["formulas", "--max-c", "2"], "'--max-c': 2 is not in the range x>=3"),
            (["verify", "--max-n", "0"], "'--max-n': 0 is not in the range x>=1"),
            (
                ["enumerate", "--crossings", "40"],
                f"'--crossings': 40 is not in the range 3<=x<={cli.MAX_ENUM_C}",
            ),
            (
                ["--threads", "0", "table1", "--max-c", "4"],
                "'--threads': '0' is not a positive integer or 'auto'",
            ),
        ],
        ids=["formulas", "verify", "enumerate", "threads"],
    )
    def test_out_of_range_exits_2_before_any_work(self, runner, monkeypatch, args, named):
        def refuse(*_, **__):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(cli, "tallies", refuse)
        monkeypatch.setattr(cli, "_class_keys", refuse)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert named in result.output
