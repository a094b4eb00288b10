import datetime as dt
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scalecorr import scaling, textio
from scalecorr.cli import main
from scalecorr.errors import DataError
from scalecorr.panel import ReturnPanel, load_prices
from scalecorr.scaling import DEFAULT_Q_GRID, DEFAULT_TAU_RANGE, panel_moments

from conftest import PRICE_FIXTURE, running_threads, write_lines


def _write(tmp_path, text, name="m.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _old_write_matrix(path, row_labels, col_labels, matrix, corner="date"):
    """The per-value writer that write_matrix replaced."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\t".join([corner] + list(col_labels)) + "\n")
        for label, row in zip(row_labels, np.asarray(matrix)):
            fh.write("\t".join([str(label)] + [textio.fmt(v) for v in row])
                     + "\n")


class TestReadMatrix:
    def test_reads_labels_and_values(self, tmp_path):
        path = _write(tmp_path, "date\tA\tB\nd1\t1.5\t-2\nd2\t0\t3e-5\n")
        rows, cols, values = textio.read_matrix(path)
        assert rows == ["d1", "d2"]
        assert cols == ["A", "B"]
        np.testing.assert_array_equal(values, [[1.5, -2.0], [0.0, 3e-5]])

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path,
                      "\ndate\tA\tB\n\nd1\t1\t2\n   \nd2\t3\t4\n\n")
        rows, _, values = textio.read_matrix(path)
        assert rows == ["d1", "d2"]
        np.testing.assert_array_equal(values, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "+inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = _write(tmp_path, f"date\tA\tB\nd1\t1\t2\nd2\t3\t{cell}\n")
        with pytest.raises(DataError, match=r"m\.tsv: line 3: non-finite.*'B'"):
            textio.read_matrix(path)

    def test_extra_field(self, tmp_path):
        path = _write(tmp_path, "date\tA\tB\nd1\t1\t2\nd2\t3\t4\t5\n")
        with pytest.raises(DataError, match=r"m\.tsv: line 3 has 4 fields"):
            textio.read_matrix(path)

    def test_missing_field(self, tmp_path):
        path = _write(tmp_path, "date\tA\tB\nd1\t1\nd2\t3\t4\n")
        with pytest.raises(DataError, match=r"m\.tsv: line 2 has 2 fields"):
            textio.read_matrix(path)

    def test_unparseable_token(self, tmp_path):
        path = _write(tmp_path, "date\tA\tB\n\nd1\t1\t2\nd2\t3\tabc\n")
        with pytest.raises(DataError, match=r"m\.tsv: line 4 field 3: .*'abc'"):
            textio.read_matrix(path)

    @pytest.mark.parametrize("text, where", [
        ("date\tA\tB\nd1\t1\t2\nd2\t3\t4\n\nd1\t5\t6\n",
         r"lines 2 and 5: repeated row label 'd1'"),
        ("date\tA\tB\tA\nd1\t1\t2\t3\n",
         r"line 1 fields 2 and 4: repeated column label 'A'"),
    ], ids=["row", "column"])
    def test_repeated_label(self, tmp_path, text, where):
        path = _write(tmp_path, text)
        with pytest.raises(DataError, match=rf"m\.tsv: {where}"):
            textio.read_matrix(path)

    def test_parse_label(self, tmp_path):
        path = _write(tmp_path, "date\tA\nd1\t1\n\nx2\t3\n")

        def parse(label):
            if not label.startswith("d"):
                raise DataError(f"bad label {label!r}")
            return int(label[1:])

        with pytest.raises(DataError, match=r"m\.tsv: line 4: bad label 'x2'"):
            textio.read_matrix(path, parse)
        path = _write(tmp_path, "date\tA\nd1\t1\n\nd2\t3\n")
        assert textio.read_matrix(path, parse)[0] == [1, 2]

    def test_empty_file(self, tmp_path):
        for text in ["", "\n  \n"]:
            path = _write(tmp_path, text)
            with pytest.raises(DataError, match=r"m\.tsv: empty file"):
                textio.read_matrix(path)

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, "date\tA\tB\n")
        with pytest.raises(DataError, match=r"m\.tsv: no data rows"):
            textio.read_matrix(path)

    def test_undecodable_byte_reports_file_offset(self, tmp_path):
        # wider than one 8 KB read chunk, bad byte in a later chunk
        header = "date\t" + "\t".join(f"c{j}" for j in range(1500)) + "\n"
        row = "\t".join(["0.25"] * 1500) + "\n"
        data = bytearray((header + "".join(f"d{i}\t{row}" for i in range(3)))
                         .encode())
        offset = len(data) - 100
        assert offset > 3 * 8192
        data[offset] = 0xFF
        path = tmp_path / "m.tsv"
        path.write_bytes(bytes(data))
        with pytest.raises(DataError,
                           match=f"byte 0xff in position {offset}:"):
            textio.read_matrix(str(path))

    def test_cli_exit_code_is_1(self, tmp_path):
        rows = "".join(f"d{i}\t{0.01 * (-1) ** i}\t{0.02 * i}\n"
                       for i in range(100))
        path = _write(tmp_path, "date\tA\tB\n" + rows + "d100\t0.1\tnan\n")
        assert main(["run", "--returns", path,
                     "--output-dir", str(tmp_path / "o")]) == 1


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3]),
)


class TestWriteMatrix:
    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=finite_doubles))
    def test_round_trip_bit_exact_and_old_bytes(self, tmp_path_factory,
                                                matrix):
        d = tmp_path_factory.mktemp("rt")
        rows = [f"r{i}" for i in range(matrix.shape[0])]
        cols = [f"c{j}" for j in range(matrix.shape[1])]
        textio.write_matrix(d / "new.tsv", rows, cols, matrix)
        _old_write_matrix(d / "old.tsv", rows, cols, matrix)
        assert (d / "new.tsv").read_bytes() == (d / "old.tsv").read_bytes()
        got_rows, got_cols, values = textio.read_matrix(d / "new.tsv")
        assert (got_rows, got_cols) == (rows, cols)
        assert values.shape == matrix.shape
        assert values.tobytes() == matrix.tobytes()

    def test_integer_spec(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        textio.write_matrix(tmp_path / "mask.tsv", ["d1", "d2"], ["A", "B"],
                            mask, spec="%d")
        assert (tmp_path / "mask.tsv").read_text() == (
            "date\tA\tB\nd1\t1\t0\nd2\t0\t1\n")

    def test_signed_zero_and_extremes_text(self, tmp_path):
        values = np.array([[-0.0, 5e-324, -1e308, math.pi]])
        textio.write_matrix(tmp_path / "x.tsv", ["r"], list("abcd"), values)
        line = (tmp_path / "x.tsv").read_text().splitlines()[1]
        assert line.split("\t")[1:] == [
            "-0", "4.9406564584124654e-324", "-1e+308",
            "3.1415926535897931"]


class TestReadKeyvalues:
    def test_reads_pairs_in_order(self, tmp_path):
        path = _write(tmp_path, "b\t2\n\na\t\nc\tx\ty\n", "k.tsv")
        assert list(textio.read_keyvalues(path).items()) == [
            ("b", "2"), ("a", ""), ("c", "x\ty")]

    def test_line_without_tab(self, tmp_path):
        path = _write(tmp_path, "a\t1\nb 2\n", "k.tsv")
        with pytest.raises(DataError,
                           match=r"k\.tsv: line 2: no tab between key"):
            textio.read_keyvalues(path)

    def test_repeated_key(self, tmp_path):
        path = _write(tmp_path, "a\t1\nb\t2\n\na\t3\n", "k.tsv")
        with pytest.raises(DataError,
                           match=r"k\.tsv: lines 1 and 4: repeated key 'a'"):
            textio.read_keyvalues(path)


class TestByteOrderMark:
    """One leading byte order mark is not part of the text of any file read,
    and a bad byte's offset still counts from the start of the file."""

    BOM = b"\xef\xbb\xbf"

    def test_key_value_file(self, tmp_path):
        path = tmp_path / "k.tsv"
        path.write_bytes(self.BOM + b"a\t1\nb\t2\n")
        assert textio.read_keyvalues(str(path)) == {"a": "1", "b": "2"}

    def test_matrix_whose_first_line_is_blank(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(self.BOM + b"\ndate\tA\n2020-01-01\t1\n")
        labels, columns, values = textio.read_matrix(str(path))
        assert (labels, columns, values.tolist()) == (
            ["2020-01-01"], ["A"], [[1.0]])

    def test_bad_byte_offset_is_the_files(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_bytes(self.BOM + b"k=\xff\n")
        with pytest.raises(DataError, match="byte 0xff in position 5:"):
            textio.read_text(str(path))


# --- two-process reads and writes ------------------------------------------

def _serial_and_split(monkeypatch, forks, fn, forked=True):
    """(fn() with serial I/O, fn() with two-process I/O), each its result or
    its exception's (type, text), where ``forks`` (the fixture) counts
    os.fork calls; checks that the second one forked, unless
    ``forked`` is false, and left no child process behind."""
    results = []
    for size in (1 << 62, 0):
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", size)
        monkeypatch.setattr(textio, "SPLIT_WRITE_CELLS", size)
        try:
            results.append(fn())
        except BaseException as exc:
            results.append((type(exc), str(exc)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert bool(forks) == forked
    return results


def _matrix_text(n_rows, n_cols=3, blank_after=None):
    """A matrix of random values with one date label per row."""
    rng = np.random.default_rng(n_rows)
    rows = ["\t".join([f"2001-01-{i + 1:02d}"] + [repr(v) for v in
                       rng.standard_normal(n_cols).tolist()]) + "\n"
            for i in range(n_rows)]
    if blank_after is not None:
        rows.insert(blank_after, "\n")
    header = "\t".join(["date"] + [f"c{j}" for j in range(n_cols)]) + "\n"
    return header + "".join(rows)



def _data_split(data):
    """The byte offset where the child's half starts: the first line start
    after the middle of the bytes that follow the one-line header."""
    start = data.index(b"\n") + 1
    return data.index(b"\n", (start + len(data)) // 2) + 1


class TestTwoProcessParity:
    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    def test_read(self, tmp_path, monkeypatch, forks, n_rows):
        path = _write(tmp_path, _matrix_text(n_rows))
        # one row has no second half: its read stays in this process
        (r1, c1, v1), (r2, c2, v2) = _serial_and_split(
            monkeypatch, forks, lambda: textio.read_matrix(path), n_rows > 1)
        assert (r1, c1) == (r2, c2)
        assert len(r1) == n_rows
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("blank_after", range(9))
    def test_read_with_a_blank_line(self, tmp_path, monkeypatch, forks,
                                    blank_after):
        path = _write(tmp_path, _matrix_text(8, blank_after=blank_after))
        (r1, _, v1), (r2, _, v2) = _serial_and_split(
            monkeypatch, forks, lambda: textio.read_matrix(path))
        assert r1 == r2 and np.array_equal(v1, v2)

    def test_blank_line_at_the_split(self):
        # rows of equal length: the middle byte is the blank line itself
        data = _matrix_text(8, blank_after=4).encode()
        assert data[_data_split(data) - 2:_data_split(data)] == b"\n\n"

    def test_read_with_a_blank_second_half(self, tmp_path, monkeypatch,
                                           forks):
        # the split lands among the trailing blank lines: the child's half
        # has no rows
        path = _write(tmp_path, _matrix_text(3) + "\n" * 200)
        (r1, _, v1), (r2, _, v2) = _serial_and_split(
            monkeypatch, forks, lambda: textio.read_matrix(path))
        assert r1 == r2 and len(r1) == 3 and np.array_equal(v1, v2)

    def test_return_panel_dates(self, tmp_path, monkeypatch, forks):
        path = _write(tmp_path, _matrix_text(9))
        a, b = _serial_and_split(monkeypatch, forks,
                                 lambda: ReturnPanel.read(path))
        assert a.dates == b.dates and a.tickers == b.tickers
        assert a.dates[0] == dt.date(2001, 1, 1)
        assert np.array_equal(a.returns, b.returns)

    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    def test_write(self, tmp_path, monkeypatch, forks, n_rows):
        values = np.random.default_rng(3).standard_normal((n_rows, 4))
        rows = [dt.date(2001, 1, 1) + dt.timedelta(days=i)
                for i in range(n_rows)]

        names = iter(["serial.tsv", "split.tsv"])

        def write():
            path = tmp_path / next(names)
            textio.write_matrix(path, rows, list("abcd"), values)
            return path.read_bytes()

        serial, split = _serial_and_split(monkeypatch, forks, write)
        assert serial == split
        assert sorted(os.listdir(tmp_path)) == ["serial.tsv", "split.tsv"]

    def test_write_and_read_a_mask(self, tmp_path, monkeypatch, forks):
        mask = np.random.default_rng(4).random((5, 3)) < 0.5

        names = iter(["serial.tsv", "split.tsv"])

        def round_trip():
            path = tmp_path / next(names)
            textio.write_matrix(path, list("vwxyz"), list("abc"), mask,
                                spec="%d")
            return path.read_bytes(), textio.read_matrix(path)[2]

        (b1, m1), (b2, m2) = _serial_and_split(monkeypatch, forks, round_trip)
        assert b1 == b2
        assert np.array_equal(m1, m2) and np.array_equal(m1, mask)

    def test_serial_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
        monkeypatch.setattr(textio, "SPLIT_WRITE_CELLS", 0)
        values = np.arange(12.0).reshape(4, 3)
        textio.write_matrix(tmp_path / "m.tsv", list("wxyz"), list("abc"),
                            values)
        rows, _, got = textio.read_matrix(tmp_path / "m.tsv")
        assert rows == list("wxyz") and np.array_equal(got, values)

    def test_serial_while_another_thread_runs(self, tmp_path, monkeypatch,
                                              forks):
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
        monkeypatch.setattr(textio, "SPLIT_WRITE_CELLS", 0)
        with running_threads(1):
            textio.write_matrix(tmp_path / "m.tsv", list("xy"), list("ab"),
                                np.ones((2, 2)))
            textio.read_matrix(tmp_path / "m.tsv")
        assert not forks


def _replace_cell(line, text):
    fields = line.split(b"\t")
    fields[2] = text
    return b"\t".join(fields)


def _relabel(line, label):
    return label + line[line.index(b"\t"):]


# each corruption: the new bytes of data row i, given the data rows
CORRUPTIONS = {
    "field_count": lambda rows, i: rows[i].rstrip(b"\n") + b"\t1\n",
    "not_a_number": lambda rows, i: _replace_cell(rows[i], b"1.5x"),
    "nan": lambda rows, i: _replace_cell(rows[i], b"nan"),
    "inf": lambda rows, i: _replace_cell(rows[i], b"-inf"),
    "repeated_label": lambda rows, i: _relabel(rows[i],
                                               rows[0].split(b"\t")[0]),
    "date_not_later": lambda rows, i: _relabel(rows[i], b"2000-12-31"),
    "undecodable": lambda rows, i: _replace_cell(rows[i], b"0.5\xff"),
}


def _corrupted(kind, where):
    """The bytes of a 12-row dated matrix with ``kind`` applied to its third
    row (``first`` half), its last row (``second``), or the two rows on
    either side of the split (``straddling``)."""
    head, *rows = _matrix_text(12, n_cols=40).encode().splitlines(True)
    candidates = {"first": [[2]], "second": [[len(rows) - 1]],
                  "straddling": [[i, i + 1] for i in range(1, len(rows) - 1)]}
    for targets in candidates[where]:
        changed = list(rows)
        for i in targets:
            changed[i] = CORRUPTIONS[kind](changed, i)
        data = head + b"".join(changed)
        split = _data_split(data)
        halves = ["first" if len(head) + sum(map(len, changed[:i])) < split
                  else "second" for i in targets]
        if halves == {"straddling": ["first", "second"]}.get(where, [where]):
            return data
    raise AssertionError(f"no placement of {kind} in the {where} half")


class TestTwoProcessErrors:
    """Each corruption, in the first half, in the second half, and at both
    rows next to the split, gives the serial read's DataError text."""

    @pytest.mark.parametrize("where", ["first", "second", "straddling"])
    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_same_error(self, tmp_path, monkeypatch, forks, kind, where):
        path = tmp_path / "m.tsv"
        path.write_bytes(_corrupted(kind, where))
        serial, split = _serial_and_split(
            monkeypatch, forks, lambda: ReturnPanel.read(str(path)))
        assert serial[0] is DataError
        assert split == serial
        assert os.listdir(tmp_path) == ["m.tsv"]

    @pytest.mark.parametrize("row", [0, 3])
    def test_write_error(self, tmp_path, monkeypatch, forks, row):
        labels = ["a", "b", "c", "d"]
        labels[row] = "\udcff"  # does not encode

        def write():
            textio.write_matrix(tmp_path / "m.tsv", labels, ["x"],
                                np.ones((4, 1)))

        serial, split = _serial_and_split(monkeypatch, forks, write)
        assert serial[0] is UnicodeEncodeError
        assert split == serial
        assert os.listdir(tmp_path) == ["m.tsv"]

    @pytest.mark.parametrize("row", [0, 3])
    def test_interrupt(self, tmp_path, monkeypatch, forks, row):
        class Interrupting:
            def __str__(self):
                raise KeyboardInterrupt

        labels = ["a", "b", "c", "d"]
        labels[row] = Interrupting()
        monkeypatch.setattr(textio, "SPLIT_WRITE_CELLS", 0)
        with pytest.raises(KeyboardInterrupt):
            textio.write_matrix(tmp_path / "m.tsv", labels, ["x"],
                                np.ones((4, 1)))
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["m.tsv"]

    def test_read_child_exception_is_raised_here(self, tmp_path,
                                                 monkeypatch, forks):
        # only a DataError in the child's half is read again here
        path = _write(tmp_path, _matrix_text(8))
        parent, read_rows = os.getpid(), textio._read_rows

        def failing_in_the_child(*args):
            if os.getpid() != parent:
                raise ArithmeticError("in the child")
            return read_rows(*args)

        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
        monkeypatch.setattr(textio, "_read_rows", failing_in_the_child)
        with pytest.raises(ArithmeticError, match="^in the child$"):
            textio.read_matrix(path)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_error_that_does_not_pickle(self, tmp_path, monkeypatch,
                                              forks):
        class Local(Exception):  # a local class does not pickle
            pass

        class Failing:
            def __str__(self):
                raise Local("no text")

        monkeypatch.setattr(textio, "SPLIT_WRITE_CELLS", 0)
        with pytest.raises(RuntimeError, match="^Local: no text$"):
            textio.write_matrix(tmp_path / "m.tsv", ["a", "b", "c", Failing()],
                                ["x"], np.ones((4, 1)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["m.tsv"]


def test_every_site_forks_through_halves(tmp_path, monkeypatch, forks):
    """The matrix read and write, record ingest and the scaling kernel
    fork only through textio.halves."""
    calls = []
    halves = textio.halves

    def counted(*args):
        calls.append(1)
        return halves(*args)

    monkeypatch.setattr(textio, "halves", counted)
    monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
    monkeypatch.setattr(textio, "SPLIT_WRITE_CELLS", 0)
    monkeypatch.setattr(scaling, "SPLIT_CELLS", 0)
    monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * 120 * 4)
    path = tmp_path / "m.tsv"
    textio.write_matrix(path, list("wxyz"), list("abc"),
                        np.arange(12.0).reshape(4, 3))
    textio.read_matrix(path)
    load_prices(write_lines(tmp_path, PRICE_FIXTURE.splitlines()))
    panel_moments(np.random.default_rng(7).standard_normal((120, 23)),
                  DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
    assert len(calls) == 4 and len(forks) == len(calls)
