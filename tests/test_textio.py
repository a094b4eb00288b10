import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scalecorr import textio
from scalecorr.cli import main
from scalecorr.errors import DataError


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
