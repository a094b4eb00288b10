"""Tab-delimited text serialization used by every stage.

All floats are written with 17 significant digits so that a written value
round-trips bit-exactly and re-runs produce byte-identical files. Labelled
matrices are written with one ``%`` format per row over a whole-row spec and
read back by a single ``np.loadtxt`` over the numeric block.
"""

import itertools
import re

import numpy as np

from .errors import DataError

DELIM = "\t"


def fmt(x) -> str:
    """Render a float with 17 significant digits."""
    return f"{float(x):.17g}"


def read_text(path, error=DataError):
    """The text of a file; ``error``, naming the file, if it does not decode."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {exc}") from exc


def write_matrix(path, row_labels, col_labels, matrix, corner="date",
                 spec="%.17g"):
    """Write a labelled matrix: header row of column labels, first column of
    row labels. ``spec`` is the ``%`` format of one value (``%d`` for
    integer or boolean matrices)."""
    matrix = np.asarray(matrix)
    row_fmt = DELIM.join(["%s"] + [spec] * matrix.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(DELIM.join([corner] + list(col_labels)) + "\n")
        for label, row in zip(row_labels, matrix):
            fh.write(row_fmt % (label, *row.tolist()))


def read_matrix(path):
    """Read a labelled matrix written by :func:`write_matrix`.

    Blank lines are skipped. The file is streamed once: each data line has
    its field count checked and its label collected as ``np.loadtxt`` pulls
    it. Returns (row_labels, col_labels, matrix); raises DataError for a file
    without a header, value columns or data rows, a row with the wrong
    number of fields, a cell that is not a number, or a NaN or infinite cell.
    """
    with open(path) as fh:
        numbered = ((i, ln) for i, ln in enumerate(fh, start=1) if ln.strip())
        try:
            _, first = next(numbered, (0, ""))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from exc
        header = first.rstrip("\n").split(DELIM)
        if len(header) < 2:
            raise DataError(f"{path}: empty file or no value columns")
        col_labels = header[1:]
        linenos, row_labels = [], []

        def data_lines():
            for i, ln in numbered:
                n_fields = ln.count(DELIM) + 1
                if n_fields != len(header):
                    raise DataError(f"{path}: line {i} has {n_fields} fields, "
                                    f"expected {len(header)}")
                linenos.append(i)
                row_labels.append(ln.partition(DELIM)[0])
                yield ln

        rows = data_lines()
        try:
            # an undecodable line raises UnicodeDecodeError, a ValueError
            first_row = next(rows, None)
            if first_row is None:
                raise DataError(f"{path}: no data rows")
            values = np.loadtxt(itertools.chain([first_row], rows), dtype=float,
                                delimiter=DELIM, comments=None,
                                usecols=range(1, len(header)), ndmin=2)
        except ValueError as exc:
            where = re.search(r"at row (\d+), column (\d+)", str(exc))
            if where is None:
                raise DataError(f"{path}: {exc}") from exc
            row, col = int(where.group(1)), int(where.group(2))
            raise DataError(f"{path}: line {linenos[row]} field {col}: "
                            f"{str(exc)[:where.start()].strip()}") from exc
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"{path}: line {linenos[row]}: non-finite value "
                        f"{float(values[row, col])} in column "
                        f"{col_labels[col]!r}")
    return row_labels, col_labels, values


def write_table(path, header, rows):
    """Write a plain table with a header row; values pre-formatted as str."""
    with open(path, "w", newline="\n") as fh:
        fh.write(DELIM.join(header) + "\n")
        for row in rows:
            fh.write(DELIM.join(str(v) for v in row) + "\n")


def write_keyvalues(path, pairs):
    """Write an ordered key<TAB>value file."""
    with open(path, "w", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key}{DELIM}{value}\n")


def read_keyvalues(path):
    pairs = {}
    for ln in read_text(path).split("\n"):
        if ln.strip():
            key, _, value = ln.partition(DELIM)
            pairs[key] = value
    return pairs
