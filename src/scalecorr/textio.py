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


def _nonblank_lines(fh):
    """Numbered non-blank lines of an open text file; a byte that does not
    decode is a DataError naming its offset in the file, not in the
    stream's read chunk."""
    try:
        yield from ((i, ln) for i, ln in enumerate(fh, start=1) if ln.strip())
    except UnicodeDecodeError:
        read_text(fh.name)  # decodes the whole file at once and raises
        raise


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


def read_matrix(path, parse_label=None):
    """Read a labelled matrix written by :func:`write_matrix`.

    Blank lines are skipped. The file is streamed once: each data line has
    its field count and its label checked as ``np.loadtxt`` pulls it.
    Returns (row_labels, col_labels, matrix); raises DataError for a file
    without a header, value columns or data rows, a repeated row or column
    label, a row with the wrong number of fields, a cell that is not a
    number, or a NaN or infinite cell. ``parse_label``, if given, converts
    each row label; a DataError it raises is re-raised naming the file and
    the label's line.
    """
    with open(path) as fh:
        numbered = _nonblank_lines(fh)
        h, first = next(numbered, (0, ""))
        header = first.rstrip("\n").split(DELIM)
        if len(header) < 2:
            raise DataError(f"{path}: empty file or no value columns")
        col_labels = header[1:]
        fields = {}  # column label -> its field, 1-based
        for j, label in enumerate(col_labels, start=2):
            if fields.setdefault(label, j) != j:
                raise DataError(f"{path}: line {h} fields {fields[label]} and "
                                f"{j}: repeated column label {label!r}")
        lines = {}  # row label -> its line, in file order

        def data_lines():
            for i, ln in numbered:
                n_fields = ln.count(DELIM) + 1
                if n_fields != len(header):
                    raise DataError(f"{path}: line {i} has {n_fields} fields, "
                                    f"expected {len(header)}")
                label = ln.partition(DELIM)[0]
                if lines.setdefault(label, i) != i:
                    raise DataError(f"{path}: lines {lines[label]} and {i}: "
                                    f"repeated row label {label!r}")
                yield ln

        rows = data_lines()
        try:
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
            raise DataError(f"{path}: line {list(lines.values())[row]} "
                            f"field {col}: "
                            f"{str(exc)[:where.start()].strip()}") from exc
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"{path}: line {list(lines.values())[row]}: "
                        f"non-finite value {float(values[row, col])} in "
                        f"column {col_labels[col]!r}")
    labels = list(lines)
    if parse_label is not None:
        for row, label in enumerate(labels):
            try:
                labels[row] = parse_label(label)
            except DataError as exc:
                raise DataError(f"{path}: line {lines[label]}: "
                                f"{exc}") from None
    return labels, col_labels, values


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
