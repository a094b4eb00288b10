"""Tab-delimited text serialization used by every stage, and the forked
child through which the package uses a second core.

Text files are read and written as UTF-8; a leading byte order mark is
not part of the text read. All floats are written with 17 significant
digits so that a written value round-trips bit-exactly and re-runs produce
byte-identical files. Labelled matrices are written with one ``%`` format
per row over a whole-row spec and read back by ``np.loadtxt`` over the
numeric block, one line at a time.

Parallel work is this process plus one child that :func:`halves` starts,
since ``np.loadtxt``, ``%`` formatting, record parsing and the scaling
kernel's ufunc loops mostly hold the GIL. Here a big matrix is read or
written with the child taking the second half of the data rows: a read
splits the file at the first line start after its middle byte, a write
splits the rows. The result is the serial one: the same array, the same
bytes and the same first error. Below ``SPLIT_READ_BYTES`` data bytes or
``SPLIT_WRITE_CELLS`` values, and wherever :func:`can_fork` is false
(without ``os.fork``, on Python 3.12 or later, where ``fork`` warns once
BLAS has started its threads, and while another thread runs), the work stays
in this process.
"""

import gc
import itertools
import os
import pickle
import re
import shutil
import signal
import sys
import threading

import numpy as np

from .errors import DataError

DELIM = "\t"
BOM = "\ufeff"
# Sizes from which a matrix is read or written by two processes; below them
# the fork and the hand-over cost more than the second core saves (they
# break even at about 1 MB or 50,000 values, on 2 cores with 60 MB resident).
SPLIT_READ_BYTES = 1 << 21   # data bytes of a file read
SPLIT_WRITE_CELLS = 1 << 17  # values of a matrix written


def fmt(x) -> str:
    """Render a float with 17 significant digits."""
    return f"{float(x):.17g}"


def read_text(path, error=DataError):
    """The text of a file, less a leading byte order mark; ``error``, naming
    the file and the offset of its first bad byte, if it does not decode."""
    with open(path, encoding="utf-8") as fh:  # "utf-8-sig" offsets skip it
        try:
            return fh.read().removeprefix(BOM)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {exc}") from exc


def can_fork():
    """Whether work may go to a :func:`halves` child."""
    return (hasattr(os, "fork") and sys.version_info < (3, 12)
            and threading.active_count() == 1)


def halves(first, second, into):
    """Run ``first()`` here while a forked child runs ``second()``; returns
    (first's result, second's object, or None where it was dropped).

    ``second`` returns an object and a list of C-contiguous buffers. Once
    ``first`` is done, ``into(mine, theirs)``, given first's result and
    second's object (None where second raised), returns the arrays that
    second's buffers fill, in turn, each from its start, or None to drop
    the child's result and any exception it raised. Otherwise an exception
    that escaped ``second`` is raised here, as a RuntimeError with its type
    and text where it does not pickle; one from ``first`` comes first. The
    child starts no thread and leaves through ``os._exit``. Whatever
    happens, it is killed, if still alive, and reaped before the call
    returns.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        try:
            gc.disable()  # a collection would touch every inherited object
            os.close(rfd)
            with open(wfd, "wb") as out:
                try:
                    obj, buffers = second()
                    sizes = [memoryview(b).nbytes for b in buffers]
                    out.write(pickle.dumps((None, obj, sizes)))
                    for buffer in buffers:
                        out.write(buffer)
                except BaseException as exc:  # relayed: the parent raises it
                    try:
                        message = pickle.dumps((exc, None, []))
                    except Exception:
                        message = pickle.dumps((RuntimeError(
                            f"{type(exc).__name__}: {exc}"), None, []))
                    out.write(message)
        finally:
            os._exit(0)
    try:
        os.close(wfd)
        with open(rfd, "rb") as pipe:
            mine = first()
            try:
                exc, theirs, sizes = pickle.load(pipe)
            except EOFError:
                raise OSError("a child process ended without a result"
                              ) from None
            arrays = into(mine, theirs)
            if arrays is None:
                return mine, None
            if exc is not None:
                raise exc
            for array, size in zip(arrays, sizes):
                # memoryview does not cast an empty array of 2+ axes
                if size and pipe.readinto(
                        memoryview(array).cast("B")[:size]) != size:
                    raise OSError("a child process ended before sending "
                                  "its data")
            return mine, theirs
    finally:
        os.kill(pid, signal.SIGKILL)  # done with it, or given up on it
        os.waitpid(pid, 0)


def _decode(raw, path, end):
    """The text of one line; a byte that does not decode is a DataError
    naming its offset in the file, the line ending at byte ``end``."""
    try:
        return raw.decode()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            try:
                fh.read(end).decode()  # the file's first bad byte
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: {exc}") from None
        raise


def _read_rows(fh, path, n_fields, pos, stop, line, lines):
    """Check and parse the data lines of binary ``fh`` from its offset
    ``pos`` up to ``stop`` (None: the end), the first of them line ``line``.

    ``lines`` gets {row label: line} in file order: a label it already holds
    is a DataError, and so is a line with other than ``n_fields`` fields or
    a cell that is not a number. Returns the values, [rows, n_fields - 1],
    and the number of the line at ``stop``.
    """
    first_row = len(lines)

    def data_lines():
        nonlocal pos, line
        while stop is None or pos < stop:
            raw = fh.readline()
            if not raw:
                break
            pos += len(raw)
            ln = _decode(raw, path, pos)
            i, line = line, line + 1
            if not ln.strip():
                continue
            n = ln.count(DELIM) + 1
            if n != n_fields:
                raise DataError(f"{path}: line {i} has {n} fields, "
                                f"expected {n_fields}")
            label = ln.partition(DELIM)[0]
            if lines.setdefault(label, i) != i:
                raise DataError(f"{path}: lines {lines[label]} and {i}: "
                                f"repeated row label {label!r}")
            yield ln

    rows = data_lines()
    first = next(rows, None)
    if first is None:
        return np.empty((0, n_fields - 1)), line
    try:
        values = np.loadtxt(itertools.chain([first], rows), dtype=float,
                            delimiter=DELIM, comments=None,
                            usecols=range(1, n_fields), ndmin=2)
    except ValueError as exc:
        where = re.search(r"at row (\d+), column (\d+)", str(exc))
        if where is None:
            raise DataError(f"{path}: {exc}") from exc
        row, col = int(where.group(1)), int(where.group(2))
        raise DataError(f"{path}: line {list(lines.values())[first_row + row]}"
                        f" field {col}: "
                        f"{str(exc)[:where.start()].strip()}") from exc
    return values, line


def _read_halves(fh, path, n_fields, start, split, line, lines):
    """:func:`_read_rows` from ``start`` to the end, with the lines from
    ``split`` on parsed by a forked child.

    The child's labels are numbered from 1; the values come through the
    pipe into their rows of the result. Where the child's half holds a
    fault or repeats a label of the first half, this process reads that
    half itself after its own, so the error is the serial one.
    """
    def second():
        theirs = {}
        with open(path, "rb") as child_fh:
            child_fh.seek(split)
            values, _ = _read_rows(child_fh, path, n_fields, split, None, 1,
                                   theirs)
        return list(theirs.items()), [values]

    def into(mine, theirs):
        top, line = mine
        if theirs is None or any(label in lines for label, _ in theirs):
            # raises the serial read's error; where there is none, the
            # child raised another exception, which halves raises
            _read_rows(fh, path, n_fields, split, None, line, lines)
            return []
        # grown in place (loadtxt's array owns its data): no copy of the
        # first half, and no freed block to raise malloc's mmap threshold
        n = len(top)
        top.resize((n + len(theirs), n_fields - 1), refcheck=False)
        return [top[n:]]

    (top, line), theirs = halves(
        lambda: _read_rows(fh, path, n_fields, start, split, line, lines),
        second, into)
    lines.update((label, i + line - 1) for label, i in theirs)
    return top


def _split_point(fh, start):
    """The offset of the first line start after the middle of the data
    bytes of ``fh``, which stands at their ``start``; None where the read
    stays in this process."""
    size = os.fstat(fh.fileno()).st_size
    if size - start < SPLIT_READ_BYTES or not can_fork():
        return None
    middle = (start + size) // 2
    fh.seek(middle)
    split = middle + len(fh.readline())
    fh.seek(start)
    return split if split < size else None


def read_header(fh, path):
    """(line number, fields, end offset) of the header of the labelled
    matrix in binary ``fh``, its first non-blank line. DataError for a file
    without a header or value columns, or with a repeated column label."""
    h, header, pos = 0, "", 0
    for i, raw in enumerate(iter(fh.readline, b""), start=1):
        pos += len(raw)
        ln = _decode(raw, path, pos).removeprefix(BOM if i == 1 else "")
        if ln.strip():
            h, header = i, ln
            break
    header = header.rstrip("\r\n").split(DELIM)
    if len(header) < 2:
        raise DataError(f"{path}: empty file or no value columns")
    fields = {}  # column label -> its field, 1-based
    for j, label in enumerate(header[1:], start=2):
        if fields.setdefault(label, j) != j:
            raise DataError(f"{path}: line {h} fields {fields[label]} and "
                            f"{j}: repeated column label {label!r}")
    return h, header, pos


def read_matrix(path, parse_label=None):
    """Read a labelled matrix written by :func:`write_matrix`.

    Blank lines are skipped; lines end at ``\\n``. Each data line has its
    field count and its label checked as ``np.loadtxt`` pulls it. Returns
    (row_labels, col_labels, matrix); raises DataError for a file without a
    header, value columns or data rows, a repeated row or column label, a
    row with the wrong number of fields, a cell that is not a number, a
    byte that does not decode, or a NaN or infinite cell. ``parse_label``,
    if given, converts each row label; a DataError it raises is re-raised
    naming the file and the label's line.
    """
    with open(path, "rb") as fh:
        h, header, pos = read_header(fh, path)
        lines = {}  # row label -> its line, in file order
        split = _split_point(fh, pos)
        if split is None:
            values, _ = _read_rows(fh, path, len(header), pos, None, h + 1,
                                   lines)
        else:
            values = _read_halves(fh, path, len(header), pos, split, h + 1,
                                  lines)
    if not lines:
        raise DataError(f"{path}: no data rows")
    # min and max are NaN or infinite where any value is
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"{path}: line {list(lines.values())[row]}: "
                        f"non-finite value {float(values[row, col])} in "
                        f"column {header[col + 1]!r}")
    labels = list(lines)
    if parse_label is not None:
        for row, label in enumerate(labels):
            try:
                labels[row] = parse_label(label)
            except DataError as exc:
                raise DataError(f"{path}: line {lines[label]}: "
                                f"{exc}") from None
    return labels, header[1:], values


def _write_rows(path, text, row_fmt, labels, matrix):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        for label, row in zip(labels, matrix):
            fh.write(row_fmt % (label, *row.tolist()))


def write_matrix(path, row_labels, col_labels, matrix, corner="date",
                 spec="%.17g"):
    """Write a labelled matrix: header row of column labels, first column of
    row labels. ``spec`` is the ``%`` format of one value (``%d`` for
    integer or boolean matrices).

    From ``SPLIT_WRITE_CELLS`` values on, a forked child writes the second
    half of the rows to a part file next to ``path``, which is appended
    once this process has written the first half; the part file never
    outlives the call.
    """
    matrix = np.asarray(matrix)
    row_fmt = DELIM.join(["%s"] + [spec] * matrix.shape[1]) + "\n"
    header = DELIM.join([corner] + list(col_labels)) + "\n"
    if matrix.size < SPLIT_WRITE_CELLS or not can_fork():
        _write_rows(path, header, row_fmt, row_labels, matrix)
        return
    labels = list(row_labels)
    k = (len(matrix) + 1) // 2
    part = f"{path}.{os.getpid()}.part"

    def second():
        _write_rows(part, "", row_fmt, labels[k:], matrix[k:])
        return None, []

    try:
        halves(lambda: _write_rows(path, header, row_fmt, labels[:k],
                                   matrix[:k]),
               second, lambda *_: [])
        with open(part, "rb") as src, open(path, "ab") as dst:
            shutil.copyfileobj(src, dst, 1 << 20)
    finally:
        if os.path.exists(part):
            os.remove(part)


def write_table(path, header, rows):
    """Write a plain table with a header row; values pre-formatted as str."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DELIM.join(header) + "\n")
        for row in rows:
            fh.write(DELIM.join(str(v) for v in row) + "\n")


def write_keyvalues(path, pairs):
    """Write an ordered key<TAB>value file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key}{DELIM}{value}\n")


def read_keyvalues(path):
    """Read a key<TAB>value file as an ordered {key: value}; blank lines are
    skipped. A line without a tab or a repeated key is a DataError naming
    the file and the line."""
    pairs, lines = {}, {}
    for i, ln in enumerate(read_text(path).split("\n"), start=1):
        if not ln.strip():
            continue
        key, tab, value = ln.partition(DELIM)
        if not tab:
            raise DataError(f"{path}: line {i}: no tab between key and value")
        if lines.setdefault(key, i) != i:
            raise DataError(f"{path}: lines {lines[key]} and {i}: "
                            f"repeated key {key!r}")
        pairs[key] = value
    return pairs
