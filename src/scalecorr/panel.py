"""Price-panel ingestion and cleaning.

Raw (ticker, date, close) records are turned into a rectangular forward-filled
price panel: series much shorter than the longest one are dropped, the panel
starts at the latest first trading date among the survivors, the date axis is
the union of the survivors' trading dates from that start, and every gap is
filled by dragging the last available price. Demeaned one-day log-returns
are derived from the cleaned panel; per-ticker median capitalizations, and
their logs, from a capitalization file's records, one array per ticker.

Record files are read column-wise, one block of ``WINDOW_BYTES`` bytes at
a time, decoded as text mode decodes them and cut after the block's last
line break: the fields of its plain ``ticker,date,value`` lines are parsed
from the block's bytes with array operations (:mod:`scalecorr._fields`,
imported on the first read), and its ticker codes, day numbers and values
go to compact columns allocated once for the file's line count (int32
codes and days, float64 values). No Python object is
made per record: tickers are compared as byte rows and looked up once per
run of equal ones, ``dddd-dd-dd`` dates become day numbers by digit
arithmetic checked against the calendar, and short decimals become the
quotient of two exact doubles, which is the double ``float`` gives. Only
lines that are not plain records (comments, blank lines, whitespace
delimiters, padded fields, a leading comma) get per-line work, and only
fields of another shape (``20200102``, ``1e3``) per-field work, each
normalised into the same columns. Records are then grouped, sorted and
checked with array operations. The file's text is never held whole:
beyond the columns, ingest holds one block's text, bytes and per-line
arrays. The ticker-code column then becomes the (ticker, day) key in
place, a slice at a time, and the day column is freed; the key stays int32
unless the number of (ticker, day) pairs outgrows it. A key already in
(ticker, day) order, as in a file written ticker by ticker, day by day, is
checked a slice at a time and is neither sorted nor gathered: its order is
the identity, and its closes are the value column itself, shrunk in place
to the record count. Any other key is sorted in place next to lexsort's
int64 order, and the closes are gathered into that order's own buffer, a
slice at a time. The sorted key gives each ticker's bounds and, in place,
each close's day index. So for 1.2M records ``load_prices`` peaks at 16.9
bytes per record for a file in order, at the scan, and at 20.1 for any
other, at the sort and again at the gather (~21 for 200k, where a block
weighs more beside the columns); its :class:`PriceRecords` keep 10: a
close and a day index each (uint16 up to 65,536 distinct days).
:func:`preprocess` takes those PriceRecords only, and builds the panel
from their columns, one survivor's block at a time, so its peak beyond
them is the panel and its fill mask. The heap pages ingest freed go back
to the system before cleaning.

The columnar pass only flags a faulty file; it keeps no line numbers. It
stops after the block of a line it cannot read (a wrong field count, an
empty ticker or one holding a tab, a value or date that does not parse),
and the value and duplicate rules give the file-order indices of the
records they reject. Where anything is flagged, :func:`_raise_first_fault`
walks the file again from line 1, one line at a time, and raises DataError
for the first faulty line in file order. A clean file never enters the
walk.

Record files are UTF-8, with or without a leading byte order mark. From
``textio.SPLIT_READ_BYTES`` bytes on, a forked child (:func:`textio.halves`)
reads the lines from the first line start after the middle byte into its
own columns while this process reads the lines before it; its columns come
back through the pipe into the slots after this process's records, and its
ticker codes are mapped onto this process's. The result is the one-process
result: the same records and the same faults.
"""

import codecs
import ctypes
import datetime as dt
import io
import math
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import DataError, EstimationError
from . import textio

DEFAULT_LENGTH_FRACTION = PipelineConfig.k
# bytes of a record file read at a time; bounds the text, the per-byte
# arrays and the per-line arrays alive at once, whatever the file's size.
# A block's text and per-byte arrays stay below the CLI's 128 KiB mmap
# threshold, so each block reuses heap blocks instead of faulting in fresh
# pages
WINDOW_BYTES = 1 << 16
# records per slice of the key, order and value columns; a slice's intp
# copy stays below that threshold too
CHUNK_LINES = 1 << 12
# bytes of log-prices compute_returns holds beside the returns
RETURN_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True, eq=False)
class RawPriceSeries:
    """One ticker's records as :class:`PriceRecords` gives them: its
    ``datetime64[D]`` dates, strictly increasing, and its closes, each
    finite and positive, as :func:`load_prices` checked them."""

    ticker: str
    dates: np.ndarray
    prices: np.ndarray


@dataclass(frozen=True, eq=False)
class PriceRecords(Sequence):
    """Close records sorted by ticker, then day, as columns: ``tickers``,
    the sorted names; ``days``, the sorted distinct ``datetime64[D]``
    days; ``day``, each record's index into ``days``, of the narrowest
    unsigned type that holds ``len(days)``; ``close``, float64; and
    ``bounds``, the start of each ticker's block of records, then the end.
    :func:`preprocess` reads these columns.

    As a sequence it holds one :class:`RawPriceSeries` per ticker, a plain
    record built on access from the columns.
    """

    tickers: list
    days: np.ndarray
    day: np.ndarray
    close: np.ndarray
    bounds: list

    def __len__(self):
        return len(self.tickers)

    def __getitem__(self, j):
        j = range(len(self.tickers))[j]  # IndexError ends an iteration
        day, close = self.block(j)
        return RawPriceSeries(ticker=self.tickers[j], dates=self.days[day],
                              prices=close)

    def block(self, j):
        """Ticker j's day indices and closes, views of the columns."""
        a, b = self.bounds[j], self.bounds[j + 1]
        return self.day[a:b], self.close[a:b]


@dataclass
class PricePanel:
    """Rectangular date x ticker close-price matrix after cleaning.

    ``fill_mask[t, i]`` is True where the price was dragged from an earlier
    date rather than observed.
    """

    dates: list
    tickers: list
    prices: np.ndarray
    fill_mask: np.ndarray

    def write(self, prices_path, mask_path=None):
        textio.write_matrix(prices_path, self.dates, self.tickers, self.prices)
        if mask_path is not None:
            textio.write_matrix(mask_path, self.dates, self.tickers,
                                self.fill_mask, spec="%d")

    @classmethod
    def read(cls, path):
        dates, tickers, prices = _read_dated(path)
        return cls(dates=dates, tickers=list(tickers), prices=prices,
                   fill_mask=np.zeros(prices.shape, dtype=bool))


@dataclass
class ReturnPanel:
    """Demeaned one-day log-returns derived from a PricePanel."""

    dates: list
    tickers: list
    returns: np.ndarray

    def write(self, path):
        textio.write_matrix(path, self.dates, self.tickers, self.returns)

    @classmethod
    def read(cls, path):
        dates, tickers, returns = _read_dated(path)
        return cls(dates=dates, tickers=list(tickers), returns=returns)


_EPOCH = dt.date(1970, 1, 1).toordinal()


def _parse_date(text):
    try:
        return dt.date.fromisoformat(str(text).strip())
    except ValueError as exc:
        raise DataError(f"unparseable date {text!r}") from exc


def _read_dated(path):
    """:func:`textio.read_matrix` of a file whose row labels are dates, each
    later than the one before it."""
    days = []

    def parse(text):
        day = _parse_date(text)
        if days and day <= days[-1]:
            raise DataError(f"date {day} is not later than {days[-1]}")
        days.append(day)
        return day

    return textio.read_matrix(path, parse)


@dataclass
class _Records:
    """(ticker, date, value) records read column-wise from one file.

    Records are in file order. ``days`` are the records' distinct
    ``datetime64[D]`` days, sorted, and ``key`` is each record's (ticker,
    day) key ``code * len(days) + day``, where ``code`` indexes ``tickers``
    (sorted names) and ``day`` indexes ``days``; it has the ticker-code
    column's dtype (int32) where ``len(tickers) * len(days)`` fits in it,
    and int64 otherwise. A record whose value does not parse has a NaN
    value, and one whose date does not parse the day 1970-01-01. ``fault``
    is whether the reader rejected a line (field count, ticker, value or
    date): no record from that line on reaches a caller.
    :meth:`sort` sorts ``key`` in place and sets ``order``, lexsort's
    sorting permutation, or leaves ``order`` None where the key is already
    in order: the identity, which is never built. Only this class's methods
    read ``order``. The other columns stay in file order until
    :meth:`gathered`.
    """

    tickers: list
    days: np.ndarray
    key: np.ndarray
    value: np.ndarray
    fault: bool
    order: np.ndarray = None

    def sort(self):
        """Sort records by ticker, then day, then line: ``order`` is the
        sorting permutation, and ``key`` becomes ``key[order]``, without a
        copy. A key already in order, equal neighbours included, is checked
        a slice at a time and left as it is, with ``order`` None: lexsort is
        stable, so its order would be the identity."""
        if not _in_order(self.key):
            self.order = np.lexsort((self.key,))
            self.key.sort()

    def gathered(self):
        """The values in sorted order: the value column itself where the
        key was already in order; otherwise written over the sort order in
        its own buffer a slice at a time, where each slice of the order is
        read before its slots are written, so no more than one slice is
        allocated. ``order`` and ``value`` are spent."""
        order, value = self.order, self.value
        self.order = self.value = None
        if order is None:
            return value
        if order.itemsize != value.itemsize:  # a 32-bit intp
            return value[order]
        out = order.view(value.dtype)
        for start in range(0, order.size, CHUNK_LINES):
            out[start:start + CHUNK_LINES] = \
                value[order[start:start + CHUNK_LINES]]
        return out

    def bounds(self):
        """The start of each ticker's block in sorted order, then the end."""
        # in the key's dtype: mixed dtypes would copy the whole key
        return np.searchsorted(self.key, np.arange(
            len(self.tickers) + 1, dtype=self.key.dtype)
            * self.days.size).tolist()

    def file_order(self, positions):
        """The file-order indices of the records at sorted ``positions``."""
        return positions if self.order is None else self.order[positions]

    def first_in_file(self, bounds):
        """The file-order index of each ticker's first record, given
        :meth:`bounds`."""
        starts = np.asarray(bounds[:-1], np.intp)
        return (starts if self.order is None
                else np.minimum.reduceat(self.order, starts))


def _neighbours(key):
    """``key`` from position 1 on, a ``CHUNK_LINES`` slice at a time, each
    slice with its start and the equally long slice one position before
    it, so that a comparison of the two allocates one slice."""
    for start in range(1, key.size, CHUNK_LINES):
        stop = min(start + CHUNK_LINES, key.size)
        yield start, key[start:stop], key[start - 1:stop - 1]


def _in_order(key):
    """Whether ``key`` never descends; it stops at the first slice that
    does."""
    return all((here >= before).all() for _, here, before in _neighbours(key))


def _repeats(key):
    """The positions in the sorted ``key`` whose key repeats the one before
    it."""
    return np.concatenate([np.empty(0, np.intp)] + [
        np.flatnonzero(here == before) + start
        for start, here, before in _neighbours(key)])


class _Codes(dict):
    """Maps each text to a consecutive code, given on its first lookup."""

    def __missing__(self, text):
        self[text] = code = len(self)
        return code


class _Days(dict):
    """Maps each date text to its day number (days since 1970-01-01), or
    to None where :func:`_parse_date` rejects it, parsed on its first
    lookup."""

    def __missing__(self, text):
        try:
            day = _parse_date(text).toordinal() - _EPOCH
        except DataError:
            day = None
        self[text] = day
        return day


def _parse_floats(texts):
    """Parse texts as floats; on a bad text, also return its index.

    The values from the bad text on are NaN.
    """
    try:
        return np.array(texts, dtype=float), None
    except ValueError:
        values = np.full(len(texts), np.nan)
        for j, text in enumerate(texts):
            try:
                values[j] = float(text)
            except ValueError:
                return values, j
        raise


def _open_records(path):
    # a leading UTF-8 byte order mark is not part of the first ticker
    return open(path, encoding="utf-8-sig")


def _split(line):
    """The stripped fields of a record line, split on commas or, in a line
    without one, on whitespace; None for a blank or comment line."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    return [p.strip() for p in (stripped.split(",") if "," in stripped
                                else stripped.split())]


def _texts(raw, rows, starts, ends):
    """{row: its field} of the ASCII fields from ``starts`` to ``ends`` of
    the bytes ``raw``."""
    return {i: raw[a:b].decode("ascii") for i, a, b in zip(
        rows.tolist(), starts.tolist(), ends.tolist())}


def _blocks(path, start, stop):
    """The text of bytes ``start`` to ``stop`` of the UTF-8 record file at
    ``path``, ``start`` being 0 or a line start, as text mode reads it (a
    leading byte order mark dropped, '\\r\\n' and a lone '\\r' read as
    '\\n'), ``WINDOW_BYTES`` bytes at a time: each block is cut after its
    last line break, and a last line without one gets one."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder(
        "utf-8-sig" if start == 0 else "utf-8")(), translate=True)
    tail = ""
    with open(path, "rb") as fh:
        fh.seek(start)
        left = stop - start
        while left > 0:
            data = fh.read(min(WINDOW_BYTES, left))
            left = left - len(data) if data else 0
            text = tail + decoder.decode(data, final=not left)
            cut = text.rfind("\n") + 1
            if cut:
                yield text[:cut]
            tail = text[cut:]
    if tail:
        yield tail + "\n"


def _line_start_after(path, at):
    """The offset of the first line start after byte ``at`` of the file at
    ``path`` (a line ends at '\\n', '\\r\\n' or a lone '\\r'), or its size
    where no line starts there."""
    with open(path, "rb") as fh:
        fh.seek(at)
        while data := fh.read(1 << 16):
            found = re.search(b"[\r\n]", data)
            if found:
                after = at + found.end()
                if found.group() == b"\r":  # maybe the first of '\r\n'
                    fh.seek(after)
                    after += fh.read(1) == b"\n"
                return after
            at += len(data)
    return at


def _read_records(path):
    """Read (ticker, date, value) records from the file at ``path``.

    Lines are comma- or whitespace-delimited; blank lines and lines starting
    with ``#`` are skipped. The reader's own faults (field count, ticker,
    value, date) are only flagged, so that callers can name the first
    faulty line across their own checks too (:func:`_raise_first_fault`).
    From ``textio.SPLIT_READ_BYTES`` bytes on, where :func:`textio.can_fork`
    allows it, a forked child reads the lines from the first line start
    after the middle byte (:func:`_scan_halves`).
    """
    size = os.stat(path).st_size
    split = size >= textio.SPLIT_READ_BYTES and textio.can_fork()
    middle = _line_start_after(path, size // 2) if split else size
    try:  # counts each part's lines; a byte that does not decode comes first
        lines = [sum(block.count("\n") for block in _blocks(path, a, b))
                 for a, b in ((0, middle), (middle, size))]
    except UnicodeDecodeError:
        textio.read_text(path)  # raises, naming the file offset
        raise
    index = np.int32 if sum(lines) <= np.iinfo(np.int32).max else np.int64
    columns = _columns(sum(lines), index)
    if split:
        scanned = _scan_halves(path, middle, size, lines[1], columns)
    else:
        scanned = _scan(_blocks(path, 0, size), columns)
    return _records(columns, *scanned)


def _scan_halves(path, middle, size, lines, columns):
    """:func:`_scan` of the file at ``path``, ``size`` bytes long, whose
    ``lines`` lines from byte ``middle`` on, a line start, are read by a
    forked child.

    The child's columns go into the slots after this process's records,
    and its tickers, which this process maps onto its own codes; its day
    numbers need no mapping. Where this process's half holds a reader
    fault the child's result is not used, as a serial read would stop
    there.
    """
    def second():
        theirs = _columns(lines, columns[0].dtype)
        n, tickers, fault = _scan(_blocks(path, middle, size), theirs)
        return (n, list(tickers), fault), [column[:n] for column in theirs]

    def into(scanned, theirs):
        n, _, fault = scanned
        return None if fault else [column[n:] for column in columns]

    (n, tickers, fault), theirs = textio.halves(
        lambda: _scan(_blocks(path, 0, middle), columns), second, into)
    if theirs is not None:
        k, their_tickers, fault = theirs
        code = columns[0]
        mine = np.fromiter(map(tickers.__getitem__, their_tickers),
                           code.dtype, len(their_tickers))
        # in place (the default mode="raise" would buffer ``out``), a slice
        # at a time, as in _records
        for start in range(n, n + k, CHUNK_LINES):
            part = code[start:min(start + CHUNK_LINES, n + k)]
            np.take(mine, part, out=part, mode="clip")
        n += k
    return n, tickers, fault


def _columns(size, index):
    """Ticker code, day number and value columns for ``size`` records."""
    return [np.empty(size, index), np.empty(size, np.int32), np.empty(size)]


def _scan(blocks, columns):
    """Read the records of the text blocks ``blocks``, each a run of whole
    lines, into the first slots of ``columns``.

    The fields of plain printable-ASCII ``a,b,c`` lines are parsed from the
    block's bytes by :mod:`scalecorr._fields`, which is imported here, on
    the first read, rather than with this module. Any other line goes
    through :func:`_split`, and any other date or value field through
    :func:`_parse_date` and :func:`_parse_floats`. Each block's records go
    to their file-order slots, so no per-byte array outlives its block.
    Tickers are coded in the order they are first seen. Reading stops after
    the block that holds the first line the reader rejects (field count,
    ticker, value or date): no later line can be the first faulty one.
    Returns the record count, the ticker codes, and whether a line was
    rejected.
    """
    from . import _fields

    code, day, value = columns
    tickers, dates = _Codes(), _Days()
    fault = False
    n = 0  # records so far

    for text in blocks:
        raw = text.encode("utf-8", "surrogatepass")
        buf = np.frombuffer(raw, np.uint8)
        # the bytes that end a field: odd bytes (outside '!'..'~': blanks,
        # controls, line breaks, non-ASCII) and commas
        stops = np.flatnonzero(((buf - ord("!")) > ord("~") - ord("!"))
                               | (buf == ord(",")))
        kind = buf[stops]
        at_end = np.flatnonzero(kind == ord("\n"))  # each line's, in stops
        ends = stops[at_end]
        starts = np.concatenate(([0], ends[:-1] + 1))
        # a plain line's end is its third stop, after two commas; it
        # starts with neither '#' nor ',' (an empty ticker)
        plain = np.diff(at_end, prepend=-1) == 3
        last = at_end[plain]
        plain[plain] = ((kind[last - 2] == ord(","))
                        & (kind[last - 1] == ord(","))
                        & (stops[last - 2] > starts[plain])
                        & (buf[starts[plain]] != ord("#")))

        loose = {}  # block row: ticker, date and value texts
        for i in np.flatnonzero(~plain).tolist():
            parts = _split(raw[starts[i]:ends[i]].decode("utf-8",
                                                         "surrogatepass"))
            if parts is None:
                continue
            # no TSV holds an empty ticker or one with a tab
            if len(parts) != 3 or not parts[0] or textio.DELIM in parts[0]:
                fault = True
                break
            loose[i] = parts

        kept = plain.copy()
        kept[list(loose)] = True
        slot = np.cumsum(kept) + (n - 1)  # each record's column slot
        n += np.count_nonzero(kept)
        rows = np.flatnonzero(plain)
        first, at_date, at_value = (starts[rows], stops[at_end[rows] - 2] + 1,
                                    stops[at_end[rows] - 1] + 1)
        code[slot[rows]] = _fields.ticker_codes(buf, first,
                                                at_date - 1 - first, tickers)
        days, fast_day = _fields.iso_days(buf, at_date,
                                          at_value - 1 - at_date)
        day[slot[rows]] = days
        values, fast_value = _fields.decimals(buf, ends[rows],
                                              ends[rows] - at_value)
        value[slot[rows]] = values

        # the other fields, by block row
        slow_days = _texts(raw, rows[~fast_day], at_date[~fast_day],
                           at_value[~fast_day] - 1)
        slow_values = _texts(raw, rows[~fast_value], at_value[~fast_value],
                             ends[rows[~fast_value]])
        for i, (ticker, date_text, value_text) in loose.items():
            code[slot[i]] = tickers[ticker]
            slow_days[i], slow_values[i] = date_text, value_text
        for i, text in slow_days.items():
            parsed = dates[text]
            if parsed is None:  # a faulty line: any day will do
                parsed, fault = 0, True
            day[slot[i]] = parsed
        # in file order, so that the NaN values from a bad one on are on
        # later lines only
        order = sorted(slow_values)
        parsed, bad = _parse_floats([slow_values[i] for i in order])
        value[slot[order]] = parsed
        fault |= bad is not None
        if fault:
            break

    return n, tickers, fault


def _records(columns, n, tickers, fault):
    """The _Records of the first ``n`` records in :func:`_scan`'s columns,
    which it takes out of the list ``columns``, so that the key it builds
    in the ticker-code column replaces the code and day columns, and the
    value column, shrunk in place, holds the records' values only."""
    code, day, value = columns
    columns.clear()
    names = sorted(tickers)
    day = day[:n]
    # the distinct day numbers, marked on the span of days they cover
    lo, hi = (int(day.min()), int(day.max())) if n else (0, -1)
    seen = np.zeros(hi - lo + 1, bool)
    for start in range(0, n, CHUNK_LINES):
        seen[day[start:start + CHUNK_LINES] - lo] = True
    distinct = (np.flatnonzero(seen) + lo).astype(np.int32)
    del seen
    days = distinct.astype("datetime64[D]")
    # the key is built in the ticker-code column, unless the largest key
    # (and the bounds' last search value) does not fit in its dtype
    key = code[:n]
    if len(names) * days.size > np.iinfo(key.dtype).max:
        key = key.astype(np.int64)
    del code
    rank = np.empty(len(names), key.dtype)
    rank[[tickers[t] for t in names]] = np.arange(len(names))
    # a slice at a time: take converts its indices to intp, and a
    # slice-sized copy stays below the CLI's mmap threshold
    for start in range(0, n, CHUNK_LINES):
        part = key[start:start + CHUNK_LINES]
        np.take(rank, part, out=part, mode="clip")  # in place, unbuffered
        part *= days.size
        part += np.searchsorted(distinct, day[start:start + CHUNK_LINES])
    del day
    # a key in order hands the value column back as it is; no view of it
    # is alive here, while a tracer's frame locals may still reference it
    value.resize(n, refcheck=False)
    return _Records(tickers=names, days=days, key=key, value=value,
                    fault=fault)


def _raise_first_fault(path, what, fault, *rules):
    """Raise DataError for the first faulty line in file order of the
    record file at ``path``, where the reader flagged a ``fault`` or a rule
    rejects a record; return where neither holds.

    Each rule is (the file-order indices of the records it rejects, its
    message, a format of the record's ``ticker``, ``value`` and ``day``);
    rules are given in the order a line is checked in, after the reader's
    checks: field count, ticker, value, then date. The file is read again
    from line 1, one line at a time, holding no more than one line.
    """
    hit = min(((int(hits.min()), message) for hits, message in rules
               if hits.size), key=lambda h: h[0], default=None)
    if not fault and hit is None:
        return
    at, message = hit or (-1, None)
    record = 0  # records so far: lines that pass the reader's checks
    with _open_records(path) as fh:
        for n, line in enumerate(fh, 1):
            parts = _split(line)
            if parts is None:
                continue
            if len(parts) != 3:
                raise DataError(f"line {n}: expected 3 fields (ticker, date, "
                                f"{what}), got {len(parts)}")
            ticker, date_text, value_text = parts
            if not ticker or textio.DELIM in ticker:
                raise DataError(f"line {n}: bad ticker {ticker!r}")
            try:
                value = float(value_text)
            except ValueError as exc:
                raise DataError(f"line {n}: bad {what} {value_text!r}"
                                ) from exc
            try:
                day = _parse_date(date_text)
            except DataError as exc:
                raise DataError(f"line {n}: {exc}") from exc
            if record == at:
                raise DataError(f"line {n}: " + message.format(
                    ticker=ticker, value=value, day=day))
            record += 1
    raise DataError(f"{path}: changed while it was read")


def _release_free_heap():
    """Hand the free pages of glibc's heap back to the system
    (``malloc_trim(0)``). Ingest's windows free their blocks to the heap,
    where a block still in use above them keeps them resident through
    cleaning. A libc without ``malloc_trim`` keeps its own policy."""
    try:
        ctypes.CDLL(None).malloc_trim(ctypes.c_size_t(0))
    except (AttributeError, OSError, TypeError):
        pass


def load_prices(path):
    """Parse the (ticker, ISO date, close) records of the file at ``path``
    into :class:`PriceRecords`, one ticker's closes per block.

    Lines are comma- or whitespace-delimited, ``#`` comments and blank lines
    skipped. Raises DataError for the first faulty line in file order: a
    wrong field count, an empty ticker or one holding a tab, an unparseable
    close or date, a non-finite or non-positive close, or a repeated
    (ticker, date); and, naming the file, for a file without records.

    The closes' own rules are applied before the sort and the repeats after
    it a slice at a time. A key already in order is not sorted, and its
    closes are kept as they are, so from the scan on nothing holds more
    than the key and the closes. Otherwise the closes are gathered into the
    sort order's buffer, so no moment from the sort on holds more than the
    sort: the (ticker, day) key, the file-order closes and the order.
    """
    rec = _read_records(path)
    rules = [(np.flatnonzero(~np.isfinite(rec.value)),
              "non-finite close {value} for {ticker}"),
             (np.flatnonzero(rec.value <= 0),
              "non-positive close {value} for {ticker}")]
    rec.sort()
    # a record that repeats the (ticker, day) of the one before it in sorted
    # order repeats an earlier line's: equal keys keep their file order
    _raise_first_fault(path, "close", rec.fault, *rules,
                       (rec.file_order(_repeats(rec.key)),
                        "duplicate record for ({ticker}, {day})"))
    if not rec.key.size:
        raise DataError(f"{path}: no price records")
    bounds = rec.bounds()
    close = rec.gathered()
    key, rec.key = rec.key, None
    day = np.remainder(key, rec.days.size, out=key).astype(
        np.min_scalar_type(rec.days.size))
    del key
    _release_free_heap()
    return PriceRecords(tickers=rec.tickers, days=rec.days, day=day,
                        close=close, bounds=bounds)


def preprocess(records, k=DEFAULT_LENGTH_FRACTION):
    """Clean :func:`load_prices`'s PriceRecords into a complete
    forward-filled PricePanel, read from the records' columns.

    Steps: drop tickers with fewer than ``k`` times the most records; start
    the panel at the latest first day among survivors; take the union of
    survivors' days from that start as the reference axis, marked on a
    calendar of day indices; fill gaps by dragging the last available
    price (recorded in ``fill_mask``), one search per survivor. Beyond the
    panel and its mask, it holds O(dates) per survivor at a time.
    """
    if not records:
        raise DataError("no input series")
    if not 0 < k <= 1:
        raise DataError(f"length fraction k={k} outside (0, 1]")
    lengths = np.diff(records.bounds)
    max_len = lengths.max()
    if max_len == 0:
        raise DataError("every input series is empty")
    survivors = np.flatnonzero(lengths >= k * max_len).tolist()

    start = max(records.block(j)[0][0] for j in survivors)
    # the survivors' days from start on, marked on a calendar of day indices
    calendar = np.zeros(records.days.size, dtype=bool)
    for j in survivors:
        calendar[records.block(j)[0]] = True
    calendar[:start] = False
    ref = np.flatnonzero(calendar)
    del calendar

    T, N = len(ref), len(survivors)
    prices = np.empty((T, N))
    mask = np.empty((T, N), dtype=bool)
    for i, j in enumerate(survivors):
        own, close = records.block(j)
        # last own observation at or before each reference day; one exists
        # because start is the largest of the survivors' first days
        last = np.searchsorted(own, ref, side="right") - 1
        prices[:, i] = close[last]
        mask[:, i] = own[last] != ref

    return PricePanel(dates=records.days[ref].tolist(),
                      tickers=[records.tickers[j] for j in survivors],
                      prices=prices, fill_mask=mask)


def compute_returns(panel):
    """Demeaned one-day log-returns of a complete price panel; DataError
    for the first (by date, then column) price that is not positive."""
    if len(panel.dates) < 3:
        raise EstimationError("need at least 3 dates to compute returns")
    bad = np.argwhere(panel.prices <= 0)
    if bad.size:
        t, i = bad[0]
        raise DataError(f"non-positive price {panel.prices[t, i]:g} for "
                        f"{panel.tickers[i]} on {panel.dates[t]}")
    prices = panel.prices
    T, N = prices.shape
    raw = np.empty((T - 1, N))
    # np.diff(np.log(prices)) in row blocks, the bits of log[t+1] - log[t],
    # whose one temporary stays below the CLI's 128 KiB mmap threshold
    rows = max(1, RETURN_BLOCK_BYTES // (max(N, 1) * raw.itemsize))
    for t in range(0, T - 1, rows):
        block = raw[t:t + rows]
        np.log(prices[t + 1:t + 1 + len(block)], out=block)
        block -= np.log(prices[t:t + len(block)])
    raw -= raw.mean(axis=0)
    return ReturnPanel(dates=list(panel.dates[1:]), tickers=list(panel.tickers),
                       returns=raw)


def load_capitalizations(path):
    """{ticker: its values in date order, a day's in file order} of the
    (ticker, ISO date, capitalization) records of the file at ``path``, in
    the order of each ticker's first record; each is a float64 slice of one
    array. DataError for the first faulty line in file order, as for
    :func:`load_prices`, for a non-finite or negative capitalization, and
    for a file with no records."""
    rec = _read_records(path)
    _raise_first_fault(path, "capitalization", rec.fault,
                       (np.flatnonzero(~np.isfinite(rec.value)),
                        "non-finite capitalization {value} for {ticker}"),
                       (np.flatnonzero(rec.value < 0),
                        "negative capitalization {value} for {ticker}"))
    if not rec.value.size:
        raise DataError(f"{path}: no capitalization records")
    rec.sort()
    bounds = rec.bounds()
    first_record = rec.first_in_file(bounds)
    values = rec.gathered()
    return {rec.tickers[k]: values[bounds[k]:bounds[k + 1]]
            for k in np.argsort(first_record).tolist()}


def median_capitalization(records):
    """{ticker: median} of ``records``, which maps each ticker to its
    capitalization values; a ticker without values is absent. DataError,
    naming the first such ticker, for a median without a finite logarithm.
    """
    medians = {t: float(np.median(v)) for t, v in records.items() if len(v)}
    bad = next((t for t, m in medians.items() if not 0 < m < math.inf), None)
    if bad is not None:
        raise DataError(f"{bad}: median capitalization {medians[bad]} has "
                        "no finite logarithm")
    return medians


def log_capitalizations(medians, tickers):
    """ln of each ticker's median in ``medians``, NaN where it has none."""
    return np.array([math.log(medians[t]) if t in medians else math.nan
                     for t in tickers])
