"""Price-panel ingestion and cleaning.

Raw (ticker, date, close) records are turned into a rectangular forward-filled
price panel: series much shorter than the longest one are dropped, the panel
starts at the latest first trading date among the survivors, the date axis is
the union of the survivors' trading dates from that start, and every gap is
filled by dragging the last available price. Demeaned one-day log-returns and
per-ticker median capitalizations are derived from the cleaned panel.

Record files are read column-wise, one window of ``CHUNK_LINES`` lines at a
time: the window's plain ``ticker,date,value`` lines are split in bulk and
its values, ticker and date codes go to compact columns allocated once for
the file's line count (int32 codes and line numbers, float64 values).
Records are then grouped, sorted and checked with array operations. Only
lines that are not plain records (comments, blank lines, whitespace
delimiters, padded fields) get per-line work, and that work only normalises
them into the same columns. The file's text is never held whole: beyond the
columns, ingest holds one window's lines, bytes and fields. The two code
columns then become one int64 (ticker, day) key, which is sorted in place
next to its sort order; the sorted key gives each ticker's bounds and each
close's day, and the closes are the one column gathered into sorted order.
So ``load_prices`` peaks at 30 bytes per record for 1.2M records (46 for
200k, where a window outweighs the columns); the series keep 16-17: a
``datetime64[D]`` day and a close each.

Record files are UTF-8, with or without a leading byte order mark. From
``textio.SPLIT_READ_BYTES`` bytes on, a forked child (:func:`textio.forked`)
reads the second half of the lines into its own columns while this process
reads the first half; its columns come back through the pipe into the slots
after this process's records, and its ticker and date codes are mapped onto
this process's. The result is the one-process result: the same series and
the same first faulty line.
"""

import datetime as dt
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import DataError, EstimationError
from . import textio

DEFAULT_LENGTH_FRACTION = PipelineConfig.k
# lines per ingest window; bounds the per-line strings, per-byte arrays and
# per-field strings alive at once, whatever the file's size
CHUNK_LINES = 1 << 13


@dataclass(frozen=True)
class RawPriceSeries:
    """One ticker's close prices, sorted by strictly increasing date; the
    dates are kept as a ``datetime64[D]`` array, whatever they are given as."""

    ticker: str
    dates: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        dates = np.asarray(self.dates, "datetime64[D]")
        object.__setattr__(self, "dates", dates)
        if len(dates) != len(self.prices):
            raise DataError(f"{self.ticker}: dates/prices length mismatch")
        if np.any(dates[1:] <= dates[:-1]):
            raise DataError(f"{self.ticker}: dates not strictly increasing")
        prices = np.asarray(self.prices)
        if np.any(prices <= 0):
            raise DataError(f"{self.ticker}: non-positive price")
        if not np.all(np.isfinite(prices)):
            raise DataError(f"{self.ticker}: non-finite price")


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


@dataclass
class CapitalizationTable:
    """Median capitalization per ticker; tickers without data are absent."""

    values: dict

    def log_values(self, tickers):
        """ln median capitalization per ticker, NaN where a ticker has none."""
        return np.array([math.log(self.values[t]) if t in self.values
                         else math.nan for t in tickers])


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

    Records are in file order; ``line`` holds each one's 1-based line
    number. ``days`` are the distinct ``datetime64[D]`` days of the date
    texts, sorted (NaT for a text that does not parse), and ``key`` is each
    record's (ticker, day) key ``code * len(days) + day``, where ``code``
    indexes ``tickers`` (sorted names) and ``day`` indexes ``days``. A
    record whose value does not parse has a NaN value. ``error`` is (line,
    message) of the first line the reader itself rejects (field count, value
    or date), or None. :meth:`sort` sorts ``key`` in place and sets
    ``order``; the other columns stay in file order.
    """

    tickers: list
    days: np.ndarray
    key: np.ndarray
    value: np.ndarray
    line: np.ndarray
    error: tuple
    order: np.ndarray = None

    def sort(self, *minor):
        """Sort records by ticker, then day, then the ``minor`` keys, then
        line: ``order`` is the sorting permutation and ``key`` becomes
        ``key[order]``, without a copy."""
        self.order = np.lexsort(minor + (self.key,))
        self.key.sort()

    def bounds(self):
        """The start of each ticker's block in sorted order, then the end."""
        return np.searchsorted(self.key, np.arange(len(self.tickers) + 1)
                               * self.days.size).tolist()

    def _key_of(self, i):
        # record i's (ticker code, day rank), found through the sort order
        return divmod(int(self.key[np.argmax(self.order == i)]),
                      self.days.size)

    def ticker(self, i):
        return self.tickers[self._key_of(i)[0]]

    def day(self, i):
        return self.days[self._key_of(i)[1]]

    def raise_first(self, *rules):
        """Raise DataError for the first faulty line in file order.

        Each rule is (the records it rejects, message of record i); rules
        are given in the order a line is checked in, after the reader's
        checks. Messages look records up in sorted order.
        """
        first = self.error
        for hits, message in rules:
            i = hits.min() if hits.size else None
            if i is not None and (first is None or self.line[i] < first[0]):
                first = (self.line[i], message(i))
        if first is not None:
            raise DataError(first[1])


class _Codes(dict):
    """Maps each text to a consecutive code, given on its first lookup."""

    def __missing__(self, text):
        self[text] = code = len(self)
        return code


def _count_between(positions, starts, ends):
    """How many of the sorted ``positions`` fall in each [start, end)."""
    return np.searchsorted(positions, ends) - np.searchsorted(positions, starts)


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


def _file_windows(lines):
    """The lines of a text file, given as an iterator over them,
    CHUNK_LINES at a time, each window with its text: the lines, each ended
    by one line break."""
    for window in iter(lambda: list(itertools.islice(lines, CHUNK_LINES)),
                       []):
        text = "".join(window)
        yield window, text if text.endswith("\n") else text + "\n"


def _open_records(path):
    # a leading UTF-8 byte order mark is not part of the first ticker
    return open(path, encoding="utf-8-sig")


def _read_records(path, what):
    """Read (ticker, date, value) records from the file at ``path``.

    Lines are comma- or whitespace-delimited; blank lines and lines starting
    with ``#`` are skipped. The reader's own faults (field count, value,
    date) are collected, not raised, so that callers can report the first
    faulty line across their own checks too (:meth:`_Records.raise_first`).

    From ``textio.SPLIT_READ_BYTES`` bytes on, where :func:`textio.can_fork`
    allows it, a forked child reads the second half of the lines: it skips
    the first half itself, numbers its lines from the file's start, and
    sends its columns and its ticker and date texts, which this process
    maps onto its own codes. Where this process's half holds a reader fault
    the child's result is not used, as a serial read would stop there.
    """
    with _open_records(path) as fh:
        try:  # counts the lines; a byte that does not decode comes first
            size = 1 + sum(block.count("\n") for block in
                           iter(lambda: fh.read(1 << 16), ""))
        except UnicodeDecodeError:
            textio.read_text(path)  # raises, naming the file offset
            raise
        fh.seek(0)
        index = np.int32 if size <= np.iinfo(np.int32).max else np.int64
        columns = _columns(size, index)
        if (os.fstat(fh.fileno()).st_size < textio.SPLIT_READ_BYTES
                or not textio.can_fork()):
            return _records(columns, *_scan(_file_windows(fh), 1, columns,
                                            what))
        head = size // 2

        def second():
            theirs = _columns(size - head, index)
            with _open_records(path) as child_fh:
                for _ in itertools.islice(child_fh, head):
                    pass
                n, tickers, date_texts, errors = _scan(
                    _file_windows(child_fh), head + 1, theirs, what)
            return ((n, list(tickers), list(date_texts), errors),
                    [column[:n] for column in theirs])

        with textio.forked(second) as pipe:
            n, tickers, date_texts, errors = _scan(
                _file_windows(itertools.islice(fh, head)), 1, columns, what)
            if not errors:
                k, errors = _receive_records(pipe, columns, n, tickers,
                                             date_texts)
                n += k
    return _records(columns, n, tickers, date_texts, errors)


def _receive_records(pipe, columns, n, tickers, date_texts):
    """Read the records a forked :func:`_scan` sent into the slots of
    ``columns`` from ``n`` on, its codes mapped onto ``tickers`` and
    ``date_texts``; returns its record count and faults."""
    exc, theirs = textio.receive(pipe)
    if exc is not None:
        raise exc
    k, their_tickers, their_dates, errors = theirs
    slots = [column[n:n + k] for column in columns]
    textio.receive_into(pipe, slots)
    for c, codes, texts in zip(slots, (tickers, date_texts),
                               (their_tickers, their_dates)):
        mine = np.fromiter(map(codes.__getitem__, texts), c.dtype, len(texts))
        # in place: the default mode="raise" would buffer ``out``
        np.take(mine, c, out=c, mode="clip")
    return k, errors


def _columns(size, index):
    """Ticker code, date code, line and value columns for ``size`` records."""
    return [*(np.empty(size, index) for _ in range(3)), np.empty(size)]


def _scan(windows, first, columns, what):
    """Read the records of the lines given as line windows, the first of
    them line ``first``, into the first slots of ``columns``.

    Plain printable-ASCII ``a,b,c`` lines are split in bulk; any other line
    is stripped and split on its own. Each window's records go to their
    file-order slots, so no per-byte array or per-field string outlives its
    window. Tickers and date texts are coded in the order they are first
    seen. Reading stops after the window that holds the first fault the
    reader finds: no later line can hold the first fault. Returns the
    record count, the ticker and date-text codes, and the faults, each
    (line, rank within the line, message).
    """
    code, date_code, line, value = columns
    index = code.dtype
    tickers, date_texts = _Codes(), _Codes()
    errors = []
    n = 0  # records so far

    def put(slots, ticker_texts, day_texts, value_texts):
        values, bad = _parse_floats(value_texts)
        if bad is not None:
            at = line[slots[bad]]
            errors.append((at, 0, f"line {at}: bad {what} "
                           f"{value_texts[bad]!r}"))
        code[slots] = np.fromiter(map(tickers.__getitem__, ticker_texts),
                                  index, len(slots))
        date_code[slots] = np.fromiter(
            map(date_texts.__getitem__, day_texts), index, len(slots))
        value[slots] = values

    for window, text in windows:
        raw = text.encode("utf-8", "surrogatepass")
        buf = np.frombuffer(raw, np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        starts = np.r_[0, ends[:-1] + 1]
        # bytes outside '!'..'~': blanks, controls, line breaks, non-ASCII
        odd = np.flatnonzero((buf - ord("!")) > ord("~") - ord("!"))
        commas = np.flatnonzero(buf == ord(","))
        plain = ((ends > starts) & (_count_between(odd, starts, ends) == 0)
                 & (_count_between(commas, starts, ends) == 2))
        plain[plain] = buf[starts[plain]] != ord("#")

        loose = ([], [], [], [])  # window row, ticker, date, value
        for i in np.flatnonzero(~plain).tolist():
            stripped = window[i].strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = [p.strip() for p in (stripped.split(",") if "," in
                                         stripped else stripped.split())]
            if len(parts) != 3:
                errors.append((first + i, 0, f"line {first + i}: expected 3 "
                               f"fields (ticker, date, {what}), "
                               f"got {len(parts)}"))
                break
            for column, part in zip(loose, [i] + parts):
                column.append(part)

        kept = plain.copy()
        kept[loose[0]] = True
        slot = np.cumsum(kept) + (n - 1)  # each record's column slot
        records = np.flatnonzero(kept)
        line[n:n + records.size] = records + first
        n += records.size
        rows = np.flatnonzero(plain)
        if rows.size:
            # one byte slice per run of consecutive plain lines
            cut = np.flatnonzero(np.diff(rows) != 1) + 1
            spans = map(slice, starts[rows[np.r_[0, cut]]].tolist(),
                        ends[rows[np.r_[cut - 1, rows.size - 1]]].tolist())
            fields = (b"\n".join(map(raw.__getitem__, spans)).decode("ascii")
                      .replace("\n", ",").split(","))
            put(slot[rows], fields[0::3], fields[1::3], fields[2::3])
        if loose[0]:
            put(slot[loose[0]], *loose[1:])
        if errors:
            break
        first += len(window)  # the next window's first line

    return n, tickers, date_texts, errors


def _records(columns, n, tickers, date_texts, errors):
    """The _Records of the first ``n`` records in :func:`_scan`'s columns,
    which it takes out of the list ``columns``, so that the key it builds
    replaces both code columns."""
    code, date_code, line, value = columns
    columns.clear()
    index = code.dtype
    names = sorted(tickers)
    rank = np.empty(len(names), np.int64)
    rank[[tickers[t] for t in names]] = np.arange(len(names))
    days = np.empty(len(date_texts), "datetime64[D]")
    bad = {}  # date code -> message, for texts that do not parse
    for k, text in enumerate(date_texts):
        try:
            days[k] = _parse_date(text)
        except DataError as exc:
            days[k], bad[k] = None, str(exc)  # None is NaT
    date_code = date_code[:n]
    if bad:
        i = np.argmax(np.isnat(days)[date_code])
        errors.append((line[i], 1, bad[date_code[i]]))
    days, day = np.unique(days, return_inverse=True)
    key = rank[code[:n]]
    del code  # the key replaces both code columns
    key *= days.size
    key += day.astype(index)[date_code]
    del date_code
    first = min(errors, default=None)
    return _Records(tickers=names, days=days, key=key, value=value[:n],
                    line=line[:n],
                    error=None if first is None else (first[0], first[2]))


def _sorted_prices(path):
    """Checked close records: tickers, their sorted distinct days, closes
    sorted by ticker and day with the index of each one's day, and each
    ticker's block bounds."""
    rec = _read_records(path, "close")
    value = rec.value
    rec.sort()
    # a record that repeats the (ticker, day) of the one before it in sorted
    # order repeats an earlier line's: equal keys keep their file order
    key, order = rec.key, rec.order
    rec.raise_first(
        (np.flatnonzero(~np.isfinite(value)), lambda i: f"line "
         f"{rec.line[i]}: non-finite close {float(value[i])} for "
         f"{rec.ticker(i)}"),
        (np.flatnonzero(value <= 0), lambda i: f"line {rec.line[i]}: "
         f"non-positive close {float(value[i])} for {rec.ticker(i)}"),
        (order[1:][key[1:] == key[:-1]], lambda i: f"line {rec.line[i]}: "
         f"duplicate record for ({rec.ticker(i)}, {rec.day(i)})"))
    tickers, days, bounds = rec.tickers, rec.days, rec.bounds()
    del rec  # the line numbers
    day = np.remainder(key, days.size, out=key).astype(
        np.min_scalar_type(days.size))
    del key
    return tickers, days, value[order], day, bounds


def load_prices(path):
    """Parse the (ticker, ISO date, close) records of the file at ``path``
    into per-ticker series.

    Lines are comma- or whitespace-delimited, ``#`` comments and blank lines
    skipped. Raises DataError for the first faulty line in file order: a
    wrong field count, an unparseable close or date, a non-finite or
    non-positive close, or a repeated (ticker, date).
    """
    tickers, days, prices, day, bounds = _sorted_prices(path)
    days = days[day]  # once the records' columns are freed
    return [RawPriceSeries(ticker=t, dates=days[a:b], prices=prices[a:b])
            for t, a, b in zip(tickers, bounds, bounds[1:])]


def preprocess(series, k=DEFAULT_LENGTH_FRACTION):
    """Clean raw series into a complete forward-filled PricePanel.

    Steps: drop series shorter than ``k`` times the longest; start the panel
    at the latest first date among survivors; take the union of survivors'
    dates from that start as the reference axis; fill gaps by dragging the
    last available price (recorded in ``fill_mask``).
    """
    if not series:
        raise DataError("no input series")
    if not 0 < k <= 1:
        raise DataError(f"length fraction k={k} outside (0, 1]")
    max_len = max(len(s.dates) for s in series)
    if max_len == 0:
        raise DataError("every input series is empty")
    survivors = sorted((s for s in series if len(s.dates) >= k * max_len),
                       key=lambda s: s.ticker)

    start = max(s.dates[0] for s in survivors)
    # the survivors' days from start on, marked on a calendar to the last
    calendar = np.zeros((max(s.dates[-1] for s in survivors) - start)
                        .astype(np.intp) + 1, dtype=bool)
    for s in survivors:
        calendar[(s.dates[np.searchsorted(s.dates, start):] - start)
                 .astype(np.intp)] = True
    ref = start + np.flatnonzero(calendar)
    del calendar

    T, N = len(ref), len(survivors)
    prices = np.empty((T, N))
    mask = np.empty((T, N), dtype=bool)
    for i, s in enumerate(survivors):
        # last own observation at or before each reference date; one exists
        # because start is the maximum of the survivors' first dates
        last = np.searchsorted(s.dates, ref, side="right") - 1
        prices[:, i] = np.asarray(s.prices)[last]
        mask[:, i] = s.dates[last] != ref

    return PricePanel(dates=ref.tolist(),
                      tickers=[s.ticker for s in survivors],
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
    raw = np.diff(np.log(panel.prices), axis=0)
    raw -= raw.mean(axis=0)
    return ReturnPanel(dates=list(panel.dates[1:]), tickers=list(panel.tickers),
                       returns=raw)


def load_capitalizations(path):
    """Parse the (ticker, ISO date, capitalization) records of the file at
    ``path`` into per-ticker lists.

    Tickers keep the order of their first record; each list is sorted by
    date. Raises DataError for the first faulty line in file order, as
    :func:`load_prices` does, for a non-finite or negative capitalization,
    and for a file with no records.
    """
    rec = _read_records(path, "capitalization")
    value, line = rec.value, rec.line
    rec.sort(value)
    rec.raise_first(
        (np.flatnonzero(~np.isfinite(value)), lambda i: f"line {line[i]}: "
         f"non-finite capitalization {float(value[i])} for {rec.ticker(i)}"),
        (np.flatnonzero(value < 0), lambda i: f"line {line[i]}: negative "
         f"capitalization {float(value[i])} for {rec.ticker(i)}"))
    if not value.size:
        raise DataError(f"{path}: no capitalization records")
    bounds = rec.bounds()
    first_record = np.minimum.reduceat(rec.order, bounds[:-1])
    values = value[rec.order].tolist()
    return {rec.tickers[k]: values[bounds[k]:bounds[k + 1]]
            for k in np.argsort(first_record).tolist()}


def median_capitalization(records):
    """Median capitalization per ticker; tickers with no observations absent.

    ``records`` maps ticker to a list of capitalization values.
    """
    values = {}
    for ticker, obs in records.items():
        obs = [v for v in obs if v is not None]
        if any(v < 0 for v in obs):
            raise DataError(f"{ticker}: negative capitalization value")
        if not obs:
            continue
        median = float(np.median(obs))
        if not 0 < median < math.inf:
            raise DataError(f"{ticker}: median capitalization {median} has "
                            "no finite logarithm")
        values[ticker] = median
    return CapitalizationTable(values=values)
