"""Price-panel ingestion and cleaning.

Raw (ticker, date, close) records are turned into a rectangular forward-filled
price panel: series much shorter than the longest one are dropped, the panel
starts at the latest first trading date among the survivors, the date axis is
the union of the survivors' trading dates from that start, and every gap is
filled by dragging the last available price. Demeaned one-day log-returns and
per-ticker median capitalizations are derived from the cleaned panel.

Record files are read column-wise: the plain ``ticker,date,value`` lines are
split in bulk, values and dates are parsed into arrays, and records are
grouped, sorted and checked with array operations. Only lines that are not
plain records (comments, blank lines, whitespace delimiters, padded fields)
get per-line work, and that work only normalises them into the same columns.
"""

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .errors import DataError, EstimationError
from . import textio

DEFAULT_LENGTH_FRACTION = PipelineConfig.k
# record lines split per bulk step; bounds the Python strings alive at once
CHUNK_LINES = 1 << 16
# ordinal stand-in for an unparseable date; real ordinals start at 1
_BAD_DAY = 0


def _ordinals(dates):
    """Proleptic Gregorian ordinals of a sequence of dates."""
    return np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))


@dataclass(frozen=True)
class RawPriceSeries:
    """One ticker's close prices, sorted by strictly increasing date."""

    ticker: str
    dates: tuple
    prices: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.prices):
            raise DataError(f"{self.ticker}: dates/prices length mismatch")
        if np.any(np.diff(_ordinals(self.dates)) <= 0):
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

    def as_series(self):
        """View the (complete) panel back as one RawPriceSeries per ticker."""
        return [
            RawPriceSeries(t, tuple(self.dates), self.prices[:, i].copy())
            for i, t in enumerate(self.tickers)
        ]

    def write(self, prices_path, mask_path=None):
        textio.write_matrix(prices_path, self.dates, self.tickers, self.prices)
        if mask_path is not None:
            textio.write_matrix(mask_path, self.dates, self.tickers,
                                self.fill_mask, spec="%d")

    @classmethod
    def read(cls, prices_path, mask_path=None):
        row_labels, tickers, prices = textio.read_matrix(prices_path)
        dates = [_parse_date(d) for d in row_labels]
        if mask_path is not None:
            _, _, mask = textio.read_matrix(mask_path)
            mask = mask.astype(bool)
        else:
            mask = np.zeros(prices.shape, dtype=bool)
        return cls(dates=dates, tickers=list(tickers), prices=prices,
                   fill_mask=mask)


@dataclass
class ReturnPanel:
    """Demeaned one-day log-returns derived from a PricePanel."""

    dates: list
    tickers: list
    returns: np.ndarray
    column_means_removed: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.column_means_removed is None:
            self.column_means_removed = np.zeros(self.returns.shape[1])

    def write(self, path):
        textio.write_matrix(path, self.dates, self.tickers, self.returns)

    @classmethod
    def read(cls, path):
        row_labels, tickers, returns = textio.read_matrix(path)
        dates = [_parse_date(d) for d in row_labels]
        return cls(dates=dates, tickers=list(tickers), returns=returns)


@dataclass
class CapitalizationTable:
    """Median capitalization per ticker; tickers without data are absent."""

    values: dict

    def get(self, ticker):
        return self.values.get(ticker)

    def log_value(self, ticker):
        v = self.values.get(ticker)
        return math.log(v) if v is not None else None


def _parse_date(text):
    try:
        return dt.date.fromisoformat(str(text).strip())
    except ValueError as exc:
        raise DataError(f"unparseable date {text!r}") from exc


@dataclass
class _Records:
    """(ticker, date, value) records read column-wise from one source.

    Records are not in file order; ``line`` holds each one's 1-based line
    number. ``code`` indexes ``tickers`` (sorted names) and ``date_code``
    indexes ``dates``: the parsed date of each distinct date text, or the
    error message for a text that does not parse. A record whose date does
    not parse has ``day == _BAD_DAY``; one whose value does not parse has a
    NaN value. ``error`` is (line, message) of the first line the reader
    itself rejects (field count, value or date), or None.
    """

    tickers: list
    code: np.ndarray
    dates: list
    date_code: np.ndarray
    day: np.ndarray
    value: np.ndarray
    line: np.ndarray
    error: tuple

    def ticker(self, i):
        return self.tickers[self.code[i]]

    def raise_first(self, *rules):
        """Raise DataError for the first faulty line in file order.

        Each rule is (mask over records, message of record i); rules are
        given in the order a line is checked in, after the reader's checks.
        """
        first = self.error
        for mask, message in rules:
            hits = np.flatnonzero(mask)
            if hits.size:
                i = hits[np.argmin(self.line[hits])]
                if first is None or self.line[i] < first[0]:
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


def _read_records(source, what):
    """Read (ticker, date, value) records from a path or iterable of lines.

    Lines are comma- or whitespace-delimited; blank lines and lines starting
    with ``#`` are skipped. Plain printable-ASCII ``a,b,c`` lines are split
    in bulk; any other line is stripped and split on its own, then joins the
    same columns. The reader's own faults (field count, value, date) are
    collected, not raised, so that callers can report the first faulty line
    across their own checks too (:meth:`_Records.raise_first`).
    """
    lines = None
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        text = textio.read_text(source)
    else:
        lines = list(source) or [""]  # no lines reads as one blank line
        text = "\n".join(lines)
        if text.count("\n") != len(lines) - 1:
            # some line holds a line break of its own: scan a stand-in with
            # the same numbering; that line is normalised from ``lines``
            text = "\n".join(ln.replace("\n", "\0") for ln in lines)
    raw = text.encode("utf-8", "surrogatepass")
    del text
    buf = np.frombuffer(raw, np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    starts = np.r_[0, breaks + 1]
    ends = np.r_[breaks, buf.size]
    # bytes outside '!'..'~': blanks, controls, line breaks, non-ASCII
    odd = np.flatnonzero((buf - ord("!")) > ord("~") - ord("!"))
    commas = np.flatnonzero(buf == ord(","))
    plain = ((ends > starts) & (_count_between(odd, starts, ends) == 0)
             & (_count_between(commas, starts, ends) == 2))
    plain[plain] = buf[starts[plain]] != ord("#")

    tickers, date_code = _Codes(), _Codes()
    columns = {"code": [np.empty(0, np.intp)], "date": [np.empty(0, np.intp)],
               "value": [np.empty(0)], "line": [np.empty(0, np.int64)]}
    errors = []  # (line, rank within the line, message)

    def add(ticker_texts, date_texts, value_texts, line_numbers):
        n = len(ticker_texts)
        values, bad = _parse_floats(value_texts)
        if bad is not None:
            errors.append((line_numbers[bad], 0, f"line {line_numbers[bad]}: "
                           f"bad {what} {value_texts[bad]!r}"))
        columns["code"].append(np.fromiter(map(tickers.__getitem__,
                                               ticker_texts), np.intp, n))
        columns["date"].append(np.fromiter(map(date_code.__getitem__,
                                               date_texts), np.intp, n))
        columns["value"].append(values)
        columns["line"].append(np.asarray(line_numbers, np.int64))

    rows = np.flatnonzero(plain)
    for k in range(0, rows.size, CHUNK_LINES):
        part = rows[k:k + CHUNK_LINES]
        # one byte slice per run of consecutive plain lines
        cut = np.flatnonzero(np.diff(part) != 1) + 1
        spans = map(slice, starts[part[np.r_[0, cut]]].tolist(),
                    ends[part[np.r_[cut - 1, part.size - 1]]].tolist())
        fields = (b"\n".join(map(raw.__getitem__, spans)).decode("ascii")
                  .replace("\n", ",").split(","))
        add(fields[0::3], fields[1::3], fields[2::3], part + 1)

    loose = ([], [], [], [])
    for i in np.flatnonzero(~plain).tolist():
        line = (lines[i] if lines is not None else
                raw[starts[i]:ends[i]].decode("utf-8", "surrogatepass"))
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in (line.split(",") if "," in line
                                     else line.split())]
        if len(parts) != 3:
            # no later line can hold the first fault
            errors.append((i + 1, 0, f"line {i + 1}: expected 3 fields "
                           f"(ticker, date, {what}), got {len(parts)}"))
            break
        for column, value in zip(loose, parts + [i + 1]):
            column.append(value)
    if loose[0]:
        add(*loose)

    names = sorted(tickers)
    rank = np.empty(len(names), np.intp)
    rank[[tickers[t] for t in names]] = np.arange(len(names))
    cat = {k: np.concatenate(v) for k, v in columns.items()}
    dates = []
    for text in date_code:
        try:
            dates.append(_parse_date(text))
        except DataError as exc:
            dates.append(str(exc))
    day = np.array([d.toordinal() if isinstance(d, dt.date) else _BAD_DAY
                    for d in dates], np.int64)[cat["date"]]
    bad_day = np.flatnonzero(day == _BAD_DAY)
    if bad_day.size:
        i = bad_day[np.argmin(cat["line"][bad_day])]
        errors.append((cat["line"][i], 1, dates[cat["date"][i]]))
    first = min(errors, default=None)
    return _Records(tickers=names, code=rank[cat["code"]], dates=dates,
                    date_code=cat["date"], day=day, value=cat["value"],
                    line=cat["line"],
                    error=None if first is None else (first[0], first[2]))


def load_prices(source):
    """Parse (ticker, ISO date, close) records into per-ticker series.

    Accepts a path or an iterable of lines; comma- or whitespace-delimited,
    ``#`` comments and blank lines skipped. Raises DataError for the first
    faulty line in file order: a wrong field count, an unparseable close or
    date, a non-finite or non-positive close, or a repeated (ticker, date).
    """
    rec = _read_records(source, "close")
    value, line = rec.value, rec.line
    order = np.lexsort((line, rec.day, rec.code))
    code, day = rec.code[order], rec.day[order]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[order[1:]] = (code[1:] == code[:-1]) & (day[1:] == day[:-1])
    rec.raise_first(
        (~np.isfinite(value), lambda i: f"line {line[i]}: non-finite close "
         f"{float(value[i])} for {rec.ticker(i)}"),
        (value <= 0, lambda i: f"line {line[i]}: non-positive close "
         f"{float(value[i])} for {rec.ticker(i)}"),
        (repeat, lambda i: f"line {line[i]}: duplicate record for "
         f"({rec.ticker(i)}, {rec.dates[rec.date_code[i]]})"))
    dates = np.array(rec.dates, dtype=object)[rec.date_code[order]]
    prices = value[order]
    bounds = _group_bounds(rec)
    return [RawPriceSeries(ticker=t, dates=tuple(dates[a:b]),
                           prices=prices[a:b])
            for t, a, b in zip(rec.tickers, bounds, bounds[1:])]


def _group_bounds(rec):
    """Start of each ticker's block in code-sorted order, then the end."""
    counts = np.bincount(rec.code, minlength=len(rec.tickers))
    return np.r_[0, np.cumsum(counts)].tolist()


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
    survivors = [s for s in series if len(s.dates) >= k * max_len]
    if not survivors:
        raise DataError("length filter removed every series")
    survivors = sorted(survivors, key=lambda s: s.ticker)

    days = [_ordinals(s.dates) for s in survivors]
    start = max(d[0] for d in days)
    ref = np.unique(np.concatenate([d[d >= start] for d in days]))
    ref_dates = [dt.date.fromordinal(o) for o in ref.tolist()]

    T, N = len(ref_dates), len(survivors)
    prices = np.empty((T, N))
    mask = np.empty((T, N), dtype=bool)
    for i, (s, d) in enumerate(zip(survivors, days)):
        # last own observation at or before each reference date; one exists
        # because start is the maximum of the survivors' first dates
        last = np.searchsorted(d, ref, side="right") - 1
        prices[:, i] = np.asarray(s.prices)[last]
        mask[:, i] = d[last] != ref

    return PricePanel(dates=ref_dates, tickers=[s.ticker for s in survivors],
                      prices=prices, fill_mask=mask)


def compute_returns(panel):
    """Demeaned one-day log-returns of a complete price panel."""
    if len(panel.dates) < 3:
        raise EstimationError("need at least 3 dates to compute returns")
    raw = np.diff(np.log(panel.prices), axis=0)
    means = raw.mean(axis=0)
    return ReturnPanel(dates=list(panel.dates[1:]), tickers=list(panel.tickers),
                       returns=raw - means, column_means_removed=means)


def load_capitalizations(source):
    """Parse (ticker, ISO date, capitalization) records into per-ticker lists.

    Tickers keep the order of their first record; each list is sorted by
    date. Raises DataError for the first faulty line in file order, as
    :func:`load_prices` does, for a non-finite or negative capitalization.
    """
    rec = _read_records(source, "capitalization")
    value, line = rec.value, rec.line
    rec.raise_first(
        (~np.isfinite(value), lambda i: f"line {line[i]}: non-finite "
         f"capitalization {float(value[i])} for {rec.ticker(i)}"),
        (value < 0, lambda i: f"line {line[i]}: negative capitalization "
         f"{float(value[i])} for {rec.ticker(i)}"))
    order = np.lexsort((line, value, rec.day, rec.code))
    bounds = _group_bounds(rec)
    first_line = np.minimum.reduceat(line[order], bounds[:-1])
    values = value[order].tolist()
    return {rec.tickers[k]: values[bounds[k]:bounds[k + 1]]
            for k in np.argsort(first_line).tolist()}


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
