"""Price-panel ingestion and cleaning.

Raw (ticker, date, close) records are turned into a rectangular forward-filled
price panel: series much shorter than the longest one are dropped, the panel
starts at the latest first trading date among the survivors, the date axis is
the union of the survivors' trading dates from that start, and every gap is
filled by dragging the last available price. Demeaned one-day log-returns and
per-ticker median capitalizations are derived from the cleaned panel.
"""

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EstimationError
from . import textio

DEFAULT_LENGTH_FRACTION = 0.90


@dataclass(frozen=True)
class RawPriceSeries:
    """One ticker's close prices, sorted by strictly increasing date."""

    ticker: str
    dates: tuple
    prices: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.prices):
            raise DataError(f"{self.ticker}: dates/prices length mismatch")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError(f"{self.ticker}: dates not strictly increasing")
        if np.any(np.asarray(self.prices) <= 0):
            raise DataError(f"{self.ticker}: non-positive price")


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


def _iter_records(source, what="price"):
    """Yield (lineno, ticker, date, value) from a path or iterable of lines."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source) as fh:
            yield from _iter_records(fh.readlines(), what)
        return
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in (line.split(",") if "," in line
                                     else line.split())]
        if len(parts) != 3:
            raise DataError(f"line {lineno}: expected 3 fields "
                            f"(ticker, date, {what}), got {len(parts)}")
        ticker, date_text, value_text = parts
        try:
            value = float(value_text)
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad {what} {value_text!r}") from exc
        yield lineno, ticker, _parse_date(date_text), value


def load_prices(source):
    """Parse (ticker, ISO date, close) records into per-ticker series.

    Accepts a path or an iterable of lines; comma- or whitespace-delimited.
    """
    by_ticker = {}
    seen = set()
    for lineno, ticker, date, close in _iter_records(source, "close"):
        if close <= 0:
            raise DataError(f"line {lineno}: non-positive close {close} "
                            f"for {ticker}")
        if (ticker, date) in seen:
            raise DataError(f"line {lineno}: duplicate record for "
                            f"({ticker}, {date})")
        seen.add((ticker, date))
        by_ticker.setdefault(ticker, []).append((date, close))
    series = []
    for ticker in sorted(by_ticker):
        obs = sorted(by_ticker[ticker])
        series.append(RawPriceSeries(
            ticker=ticker,
            dates=tuple(d for d, _ in obs),
            prices=np.array([p for _, p in obs]),
        ))
    return series


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

    start = max(s.dates[0] for s in survivors)
    ref_dates = sorted({d for s in survivors for d in s.dates if d >= start})

    T, N = len(ref_dates), len(survivors)
    prices = np.empty((T, N))
    mask = np.zeros((T, N), dtype=bool)
    for i, s in enumerate(survivors):
        own = dict(zip(s.dates, s.prices))
        # last observation at or before the start; guaranteed to exist
        # because start is the maximum of the survivors' first dates
        last = next(p for d, p in reversed(list(zip(s.dates, s.prices)))
                    if d <= start)
        for t, d in enumerate(ref_dates):
            if d in own:
                last = own[d]
            else:
                mask[t, i] = True
            prices[t, i] = last

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
    """Parse (ticker, ISO date, capitalization) records into per-ticker lists."""
    by_ticker = {}
    for lineno, ticker, date, value in _iter_records(source, "capitalization"):
        if value < 0:
            raise DataError(f"line {lineno}: negative capitalization {value} "
                            f"for {ticker}")
        by_ticker.setdefault(ticker, []).append((date, value))
    return {t: [v for _, v in sorted(obs)] for t, obs in by_ticker.items()}


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
        values[ticker] = float(np.median(obs))
    return CapitalizationTable(values=values)
