import datetime as dt
import math
import os
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalecorr
import scalecorr.panel as panel_module
from scalecorr import _fields, textio
from scalecorr.errors import DataError, EstimationError
from scalecorr.panel import (PricePanel, RawPriceSeries, compute_returns,
                             load_capitalizations, load_prices,
                             log_capitalizations, median_capitalization,
                             preprocess)

from conftest import PRICE_FIXTURE, price_records, running_threads, write_lines

D = dt.date


@contextmanager
def tracer_reading_locals():
    """Inside the block, a settrace hook reads f_locals, as debuggers do,
    so that it holds references to ingest's locals, the spent columns
    among them."""
    def hook(frame, event, arg):
        frame.f_locals
        return hook

    sys.settrace(hook)
    try:
        yield
    finally:
        sys.settrace(None)


def price_lines(ticker, day_price_pairs):
    """Price lines of one ticker; day d is 2020-01-d for d <= 31 and keeps
    counting into February. Each close is written so that it reads back
    with the same bits."""
    return [f"{ticker},{D(2019, 12, 31) + dt.timedelta(d)},{float(p)!r}"
            for d, p in day_price_pairs]


class TestLoadPrices:
    def test_sorts_shuffled_dates(self, tmp_path):
        out = load_prices(write_lines(tmp_path, PRICE_FIXTURE.splitlines()))
        aaa = next(s for s in out if s.ticker == "AAA")
        assert list(aaa.dates) == [D(2020, 1, 1), D(2020, 1, 2), D(2020, 1, 3)]
        assert list(aaa.prices) == [100, 101, 102]

    def test_series_dates_are_day_arrays(self, tmp_path):
        path = write_lines(tmp_path, PRICE_FIXTURE.splitlines())
        for s in load_prices(path):
            assert s.dates.dtype == np.dtype("datetime64[D]")
        assert s.dates.tolist() == [D(2020, 1, 1), D(2020, 1, 2),
                                    D(2020, 1, 3)]

    def test_zero_close_rejected(self, tmp_path):
        with pytest.raises(DataError, match="non-positive"):
            load_prices(write_lines(tmp_path, ["AAA,2020-01-01,0"]))

    def test_duplicate_ticker_date_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_prices(write_lines(
                tmp_path, ["AAA,2020-01-01,1", "AAA,2020-01-01,2"]))

    def test_malformed_row_names_line(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            load_prices(write_lines(
                tmp_path, ["AAA,2020-01-01,1", "AAA,2020-01-02"]))

    def test_merged_disjoint_files_sum_ticker_counts(self, tmp_path):
        # fixture hand-count: 2 tickers + 1 ticker = 3 series
        extra = ["CCC,2020-01-01,5", "CCC,2020-01-02,6"]
        out = load_prices(write_lines(tmp_path,
                                      PRICE_FIXTURE.splitlines() + extra))
        assert len(out) == 3


# Reference record parser: the per-line reader the columnar one replaced,
# kept verbatim except for the ticker, non-finite and empty-file checks
# (marked), which the columnar reader adds at the same point of its checks,
# for the line it names for a bad date (marked), and for its series' dates,
# made ``datetime64[D]`` arrays as loaded series' are (marked).
def _reference_parse_date(text):
    try:
        return dt.date.fromisoformat(str(text).strip())
    except ValueError as exc:
        raise DataError(f"unparseable date {text!r}") from exc


def _reference_iter_records(source, what="price"):
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source) as fh:
            yield from _reference_iter_records(fh.readlines(), what)
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
        if not ticker or "\t" in ticker:  # added: ticker check
            raise DataError(f"line {lineno}: bad ticker {ticker!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad {what} {value_text!r}") from exc
        try:  # added: the bad date's line
            date = _reference_parse_date(date_text)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        yield lineno, ticker, date, value


def _reference_load_prices(source):
    by_ticker = {}
    seen = set()
    for lineno, ticker, date, close in _reference_iter_records(source, "close"):
        if not math.isfinite(close):  # added: non-finite check
            raise DataError(f"line {lineno}: non-finite close {close} "
                            f"for {ticker}")
        if close <= 0:
            raise DataError(f"line {lineno}: non-positive close {close} "
                            f"for {ticker}")
        if (ticker, date) in seen:
            raise DataError(f"line {lineno}: duplicate record for "
                            f"({ticker}, {date})")
        seen.add((ticker, date))
        by_ticker.setdefault(ticker, []).append((date, close))
    if not by_ticker:  # added: empty check
        raise DataError(f"{source}: no price records")
    series = []
    for ticker in sorted(by_ticker):
        obs = sorted(by_ticker[ticker])
        series.append(RawPriceSeries(
            ticker=ticker,
            dates=np.array([d for d, _ in obs], "datetime64[D]"),  # added
            prices=np.array([p for _, p in obs]),
        ))
    return series


def _reference_load_capitalizations(source):
    by_ticker = {}
    for lineno, ticker, date, value in _reference_iter_records(
            source, "capitalization"):
        if not math.isfinite(value):  # added: non-finite check
            raise DataError(f"line {lineno}: non-finite capitalization "
                            f"{value} for {ticker}")
        if value < 0:
            raise DataError(f"line {lineno}: negative capitalization {value} "
                            f"for {ticker}")
        by_ticker.setdefault(ticker, []).append((date, value))
    if not by_ticker:
        raise DataError(f"{source}: no capitalization records")
    # by date only: a day's records keep their file order
    return {t: [v for _, v in sorted(obs, key=lambda o: o[0])]
            for t, obs in by_ticker.items()}


def _reference_preprocess(series, k):
    """The dict-lookup forward fill the vectorised one replaced."""
    max_len = max(len(s.dates) for s in series)
    survivors = sorted((s for s in series if len(s.dates) >= k * max_len),
                       key=lambda s: s.ticker)
    start = max(s.dates[0] for s in survivors)
    ref_dates = sorted({d for s in survivors for d in s.dates if d >= start})
    T, N = len(ref_dates), len(survivors)
    prices = np.empty((T, N))
    mask = np.zeros((T, N), dtype=bool)
    for i, s in enumerate(survivors):
        own = dict(zip(s.dates, s.prices))
        last = next(p for d, p in reversed(list(zip(s.dates, s.prices)))
                    if d <= start)
        for t, d in enumerate(ref_dates):
            if d in own:
                last = own[d]
            else:
                mask[t, i] = True
            prices[t, i] = last
    return ref_dates, [s.ticker for s in survivors], prices, mask


def _bits(values):
    """Floats as exact, sign-aware keys (so -0.0 differs from 0.0)."""
    return [(v, math.copysign(1.0, v)) for v in values]


def _outcome(loader, source):
    try:
        out = loader(source)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(out, dict):  # arrays and lists compare as lists
        return "ok", [(t, _bits(list(v))) for t, v in out.items()]
    return "ok", [(s.ticker, list(s.dates), _bits(s.prices.tolist()),
                   s.prices.dtype) for s in out]


_DAY0 = D(2020, 1, 1)
_TICKERS = st.sampled_from(["AAA", "BB", "C", "D_1", "\u00c41"] * 5
                           + ["", "T\tX", "L" * 40])
_DATES = st.one_of(
    st.integers(0, 40).map(lambda k: (_DAY0 + dt.timedelta(k)).isoformat()),
    st.integers(0, 40).map(lambda k: (_DAY0 + dt.timedelta(k))
                           .strftime("%Y%m%d")),
    st.sampled_from(["2020-02-30", "2020-1-1", "soon", "",
                     # the calendar's edges, in the dddd-dd-dd shape
                     "0000-01-01", "0001-01-01", "9999-12-31", "2020-02-29",
                     "2021-02-29", "2020-13-01", "2020-00-10"]))


def _decimal(digits, point):
    """The integer ``digits`` written with ``point`` digits after a '.'."""
    text = str(digits).rjust(point + 1, "0")
    return f"{text[:len(text) - point]}.{text[len(text) - point:]}"


_VALUES = st.one_of(
    st.floats(0.01, 1e4).map(repr), st.integers(1, 999).map(str),
    st.sampled_from(["0", "-0", "-2.5", "nan", "-inf", "inf", "1e400",
                     "1_000", "x1", "", "\u0661\u0662",
                     ".5", "5.", "+1", "007.50", "-.5", ".", "-", "1.2.3",
                     "--1", "1-", "0.00000000000000000000001",
                     "1.00000000000000000000001"]),
    # 15 to 17 significant digits, the point anywhere in them or before
    st.builds(_decimal, st.integers(10 ** 14, 10 ** 17 - 1),
              st.integers(0, 23)),
    # integers on either side of 2**53, the last that every double holds
    st.builds(_decimal, st.integers(2 ** 53 - 2, 2 ** 53 + 3),
              st.integers(0, 2)).map(lambda v: v.rstrip(".")))
_LAYOUTS = st.sampled_from(
    ["{t},{d},{v}"] * 8 + [
        "{t} {d} {v}", "{t}\t{d}\t{v}", " {t} , {d},{v} ", "{t},{d},{v}\r",
        "{t},{d},{v}\u2003", "\x0b{t}\x0c{d}\x1c{v}", "{t},{d} {v}",
        "{t},{d}", "{t},{d},{v},", "{t} {d}", "# {t},{d},{v}", "#", "",
        "   ", "{t},{d},{v}\n", "{t}{d}{v}", "{t},{d},{v}#x",
        "#{t},{d},{v}"])


@st.composite
def record_files(draw):
    """Record lines in any order, with irregular lines and bad tokens; some
    records repeat, laid out anew, with the same or another value."""
    records = [(draw(_TICKERS), draw(_DATES), draw(_VALUES))
               for _ in range(draw(st.integers(0, 20)))]
    for t, d, v in draw(st.lists(st.sampled_from(records), max_size=3)
                        if records else st.just([])):
        records.append((t, d, draw(st.sampled_from([v, "0", "-0", "3"]))))
    lines = [draw(_LAYOUTS).format(t=t, d=d, v=v)
             for t, d, v in draw(st.permutations(records))]
    return lines, draw(st.sampled_from(["\n", "\r\n"]))


_IN_ORDER_TICKERS = st.sampled_from(["AAA", "BB", "C", "D_1", "\u00c41"])
_GOOD_VALUES = st.one_of(st.floats(0.01, 1e4).map(repr),
                         st.integers(1, 999).map(str))
_REGULAR_LAYOUTS = st.sampled_from(
    ["{t},{d},{v}"] * 8 + ["{t} {d} {v}", "{t}\t{d}\t{v}", " {t} , {d},{v} ",
                           "{t},{d},{v}\r"])


@st.composite
def sorted_record_files(draw):
    """Record lines in (ticker, date) order, so that the key needs no sort
    where every date parses; some records repeat next to the first, with
    the date spelled either way and the same or another value, and blank
    and comment lines sit between them. Half the files also draw bad
    tickers, dates and values and irregular lines."""
    faulty = draw(st.booleans())
    tickers = _TICKERS if faulty else _IN_ORDER_TICKERS
    values = _VALUES if faulty else _GOOD_VALUES
    layouts = _LAYOUTS if faulty else _REGULAR_LAYOUTS
    keys = sorted(set(draw(st.lists(st.tuples(tickers, st.integers(0, 40)),
                                    max_size=20))))
    lines = []
    for t, k in keys:
        day = _DAY0 + dt.timedelta(k)
        for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
            d = draw(st.sampled_from([day.isoformat(),
                                      day.strftime("%Y%m%d")]))
            if faulty:
                d = draw(st.one_of(st.just(d), _DATES))
            lines += draw(st.lists(_SKIPPED, max_size=1))
            lines.append(draw(layouts).format(t=t, d=d, v=draw(values)))
    return lines, draw(st.sampled_from(["\n", "\r\n"]))


class TestColumnarReaderMatchesReference:
    """The columnar reader gives the per-line reader's series or error, in
    one process and with the second half of the lines read by a forked
    child."""

    @staticmethod
    def _check(lines, newline):
        for new, old in ((load_prices, _reference_load_prices),
                         (load_capitalizations,
                          _reference_load_capitalizations)):
            with tempfile.TemporaryDirectory() as tmp:
                path = write_lines(tmp, lines, newline)
                want = _outcome(old, path)
                assert _outcome(new, path) == want
                with mock.patch.object(textio, "SPLIT_READ_BYTES", 0):
                    assert _outcome(new, path) == want

    @settings(max_examples=300, deadline=None)
    @given(record_files())
    def test_generated_files(self, drawn):
        self._check(*drawn)

    @settings(max_examples=300, deadline=None)
    @given(sorted_record_files())
    def test_generated_sorted_files(self, drawn):
        # record_files() almost never draws a key already in order
        self._check(*drawn)

    @pytest.mark.parametrize("lines", [
        # first faulty line wins across kinds: value on line 2, date on 3
        ["AAA,2020-01-01,1", "AAA,2020-01-02,x", "AAA,bad,1"],
        ["AAA,bad,1", "AAA,2020-01-02,x"],
        # within a line: value before date, date before sign
        ["AAA,bad,x"], ["AAA,bad,-1"], ["AAA,2020-01-01,nan"],
        # a duplicate spelled differently is still a duplicate; the later
        # line is the one reported, and equal caps keep their file order
        ["AAA,2020-01-01,1", "AAA 20200101 2"],
        ["AAA 2020-01-01 1", "AAA,2020-01-01,2"],
        ["AAA 2020-01-01 0", "AAA,2020-01-01,-0"],
        # a field-count error after an earlier duplicate
        ["AAA,2020-01-01,1", "AAA,2020-01-01,2", "AAA,2020-01-03"],
        # irregular lines between plain ones, late starter
        ["# header", "BBB,2020-01-05,3", "", " AAA , 2020-01-02 , 1 ",
         "AAA\t2020-01-01\t2", "AAA,2020-01-03,4\r"],
        [],
        # file order is not (ticker, day) order: the messages' tickers and
        # days are looked up through the sort; a later ticker's bad close
        # before a duplicate, then a duplicate before it
        ["CCC,2020-01-02,1", "AAA,2020-01-03,2", "BBB,2020-01-01,0",
         "AAA,2020-01-03,5"],
        ["CCC,2020-01-02,1", "AAA,2020-01-03,2", "AAA,2020-01-03,3",
         "BBB,2020-01-01,nan"],
        # a basic-format date repeated in extended format
        ["BBB,20200102,1", "AAA,2020-01-05,2", "CCC,2020-01-02,3",
         "BBB,2020-01-02,4"],
        # a forked read's second half starts at line size // 2 + 1, where
        # size is one more than the line count: here at line 3, after a
        # lone \r, which ends a line in text mode
        ["AAA,2020-01-01,1", "AAA,2020-01-02,2\rAAA,2020-01-03,3",
         "AAA,2020-01-04,4"],
        ["AAA,2020-01-01,1", "AAA,2020-01-02,2\rAAA,2020-01-03,x",
         "AAA,2020-01-04,4"],
        # reader faults in both halves; a bad date in the first half
        # against a bad close in the second
        ["AAA,2020-01-01,x", "AAA,2020-01-02,1", "AAA,2020-01-03",
         "AAA,2020-01-04,y"],
        ["AAA,bad,1", "AAA,2020-01-02,1", "AAA,worse,2", "AAA,2020-01-04,3"],
        ["AAA,2020-01-01,1", "AAA,bad,1", "AAA,2020-01-03,x",
         "AAA,2020-01-04,3"],
        # a duplicate of a first-half record in the second half
        ["AAA,2020-01-01,1", "BBB,2020-01-01,1", "AAA,2020-01-01,2",
         "BBB,2020-01-02,2"],
        # tickers and dates first seen in the second half, before and
        # after the first half's in sorted order
        ["AAA,2020-01-02,1", "AAA,2020-01-03,2", "AAA,2020-01-04,4",
         "CCC,2020-01-05,3", "CCC,2020-01-02,5", "BBB,2020-01-01,1"],
        # an empty ticker, or one holding a tab, is the line's fault, found
        # before its value and date, in either half
        [",2020-01-01,1"], ["T\tX,2020-01-01,1"], [" , 2020-01-01, 1"],
        ["AAA,2020-01-01,1", "AAA,2020-01-02,2", ",bad,x",
         "AAA,2020-01-04,4"],
        ["AAA,2020-01-01,x", "AAA,2020-01-02,2", "A\tB,2020-01-03,3",
         "AAA,2020-01-04,4"],
        ["AAA,2020-01-01,1", "A\tB,bad,3", "AAA,2020-01-03,3",
         "AAA,2020-01-04,4"],
        # same-day capitalizations in either value order
        ["AAA,2020-01-02,3", "AAA,2020-01-01,2", "AAA,2020-01-01,1",
         "BBB,2020-01-01,1"],
        # a file in (ticker, day) order, which takes no sort: the later
        # line of a duplicate is named; a bad close on an early line beats
        # a later duplicate
        ["AAA,2020-01-01,1", "AAA,2020-01-02,2", "AAA,2020-01-02,3",
         "BBB,2020-01-01,4"],
        ["AAA,2020-01-01,1", "AAA,2020-01-02,-1", "AAA,2020-01-03,2",
         "AAA,2020-01-03,3"],
        # a file sorted by date, then ticker, takes the lexsort
        ["AAA,2020-01-01,1", "BBB,2020-01-01,2", "AAA,2020-01-02,3",
         "BBB,2020-01-02,4"],
        ["AAA,2020-01-01,1", "BBB,2020-01-01,2", "AAA,2020-01-02,3",
         "BBB,2020-01-01,4"],
    ])
    def test_hand_cases(self, lines):
        self._check(lines, "\n")

    def test_chunked_file_matches(self, tmp_path, monkeypatch):
        # more plain lines than one block holds, split around irregular
        # ones: 64-byte windows hold three or four lines each
        monkeypatch.setattr(panel_module, "WINDOW_BYTES", 64)
        lines = [f"T{i % 5},{(_DAY0 + dt.timedelta(i // 5)).isoformat()},"
                 f"{1 + i}" for i in range(100)]
        lines[40] = "# note"
        lines[41] = f"  {lines[41]}  "
        self._check(lines, "\n")
        lines[77] = "T2,2020-01-01,5"  # duplicate past several chunks
        self._check(lines, "\n")

    @pytest.mark.parametrize("chunk", [1, 2, 7, 40])
    @settings(max_examples=100, deadline=None)
    @given(drawn=record_files())
    def test_chunk_edges_change_nothing(self, chunk, drawn):
        # windows of 1, 2, 7 and 40 bytes put their edges inside fields,
        # '\r\n' pairs and multi-byte characters, inside runs of plain
        # lines, next to irregular lines and on the last line
        with mock.patch.object(panel_module, "WINDOW_BYTES", chunk):
            self._check(*drawn)


_SKIPPED = st.sampled_from(["", "#", "# note", "   ", "\t"])


@st.composite
def files_with_skipped_lines(draw):
    """Record lines between runs of blank and comment lines, with at most
    one record made faulty."""
    lines, record_lines = [], []
    for i in range(draw(st.integers(0, 24))):
        lines += draw(st.lists(_SKIPPED, max_size=3))
        lines.append(f"T{i % 3},{(_DAY0 + dt.timedelta(i)).isoformat()},"
                     f"{i + 1}")
        record_lines.append(len(lines))
    lines += draw(st.lists(_SKIPPED, max_size=3))
    if record_lines:
        at = draw(st.sampled_from(record_lines)) - 1
        fault = draw(st.sampled_from([None, "x", "0", "nan", "repeat"]))
        if fault == "repeat":
            lines[at] = lines[record_lines[0] - 1]
        elif fault is not None:
            lines[at] = lines[at].rsplit(",", 1)[0] + "," + fault
    return lines


class TestLineMap:
    """Blank and comment lines between records leave the first faulty line
    the one the reference names, whatever the windows and the forked
    half's boundary cut."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(lines=files_with_skipped_lines())
    def test_skipped_lines_across_windows_and_halves(self, chunk, lines):
        with mock.patch.object(panel_module, "WINDOW_BYTES", chunk):
            TestColumnarReaderMatchesReference._check(lines, "\n")


def _field_block(texts):
    """A block of one line per text, each text right after 24 blanks, and
    the ends and widths of the texts in it."""
    raw = "".join(" " * 24 + text + "\n" for text in texts).encode()
    buf = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    return buf, ends, np.array([len(text) for text in texts], np.intp)


_DECIMAL_SHAPE = re.compile(r"-?(\d+\.?\d*|\.\d+)")


class TestByteFields:
    """The fields of plain lines parsed from bytes: a value or date of the
    documented shape gives float()'s double or fromisoformat's day, and
    any other text is left to them."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text("0123456789.-+e_", min_size=1, max_size=26),
        st.builds(_decimal, st.integers(0, 10 ** 18), st.integers(0, 24)),
        st.floats(allow_nan=False, allow_infinity=False).map(repr)),
        min_size=1, max_size=20))
    # the bounds: k = 22 and 23, M = 2**53 - 1, 2**53 and 2**53 + 1 (whose
    # rounded M / 10**2 is another double), a 24- and a 25-byte field
    @example(["0.0000000000000000000001", ".00000000000000000000001",
              "9007199254740991", "9007199254740992", "90071992547409.93",
              "-0.00000000000000000000", "00000000000000000000001.5"])
    def test_decimals_are_floats_bits(self, texts):
        values, fast = _fields.decimals(*_field_block(texts))
        for text, value, ok in zip(texts, values.tolist(), fast.tolist()):
            shape = _DECIMAL_SHAPE.fullmatch(text)
            digits = text.lstrip("-").replace(".", "")
            after = text.partition(".")[2]
            assert ok == bool(shape and len(text) <= _fields.DECIMAL_BYTES
                              and int(digits) < 2 ** 53 and len(after) <= 22)
            if ok:
                assert _bits([value]) == _bits([float(text)])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text("0123456789-", min_size=10, max_size=10),
        st.tuples(st.integers(0, 9999), st.integers(0, 19),
                  st.integers(0, 39)).map("{0[0]:04d}-{0[1]:02d}-{0[2]:02d}"
                                          .format),
        st.dates().map(dt.date.isoformat)), min_size=1, max_size=20))
    @example(["2020-02-29", "2021-02-29", "2000-02-29", "1900-02-29",
              "0000-01-01", "0001-01-01", "9999-12-31", "2020-13-01",
              "2020-00-10", "2020-04-31", "2020-04-30"])
    def test_iso_days_are_fromisoformats(self, texts):
        buf, ends, widths = _field_block(texts)
        days, fast = _fields.iso_days(buf, ends - widths, widths)
        for text, day, ok in zip(texts, days.tolist(), fast.tolist()):
            try:
                want = dt.date.fromisoformat(text)
            except ValueError:
                want = None
            shaped = re.fullmatch(r"\d{4}-\d{2}-\d{2}", text)
            assert ok == bool(shaped and want)
            if ok:
                assert day == (want - dt.date(1970, 1, 1)).days

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.tuples(st.text("ab,\u00c4", max_size=4),
                                    st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=8),
           at=st.integers(0, 60))
    def test_split_is_the_first_line_start_after_the_byte(self, lines, at):
        data = "".join(text + end for text, end in lines).encode()
        at = min(at, len(data))
        starts = np.cumsum([len(line) for line in data.splitlines(True)])
        want = next((s for s in starts.tolist() if s > at), len(data))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "lines")
            with open(path, "wb") as fh:
                fh.write(data)
            assert panel_module._line_start_after(path, at) == want


class TestPriceRecords:
    """load_prices returns the sorted columns as a sequence of series, each
    a plain record built on access."""

    def test_is_a_sequence_of_series_built_on_access(self, tmp_path):
        records = load_prices(write_lines(tmp_path,
                                          PRICE_FIXTURE.splitlines()))
        assert isinstance(records, scalecorr.PriceRecords)
        assert len(records) == len(records.tickers) == 2
        assert records[-1].ticker == records[1].ticker == "BBB"
        assert records[0] is not records[0]
        with pytest.raises(IndexError):
            records[2]
        assert [s.ticker for s in records] == records.tickers
        assert sum(len(s.dates) for s in records) == records.close.size
        assert records.close.dtype == np.float64
        assert records.day.dtype == np.uint8
        assert records.days.dtype == np.dtype("datetime64[D]")

    def test_series_compare_by_identity(self, tmp_path):
        # array fields would make a field-wise == ambiguous
        records = load_prices(write_lines(tmp_path,
                                          PRICE_FIXTURE.splitlines()))
        series = records[0]
        assert series == series and not series != series
        assert records[0] != records[0]

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("split", [1 << 62, 0], ids=["serial", "forked"])
    def test_values_keep_no_slot_of_a_skipped_line(self, tmp_path,
                                                   monkeypatch, split,
                                                   traced):
        # the value column is sized for the file's 1011 lines; records in
        # (ticker, day) order hand it back without a gather
        path = write_lines(tmp_path, ["# note"] * 1000 + _lines_in_order(10))
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", split)
        with tracer_reading_locals() if traced else nullcontext():
            close = load_prices(path).close
            caps = load_capitalizations(path)
        assert close.flags.owndata and close.size == 10
        assert caps["T0000"].base.flags.owndata
        assert caps["T0000"].base.size == 10

    @pytest.mark.parametrize("text", ["", "\ufeff", "# no records\n\n  \n"])
    def test_file_without_records_is_named(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}: no price records$"):
            load_prices(path)


class TestTwoProcessIngest:
    """From textio.SPLIT_READ_BYTES on, a forked child reads the second
    half of a record file's lines; elsewhere ingest stays in one process."""

    @pytest.fixture
    def path(self, tmp_path):
        return write_lines(tmp_path, PRICE_FIXTURE.splitlines())

    def test_forks_from_the_threshold(self, path, monkeypatch, forks):
        want = _outcome(load_prices, path)
        size = os.path.getsize(path)
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", size + 1)
        assert _outcome(load_prices, path) == want and not forks
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", size)
        assert _outcome(load_prices, path) == want and len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_serial_where_fork_is_not_allowed(self, path, monkeypatch,
                                              forks):
        want = _outcome(load_prices, path)
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
        with running_threads(1):
            assert _outcome(load_prices, path) == want
        monkeypatch.setattr(textio, "can_fork", lambda: False)
        assert _outcome(load_prices, path) == want
        assert not forks

    def test_child_exception_is_raised_here(self, path, monkeypatch, forks):
        parent, parse = os.getpid(), panel_module._parse_floats

        def failing_in_the_child(texts):
            if os.getpid() != parent:
                raise ArithmeticError("in the child")
            return parse(texts)

        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
        monkeypatch.setattr(panel_module, "_parse_floats",
                            failing_in_the_child)
        with pytest.raises(ArithmeticError, match="^in the child$"):
            load_prices(path)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fault_in_this_half_beats_the_child_exception(
            self, tmp_path, monkeypatch, forks):
        # a serial read stops at line 1: the child's half is never read
        lines = PRICE_FIXTURE.splitlines()
        lines[0] = "AAA,2020-01-03,x"
        path = write_lines(tmp_path, lines)
        want = ("error", "line 1: bad close 'x'")
        assert _outcome(load_prices, path) == want
        parent, parse = os.getpid(), panel_module._parse_floats

        def failing_in_the_child(texts):
            if os.getpid() != parent:
                raise ArithmeticError("in the child")
            return parse(texts)

        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
        monkeypatch.setattr(panel_module, "_parse_floats",
                            failing_in_the_child)
        assert _outcome(load_prices, path) == want
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("split", [1 << 62, 0])
    def test_byte_order_mark_is_not_part_of_a_ticker(self, tmp_path,
                                                     monkeypatch, split):
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", split)
        path = write_lines(tmp_path, PRICE_FIXTURE.splitlines())
        want = [_outcome(load_prices, path),
                _outcome(load_capitalizations, path)]
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + data)
        assert [_outcome(load_prices, path),
                _outcome(load_capitalizations, path)] == want
        assert want[0][1][0][0] == "AAA"

    def test_child_codes_are_mapped_a_slice_at_a_time(
            self, tmp_path, monkeypatch, forks):
        # np.take converts its indices to intp: a whole half's would be a
        # fresh mapping above the CLI's mmap threshold
        monkeypatch.setattr(panel_module, "CHUNK_LINES", 16)
        path = write_lines(tmp_path, [
            f"T{i % 7},{(_DAY0 + dt.timedelta(i // 7)).isoformat()},{1 + i}"
            for i in range(300)])
        want = _outcome(load_prices, path)
        sizes = []
        take = np.take

        def counted(a, indices, *args, **kwargs):
            sizes.append(np.size(indices))
            return take(a, indices, *args, **kwargs)

        monkeypatch.setattr(np, "take", counted)
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 0)
        assert _outcome(load_prices, path) == want
        assert forks and sizes and max(sizes) <= 16


class TestFaultsAcrossTheSplit:
    """A fault on the last line of a file above ``textio.SPLIT_READ_BYTES``,
    in the half a forked child reads, is named at that line with the
    message a serial read gives."""

    N = textio.SPLIT_READ_BYTES // 19 + 1000  # records of 18 characters

    @pytest.mark.parametrize("loader, last, message", [
        (load_prices, "T9999,2020-01-01",
         "expected 3 fields (ticker, date, close), got 2"),
        (load_prices, ",2020-01-01,1", "bad ticker ''"),
        (load_prices, "T9999,2020-01-01,x", "bad close 'x'"),
        (load_prices, "T9999,2020-13-01,1", "unparseable date '2020-13-01'"),
        (load_prices, "T9999,2020-01-01,nan",
         "non-finite close nan for T9999"),
        (load_prices, "T9999,2020-01-01,-0",
         "non-positive close -0.0 for T9999"),
        (load_prices, "T0000,2020-01-01,2",
         "duplicate record for (T0000, 2020-01-01)"),
        (load_capitalizations, "T9999,2020-01-01,-1",
         "negative capitalization -1.0 for T9999"),
    ], ids=["fields", "ticker", "value", "date", "non_finite", "non_positive",
            "duplicate", "negative_capitalization"])
    def test_last_line_is_named_serial_and_forked(
            self, tmp_path, monkeypatch, forks, loader, last, message):
        lines = _lines_in_order(self.N) + [last]
        path = write_lines(tmp_path, lines)
        assert os.path.getsize(path) >= textio.SPLIT_READ_BYTES
        want = f"^line {len(lines)}: {re.escape(message)}$"
        with pytest.raises(DataError, match=want):
            loader(path)
        assert len(forks) == 1
        monkeypatch.setattr(textio, "SPLIT_READ_BYTES", 1 << 62)
        with pytest.raises(DataError, match=want):
            loader(path)
        assert len(forks) == 1

    def test_file_mended_before_the_walk_is_named(self, tmp_path,
                                                  monkeypatch):
        # the read flags line 7; the walk reads the file without it
        lines = PRICE_FIXTURE.splitlines()
        path = write_lines(tmp_path, lines + ["AAA,2020-01-04,x"])
        read = panel_module._read_records

        def read_then_mend(path):
            rec = read(path)
            write_lines(tmp_path, lines)
            return rec

        monkeypatch.setattr(panel_module, "_read_records", read_then_mend)
        with pytest.raises(DataError, match=f"^{re.escape(path)}: "):
            load_prices(path)


class TestIngestMemory:
    """Ingest holds a bounded amount of memory per record: per-line and
    per-byte work is done one window of bytes at a time into compact
    columns, so the traced peak (numpy buffers included) grows with the
    record count only through those columns and the sort. The file is read
    in (ticker, day) order, which needs no sort, and shuffled, which takes
    lexsort's."""

    # measured: ~20.8 in order and shuffled (the sort sets that peak) with
    # 64 KiB windows parsed from their bytes, ~21.3 for a process's first
    # load, which also imports scalecorr._fields; ~29 with 4096-line
    # windows of per-line and per-field strings, ~46 with 8192-line ones,
    # which outweigh the columns of this 200k-record file, and ~238 when
    # the whole file's text, line index and per-byte arrays were held at
    # once. The bound keeps the ~0.7 margin of the one below
    BYTES_PER_RECORD = 22
    # with 32 KiB windows, shuffled: the sort sets the peak, ~20.3,
    # lexsort's int64 order beside the value and int32 key columns, which
    # the closes' gather into the order's own buffer matches; ~24.2 with a
    # line-number column beside them, ~26.2 when the order was gathered
    # from into a fresh array, ~30 with an int64 key, and ~41 when the sort
    # also held the file-order code columns, a repeat mask and a date-code
    # gather. In order, the scan sets the peak, ~18.6: the int32 ticker
    # code and day number columns and the value column beside one window's
    # text, bytes and per-line arrays (~19.9 with 1024-line windows of
    # strings); the sort's check holds one slice, and nothing is gathered
    # (~20.3 when lexsort's order was built for this file too)
    SORT_BYTES_PER_RECORD = 21
    # preprocess of the loaded records holds the panel and its fill mask, 9
    # bytes per record of this gapless file, and O(dates) per column: ~9.3;
    # a T x N index array, or a datetime64 day per record, would add 8
    PREPROCESS_BYTES_PER_RECORD = 10
    N_TICKERS, N_DAYS = 250, 800  # 200k records

    @pytest.fixture(params=["in_order", "shuffled"])
    def path(self, tmp_path, request):
        days = [(_DAY0 + dt.timedelta(d)).isoformat()
                for d in range(self.N_DAYS)]
        rng = np.random.default_rng(7)
        closes = rng.uniform(1, 500, (self.N_TICKERS, self.N_DAYS))
        lines = [f"T{i:03d},{d},{c:.4f}\n" for i, row in enumerate(closes)
                 for d, c in zip(days, row)]
        if request.param == "shuffled":
            lines = [lines[i] for i in rng.permutation(len(lines))]
        path = tmp_path / "prices.csv"
        with open(path, "w") as fh:
            fh.writelines(lines)
        return path

    def _peak_per_record(self, path):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = load_prices(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        n = self.N_TICKERS * self.N_DAYS
        assert sum(len(s.prices) for s in out) == n
        return peak / n

    def test_load_prices_peak_per_record(self, path):
        assert self._peak_per_record(path) < self.BYTES_PER_RECORD

    def test_duplicate_on_the_last_line_peak_per_record(self, path):
        # the faulty line is named by a walk of the file that holds one line
        n = self.N_TICKERS * self.N_DAYS
        with open(path) as fh:
            first = fh.readline()
        with open(path, "a") as fh:
            fh.write(first)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(DataError,
                               match=f"^line {n + 1}: duplicate record"):
                load_prices(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / n < self.BYTES_PER_RECORD

    def test_sort_peak_per_record(self, path, monkeypatch):
        monkeypatch.setattr(panel_module, "WINDOW_BYTES", 1 << 15)
        assert self._peak_per_record(path) < self.SORT_BYTES_PER_RECORD

    def test_preprocess_peak_per_record(self, path):
        records = load_prices(path)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            panel = preprocess(records)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        n = self.N_TICKERS * self.N_DAYS
        assert panel.prices.size == n
        assert peak / n < self.PREPROCESS_BYTES_PER_RECORD


def _lines_in_order(n):
    """n price lines in (ticker, day) order, each key its own."""
    return [f"T{i // 40:04d},{(_DAY0 + dt.timedelta(i % 40)).isoformat()},"
            f"{1 + i % 7}" for i in range(n)]


class TestSortOrder:
    """:meth:`_Records.sort` keeps lexsort's order for a key out of order,
    and :meth:`_Records.gathered` writes the values in sorted order over
    it, in the order's own buffer. A key already in order keeps no order:
    it is the identity, and the value column is handed back as it is."""

    @staticmethod
    def read(tmp_path, lines):
        return panel_module._read_records(
            write_lines(tmp_path, lines or ["# no records"]))

    @classmethod
    def records(cls, tmp_path, n, first=()):
        # ``first``, then n records drawn with few tickers and days, so
        # that keys repeat and the line decides ties
        rng = np.random.default_rng(n)
        return cls.read(tmp_path, list(first) + [
            f"T{t},{(_DAY0 + dt.timedelta(int(d))).isoformat()},{v}"
            for t, d, v in zip(rng.integers(0, 9, n), rng.integers(0, 30, n),
                               rng.integers(1, 4, n))])

    @pytest.mark.parametrize("n", [0, 1, 2 * panel_module.CHUNK_LINES + 5])
    def test_order_is_lexsorts(self, tmp_path, n):
        # two records that descend, so that the key is out of order at any n
        rec = self.records(tmp_path, n,
                           ["T8,2020-01-30,1", "T0,2020-01-01,2"])
        key, value = rec.key.copy(), rec.value.copy()
        want = np.lexsort((key,))
        rec.sort()
        assert rec.order.dtype == np.intp
        assert np.array_equal(rec.order, want)
        assert np.array_equal(rec.key, key[want])
        order = rec.order
        gathered = rec.gathered()
        assert gathered.tobytes() == value[want].tobytes()
        assert gathered.base is order
        assert rec.order is None and rec.value is None

    def test_a_tracer_reading_locals_changes_nothing(self, tmp_path):
        path = write_lines(tmp_path, PRICE_FIXTURE.splitlines())
        want = _outcome(load_prices, path)
        with tracer_reading_locals():
            got = _outcome(load_prices, path)
        assert got == want

    def test_gather_allocates_one_slice(self, tmp_path):
        n = 50_001
        rec = self.records(tmp_path, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rec.sort()
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            gathered = rec.gathered()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert gathered.size == n
        assert held <= 8 * n + 1024
        assert peak - held <= 8 * panel_module.CHUNK_LINES + 1024

    @pytest.mark.parametrize("lines", [
        [], _lines_in_order(1),
        [line for line in _lines_in_order(50) for _ in range(2)],
        _lines_in_order(panel_module.CHUNK_LINES + 1),
        _lines_in_order(panel_module.CHUNK_LINES + 2),
    ], ids=["0", "1", "equal_neighbours", "chunk+1", "chunk+2"])
    def test_key_in_order_is_neither_sorted_nor_gathered(self, tmp_path,
                                                          lines):
        rec = self.read(tmp_path, lines)
        key, value = rec.key.copy(), rec.value
        assert np.array_equal(np.lexsort((key,)), np.arange(key.size))
        rec.sort()
        assert rec.order is None
        assert np.array_equal(rec.key, key)
        positions = np.arange(key.size)
        assert rec.file_order(positions) is positions
        assert rec.gathered() is value

    def test_check_allocates_one_slice(self, tmp_path):
        rec = self.read(tmp_path, _lines_in_order(50_001))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            rec.sort()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rec.order is None
        # one bool slice, beside the slices' views and the generator
        assert peak <= panel_module.CHUNK_LINES + 2048

    @pytest.mark.parametrize("at", [panel_module.CHUNK_LINES,
                                    panel_module.CHUNK_LINES + 1])
    def test_descent_at_a_slice_edge_is_sorted(self, tmp_path, at):
        # the first slice ends at position CHUNK_LINES, the next starts
        # after it
        lines = _lines_in_order(2 * panel_module.CHUNK_LINES)
        lines[at - 1], lines[at] = lines[at], lines[at - 1]
        rec = self.read(tmp_path, lines)
        key = rec.key.copy()
        assert np.flatnonzero(key[1:] < key[:-1]).tolist() == [at - 1]
        rec.sort()
        assert np.array_equal(rec.order, np.lexsort((key,)))
        assert np.array_equal(rec.key, np.sort(key))


class TestInt64Key:
    """Where ``len(tickers) * len(days)`` outgrows the int32 code columns,
    the (ticker, day) key is int64, with the same series, bounds and first
    faulty line as the reference parsers give."""

    N = 50_000  # tickers, one record each on its own day: 2.5e9 keys

    @pytest.fixture
    def lines(self):
        rng = np.random.default_rng(11)
        return [f"T{i:05d},{(_DAY0 - dt.timedelta(int(d))).isoformat()},"
                f"{1 + i % 97}" for i, d in zip(rng.permutation(self.N),
                                                 rng.permutation(self.N))]

    @pytest.mark.parametrize("fault", [None, "repeat", "negative"])
    def test_matches_reference(self, tmp_path, lines, fault):
        if fault == "repeat":  # a duplicate price, a valid capitalization
            lines.append(lines[123])
        elif fault == "negative":
            lines[40_000] = lines[40_000].rsplit(",", 1)[0] + ",-1"
        path = write_lines(tmp_path, lines)
        rec = panel_module._read_records(path)
        rec.sort()
        assert rec.key.dtype == np.int64
        counts = Counter(line.split(",", 1)[0] for line in lines)
        assert rec.bounds() == np.cumsum(
            [0] + [counts[t] for t in sorted(counts)]).tolist()
        for loader, reference in [
                (load_prices, _reference_load_prices),
                (load_capitalizations, _reference_load_capitalizations)]:
            assert _outcome(loader, path) == _outcome(reference, path)

    def test_key_in_order_takes_no_sort(self, tmp_path, lines):
        lines.sort()  # by ticker, then ISO date: (ticker, day) order
        path = write_lines(tmp_path, lines)
        rec = panel_module._read_records(path)
        rec.sort()
        assert rec.key.dtype == np.int64 and rec.order is None
        for loader, reference in [
                (load_prices, _reference_load_prices),
                (load_capitalizations, _reference_load_capitalizations)]:
            assert _outcome(loader, path) == _outcome(reference, path)


class TestNonFiniteAndZero:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_close_rejected(self, tmp_path, token):
        with pytest.raises(DataError, match="line 2: non-finite close"):
            load_prices(write_lines(
                tmp_path, ["AAA,2020-01-01,1", f"AAA,2020-01-02,{token}"]))

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_cap_rejected(self, tmp_path, token):
        with pytest.raises(DataError,
                           match="line 1: non-finite capitalization"):
            load_capitalizations(write_lines(
                tmp_path, [f"AAA,2020-01-01,{token}"]))

    def test_zero_median_cap_names_ticker(self):
        with pytest.raises(DataError, match="ZZZ: median capitalization 0"):
            median_capitalization({"A": [1.0], "ZZZ": [0.0, 0.0, 5.0]})


_K = st.sampled_from([0.3, 0.5, 0.9, 1.0])


@st.composite
def price_files(draw):
    """Price lines of two to six tickers with gaps and late starts. One of
    them has one or two records, fewer than 0.3 times the ten or more of
    the longest, so every k of ``_K`` drops it. The lines are in (ticker,
    day) order, which the load takes without a sort, or shuffled."""
    longest = draw(st.sets(st.integers(0, 60), min_size=10, max_size=40))
    day_sets = [longest, draw(st.sets(st.sampled_from(sorted(longest)),
                                      min_size=1, max_size=2))]
    day_sets += draw(st.lists(st.sets(st.integers(0, 60), min_size=1,
                                      max_size=40), max_size=4))
    lines = [f"S{t},{(_DAY0 + dt.timedelta(d)).isoformat()},"
             f"{draw(st.floats(0.5, 500)):.4f}"
             for t, days in enumerate(draw(st.permutations(day_sets)))
             for d in sorted(days)]
    return draw(st.permutations(lines)) if draw(st.booleans()) else lines


class TestPreprocessMatchesReference:
    """preprocess of loaded records, read in one process or two, gives the
    dict-lookup fill's panel bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(price_files(), _K)
    def test_vectorised_fill_equals_dict_fill(self, lines, k):
        for split in (1 << 62, 0):
            with mock.patch.object(textio, "SPLIT_READ_BYTES", split):
                records = price_records(lines)
            panel = preprocess(records, k)
            dates, tickers, prices, mask = _reference_preprocess(
                list(records), k)
            assert len(panel.tickers) < len(records)
            assert panel.dates == [d.item() for d in dates]
            assert panel.tickers == tickers
            assert panel.prices.tobytes() == prices.tobytes()
            assert panel.fill_mask.tobytes() == mask.tobytes()


class TestPreprocess:
    def test_peak_above_input(self):
        # the reference axis comes from a calendar of the survivors' days,
        # not from a sort of all their dates: the traced peak is the panel
        # and its fill mask plus per-column work (~1.04x from loaded
        # records; 2.4x when every date was concatenated and sorted)
        rng = np.random.default_rng(5)
        days = np.datetime64("2020-01-01") + np.arange(1500)
        records = price_records([
            f"T{i:03d},{day},{close:.4f}" for i in range(200)
            for kept in [days[i % 30:][rng.random(1500 - i % 30) > 0.02]]
            for day, close in zip(kept, rng.uniform(1, 9, kept.size))])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            panel = preprocess(records)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert panel.fill_mask.any()
        assert peak < 1.3 * (panel.prices.nbytes + panel.fill_mask.nbytes)

    def test_single_stock_gap_fill(self):
        # hand trace: [100, missing, 110] on reference dates d1..d3
        a = price_lines("AAA", [(1, 100), (3, 110)])
        b = price_lines("BBB", [(1, 1), (2, 2), (3, 3)])
        panel = preprocess(price_records(a + b), k=0.5)
        assert [d.day for d in panel.dates] == [1, 2, 3]
        assert list(panel.prices[:, 0]) == [100, 100, 110]
        assert list(panel.fill_mask[:, 0]) == [False, True, False]

    def test_length_filter(self):
        # 20 and 17 records: 17 < 0.9 * 20
        long = price_lines("LONG", [(d, 1.0 + d) for d in range(1, 21)])
        short = price_lines("SHORT", [(d, 2.0 + d) for d in range(1, 18)])
        panel = preprocess(price_records(long + short), k=0.90)
        assert panel.tickers == ["LONG"]

    def test_no_gaps_is_noop(self):
        a = [(d, 10.0 + d) for d in range(1, 6)]
        b = [(d, 20.0 + d) for d in range(1, 6)]
        panel = preprocess(price_records(price_lines("AAA", a)
                                         + price_lines("BBB", b)))
        assert not panel.fill_mask.any()
        assert panel.prices[:, 0].tolist() == [p for _, p in a]

    def test_common_start_is_latest_first_date(self):
        a = price_lines("AAA", [(d, 1.0) for d in range(1, 10)])
        b = price_lines("BBB", [(d, 2.0) for d in range(3, 12)])
        panel = preprocess(price_records(a + b), k=0.5)
        assert panel.dates[0] == D(2020, 1, 3)
        # AAA forward-filled past its last date
        assert panel.fill_mask[-1, 0]
        assert panel.prices[-1, 0] == 1.0

    @staticmethod
    def without_records(tickers):
        # built by hand, as a library caller can: load_prices never
        # returns them
        return scalecorr.PriceRecords(
            tickers=tickers, days=np.empty(0, "datetime64[D]"),
            day=np.empty(0, np.uint8), close=np.empty(0),
            bounds=[0] * (len(tickers) + 1))

    def test_all_removed_impossible_but_empty_input_errors(self):
        with pytest.raises(DataError, match="^no input series$"):
            preprocess(self.without_records([]))

    def test_every_series_empty_is_data_error(self):
        with pytest.raises(DataError, match="every input series is empty"):
            preprocess(self.without_records(["A"]))

    def test_idempotent(self):
        a = price_lines("AAA", [(1, 100), (3, 110), (4, 111), (6, 115)])
        b = price_lines("BBB", [(2, 50), (3, 51), (4, 52), (5, 53), (6, 54)])
        once = preprocess(price_records(a + b), k=0.5)
        twice = preprocess(price_records([
            f"{t},{day},{close!r}" for i, t in enumerate(once.tickers)
            for day, close in zip(once.dates, once.prices[:, i].tolist())]),
            k=0.5)
        assert twice.dates == once.dates
        assert np.array_equal(twice.prices, once.prices)
        assert not twice.fill_mask.any()

    def test_column_independence(self):
        # with identical date axes, removing one ticker leaves the other
        # column bit-identical
        a = price_lines("AAA", [(1, 100), (2, 101), (4, 103), (6, 105)])
        b = price_lines("BBB", [(1, 50), (3, 51), (5, 52), (6, 53)])
        c = price_lines("CCC", [(d, 7.0) for d in range(1, 7)])
        with_b = preprocess(price_records(a + b + c), k=0.5)
        without_b = preprocess(price_records(a + c), k=0.5)
        assert with_b.dates == without_b.dates  # c spans all dates here
        ia = with_b.tickers.index("AAA")
        ja = without_b.tickers.index("AAA")
        assert np.array_equal(with_b.prices[:, ia], without_b.prices[:, ja])

    def test_filled_cell_equals_nearest_preceding_unfilled(self):
        a = price_lines("AAA", [(1, 100), (2, 101), (5, 104), (8, 107)])
        b = price_lines("BBB", [(d, 1.0 * d) for d in range(1, 9)])
        panel = preprocess(price_records(a + b), k=0.4)
        col = panel.prices[:, panel.tickers.index("AAA")]
        mask = panel.fill_mask[:, panel.tickers.index("AAA")]
        for t in range(len(col)):
            if mask[t]:
                prev = max(s for s in range(t) if not mask[s])
                assert col[t] == col[prev]

    def test_roundtrip_serialization(self, tmp_path):
        a = price_lines("AAA", [(1, 100.5), (2, 101.25), (4, 103.125)])
        b = price_lines("BBB", [(1, 50), (2, 51), (3, 52), (4, 53)])
        panel = preprocess(price_records(a + b), k=0.5)
        p, m = tmp_path / "p.tsv", tmp_path / "m.tsv"
        panel.write(p, m)
        back = PricePanel.read(p)
        assert back.dates == panel.dates
        assert back.tickers == panel.tickers
        assert np.array_equal(back.prices, panel.prices)
        assert not back.fill_mask.any()
        _, _, mask = textio.read_matrix(m)
        assert np.array_equal(mask.astype(bool), panel.fill_mask)


class TestComputeReturns:
    def test_constant_prices_give_zero_returns(self):
        panel = preprocess(price_records(
            price_lines("AAA", [(d, 7.0) for d in range(1, 6)])
            + price_lines("BBB", [(d, 2.0 * d) for d in range(1, 6)])))
        rp = compute_returns(panel)
        assert np.all(rp.returns[:, 0] == 0.0)

    def test_hand_arithmetic(self):
        panel = preprocess(price_records(
            price_lines("AAA", [(1, 100), (2, 100), (3, 110)])))
        rp = compute_returns(panel)
        half = math.log(1.1) / 2
        np.testing.assert_allclose(rp.returns[:, 0], [-half, half], atol=1e-15)

    def test_centering_idempotent(self, rng):
        panel = preprocess(price_records(price_lines(
            "AAA", zip(range(1, 12), rng.uniform(50, 150, 11)))))
        rp = compute_returns(panel)
        again = rp.returns - rp.returns.mean(axis=0)
        np.testing.assert_allclose(again, rp.returns, atol=1e-18)

    def test_needs_three_dates(self):
        panel = preprocess(price_records(
            price_lines("AAA", [(1, 100), (2, 101)])))
        with pytest.raises(EstimationError):
            compute_returns(panel)

    @staticmethod
    def panel(T, N):
        prices = np.exp(np.random.default_rng(T).normal(0, 0.01, (T, N))
                        .cumsum(axis=0))
        return PricePanel(dates=[_DAY0 + dt.timedelta(t) for t in range(T)],
                          tickers=[f"T{i}" for i in range(N)],
                          prices=prices, fill_mask=None)

    def test_peak_above_input_is_the_returns(self):
        # row blocks of log-prices, not two whole log and diff arrays (~2x)
        panel = self.panel(2000, 150)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            returns = compute_returns(panel).returns
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * returns.nbytes

    @pytest.mark.parametrize("T", [3, 500])
    def test_same_bits_as_diff_of_log(self, T):
        N = 40
        rows = panel_module.RETURN_BLOCK_BYTES // (8 * N)
        assert (T - 1) % rows  # a last block shorter than the others
        panel = self.panel(T, N)
        want = np.diff(np.log(panel.prices), axis=0)
        want -= want.mean(axis=0)
        assert compute_returns(panel).returns.tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=3,
                    max_size=40))
    def test_columns_sum_to_zero(self, prices):
        panel = preprocess(price_records(
            price_lines("AAA", enumerate(prices, start=1))))
        rp = compute_returns(panel)
        assert abs(rp.returns[:, 0].sum()) <= 1e-9 * rp.returns.shape[0]


class TestMedianCapitalization:
    def test_odd_length(self):
        assert median_capitalization({"A": [1, 5, 100]}) == {"A": 5}

    def test_even_length_mean_of_middle_two(self):
        assert median_capitalization({"A": np.array([2.0, 4.0])}) == {"A": 3}

    def test_empty_is_absent(self):
        medians = median_capitalization({"A": [], "B": np.empty(0)})
        assert medians == {}
        assert np.isnan(log_capitalizations(medians, ["A", "B"])).all()

    def test_negative_value_rejected(self):
        # the loader rejects a negative value at its line; a negative
        # median has no logarithm either
        with pytest.raises(DataError, match="A: median capitalization -0.5"):
            median_capitalization({"A": [1, -2]})

    def test_log_of_median(self):
        medians = median_capitalization({"A": [math.e]})
        assert abs(log_capitalizations(medians, ["A"])[0] - 1.0) < 1e-12

    def test_log_values_nan_where_absent(self):
        medians = median_capitalization({"A": [math.e], "B": []})
        logs = log_capitalizations(medians, ["B", "A", "C"])
        assert logs.shape == (3,)
        assert np.isnan(logs[0]) and np.isnan(logs[2])
        assert logs[1] == math.log(math.e)
        assert log_capitalizations(medians, []).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.floats(1e-3, 1e12), max_size=9),
                    max_size=5))
    def test_medians_are_np_medians_bits(self, drawn):
        records = {f"T{i}": np.array(v) for i, v in enumerate(drawn)}
        medians = median_capitalization(records)
        assert list(medians) == [t for t, v in records.items() if v.size]
        for t, median in medians.items():
            assert type(median) is float
            assert _bits([median]) == _bits([float(np.median(records[t]))])

    def test_first_zero_median_in_first_record_order_is_named(
            self, tmp_path):
        # ZZZ's first record comes first, so it is named, not AAA
        caps = load_capitalizations(write_lines(tmp_path, [
            "ZZZ,2020-01-02,0", "AAA,2020-01-01,0", "ZZZ,2020-01-01,0",
            "AAA,2020-01-02,3"]))
        assert list(caps) == ["ZZZ", "AAA"]
        with pytest.raises(DataError, match="^ZZZ: median capitalization 0"):
            median_capitalization(caps)

    def test_loaded_values_are_slices_of_one_array(self, tmp_path):
        caps = load_capitalizations(write_lines(tmp_path, [
            "BBB,2020-01-02,5", "AAA,2020-01-01,2", "BBB,2020-01-01,7",
            "BBB,2020-01-01,6"]))
        assert [(t, v.tolist()) for t, v in caps.items()] == [
            ("BBB", [7.0, 6.0, 5.0]), ("AAA", [2.0])]
        base = caps["BBB"].base
        assert base is not None
        assert all(v.dtype == np.float64 and v.base is base
                   for v in caps.values())
