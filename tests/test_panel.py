import datetime as dt
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalecorr.panel as panel_module
from scalecorr import textio
from scalecorr.errors import DataError, EstimationError
from scalecorr.panel import (PricePanel, RawPriceSeries, compute_returns,
                             load_capitalizations, load_prices,
                             median_capitalization, preprocess)

from conftest import PRICE_FIXTURE, running_threads, write_lines

D = dt.date


def series(ticker, day_price_pairs):
    """Day d is 2020-01-d for d <= 31 and keeps counting into February."""
    return RawPriceSeries(
        ticker=ticker,
        dates=tuple(D(2019, 12, 31) + dt.timedelta(d)
                    for d, _ in day_price_pairs),
        prices=np.array([p for _, p in day_price_pairs], dtype=float),
    )


class TestLoadPrices:
    def test_sorts_shuffled_dates(self, tmp_path):
        out = load_prices(write_lines(tmp_path, PRICE_FIXTURE.splitlines()))
        aaa = next(s for s in out if s.ticker == "AAA")
        assert list(aaa.dates) == [D(2020, 1, 1), D(2020, 1, 2), D(2020, 1, 3)]
        assert list(aaa.prices) == [100, 101, 102]

    def test_series_dates_are_day_arrays(self, tmp_path):
        # as loaded, and as built from a tuple of dates
        path = write_lines(tmp_path, PRICE_FIXTURE.splitlines())
        for s in load_prices(path) + [
                series("AAA", [(1, 1.0), (3, 2.0)])]:
            assert s.dates.dtype == np.dtype("datetime64[D]")
        assert s.dates.tolist() == [D(2020, 1, 1), D(2020, 1, 3)]

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
# kept verbatim except for the non-finite checks (marked), which the
# columnar reader adds at the same point of a line's checks.
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
        try:
            value = float(value_text)
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad {what} {value_text!r}") from exc
        yield lineno, ticker, _reference_parse_date(date_text), value


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
    series = []
    for ticker in sorted(by_ticker):
        obs = sorted(by_ticker[ticker])
        series.append(RawPriceSeries(
            ticker=ticker,
            dates=tuple(d for d, _ in obs),
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
    return {t: [v for _, v in sorted(obs)] for t, obs in by_ticker.items()}


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
    if isinstance(out, dict):
        return "ok", [(t, _bits(v)) for t, v in out.items()]
    return "ok", [(s.ticker, list(s.dates), _bits(s.prices.tolist()),
                   s.prices.dtype) for s in out]


_DAY0 = D(2020, 1, 1)
_TICKERS = st.sampled_from(["AAA", "BB", "C", "D_1", "\u00c41"])
_DATES = st.one_of(
    st.integers(0, 40).map(lambda k: (_DAY0 + dt.timedelta(k)).isoformat()),
    st.integers(0, 40).map(lambda k: (_DAY0 + dt.timedelta(k))
                           .strftime("%Y%m%d")),
    st.sampled_from(["2020-02-30", "2020-1-1", "soon", ""]))
_VALUES = st.one_of(
    st.floats(0.01, 1e4).map(repr), st.integers(1, 999).map(str),
    st.sampled_from(["0", "-0", "-2.5", "nan", "-inf", "inf", "1e400",
                     "1_000", "x1", "", "\u0661\u0662"]))
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
    ])
    def test_hand_cases(self, lines):
        self._check(lines, "\n")

    def test_chunked_file_matches(self, tmp_path, monkeypatch):
        # more plain lines than one bulk step, split around irregular ones
        import scalecorr.panel as panel
        monkeypatch.setattr(panel, "CHUNK_LINES", 7)
        lines = [f"T{i % 5},{(_DAY0 + dt.timedelta(i // 5)).isoformat()},"
                 f"{1 + i}" for i in range(100)]
        lines[40] = "# note"
        lines[41] = f"  {lines[41]}  "
        self._check(lines, "\n")
        lines[77] = "T2,2020-01-01,5"  # duplicate past several chunks
        self._check(lines, "\n")

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @settings(max_examples=100, deadline=None)
    @given(drawn=record_files())
    def test_chunk_edges_change_nothing(self, chunk, drawn):
        # windows of 1, 2 and 7 lines put their edges inside runs of plain
        # lines, next to irregular lines and on the last line
        with mock.patch.object(panel_module, "CHUNK_LINES", chunk):
            self._check(*drawn)


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


class TestIngestMemory:
    """Ingest holds a bounded amount of memory per record: per-line and
    per-byte work is done one window of lines at a time into compact
    columns, so the traced peak (numpy buffers included) grows with the
    record count only through those columns and the sort."""

    # measured: ~46 with 8192-line windows, which outweigh the columns of
    # this 200k-record file; ~238 when the whole file's text, line index and
    # per-byte arrays were held at once
    BYTES_PER_RECORD = 64
    # with 1024-line windows the columns and the sort set the peak: ~30
    # (value, line, int64 key and sort order); ~41 when the sort also held
    # the file-order code columns, a repeat mask and a date-code gather
    SORT_BYTES_PER_RECORD = 34
    N_TICKERS, N_DAYS = 250, 800  # 200k records

    @pytest.fixture
    def path(self, tmp_path):
        days = [(_DAY0 + dt.timedelta(d)).isoformat()
                for d in range(self.N_DAYS)]
        closes = np.random.default_rng(7).uniform(1, 500, (self.N_TICKERS,
                                                           self.N_DAYS))
        path = tmp_path / "prices.csv"
        with open(path, "w") as fh:
            for i, row in enumerate(closes):
                fh.writelines(f"T{i:03d},{d},{c:.4f}\n"
                              for d, c in zip(days, row))
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

    def test_sort_peak_per_record(self, path, monkeypatch):
        monkeypatch.setattr(panel_module, "CHUNK_LINES", 1024)
        assert self._peak_per_record(path) < self.SORT_BYTES_PER_RECORD


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

    def test_non_finite_series_rejected(self):
        with pytest.raises(DataError, match="non-finite price"):
            series("AAA", [(1, 1.0), (2, float("nan"))])

    def test_zero_median_cap_names_ticker(self):
        with pytest.raises(DataError, match="ZZZ: median capitalization 0"):
            median_capitalization({"A": [1.0], "ZZZ": [0.0, 0.0, 5.0]})


class TestPreprocessMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 60), min_size=1, max_size=40),
                    min_size=1, max_size=6),
           st.sampled_from([0.3, 0.5, 0.9, 1.0]), st.integers(0, 2**32 - 1))
    def test_vectorised_fill_equals_dict_fill(self, day_sets, k, seed):
        rng = np.random.default_rng(seed)
        raw = [RawPriceSeries(f"S{i}", tuple(_DAY0 + dt.timedelta(d)
                                             for d in sorted(days)),
                              rng.uniform(1, 100, len(days)))
               for i, days in enumerate(day_sets)]
        panel = preprocess(raw, k)
        dates, tickers, prices, mask = _reference_preprocess(raw, k)
        assert panel.dates == dates
        assert panel.tickers == tickers
        assert np.array_equal(panel.prices, prices)
        assert np.array_equal(panel.fill_mask, mask)

    def test_unsorted_dates_rejected(self):
        with pytest.raises(DataError, match="strictly increasing"):
            series("AAA", [(2, 1.0), (2, 2.0)])
        with pytest.raises(DataError, match="strictly increasing"):
            series("AAA", [(3, 1.0), (1, 2.0)])


class TestPreprocess:
    def test_peak_above_input(self):
        # the reference axis comes from a calendar of the survivors' days,
        # not from a sort of all their dates: the traced peak is the panel
        # and its fill mask plus per-column work (~1.03x; 2.4x when every
        # date was concatenated and sorted)
        rng = np.random.default_rng(5)
        days = np.datetime64("2020-01-01") + np.arange(1500)
        raw = [RawPriceSeries(f"T{i:03d}", kept, rng.uniform(1, 9, kept.size))
               for i in range(200)
               for kept in [days[i % 30:][rng.random(1500 - i % 30) > 0.02]]]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            panel = preprocess(raw)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert panel.fill_mask.any()
        assert peak < 1.3 * (panel.prices.nbytes + panel.fill_mask.nbytes)

    def test_single_stock_gap_fill(self):
        # hand trace: [100, missing, 110] on reference dates d1..d3
        a = series("AAA", [(1, 100), (3, 110)])
        b = series("BBB", [(1, 1), (2, 2), (3, 3)])
        panel = preprocess([a, b], k=0.5)
        assert [d.day for d in panel.dates] == [1, 2, 3]
        assert list(panel.prices[:, 0]) == [100, 100, 110]
        assert list(panel.fill_mask[:, 0]) == [False, True, False]

    def test_length_filter(self):
        long = series("LONG", [(d, 1.0 + d) for d in range(1, 21)])  # 20 obs
        short = series("SHORT", [(d, 2.0 + d) for d in range(1, 18)])  # 17 obs
        panel = preprocess([long, short], k=0.90)
        assert panel.tickers == ["LONG"]

    def test_no_gaps_is_noop(self):
        a = series("AAA", [(d, 10.0 + d) for d in range(1, 6)])
        b = series("BBB", [(d, 20.0 + d) for d in range(1, 6)])
        panel = preprocess([a, b])
        assert not panel.fill_mask.any()
        assert np.array_equal(panel.prices[:, 0], a.prices)

    def test_common_start_is_latest_first_date(self):
        a = series("AAA", [(d, 1.0) for d in range(1, 10)])
        b = series("BBB", [(d, 2.0) for d in range(3, 12)])
        panel = preprocess([a, b], k=0.5)
        assert panel.dates[0] == D(2020, 1, 3)
        # AAA forward-filled past its last date
        assert panel.fill_mask[-1, 0]
        assert panel.prices[-1, 0] == 1.0

    def test_all_removed_impossible_but_empty_input_errors(self):
        with pytest.raises(DataError):
            preprocess([])

    def test_every_series_empty_is_data_error(self):
        with pytest.raises(DataError, match="every input series is empty"):
            preprocess([RawPriceSeries("A", (), np.array([]))])

    def test_idempotent(self):
        a = series("AAA", [(1, 100), (3, 110), (4, 111), (6, 115)])
        b = series("BBB", [(2, 50), (3, 51), (4, 52), (5, 53), (6, 54)])
        once = preprocess([a, b], k=0.5)
        twice = preprocess([RawPriceSeries(t, tuple(once.dates),
                                           once.prices[:, i])
                            for i, t in enumerate(once.tickers)], k=0.5)
        assert twice.dates == once.dates
        assert np.array_equal(twice.prices, once.prices)
        assert not twice.fill_mask.any()

    def test_column_independence(self):
        # with identical date axes, removing one ticker leaves the other
        # column bit-identical
        a = series("AAA", [(1, 100), (2, 101), (4, 103), (6, 105)])
        b = series("BBB", [(1, 50), (3, 51), (5, 52), (6, 53)])
        c = series("CCC", [(d, 7.0) for d in range(1, 7)])
        with_b = preprocess([a, b, c], k=0.5)
        without_b = preprocess([a, c], k=0.5)
        assert with_b.dates == without_b.dates  # c spans all dates here
        ia = with_b.tickers.index("AAA")
        ja = without_b.tickers.index("AAA")
        assert np.array_equal(with_b.prices[:, ia], without_b.prices[:, ja])

    def test_filled_cell_equals_nearest_preceding_unfilled(self):
        a = series("AAA", [(1, 100), (2, 101), (5, 104), (8, 107)])
        b = series("BBB", [(d, 1.0 * d) for d in range(1, 9)])
        panel = preprocess([a, b], k=0.4)
        col = panel.prices[:, panel.tickers.index("AAA")]
        mask = panel.fill_mask[:, panel.tickers.index("AAA")]
        for t in range(len(col)):
            if mask[t]:
                prev = max(s for s in range(t) if not mask[s])
                assert col[t] == col[prev]

    def test_roundtrip_serialization(self, tmp_path):
        a = series("AAA", [(1, 100.5), (2, 101.25), (4, 103.125)])
        b = series("BBB", [(1, 50), (2, 51), (3, 52), (4, 53)])
        panel = preprocess([a, b], k=0.5)
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
        panel = preprocess([series("AAA", [(d, 7.0) for d in range(1, 6)]),
                            series("BBB", [(d, 2.0 * d) for d in range(1, 6)])])
        rp = compute_returns(panel)
        assert np.all(rp.returns[:, 0] == 0.0)

    def test_hand_arithmetic(self):
        panel = preprocess([series("AAA", [(1, 100), (2, 100), (3, 110)])])
        rp = compute_returns(panel)
        half = math.log(1.1) / 2
        np.testing.assert_allclose(rp.returns[:, 0], [-half, half], atol=1e-15)

    def test_centering_idempotent(self, rng):
        panel = preprocess([series("AAA",
                                   [(d, float(p)) for d, p in
                                    zip(range(1, 12),
                                        rng.uniform(50, 150, 11))])])
        rp = compute_returns(panel)
        again = rp.returns - rp.returns.mean(axis=0)
        np.testing.assert_allclose(again, rp.returns, atol=1e-18)

    def test_needs_three_dates(self):
        panel = preprocess([series("AAA", [(1, 100), (2, 101)])])
        with pytest.raises(EstimationError):
            compute_returns(panel)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=3,
                    max_size=40))
    def test_columns_sum_to_zero(self, prices):
        panel = preprocess([series("AAA", list(enumerate(prices, start=1)))])
        rp = compute_returns(panel)
        assert abs(rp.returns[:, 0].sum()) <= 1e-9 * rp.returns.shape[0]


class TestMedianCapitalization:
    def test_odd_length(self):
        assert median_capitalization({"A": [1, 5, 100]}).values["A"] == 5

    def test_even_length_mean_of_middle_two(self):
        assert median_capitalization({"A": [2, 4]}).values["A"] == 3

    def test_empty_is_absent(self):
        table = median_capitalization({"A": []})
        assert "A" not in table.values
        assert np.isnan(table.log_values(["A"])).all()

    def test_negative_value_rejected(self):
        with pytest.raises(DataError):
            median_capitalization({"A": [1, -2]})

    def test_log_of_median(self):
        table = median_capitalization({"A": [math.e]})
        assert abs(table.log_values(["A"])[0] - 1.0) < 1e-12

    def test_log_values_nan_where_absent(self):
        table = median_capitalization({"A": [math.e], "B": []})
        logs = table.log_values(["B", "A", "C"])
        assert logs.shape == (3,)
        assert np.isnan(logs[0]) and np.isnan(logs[2])
        assert logs[1] == math.log(math.e)
        assert table.log_values([]).shape == (0,)
