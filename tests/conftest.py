import os
import tempfile
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from scalecorr.association import build_report
from scalecorr.config import PipelineConfig
from scalecorr.crosscorr import correlation_matrix
from scalecorr.panel import ReturnPanel, load_prices
from scalecorr.scaling import estimate_scaling_panel
from scalecorr.synth import generate_coupled_market

# CI draws the same examples on every run, so that a failure there is
# reproduced by running the test again, and prints the blob that replays
# it; local runs stay randomized
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@contextmanager
def running_threads(n):
    """Keeps ``n`` more threads running, each waiting, inside the block."""
    done = threading.Event()
    threads = [threading.Thread(target=done.wait) for _ in range(n)]
    for thread in threads:
        thread.start()
    try:
        yield
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


def make_return_panel(matrix, tickers=None):
    """Wrap a copy of a [time x stock] matrix as a ReturnPanel with synthetic
    dates (correlation_matrix overwrites the panel's returns)."""
    import datetime as dt

    matrix = np.array(matrix, dtype=float)
    T, N = matrix.shape
    tickers = tickers or [f"S{i:04d}" for i in range(N)]
    dates = [dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(T)]
    return ReturnPanel(dates=dates, tickers=tickers, returns=matrix)


def write_lines(directory, lines, newline="\n"):
    """Write ``lines`` to ``records.csv`` in ``directory``, each ended by
    ``newline``, and return its path (the record loaders read a path)."""
    path = os.path.join(directory, "records.csv")
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    return path


def price_records(lines):
    """:func:`load_prices` of ``lines`` written to a file: the PriceRecords
    that ``preprocess`` cleans (they keep nothing of the file)."""
    with tempfile.TemporaryDirectory() as directory:
        return load_prices(write_lines(directory, lines))


def stylized_fact_experiment(n_stocks=100, n_days=4096, seed=0, coupled=True,
                             alpha=PipelineConfig.alpha,
                             significance_mode=PipelineConfig.significance_mode):
    """End-to-end control: generate a market, run the pipeline, report.

    The coupled construction guarantees a positive Kendall tau between the
    curvature proxy and rho_bar; the uncoupled one is the independence null.
    """
    panel, betas = generate_coupled_market(n_stocks, n_days, seed, coupled)
    result = estimate_scaling_panel(panel.returns, tickers=panel.tickers)
    corr = correlation_matrix(panel, alpha=alpha,
                              significance_mode=significance_mode)
    return build_report(result.A_hat, result.B_hat, corr.rho_bar)


PRICE_FIXTURE = """\
AAA,2020-01-03,102
AAA,2020-01-01,100
AAA,2020-01-02,101
BBB,2020-01-01,200
BBB,2020-01-02,201
BBB,2020-01-03,202
"""
