"""The benchmark's tracer (``perfbench/traced_cli.py``) wraps the functions
``pipeline.run`` reaches by name; a rename or a moved call would leave a
layer untimed. These run the tracer on a tiny ``run --returns`` input and on
a tiny shuffled ``run --prices --capitalization`` input, and check that it
found every name and timed the layers each run reaches."""

import datetime as dt
import json
import os
import subprocess
import sys

import numpy as np

from conftest import make_return_panel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced(tmp_path, *argv):
    """The tracer's spans document of a ``scalecorr`` run of ``argv``."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
         str(spans), *argv, "--output-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_traced_run_finds_every_layer(tmp_path):
    # one common factor, so that the filtered rho_bar is not constant
    g = np.random.default_rng(0)
    X = np.linspace(0.2, 1.5, 6) * g.standard_normal((200, 1)) \
        + g.standard_normal((200, 6))
    returns = str(tmp_path / "returns.tsv")
    make_return_panel(X - X.mean(axis=0)).write(returns)
    doc = _traced(tmp_path, "run", "--returns", returns)
    assert doc["missing"] == []
    names = {span["name"] for span in doc["spans"]}
    assert {"estimate_scaling_panel", "correlation_matrix",
            "build_report"} <= names


def test_traced_prices_run_finds_the_ingest_layers(tmp_path):
    # 6 tickers over 250 days with one common factor, ~5% of records
    # missing, a late starter and one capitalization record a month
    g = np.random.default_rng(1)
    X = np.linspace(0.2, 1.5, 6) * g.standard_normal((250, 1)) \
        + g.standard_normal((250, 6))
    closes = 100 * np.exp(np.cumsum(0.01 * X, axis=0))
    observed = g.random(closes.shape) > 0.05
    observed[:3, 5] = False
    days = [dt.date(2020, 1, 1) + dt.timedelta(d) for d in range(250)]
    prices = [f"T{i},{days[d]},{closes[d, i]:.6f}\n"
              for i in range(6) for d in np.flatnonzero(observed[:, i])]
    caps = [f"T{i},{day},{1e6 * (i + 1) * closes[d, i]:.2f}\n"
            for i in range(6) for d, day in enumerate(days) if day.day == 1]
    (tmp_path / "prices.csv").write_text("".join(prices))
    (tmp_path / "caps.csv").write_text("".join(caps))
    doc = _traced(tmp_path, "run", "--mode", "shuffled",
                  "--prices", str(tmp_path / "prices.csv"),
                  "--capitalization", str(tmp_path / "caps.csv"))
    assert doc["missing"] == []
    spans = {span["name"]: span for span in doc["spans"]}
    assert {"load_prices", "preprocess", "compute_returns",
            "load_capitalizations", "median_capitalization",
            "synchronous_shuffle", "estimate_scaling_panel",
            "correlation_matrix", "build_report"} <= set(spans)
    assert spans["load_prices"]["counts"]["records"] == len(prices)
    # len(args[0]) - len(result.tickers): PriceRecords is a sequence of its
    # tickers, and every one of these keeps over 0.9 of the longest's days
    assert spans["preprocess"]["counts"]["dropped"] == 0
