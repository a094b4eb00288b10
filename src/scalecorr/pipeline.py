"""Pipeline orchestration: full runs and report comparison.

A run reads price (or return) data, optionally replaces the panel by one of
the two surrogates, estimates per-stock scaling proxies and the
significance-filtered average cross-correlations, and writes the output
bundle: proxy table, correlation matrices, rho_bar vector, association
report, scatter data, and a manifest that pins config, seed, and input
digests. Outputs are byte-identical across re-runs with the same inputs.
"""

import hashlib
import json
import math
import os

import numpy as np

from . import textio
from .association import build_report
from .config import PipelineConfig
from .crosscorr import correlation_matrix
from .errors import ConfigError, DataError, PipelineError
from .panel import (ReturnPanel, compute_returns, load_capitalizations,
                    load_prices, median_capitalization, preprocess)
from .scaling import estimate_scaling_panel
from .surrogates import marginal_gaussianize, synchronous_shuffle

__version__ = "0.1.0"

MODES = ("raw", "shuffled", "gaussianized")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError as exc:
        exc.args = (f"[{name}] {exc}",)
        raise


def write_proxies_table(path, tickers, results):
    q_cols = [f"zeta_q{q:g}" for q in results[0].q_grid]
    header = ["ticker", "A_hat", "B_hat", "fit_rss"] + q_cols
    rows = []
    for t, r in zip(tickers, results):
        rows.append([t, textio.fmt(r.A_hat), textio.fmt(r.B_hat),
                     textio.fmt(r.fit_rss)] + [textio.fmt(z) for z in r.zeta])
    textio.write_table(path, header, rows)


def read_proxies_table(path):
    """Read the proxy table back as {ticker: (A_hat, B_hat)}.

    Raises DataError naming the file and line for an empty file, a header
    without an ``A_hat`` or ``B_hat`` column, a row whose field count differs
    from the header's, or an A_hat/B_hat that is not a finite number.
    """
    with open(path) as fh:
        lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1)
                 if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0][1].split(textio.DELIM)
    for column in ("A_hat", "B_hat"):
        if column not in header:
            raise DataError(f"{path}: line {lines[0][0]}: no {column} column")
    ia, ib = header.index("A_hat"), header.index("B_hat")
    out = {}
    for i, ln in lines[1:]:
        parts = ln.split(textio.DELIM)
        if len(parts) != len(header):
            raise DataError(f"{path}: line {i} has {len(parts)} fields, "
                            f"expected {len(header)}")
        try:
            a, b = float(parts[ia]), float(parts[ib])
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DataError(f"{path}: line {i}: non-finite A_hat/B_hat "
                            f"({a}, {b})")
        out[parts[0]] = (a, b)
    return out


def run(config: PipelineConfig, mode="raw"):
    """Execute the full pipeline and write the output bundle.

    Returns a dict of the written file paths.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    config.validate()
    outdir = config.output_dir
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    digests = {}

    if config.returns is not None:
        digests["returns"] = _sha256(config.returns)
        returns = _stage("load", ReturnPanel.read, config.returns)
    else:
        digests["prices"] = _sha256(config.prices)
        series = _stage("load", load_prices, config.prices)
        panel = _stage("clean", preprocess, series, config.k)
        paths["panel"] = os.path.join(outdir, "panel.tsv")
        paths["fill_mask"] = os.path.join(outdir, "fill_mask.tsv")
        panel.write(paths["panel"], paths["fill_mask"])
        returns = _stage("returns", compute_returns, panel)

    surrogate_pairs = None
    if mode == "shuffled":
        returns, spec = _stage("surrogate", synchronous_shuffle, returns,
                               config.seed)
        surrogate_pairs = spec.to_pairs()
    elif mode == "gaussianized":
        returns = _stage("surrogate", marginal_gaussianize, returns,
                         config.seed)
        surrogate_pairs = [("kind", "marginal_gaussianize"),
                           ("seed", str(config.seed))]
    if surrogate_pairs is not None:
        paths["surrogate_spec"] = os.path.join(outdir, "surrogate_spec.tsv")
        textio.write_keyvalues(paths["surrogate_spec"], surrogate_pairs)
        paths["surrogate_returns"] = os.path.join(outdir,
                                                  "surrogate_returns.tsv")
        returns.write(paths["surrogate_returns"])
    else:
        paths["returns"] = os.path.join(outdir, "returns.tsv")
        returns.write(paths["returns"])

    results = _stage("scaling", estimate_scaling_panel, returns.returns,
                     config.q_grid(), config.tau_range(),
                     tickers=returns.tickers)
    paths["proxies"] = os.path.join(outdir, "proxies.tsv")
    write_proxies_table(paths["proxies"], returns.tickers, results)

    corr = _stage("xcorr", correlation_matrix, returns, config.alpha,
                  config.significance_mode)
    paths["corr_matrix"] = os.path.join(outdir, "corr_matrix.tsv")
    paths["corr_pvalues"] = os.path.join(outdir, "corr_pvalues.tsv")
    paths["rho_bar"] = os.path.join(outdir, "rho_bar.tsv")
    corr.write(paths["corr_matrix"], paths["corr_pvalues"], paths["rho_bar"])

    caps = None
    if config.capitalization is not None:
        digests["capitalization"] = _sha256(config.capitalization)
        records = _stage("capitalization", load_capitalizations,
                         config.capitalization)
        caps = _stage("capitalization", median_capitalization, records)
        paths["capitalization"] = os.path.join(outdir, "median_cap.tsv")
        textio.write_table(paths["capitalization"], ["ticker", "median_cap"],
                           [(t, textio.fmt(v))
                            for t, v in sorted(caps.values.items())])

    scaling_by_ticker = dict(zip(returns.tickers, results))
    report = _stage("associate", build_report, scaling_by_ticker, corr, caps)
    paths["association_txt"] = os.path.join(outdir, "association.txt")
    paths["association_kv"] = os.path.join(outdir, "association.tsv")
    with open(paths["association_txt"], "w", newline="\n") as fh:
        fh.write(report.to_text())
    textio.write_keyvalues(paths["association_kv"], report.to_pairs())

    # scatter data behind the rho_bar vs proxy plots, ln cap as third column
    for proxy_name, attr in (("B", "B_hat"), ("A", "A_hat")):
        key = f"scatter_{proxy_name}"
        paths[key] = os.path.join(outdir, f"scatter_{proxy_name}.tsv")
        rows = []
        for i, t in enumerate(returns.tickers):
            lncap = caps.log_value(t) if caps is not None else None
            rows.append([t, textio.fmt(corr.rho_bar[i]),
                         textio.fmt(getattr(results[i], attr)),
                         textio.fmt(lncap) if lncap is not None else "NA"])
        textio.write_table(paths[key],
                           ["ticker", "rho_bar", f"{proxy_name}_hat", "ln_cap"],
                           rows)

    manifest = {
        "version": __version__,
        "mode": mode,
        # output_dir is where the bundle lives, not part of what it contains
        "config": {k: v for k, v in config.to_pairs() if k != "output_dir"},
        "input_digests": digests,
        "outputs": sorted(os.path.basename(p) for p in paths.values()),
    }
    paths["manifest"] = os.path.join(outdir, "manifest.json")
    with open(paths["manifest"], "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def compare_reports(pairs_a, pairs_b, alpha=0.05):
    """Difference table between two association key-value reports.

    Returns rows (key, value_a, value_b, abs_diff, both_significant); the
    significance column is filled for ``.p`` entries and "-" elsewhere.
    """
    if set(pairs_a) != set(pairs_b):
        raise ConfigError("reports have different statistics and cannot be "
                          "compared")
    rows = []
    for key in pairs_a:
        va, vb = pairs_a[key], pairs_b[key]
        try:
            fa, fb = float(va), float(vb)
        except ValueError:
            rows.append([key, va, vb, "-", "-"])
            continue
        both_sig = "-"
        if key.endswith(".p"):
            both_sig = str(int(fa < alpha and fb < alpha))
        rows.append([key, textio.fmt(fa), textio.fmt(fb),
                     textio.fmt(abs(fa - fb)), both_sig])
    return rows
