"""Pipeline orchestration: full runs and report comparison.

A run reads price (or return) data, optionally replaces the panel by one of
the two surrogates, estimates per-stock scaling proxies and the
significance-filtered average cross-correlations, and writes the output
bundle: proxy table, correlation matrices, rho_bar vector, association
report, scatter data, and a manifest that pins config, seed, and input
digests. Outputs are byte-identical across re-runs with the same inputs.
"""

import ctypes
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
from .surrogates import (SurrogateSpec, marginal_gaussianize,
                         synchronous_shuffle)

__version__ = "0.1.0"

MODES = ("raw", "shuffled", "gaussianized")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _release_free_heap():
    """Return the C heap's free pages to the OS (glibc's ``malloc_trim``).

    Whether glibc keeps what record ingest frees (~140 MB for 500 tickers x
    2500 days) depends on the heap's layout; when it does, the scaling
    threads, which allocate in heaps of their own, add ~50 MB to peak RSS.
    """
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if hasattr(libc, "malloc_trim"):  # glibc
        libc.malloc_trim(0)


def _remove_stale(outdir, written, inputs):
    """Delete the bundle files that only some runs write and this one did
    not, so an earlier run's do not pass for this one's; keep its inputs."""
    for name in ("panel.tsv", "fill_mask.tsv", "returns.tsv", "median_cap.tsv",
                 "surrogate_spec.tsv", "surrogate_returns.tsv"):
        path = os.path.join(outdir, name)
        if (name not in written and os.path.exists(path)
                and not any(os.path.samefile(path, p) for p in inputs if p)):
            os.remove(path)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError as exc:
        exc.args = (f"[{name}] {exc}",)
        raise


def write_proxies_table(path, tickers, results):
    q_cols = [f"zeta_q{q:g}" for q in results[0].q_grid]
    values = np.array([[r.A_hat, r.B_hat, r.fit_rss, *r.zeta]
                       for r in results])
    textio.write_matrix(path, tickers, ["A_hat", "B_hat", "fit_rss"] + q_cols,
                        values, corner="ticker")


def read_proxies_table(path):
    """Read the proxy table back as {ticker: (A_hat, B_hat)}.

    Raises DataError naming the file and line for an empty file, a header
    without an ``A_hat`` or ``B_hat`` column, a row whose field count differs
    from the header's, or an A_hat/B_hat that is not a finite number.
    """
    lines = [(i, ln) for i, ln in enumerate(
        textio.read_text(path).split("\n"), start=1) if ln.strip()]
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
        _release_free_heap()
        panel = _stage("clean", preprocess, series, config.k)
        paths["panel"] = os.path.join(outdir, "panel.tsv")
        paths["fill_mask"] = os.path.join(outdir, "fill_mask.tsv")
        panel.write(paths["panel"], paths["fill_mask"])
        returns = _stage("returns", compute_returns, panel)

    spec = None
    if mode == "shuffled":
        returns, spec = _stage("surrogate", synchronous_shuffle, returns,
                               config.seed)
    elif mode == "gaussianized":
        returns = _stage("surrogate", marginal_gaussianize, returns,
                         config.seed)
        spec = SurrogateSpec(kind="marginal_gaussianize", seed=config.seed)
    if spec is not None:
        paths["surrogate_spec"] = os.path.join(outdir, "surrogate_spec.tsv")
        textio.write_keyvalues(paths["surrogate_spec"], spec.to_pairs())
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

    ln_cap = np.full(len(returns.tickers), np.nan)
    if config.capitalization is not None:
        digests["capitalization"] = _sha256(config.capitalization)
        records = _stage("capitalization", load_capitalizations,
                         config.capitalization)
        caps = _stage("capitalization", median_capitalization, records)
        paths["capitalization"] = os.path.join(outdir, "median_cap.tsv")
        names = sorted(caps.values)
        medians = np.array([caps.values[t] for t in names])
        textio.write_matrix(paths["capitalization"], names, ["median_cap"],
                            medians[:, None], corner="ticker")
        ln_cap = caps.log_values(returns.tickers)

    A, B = np.array([(r.A_hat, r.B_hat) for r in results]).T
    report = _stage("associate", build_report, A, B, corr.rho_bar, ln_cap)
    paths["association_txt"] = os.path.join(outdir, "association.txt")
    paths["association_kv"] = os.path.join(outdir, "association.tsv")
    with open(paths["association_txt"], "w", newline="\n") as fh:
        fh.write(report.to_text())
    textio.write_keyvalues(paths["association_kv"], report.to_pairs())

    # scatter data behind the rho_bar vs proxy plots, ln cap as third column
    ln_cap_text = ["NA" if math.isnan(c) else textio.fmt(c) for c in ln_cap]
    for proxy_name, proxy in (("B", B), ("A", A)):
        key = f"scatter_{proxy_name}"
        paths[key] = os.path.join(outdir, f"scatter_{proxy_name}.tsv")
        rows = [[t, textio.fmt(r), textio.fmt(p), c] for t, r, p, c in
                zip(returns.tickers, corr.rho_bar, proxy, ln_cap_text)]
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
    _remove_stale(outdir, manifest["outputs"],
                  [config.prices, config.returns, config.capitalization])
    return paths


def compare_reports(pairs_a, pairs_b, alpha=PipelineConfig.alpha):
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
