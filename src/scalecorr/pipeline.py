"""Pipeline orchestration: full runs and report comparison.

A run reads price (or return) data, optionally replaces the panel by one of
the two surrogates, estimates per-stock scaling proxies and the
significance-filtered average cross-correlations, and writes the output
bundle: proxy table, correlation matrix, rho_bar vector, association
report, scatter table, and a manifest that pins config, seed, and input
digests (a returns input is pinned there, not copied). Outputs are
byte-identical across re-runs with the same inputs.
"""

import ctypes
import hashlib
import json
import math
import os
import shutil

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
STAGING_DIR = ".scalecorr-staging"


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
    """Read the proxy table back as {ticker: (A_hat, B_hat)}; a table
    without an ``A_hat`` or ``B_hat`` column is a DataError."""
    tickers, columns, values = textio.read_matrix(path)
    for column in ("A_hat", "B_hat"):
        if column not in columns:
            raise DataError(f"{path}: line 1: no {column} column")
    A, B = values[:, [columns.index("A_hat"), columns.index("B_hat")]].T
    return dict(zip(tickers, zip(A.tolist(), B.tolist())))


def _previous_outputs(outdir):
    """The files the manifest in ``outdir`` lists; ConfigError unless they
    are plain names, so that a run never removes a file outside ``outdir``."""
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        return []
    try:
        manifest = json.loads(textio.read_text(path, ConfigError))
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(outputs, list) or not all(
            isinstance(name, str) and name not in ("", os.curdir, os.pardir)
            and os.path.basename(name) == name for name in outputs):
        raise ConfigError(f"{path}: 'outputs' must list plain file names")
    return outputs


def _write_bundle(config, mode, out):
    """Run every stage, writing to ``out(name)``; returns the input digests."""
    digests = {}
    if config.returns is not None:
        digests["returns"] = _sha256(config.returns)
        returns = _stage("load", ReturnPanel.read, config.returns)
    else:
        digests["prices"] = _sha256(config.prices)
        series = _stage("load", load_prices, config.prices)
        _release_free_heap()
        panel = _stage("clean", preprocess, series, config.k)
        panel.write(out("panel.tsv"), out("fill_mask.tsv"))
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
        textio.write_keyvalues(out("surrogate_spec.tsv"), spec.to_pairs())
        returns.write(out("surrogate_returns.tsv"))
    elif config.returns is None:  # an input --returns is pinned, not copied
        returns.write(out("returns.tsv"))

    results = _stage("scaling", estimate_scaling_panel, returns.returns,
                     config.q_grid(), config.tau_range(),
                     tickers=returns.tickers)
    write_proxies_table(out("proxies.tsv"), returns.tickers, results)

    corr = _stage("xcorr", correlation_matrix, returns, config.alpha,
                  config.significance_mode)
    corr.write(out("corr_matrix.tsv"), rho_bar_path=out("rho_bar.tsv"))

    ln_cap = np.full(len(returns.tickers), np.nan)
    if config.capitalization is not None:
        digests["capitalization"] = _sha256(config.capitalization)
        records = _stage("capitalization", load_capitalizations,
                         config.capitalization)
        caps = _stage("capitalization", median_capitalization, records)
        names = sorted(caps.values)
        medians = np.array([caps.values[t] for t in names])
        textio.write_matrix(out("median_cap.tsv"), names, ["median_cap"],
                            medians[:, None], corner="ticker")
        ln_cap = caps.log_values(returns.tickers)

    A, B = np.array([(r.A_hat, r.B_hat) for r in results]).T
    report = _stage("associate", build_report, A, B, corr.rho_bar, ln_cap)
    with open(out("association.txt"), "w", newline="\n") as fh:
        fh.write(report.to_text())
    textio.write_keyvalues(out("association.tsv"), report.to_pairs())

    # scatter data behind the rho_bar vs proxy plots; NA: no capitalization
    rows = [[t, *map(textio.fmt, (r, a, b)),
             "NA" if math.isnan(c) else textio.fmt(c)] for t, r, a, b, c in
            zip(returns.tickers, corr.rho_bar, A, B, ln_cap)]
    textio.write_table(out("scatter.tsv"),
                       ["ticker", "rho_bar", "A_hat", "B_hat", "ln_cap"], rows)
    return digests


def run(config: PipelineConfig, mode="raw"):
    """Execute the full pipeline and write the output bundle.

    The files are staged inside ``output_dir`` and moved into place, manifest
    last, only once every stage has succeeded; then the files the earlier
    manifest listed and this run did not write, except its inputs, are
    removed. Returns {file name: path} of the written files.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    config.validate()
    if config.prices is None and config.returns is None:
        raise ConfigError("either a prices file or a returns file is required")
    outdir = config.output_dir
    previous = _previous_outputs(outdir)
    staging = os.path.join(outdir, STAGING_DIR)
    shutil.rmtree(staging, ignore_errors=True)  # left by a killed run
    created = not os.path.exists(outdir)
    os.makedirs(staging)
    names = []

    def out(name):
        names.append(name)
        return os.path.join(staging, name)

    try:
        digests = _write_bundle(config, mode, out)
        # output_dir is where the bundle lives, not part of what it holds
        manifest = {"version": __version__, "mode": mode, "config": {
            k: v for k, v in config.to_pairs() if k != "output_dir"},
            "input_digests": digests, "outputs": sorted(names)}
        with open(out("manifest.json"), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if created and not os.listdir(outdir):  # failed before its commit
            os.rmdir(outdir)

    inputs = [config.prices, config.returns, config.capitalization]
    for name in set(previous) - set(names):
        path = os.path.join(outdir, name)
        if (os.path.isfile(path)
                and not any(os.path.samefile(path, p) for p in inputs if p)):
            os.remove(path)
    return {name: os.path.join(outdir, name) for name in names}


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
