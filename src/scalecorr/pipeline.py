"""Pipeline orchestration: full runs and report comparison.

A run reads either price or return data, never both, optionally replaces
the panel by one of the two surrogates, estimates per-stock scaling proxies and the
significance-filtered average cross-correlations, and writes the output
bundle: the per-stock results, the surrogate returns of the surrogate modes
and a manifest that pins config, seed, and input digests. From the pinned
inputs, the chain ``clean`` -> ``returns`` -> ``scaling``/``xcorr`` ->
``associate`` rebuilds the panel, its returns, the correlation matrix and
the results. Re-runs with the same inputs are byte-identical.
"""

import hashlib
import json
import os
import shutil

import numpy as np

from . import textio
from .association import build_report
from .config import PipelineConfig
from .crosscorr import correlation_matrix
from .errors import ConfigError, DataError, EstimationError, PipelineError
from .panel import (ReturnPanel, compute_returns, load_capitalizations,
                    load_prices, median_capitalization, preprocess)
from .scaling import estimate_scaling_panel
from .surrogates import marginal_gaussianize, synchronous_shuffle

__version__ = "0.1.0"

MODES = ("raw", "shuffled", "gaussianized")
STAGING_DIR = ".scalecorr-staging"


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


def _varying_rho_bar(corr):
    """EstimationError where every stock has the same rho_bar, as when the
    significance filter zeroes every pair: its ranks, and so its association
    with the proxies, are then undefined."""
    rho_bar = corr.rho_bar
    if rho_bar.min() < rho_bar.max():
        return
    n = len(rho_bar)
    raise EstimationError(
        f"rho_bar is {rho_bar[0]:g} for all {n} stocks, so its association "
        f"is undefined: the significance filter at alpha={corr.alpha:g} "
        f"zeroed {corr.zeroed} of {n * (n - 1) // 2} pairs")


def write_proxies_table(path, tickers, result):
    q_cols = [f"zeta_q{q:g}" for q in result.q_grid]
    values = np.column_stack([result.A_hat, result.B_hat, result.fit_rss,
                              result.zeta.T])
    textio.write_matrix(path, tickers, ["A_hat", "B_hat", "fit_rss"] + q_cols,
                        values, corner="ticker")


def read_columns(path, *columns):
    """Read the named columns of a labelled matrix as {row label: (value of
    each column)}, in file order; a missing column is a DataError naming
    the header's line."""
    with open(path, "rb") as fh:
        line = textio.read_header(fh, path)[0]
    labels, header, values = textio.read_matrix(path)
    for column in columns:
        if column not in header:
            raise DataError(f"{path}: line {line}: no {column} column")
    picked = values[:, [header.index(column) for column in columns]]
    return dict(zip(labels, map(tuple, picked.tolist())))


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


def _input_at(path, inputs):
    """The input file that ``path`` is, or None if it is none of them."""
    return next((p for p in inputs if p and os.path.exists(path)
                 and os.path.samefile(path, p)), None)


def _write_bundle(config, mode, out):
    """Run every stage, writing to ``out(name)``; returns the input digests."""
    digests = {}
    if config.returns is not None:
        digests["returns"] = _sha256(config.returns)
        returns = _stage("load", ReturnPanel.read, config.returns)
    else:
        digests["prices"] = _sha256(config.prices)
        series = _stage("load", load_prices, config.prices)
        panel = _stage("clean", preprocess, series, config.k)
        del series  # neither the series nor the panel outlives its next stage
        returns = _stage("returns", compute_returns, panel)
        del panel

    if mode != "raw":
        # looked up at call time, where a wrapper may have replaced them
        surrogate = (synchronous_shuffle if mode == "shuffled"
                     else marginal_gaussianize)
        returns, spec = _stage("surrogate", surrogate, returns, config.seed)
        textio.write_keyvalues(out("surrogate_spec.tsv"), spec.to_pairs())
        returns.write(out("surrogate_returns.tsv"))

    scaling = _stage("scaling", estimate_scaling_panel, returns.returns,
                     config.q_grid(), config.tau_range(),
                     tickers=returns.tickers)
    write_proxies_table(out("proxies.tsv"), returns.tickers, scaling)

    # correlation_matrix overwrites returns.returns with its centred,
    # unit-norm columns, so everything that reads the returns comes first:
    # the surrogate write above and the scaling stage
    corr = _stage("xcorr", correlation_matrix, returns, config.alpha,
                  config.significance_mode)
    _stage("xcorr", _varying_rho_bar, corr)
    corr.write(rho_bar_path=out("rho_bar.tsv"))
    tickers, rho_bar = returns.tickers, corr.rho_bar
    del returns, corr  # neither the N x T returns nor rho is read again

    ln_cap = None
    if config.capitalization is not None:
        digests["capitalization"] = _sha256(config.capitalization)
        records = _stage("capitalization", load_capitalizations,
                         config.capitalization)
        caps = _stage("capitalization", median_capitalization, records)
        names = sorted(caps.values)
        medians = np.array([caps.values[t] for t in names])
        textio.write_matrix(out("median_cap.tsv"), names, ["median_cap"],
                            medians[:, None], corner="ticker")
        ln_cap = caps.log_values(tickers)

    report = _stage("associate", build_report, scaling.A_hat, scaling.B_hat,
                    rho_bar, ln_cap)
    report.write(out("association.tsv"), out("association.txt"))
    return digests


def run(config: PipelineConfig, mode="raw"):
    """Execute the full pipeline and write the output bundle.

    The files are staged inside ``output_dir`` and moved into place, manifest
    last, only once every stage has succeeded; then the files the earlier
    manifest listed and this run did not write, except its inputs, are
    removed; a bundle file that is one of its inputs is a ConfigError.
    Returns {file name: path} of the written files.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    config.validate()
    if (config.prices is None) == (config.returns is None):
        raise ConfigError("exactly one of a prices file and a returns file "
                          "is required")
    outdir = config.output_dir
    if os.path.exists(outdir) and not os.path.isdir(outdir):
        raise ConfigError(f"output_dir {outdir} exists and is not a directory")
    previous = _previous_outputs(outdir)
    staging = os.path.join(outdir, STAGING_DIR)
    shutil.rmtree(staging, ignore_errors=True)  # left by a killed run
    created = not os.path.exists(outdir)
    os.makedirs(staging)
    names = []
    inputs = [config.prices, config.returns, config.capitalization]

    def out(name):
        target = os.path.join(outdir, name)
        source = _input_at(target, inputs)
        if source is not None:
            raise ConfigError(f"{target} is the input {source}; the run "
                              "would overwrite it")
        names.append(name)
        return os.path.join(staging, name)

    try:
        digests = _write_bundle(config, mode, out)
        # output_dir is where the bundle lives, not part of what it holds
        manifest = {"version": __version__, "mode": mode, "config": {
            k: v for k, v in config.to_pairs() if k != "output_dir"},
            "input_digests": digests, "outputs": sorted(names)}
        with open(out("manifest.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if created and not os.listdir(outdir):  # failed before its commit
            os.rmdir(outdir)

    for name in set(previous) - set(names):
        path = os.path.join(outdir, name)
        if os.path.isfile(path) and _input_at(path, inputs) is None:
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
