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

import json
import os
import shutil
import stat

import numpy as np

from . import textio
from .association import build_report
from .config import PipelineConfig
from .crosscorr import correlation_matrix
from .errors import ConfigError, DataError, EstimationError, PipelineError
from .panel import (ReturnPanel, compute_returns, load_capitalizations,
                    load_prices, log_capitalizations, median_capitalization,
                    preprocess)
from .scaling import estimate_scaling_panel
from .surrogates import marginal_gaussianize, synchronous_shuffle

__version__ = "0.1.0"

MODES = ("raw", "shuffled", "gaussianized")
STAGING_DIR = ".scalecorr-staging"


def _sha256(path):
    import hashlib  # OpenSSL maps in here, once the run is past its peak
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        # below the CLI's mmap threshold, each chunk reuses one heap block
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _identity(st):
    """What changes in ``os.stat`` when a file is replaced or rewritten."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _input_files(config):
    """{input name: identity} of the run's input files. The manifest pins
    each by a digest taken after the stages, so an input must be a regular
    file that can be read twice: a pipe, FIFO or device is a ConfigError."""
    files = {}
    for name in ("prices", "returns", "capitalization"):
        path = getattr(config, name)
        if path is None:
            continue
        st = os.stat(path)
        if not stat.S_ISREG(st.st_mode):
            raise ConfigError(f"{name} input {path} is not a regular file")
        files[name] = _identity(st)
    return files


def _digests(config, files):
    """{input name: sha256} of the input files; DataError for one whose
    identity is not what it was before its stage read it."""
    digests = {}
    for name, identity in files.items():
        path = getattr(config, name)
        digests[name] = _sha256(path)
        if _identity(os.stat(path)) != identity:
            raise DataError(f"{name} input {path} changed during the run")
    return digests


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError as exc:
        exc.args = (f"[{name}] {exc}",)
        raise


def _varying_rho_bar(corr):
    """EstimationError where every stock has the same rho_bar, as when the
    significance filter zeroes every pair or there are only two stocks: its
    ranks, and so its association with the proxies, are then undefined."""
    rho_bar = corr.rho_bar
    if rho_bar.min() < rho_bar.max():
        return
    n = len(rho_bar)
    message = (f"rho_bar is {rho_bar[0]:g} for all {n} stocks, so its "
               "association is undefined")
    if n == 2:
        message += ": two stocks always share rho_bar"
    elif corr.significance_mode == "filtered":
        message += (f": the significance filter at alpha={corr.alpha:g} "
                    f"zeroed {corr.zeroed} of {n * (n - 1) // 2} pairs")
    raise EstimationError(message)


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
    labels, header, values = textio.read_matrix(path)
    for column in columns:
        if column not in header:
            with open(path, "rb") as fh:
                line = textio.read_header(fh, path)[0]
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


def input_at(path, inputs):
    """The input file that ``path`` is, or None if it is none of them: the
    same file where both exist, the same resolved path otherwise."""
    def same(p):
        if os.path.exists(path) and os.path.exists(p):
            return os.path.samefile(path, p)
        return os.path.realpath(path) == os.path.realpath(p)

    return next((p for p in inputs if p and same(p)), None)


def _write_bundle(config, mode, out):
    """Run every stage, writing to ``out(name)``."""
    if config.returns is not None:
        returns = _stage("load", ReturnPanel.read, config.returns)
    else:
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
    # corr keeps the N x T returns to build rho on access; a run never asks
    # for rho, and neither is read again
    del returns, corr

    ln_cap = None
    if config.capitalization is not None:
        records = _stage("capitalization", load_capitalizations,
                         config.capitalization)
        medians = _stage("capitalization", median_capitalization, records)
        names = sorted(medians)
        textio.write_matrix(out("median_cap.tsv"), names, ["median_cap"],
                            np.array([[medians[t]] for t in names]),
                            corner="ticker")
        ln_cap = log_capitalizations(medians, tickers)

    report = _stage("associate", build_report, scaling.A_hat, scaling.B_hat,
                    rho_bar, ln_cap)
    report.write(out("association.tsv"), out("association.txt"))
    if mode != "raw":
        # the permutation digest imports hashlib: OpenSSL maps in here,
        # once the returns are freed
        textio.write_keyvalues(out("surrogate_spec.tsv"), spec.to_pairs())


def run(config: PipelineConfig, mode="raw"):
    """Execute the full pipeline and write the output bundle.

    The files are staged inside ``output_dir`` and moved into place, manifest
    last, only once every stage has succeeded; then the files the earlier
    manifest listed and this run did not write, except its inputs, are
    removed; a bundle file that is one of its inputs is a ConfigError.
    The inputs are hashed after the stages, when the run is past its peak
    memory, and must not have changed since their stage read them.
    Returns {file name: path} of the written files.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    config.validate()
    if (config.prices is None) == (config.returns is None):
        raise ConfigError("exactly one of a prices file and a returns file "
                          "is required")
    files = _input_files(config)
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
        source = input_at(target, inputs)
        if source is not None:
            raise ConfigError(f"{target} is the input {source}; the run "
                              "would overwrite it")
        names.append(name)
        return os.path.join(staging, name)

    try:
        _write_bundle(config, mode, out)
        digests = _digests(config, files)
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
        if os.path.isfile(path) and input_at(path, inputs) is None:
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
