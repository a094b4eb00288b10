"""Seeded inputs for the benchmark workloads.

Every input is drawn from the workload seed with plain numpy; nothing here
imports ``scalecorr``, so a change to the package (its ``synth`` module
included) cannot move a workload. ``generate`` returns the arrays the oracle
needs together with the text the CLI reads; ``materialize`` writes that text
once per (workload, size, seed) into a cache directory and records the sha256
of every file, so two commits compared on one seed read identical bytes.
"""

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

CACHE_KEEP = 3           # input sets kept per (workload, size); oldest evicted


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "returns": --returns TSV; "prices": price + cap CSV
    mode: str            # the CLI's --mode
    sizes: dict          # size name -> (n_stocks, n_days)
    beta: tuple          # factor loadings drawn uniformly from this range


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        kind="returns", mode="raw",
        sizes={"full": (1202, 4000), "smoke": (24, 300)},
        beta=(0.2, 1.5)),
    Workload(
        name="wide",
        kind="returns", mode="gaussianized",
        sizes={"full": (2000, 500), "smoke": (40, 120)},
        beta=(0.0, 0.6)),
    Workload(
        name="prices",
        kind="prices", mode="shuffled",
        sizes={"full": (500, 2500), "smoke": (30, 200)},
        beta=(0.2, 1.5)),
)}


@dataclass
class Inputs:
    """Generated inputs: the arrays behind the files and the file texts."""

    tickers: list
    dates: np.ndarray            # ISO date strings, one per day
    returns: np.ndarray = None   # [day x stock] ("returns" workloads)
    prices: np.ndarray = None    # [day x stock] closes as the CLI parses them
    observed: np.ndarray = None  # [day x stock] True where a record exists
    caps: dict = None            # ticker -> capitalizations as parsed
    files: dict = None           # CLI flag -> (file name, writer callable)


def _business_days(n):
    return np.busday_offset("2001-01-01", np.arange(n),
                            roll="forward").astype(str)


def _one_factor(rng, n, t, beta):
    """Market factor plus per-stock unit-variance Student-t innovations."""
    loadings = rng.uniform(beta[0], beta[1], n)
    nu = rng.uniform(3.0, 8.0, n)
    factor = rng.standard_normal(t)
    eps = rng.standard_t(nu, size=(t, n)) / np.sqrt(nu / (nu - 2.0))
    return 0.01 * (factor[:, None] * loadings + eps)


def _write_returns_tsv(path, dates, tickers, X):
    # 17 significant digits round-trip exactly, so the oracle's array is the
    # panel the CLI parses
    row_fmt = "\t".join(["%.17g"] * X.shape[1])
    with open(path, "w", newline="\n") as fh:
        fh.write("\t".join(["date"] + list(tickers)) + "\n")
        for d, row in zip(dates, X):
            fh.write(d + "\t" + row_fmt % tuple(row) + "\n")


def _write_records(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.writelines(ln + "\n" for ln in lines)


def _returns_inputs(w, rng, n, t):
    tickers = [f"S{i:04d}" for i in range(n)]
    dates = _business_days(t)
    X = _one_factor(rng, n, t, w.beta)
    X -= X.mean(axis=0)
    return Inputs(tickers=tickers, dates=dates, returns=X, files={
        "--returns": ("returns.tsv",
                      lambda p: _write_returns_tsv(p, dates, tickers, X))})


def _prices_inputs(w, rng, n, t):
    """Price records with ~2% missing days per ticker, ~5% of tickers starting
    far too late for the k=0.9 length filter, ~10% starting slightly late
    (they set the panel start), and monthly capitalization records."""
    tickers = [f"T{i:04d}" for i in range(n)]
    dates = _business_days(t)
    start = np.zeros(n, dtype=int)
    order = rng.permutation(n)
    n_drop = max(1, round(0.05 * n))
    n_late = max(1, round(0.10 * n))
    start[order[:n_drop]] = rng.integers(int(0.2 * t), int(0.5 * t), n_drop)
    start[order[n_drop:n_drop + n_late]] = rng.integers(
        1, max(2, int(0.03 * t)), n_late)
    days = np.arange(t)[:, None]
    observed = (rng.random((t, n)) >= 0.02) & (days >= start)
    observed[start, np.arange(n)] = True

    logp = (np.log(rng.uniform(10.0, 200.0, n))
            + np.cumsum(_one_factor(rng, n, t, w.beta), axis=0))
    # rint(x * 10^d) / 10^d is the double nearest the d-decimal text the
    # files hold, so these arrays equal what the CLI parses
    prices = np.round(np.exp(logp), 4)
    shares = np.exp(rng.uniform(np.log(1e6), np.log(1e9), n))
    month = dates.astype("datetime64[M]")
    cap_rows = {}
    for i, tk in enumerate(tickers):
        rows = np.flatnonzero(observed[:, i])
        # first observed day of every month
        cap_rows[tk] = rows[np.r_[True, month[rows][1:] != month[rows][:-1]]]
    caps = {tk: np.round(prices[rows, i] * shares[i], 2)
            for i, (tk, rows) in enumerate(cap_rows.items())}

    def write_prices(path):
        _write_records(path, (f"{tk},{dates[j]},{prices[j, i]:.4f}"
                              for i, tk in enumerate(tickers)
                              for j in np.flatnonzero(observed[:, i])))

    def write_caps(path):
        _write_records(path, (f"{tk},{dates[j]},{c:.2f}"
                              for tk, rows in cap_rows.items()
                              for j, c in zip(rows, caps[tk])))

    return Inputs(tickers=tickers, dates=dates, prices=prices,
                  observed=observed, caps=caps,
                  files={"--prices": ("prices.csv", write_prices),
                         "--capitalization": ("caps.csv", write_caps)})


def generate(workload, size, seed):
    """Draw a workload's inputs from its seed; same seed, same inputs."""
    w = WORKLOADS[workload]
    n, t = w.sizes[size]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if w.kind == "returns":
        return _returns_inputs(w, rng, n, t)
    return _prices_inputs(w, rng, n, t)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def materialize(inputs, cache_root, workload, size, seed):
    """Write the input files once per (workload, size, seed).

    Returns {flag: {"path", "bytes", "sha256"}}. A cached set is reused only
    if every file still has its recorded size and digest.
    """
    # the generator's own digest keys the cache, so an edit to this file
    # never reuses files an older version wrote
    key = f"{workload}-{size}-{sha256_file(__file__)[:12]}"
    cache_dir = os.path.join(cache_root, key, f"seed{seed}")
    meta_path = os.path.join(cache_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
        if all(os.path.exists(m["path"])
               and os.path.getsize(m["path"]) == m["bytes"]
               and sha256_file(m["path"]) == m["sha256"]
               for m in meta.values()):
            os.utime(cache_dir)
            return meta
        shutil.rmtree(cache_dir)

    tmp = cache_dir + f".tmp{os.getpid()}"
    os.makedirs(tmp)
    meta = {}
    for flag, (name, write) in inputs.files.items():
        write(os.path.join(tmp, name))
        path = os.path.join(cache_dir, name)
        meta[flag] = {"path": path,
                      "bytes": os.path.getsize(os.path.join(tmp, name)),
                      "sha256": sha256_file(os.path.join(tmp, name))}
    with open(os.path.join(tmp, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    os.rename(tmp, cache_dir)
    _evict(os.path.join(cache_root, key), keep=cache_dir)
    return meta


def _evict(parent, keep):
    sets = sorted((os.path.join(parent, d) for d in os.listdir(parent)
                   if ".tmp" not in d),
                  key=os.path.getmtime, reverse=True)
    for old in [s for s in sets if s != keep][CACHE_KEEP - 1:]:
        shutil.rmtree(old, ignore_errors=True)
