"""Independent check of one run's output bundle.

Nothing here imports ``scalecorr``. The check reads only the core outputs
(``proxies.tsv``, ``rho_bar.tsv``, ``association.tsv``, the
``surrogate_returns.tsv`` of surrogate modes) and ``manifest.json``, so the
other files of the bundle may be dropped or re-encoded without touching the
benchmark. Expected values are recomputed with plain numpy/scipy from the
returns the run analysed: the generated panel in raw mode (for price input,
cleaned here by the documented rules), the run's own surrogate panel
otherwise, after checking that panel is a valid surrogate of the input.
"""

import json
import math
import os

import numpy as np
from scipy import stats

from workloads import sha256_file

# the paper's grid and filter, which the CLI defaults reproduce
Q_GRID = np.round(np.arange(1, 11) * 0.1, 10)
TAUS = np.arange(1, 20)
ALPHA = 0.05
LENGTH_FRACTION = 0.90
SAMPLE = 16
ATOL = 1e-9       # looser than the 1e-12 the package's own tests use
P_WINDOW = 1e-6   # pairs this close to alpha may fall either side


def clean_prices(inputs, k=LENGTH_FRACTION):
    """Drop series shorter than k times the longest, start at the latest
    first date among survivors, keep the union of their dates from there,
    forward-fill, and take demeaned log-returns."""
    obs = inputs.observed
    T = obs.shape[0]
    lengths = obs.sum(axis=0)
    keep = np.flatnonzero(lengths >= k * lengths.max())
    start = obs[:, keep].argmax(axis=0).max()
    days = np.flatnonzero(obs[:, keep].any(axis=1) & (np.arange(T) >= start))
    last = np.maximum.accumulate(np.where(obs, np.arange(T)[:, None], -1),
                                 axis=0)
    P = inputs.prices[last[days][:, keep], keep]
    R = np.diff(np.log(P), axis=0)
    return [inputs.tickers[i] for i in keep], R - R.mean(axis=0)


class Oracle:
    """Expected outputs for one workload's generated inputs."""

    def __init__(self, mode, inputs, input_digests):
        self.mode = mode
        self.digests = input_digests
        if inputs.prices is None:
            self.tickers, self.base = list(inputs.tickers), inputs.returns
            self.caps = None
        else:
            self.tickers, self.base = clean_prices(inputs)
            self.caps = np.array([np.median(inputs.caps[t])
                                  for t in self.tickers])
        N = len(self.tickers)
        self.sample = np.unique(np.linspace(0, N - 1, min(SAMPLE, N))
                                .astype(int))
        self._verdicts = {}    # analysed-file digest -> (problems, expected)

    def check(self, outdir):
        """Return a list of problems; empty when the bundle is correct."""
        try:
            return self._check(outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable bundle: {type(exc).__name__}: {exc}"]

    def _check(self, outdir):
        problems = []
        with open(os.path.join(outdir, "manifest.json")) as fh:
            pinned = set(json.load(fh)["input_digests"].values())
        if not set(self.digests) <= pinned:
            problems.append("manifest does not pin the input digests")

        # the analysed panel is the same for every run of one invocation, so
        # it is judged once per distinct file
        path = None
        if self.mode != "raw":
            path = os.path.join(outdir, "surrogate_returns.tsv")
        key = sha256_file(path) if path else "input"
        if key not in self._verdicts:
            self._verdicts[key] = self._judge_panel(path)
        panel_problems, expected = self._verdicts[key]
        problems += panel_problems
        if expected is None:
            return problems
        eA, eB, erb, slack = expected

        header, rows = _read_table(os.path.join(outdir, "proxies.tsv"))
        problems += _nonfinite("proxies.tsv", rows)
        if [r[0] for r in rows] != self.tickers:
            return problems + ["proxies.tsv has the wrong tickers"]
        if sum(h.startswith("zeta_q") for h in header) != len(Q_GRID):
            problems.append("proxies.tsv has the wrong q grid")
        A = np.array([float(r[header.index("A_hat")]) for r in rows])
        B = np.array([float(r[header.index("B_hat")]) for r in rows])
        _, rb_rows = _read_table(os.path.join(outdir, "rho_bar.tsv"))
        problems += _nonfinite("rho_bar.tsv", rb_rows)
        if [r[0] for r in rb_rows] != self.tickers:
            return problems + ["rho_bar.tsv has the wrong tickers"]
        rho_bar = np.array([float(r[1]) for r in rb_rows])

        s = self.sample
        for name, got, want, tol in (("A_hat", A[s], eA, ATOL),
                                     ("B_hat", B[s], eB, ATOL),
                                     ("rho_bar", rho_bar[s], erb,
                                      ATOL + slack)):
            bad = np.flatnonzero(~(np.abs(got - want) <= tol))
            if bad.size:
                i = bad[0]
                problems.append(f"{name} of {self.tickers[s[i]]}: "
                                f"{got[i]!r} != oracle {want[i]!r}")

        kv = dict(_read_table(os.path.join(outdir, "association.tsv"),
                              header=False)[1])
        problems += _nonfinite("association.tsv", [[k, v] for k, v in
                                                   kv.items()])
        problems += self._check_association(kv, A, B, rho_bar)
        return problems

    def _judge_panel(self, path):
        """Problems with the analysed panel, and the expected values."""
        if path is None:
            return [], self._expect(self.base)
        tickers, Y = _read_matrix(path)
        if tickers != self.tickers:
            return ["surrogate panel has the wrong tickers"], None
        return self._check_surrogate(Y), self._expect(Y)

    def _check_surrogate(self, Y):
        X = self.base
        if Y.shape != X.shape:
            return [f"surrogate shape {Y.shape} != input {X.shape}"]
        if self.mode == "shuffled":
            # one permutation of the time axis for every column: the rows of
            # both panels agree once sorted
            ys, xs = (M[np.lexsort(M.T[::-1])] for M in (Y, X))
            if not np.abs(ys - xs).max() <= ATOL:
                return ["surrogate is not a synchronous shuffle of the input"]
            return []
        T = X.shape[0]
        normal = stats.norm.ppf((np.arange(T) + 0.5) / T)
        if not (np.array_equal(np.argsort(Y, axis=0, kind="stable"),
                               np.argsort(X, axis=0, kind="stable"))
                and np.abs(np.sort(Y, axis=0) - normal[:, None]).max()
                <= ATOL):
            return ["surrogate is not the rank-preserving normal-quantile "
                    "transform of the input"]
        return []

    def _expect(self, Y):
        """A_hat, B_hat and filtered rho_bar of the sampled stocks."""
        T, N = Y.shape
        s = self.sample
        zeta = np.empty((len(s), len(Q_GRID)))
        for a, col in enumerate(s):
            c = np.concatenate([[0.0], np.cumsum(Y[:, col])])
            moments = np.array([[np.mean(np.abs(c[tau:] - c[:-tau]) ** q)
                                 for tau in TAUS] for q in Q_GRID])
            zeta[a] = [np.polyfit(np.log(TAUS), np.log(m), 1)[0]
                       for m in moments]
        design = np.column_stack([Q_GRID, Q_GRID ** 2])
        AB = np.linalg.lstsq(design, zeta.T, rcond=None)[0]

        r = np.corrcoef(Y[:, s], Y, rowvar=False)[:len(s), len(s):]
        r[np.arange(len(s)), s] = 0.0
        with np.errstate(divide="ignore"):
            t = np.abs(r) * np.sqrt((T - 2) / (1.0 - r * r))
        p = 2.0 * stats.t.sf(t, T - 2)
        kept = np.where(p < ALPHA, r, 0.0)
        slack = np.where(np.abs(p - ALPHA) < P_WINDOW, np.abs(r), 0.0)
        return (AB[0], AB[1], kept.sum(axis=1) / (N - 1),
                slack.sum(axis=1) / (N - 1))

    def _check_association(self, kv, A, B, rho_bar):
        problems = []
        if int(kv["n_stocks"]) != len(self.tickers):
            problems.append(f"n_stocks {kv['n_stocks']} != "
                            f"{len(self.tickers)}")
        checks = []
        for name, proxy in (("kendall_B_rho", B), ("kendall_A_rho", A)):
            res = stats.kendalltau(proxy, rho_bar, method="asymptotic")
            checks += [(f"{name}.tau", res.statistic), (f"{name}.p",
                                                        res.pvalue)]
        if self.caps is not None:
            if kv.get("cap_block_available") != "1" or \
                    int(kv["n_used"]) != len(self.tickers):
                problems.append("capitalization block missing or partial")
            else:
                lncap = np.log(self.caps)
                checks += [
                    ("pearson_B_lncap.rho", stats.pearsonr(B, lncap)[0]),
                    ("pearson_rho_lncap.rho",
                     stats.pearsonr(rho_bar, lncap)[0])]
        for key, want in checks:
            if not abs(float(kv[key]) - want) <= ATOL:
                problems.append(f"{key} {kv[key]} != oracle {want!r}")
        return problems


def _read_table(path, header=True):
    with open(path) as fh:
        lines = [ln.rstrip("\n").split("\t") for ln in fh if ln.strip()]
    return (lines[0], lines[1:]) if header else (None, lines)


def _read_matrix(path):
    with open(path) as fh:
        tickers = fh.readline().rstrip("\n").split("\t")[1:]
    Y = np.loadtxt(path, delimiter="\t", skiprows=1,
                   usecols=range(1, len(tickers) + 1), ndmin=2)
    return tickers, Y


def _nonfinite(name, rows):
    """Cells (past the label column) that read as a non-finite number."""
    for row in rows:
        for cell in row[1:]:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return [f"{name}: non-finite value {cell!r} for {row[0]}"]
    return []
