"""Pairwise Pearson correlations, significance, and per-stock averages.

The N x N coefficient matrix is assembled from once-centered, once-normalized
columns so the whole matrix is two matrix products instead of O(N^2) passes
over the data. :func:`correlation_matrix` centres and normalises the returns
it is given in place, so the caller's return matrix holds those columns
afterwards. Each stock's average cross-correlation rho_bar_i is the mean
of its coefficients with the other N-1 stocks; in "filtered" mode
coefficients compatible with the uncorrelated null (p >= alpha) are zeroed
before averaging.

The two-sided t-test p-value falls as |r| grows, so the filter compares |r|
with the critical coefficient r_c = t_c / sqrt(dof + t_c^2),
t_c = -stdtrit(dof, alpha/2), instead of computing N^2 p-values. Only the
pairs within a relative SIGNIFICANCE_BAND of r_c get :func:`t_pvalue`, so
the zeroed set is exactly the pairs with ``t_pvalue(r) >= alpha``. The
p-value matrix itself is computed only when it is asked for
(:attr:`CorrelationSummary.pvalue`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _special as special
from .config import SIGNIFICANCE_MODES as MODES, PipelineConfig
from .errors import EstimationError
from . import textio

DEFAULT_ALPHA = PipelineConfig.alpha
SIGNIFICANCE_BAND = 1e-6  # relative half-width around r_c that gets p-values
NORM_ROWS = 256           # rows at a time of the column norms and of rho


@dataclass
class CorrelationSummary:
    tickers: list
    rho: np.ndarray
    rho_bar: np.ndarray
    significance_mode: str
    alpha: float
    n_obs: int
    zeroed: int  # pairs i < j the filter set to 0 (0 in "all" mode)

    @property
    def pvalue(self):
        """The N x N p-values of rho, computed on each access."""
        return t_pvalue(self.rho, self.n_obs - 2)

    def write(self, rho_path=None, pvalue_path=None, rho_bar_path=None):
        """Write the named matrices; p-values only when asked for."""
        for path, name in ((rho_path, "rho"), (pvalue_path, "pvalue"),
                           (rho_bar_path, "rho_bar")):
            if path:
                values = getattr(self, name)
                columns = self.tickers if values.ndim == 2 else [name]
                textio.write_matrix(path, self.tickers, columns,
                                    values.reshape(len(self.tickers), -1),
                                    corner="ticker")


def pearson(x, y):
    """Sample Pearson product-moment coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise EstimationError("pearson: inputs must be equal-length vectors")
    if len(x) < 3:
        raise EstimationError("pearson: need at least 3 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(np.dot(xc, xc))
    sy = math.sqrt(np.dot(yc, yc))
    if sx == 0.0 or sy == 0.0:
        raise EstimationError("pearson: correlation undefined for constant series")
    return float(np.clip(np.dot(xc, yc) / (sx * sy), -1.0, 1.0))


def t_pvalue(r, dof):
    """Two-sided p-value of correlation coefficient(s) under the
    uncorrelated null, elementwise: 2*sf(|t|) of Student's t with ``dof``
    degrees of freedom, t = r * sqrt(dof/(1-r^2)), and 0 where |r| = 1.
    sf(t) is computed as the CDF at -t, the ufunc scipy.stats calls."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):  # |r| = 1: t = inf, sf(inf) = 0
        t = np.abs(r) * np.sqrt(dof / (1.0 - r * r))
    return 2.0 * special.stdtr(dof, -t)


def pearson_pvalue(rho, n):
    """Two-sided p-value of a Pearson coefficient of n observations under
    the uncorrelated null (:func:`t_pvalue` with n-2 degrees of freedom)."""
    if n < 3:
        raise EstimationError("pearson_pvalue: need n >= 3")
    if abs(rho) > 1:
        raise EstimationError(f"pearson_pvalue: |rho|={abs(rho)} > 1")
    return float(t_pvalue(rho, n - 2))


def critical_r(alpha, dof):
    """The coefficient |r| whose two-sided :func:`t_pvalue` with ``dof``
    degrees of freedom is ``alpha``: t_c / sqrt(dof + t_c^2) with
    t_c = -stdtrit(dof, alpha/2), the t quantile of the test, and 1 where
    an alpha too small for a float quantile makes t_c infinite."""
    t_c = -special.stdtrit(dof, alpha / 2.0)
    return (1.0 if math.isinf(t_c)
            else t_c / math.hypot(t_c, math.sqrt(dof)))  # no overflow in t_c^2


def insignificant(r, alpha, dof):
    """The mask ``t_pvalue(r, dof) >= alpha`` of an array of coefficients.

    |r| below r_c widened by SIGNIFICANCE_BAND is in the mask, |r| above it
    widened the other way is not, and only the |r| in between get
    :func:`t_pvalue`. Both band edges are checked with t_pvalue first; an
    alpha so close to 0 or 1 that r_c misses the band widens it to [0, 1].
    """
    r = np.asarray(r, dtype=float)
    r_c = critical_r(alpha, dof)
    lo = r_c * (1.0 - SIGNIFICANCE_BAND)
    hi = min(r_c * (1.0 + SIGNIFICANCE_BAND), 1.0)
    if not (t_pvalue(lo, dof) >= alpha and t_pvalue(hi, dof) < alpha):
        lo, hi = 0.0, 1.0
    abs_r = np.abs(r)
    mask = abs_r < lo
    near = np.flatnonzero((abs_r >= lo) & (abs_r <= hi))
    del abs_r
    mask.flat[near] = t_pvalue(r.flat[near], dof) >= alpha
    return mask


def _column_norms(Xc):
    """The root sum of squares of each column of a [T x N >= 2] array,
    summed row after row in order exactly as ``np.sum(Xc * Xc, axis=0)``
    does, but squaring NORM_ROWS rows at a time instead of all N x T."""
    T, N = Xc.shape
    buf = np.zeros((NORM_ROWS + 1, N))  # row 0 carries the running sum
    for a in range(0, T, NORM_ROWS):
        n = min(NORM_ROWS, T - a)
        np.multiply(Xc[a:a + n], Xc[a:a + n], out=buf[1:n + 1])
        buf[0] = np.sum(buf[:n + 1], axis=0)
    return np.sqrt(buf[0])


def correlation_matrix(panel, alpha=DEFAULT_ALPHA,
                       significance_mode=PipelineConfig.significance_mode):
    """The rho matrix and the rho_bar vector of a return panel (the p-values
    are computed on access to the result's ``pvalue``).

    ``panel`` is a ReturnPanel or any object with .returns and .tickers.
    The returns are the only N x T buffer: a writeable float64 array is
    centred and scaled to unit-norm columns in place, so ``panel.returns``
    holds those columns afterwards (any other array is copied first). Beside
    rho, the N x N work is done NORM_ROWS rows at a time, with the same bits
    as whole-matrix temporaries.
    """
    if significance_mode not in MODES:
        raise EstimationError(f"unknown significance mode {significance_mode!r}")
    X = np.require(panel.returns, float, "W")
    tickers = list(panel.tickers)
    T, N = X.shape
    if N < 2:
        raise EstimationError("correlation matrix needs at least 2 stocks")
    if T < 3:
        raise EstimationError("correlation matrix needs at least 3 observations")

    X -= X.mean(axis=0)
    norms = _column_norms(X)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise EstimationError(
            f"correlation undefined for constant column {tickers[zero[0]]}")
    X /= norms
    rho = X.T @ X
    blocks = [(a, min(a + NORM_ROWS, N)) for a in range(0, N, NORM_ROWS)]
    # rho = clip((rho + rho.T) / 2): block a reads rows and columns a:b from
    # a on, which no earlier block has written
    for a, b in blocks:
        s = rho[a:b, a:] + rho[a:, a:b].T
        s /= 2.0
        np.clip(s, -1.0, 1.0, out=s)
        rho[a:b, a:] = s
        rho[a:, a:b] = s.T
    np.fill_diagonal(rho, 1.0)

    # rho_bar: the filtered off-diagonal rows summed into buf[0] in row
    # order, as work.sum(axis=0) does; the zero diagonal is in the mask,
    # which changes nothing, and only the pairs i < j are counted
    buf = np.zeros((NORM_ROWS + 1, N))
    zeroed = 0
    for a, b in blocks:
        work = buf[1:b - a + 1]
        work[...] = rho[a:b]
        np.fill_diagonal(work[:, a:b], 0.0)
        if significance_mode == "filtered":
            mask = insignificant(work, alpha, T - 2)
            zeroed += int(np.count_nonzero(np.triu(mask, a + 1)))
            work[mask] = 0.0
        buf[0] = np.sum(buf[:b - a + 1], axis=0)
    rho_bar = buf[0] / (N - 1)

    return CorrelationSummary(tickers=tickers, rho=rho, rho_bar=rho_bar,
                              significance_mode=significance_mode,
                              alpha=alpha, n_obs=T, zeroed=zeroed)
