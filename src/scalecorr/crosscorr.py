"""Pairwise Pearson correlations, significance, and per-stock averages.

The N x N coefficient matrix is one matrix product of once-centred,
once-normalised columns instead of O(N^2) passes over the data. numpy
computes a matrix times its own transpose with BLAS ``syrk`` and copies one
triangle into the other, so rho is exactly symmetric.
:func:`correlation_matrix` centres and normalises the returns it is given
in place, so the caller's return matrix holds those columns afterwards, and
takes the column norms and rho_bar in the blocks of ``_column_blocks``.
Each stock's average cross-correlation rho_bar_i is the mean of its
coefficients with the other N-1 stocks; in "filtered" mode coefficients
compatible with the uncorrelated null (p >= alpha) count as 0.

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
from .scaling import _column_blocks
from . import textio

DEFAULT_ALPHA = PipelineConfig.alpha
SIGNIFICANCE_BAND = 1e-6  # relative half-width around r_c that gets p-values


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
    r is compared with the signed band edges, so no float |r| array is built.
    """
    r = np.asarray(r, dtype=float)
    r_c = critical_r(alpha, dof)
    lo = r_c * (1.0 - SIGNIFICANCE_BAND)
    hi = min(r_c * (1.0 + SIGNIFICANCE_BAND), 1.0)
    if not (t_pvalue(lo, dof) >= alpha and t_pvalue(hi, dof) < alpha):
        lo, hi = 0.0, 1.0
    mask = (r > -lo) & (r < lo)
    near = np.flatnonzero(((r >= lo) & (r <= hi)) | ((r >= -hi) & (r <= -lo)))
    mask.flat[near] = t_pvalue(r.flat[near], dof) >= alpha
    return mask


def _sum_rows(block, where=True):
    """``np.sum(block, axis=0, where=where)`` of a [n x w] block, each column
    summed row after row from +0.0 as numpy does for w >= 2. numpy would sum
    a lone column pairwise, so that column is read as both of a [n x 2]
    view instead."""
    wide = np.broadcast_to(block, (len(block), max(block.shape[1], 2)))
    return np.sum(wide, axis=0, where=where)[:block.shape[1]]


def correlation_matrix(panel, alpha=DEFAULT_ALPHA,
                       significance_mode=PipelineConfig.significance_mode):
    """The rho matrix and the rho_bar vector of a return panel (the p-values
    are computed on access to the result's ``pvalue``).

    ``panel`` is a ReturnPanel or any object with .returns and .tickers.
    The returns are the only N x T buffer: a writeable float64 array is
    centred and scaled to unit-norm columns in place, so ``panel.returns``
    holds those columns afterwards (any other array is copied first). Beside
    rho, the work is done in the column blocks of ``_column_blocks``: the
    squares of a block of returns for the norms, and a block of rho's
    columns and its boolean filter mask for rho_bar. Each column sum adds
    its rows in order, so the bits match whole-matrix sums.
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
    norms = np.empty(N)
    for cols in _column_blocks(T, N):
        norms[cols] = _sum_rows(np.square(X[:, cols]))
    np.sqrt(norms, out=norms)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise EstimationError(
            f"correlation undefined for constant column {tickers[zero[0]]}")
    X /= norms
    rho = X.T @ X  # syrk: exactly symmetric
    np.clip(rho, -1.0, 1.0, out=rho)
    np.fill_diagonal(rho, 1.0)

    # rho_bar: each column's off-diagonal entries that pass the filter;
    # only the pairs i < j that it skips are counted
    rho_bar = np.empty(N)
    zeroed = 0
    for cols in _column_blocks(N, N):
        if significance_mode == "filtered":
            skip = insignificant(rho[:, cols], alpha, T - 2)
            zeroed += int(np.count_nonzero(np.triu(skip, 1 - cols.start)))
        else:
            skip = np.zeros((N, cols.stop - cols.start), dtype=bool)
        np.fill_diagonal(skip[cols], True)
        rho_bar[cols] = _sum_rows(rho[:, cols], where=~skip)
    rho_bar /= N - 1

    return CorrelationSummary(tickers=tickers, rho=rho, rho_bar=rho_bar,
                              significance_mode=significance_mode,
                              alpha=alpha, n_obs=T, zeroed=zeroed)
