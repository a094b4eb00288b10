"""Pairwise Pearson correlations, significance, and per-stock averages.

The N x N coefficient matrix is assembled from once-centered, once-normalized
columns so the whole matrix is two matrix products instead of O(N^2) passes
over the data. Each stock's average cross-correlation rho_bar_i is the mean
of its coefficients with the other N-1 stocks; in "filtered" mode
coefficients compatible with the uncorrelated null (p >= alpha) are zeroed
before averaging.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .config import SIGNIFICANCE_MODES as MODES, PipelineConfig
from .errors import EstimationError
from . import textio

DEFAULT_ALPHA = PipelineConfig.alpha


@dataclass
class CorrelationSummary:
    tickers: list
    rho: np.ndarray
    pvalue: np.ndarray
    rho_bar: np.ndarray
    significance_mode: str
    alpha: float
    n_obs: int

    def write(self, rho_path=None, pvalue_path=None, rho_bar_path=None):
        for path, columns, values in (
                (rho_path, self.tickers, self.rho),
                (pvalue_path, self.tickers, self.pvalue),
                (rho_bar_path, ["rho_bar"], self.rho_bar[:, None])):
            if path:
                textio.write_matrix(path, self.tickers, columns, values,
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


def correlation_matrix(panel, alpha=DEFAULT_ALPHA,
                       significance_mode=PipelineConfig.significance_mode):
    """Full rho / p-value matrices and the rho_bar vector for a return panel.

    ``panel`` is a ReturnPanel or any object with .returns and .tickers.
    """
    if significance_mode not in MODES:
        raise EstimationError(f"unknown significance mode {significance_mode!r}")
    X = np.asarray(panel.returns, dtype=float)
    tickers = list(panel.tickers)
    T, N = X.shape
    if N < 2:
        raise EstimationError("correlation matrix needs at least 2 stocks")
    if T < 3:
        raise EstimationError("correlation matrix needs at least 3 observations")

    Xc = X - X.mean(axis=0)
    norms = np.sqrt(np.sum(Xc * Xc, axis=0))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise EstimationError(
            f"correlation undefined for constant column {tickers[zero[0]]}")
    Xc /= norms  # in place: Xc is this function's copy, X the caller's
    rho = Xc.T @ Xc
    del Xc  # free the N x T copy before the N x N p-value and filter steps
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)

    # symmetric with a zero diagonal, as rho is exactly symmetric with ones
    pvalue = t_pvalue(rho, T - 2)

    work = rho.copy()
    np.fill_diagonal(work, 0.0)
    if significance_mode == "filtered":
        work[pvalue >= alpha] = 0.0
    rho_bar = work.sum(axis=0) / (N - 1)

    return CorrelationSummary(tickers=tickers, rho=rho, pvalue=pvalue,
                              rho_bar=rho_bar, significance_mode=significance_mode,
                              alpha=alpha, n_obs=T)
