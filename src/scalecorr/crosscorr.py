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
from scipy import stats

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
        if rho_path:
            textio.write_matrix(rho_path, self.tickers, self.tickers,
                                self.rho, corner="ticker")
        if pvalue_path:
            textio.write_matrix(pvalue_path, self.tickers, self.tickers,
                                self.pvalue, corner="ticker")
        if rho_bar_path:
            textio.write_table(rho_bar_path, ["ticker", "rho_bar"],
                               [(t, textio.fmt(v))
                                for t, v in zip(self.tickers, self.rho_bar)])


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


def pearson_pvalue(rho, n):
    """Two-sided p-value of a Pearson coefficient under the uncorrelated null.

    Uses t = rho * sqrt((n-2)/(1-rho^2)) with n-2 degrees of freedom.
    """
    if n < 3:
        raise EstimationError("pearson_pvalue: need n >= 3")
    if abs(rho) > 1:
        raise EstimationError(f"pearson_pvalue: |rho|={abs(rho)} > 1")
    if abs(rho) >= 1.0:
        return 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return float(2.0 * stats.t.sf(abs(t), n - 2))


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
    G = Xc / norms
    rho = G.T @ G
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = rho * np.sqrt((T - 2) / (1.0 - rho * rho))
    pvalue = np.where(np.abs(rho) >= 1.0, 0.0,
                      2.0 * stats.t.sf(np.abs(np.nan_to_num(tstat, posinf=np.inf,
                                                            neginf=-np.inf)),
                                       T - 2))
    pvalue = (pvalue + pvalue.T) / 2.0
    np.fill_diagonal(pvalue, 0.0)

    work = rho.copy()
    np.fill_diagonal(work, 0.0)
    if significance_mode == "filtered":
        off_null = pvalue >= alpha
        np.fill_diagonal(off_null, False)
        work[off_null] = 0.0
    rho_bar = work.sum(axis=0) / (N - 1)

    return CorrelationSummary(tickers=tickers, rho=rho, pvalue=pvalue,
                              rho_bar=rho_bar, significance_mode=significance_mode,
                              alpha=alpha, n_obs=T)
