"""Structure-function scaling and the multiscaling proxies.

For a demeaned daily return series, the q-th absolute moment at horizon tau
is fitted as a power law moment(q, tau) = K(q) * tau^zeta(q) by ordinary
least squares in log-log scale. The exponent curve is then fitted by the
intercept-free quadratic zeta(q) = A*q + B*q^2; B is the curvature
(multiscaling) proxy and A the linear one. A pure random walk gives
A = 0.5, B = 0.

:func:`estimate_scaling_panel` estimates every column of a [time x stock]
panel at once and returns one :class:`ScalingResult` of [Q, N] and [N]
arrays; a single series is the panel ``x[:, None]``. Its kernel
(:func:`panel_moments`) evaluates the moments in column blocks of
about ``BLOCK_BYTES`` each, one cumulative sum per block, spread over
``MAX_WORKERS`` threads (numpy ufuncs release the GIL). Every column goes
through the same operations in the same order whatever the block width or
thread count, so the output does not depend on either.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import EstimationError

DEFAULT_Q_GRID = PipelineConfig().q_grid()
DEFAULT_TAU_RANGE = PipelineConfig().tau_range()
MIN_AGGREGATED_OBS = 30
BLOCK_BYTES = 4 << 20          # float64 bytes per [T x block] column slice
MAX_WORKERS = os.cpu_count() or 1


@dataclass
class ScalingResult:
    """Scaling estimates of a panel of N series over a grid of Q values:
    [Q, N] zeta(q), ln K(q) and log-log R^2, [N] proxies and proxy-fit RSS."""

    q_grid: np.ndarray
    zeta: np.ndarray
    lnK: np.ndarray
    per_q_r2: np.ndarray
    A_hat: np.ndarray
    B_hat: np.ndarray
    fit_rss: np.ndarray


def aggregate_returns(returns, tau):
    """Overlapping tau-horizon returns: sliding sums of tau daily returns."""
    returns = np.asarray(returns, dtype=float)
    if tau < 1:
        raise EstimationError(f"horizon tau={tau} must be >= 1")
    if tau >= returns.shape[0]:
        raise EstimationError(
            f"horizon tau={tau} too long for series of length {returns.shape[0]}")
    if tau == 1:
        return returns.copy()
    c = np.concatenate([np.zeros((1,) + returns.shape[1:]), np.cumsum(returns, axis=0)])
    return c[tau:] - c[:-tau]


def _column_blocks(T, N):
    """Column slices of about BLOCK_BYTES for a [T x N] float64 panel.

    No block is one column wide unless N == 1: numpy reduces a [T x 1] array
    with pairwise summation but sums each column of a wider array in order,
    so a lone column would not match the same column inside a wider block.
    """
    width = max(2, BLOCK_BYTES // (8 * T))
    starts = list(range(0, N, width))
    if len(starts) > 1 and N - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [N])]


def panel_moments(X, q_grid, tau_range):
    """The [Q, Tau, N] moments E[|r_tau|^q] of every column of X.

    Each block of columns takes one cumulative sum for all horizons and
    computes ``mean(exp(q * ln|r_tau|))`` per (q, tau); blocks run on up to
    MAX_WORKERS threads and write disjoint slices of the result.
    """
    T, N = X.shape
    moments = np.empty((len(q_grid), len(tau_range), N))

    # zeros give ln|r| = -inf and exp(q * -inf) = 0; an exp that overflows
    # gives inf, which _loglog_fit rejects (errstate holds per thread)
    @np.errstate(divide="ignore", over="ignore")
    def fill(cols):
        block = np.ascontiguousarray(X[:, cols])
        csum = np.concatenate([np.zeros((1, block.shape[1])),
                               np.cumsum(block, axis=0)])
        for j, tau in enumerate(int(t) for t in tau_range):
            # tau = 1 keeps the returns as they are: differencing the
            # cumsum would round them
            agg = block if tau == 1 else csum[tau:] - csum[:-tau]
            ln_abs = np.log(np.abs(agg))
            for i, q in enumerate(q_grid):
                moments[i, j, cols] = np.mean(np.exp(q * ln_abs), axis=0)

    blocks = _column_blocks(T, N)
    with ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(blocks))) as pool:
        list(pool.map(fill, blocks))
    return moments


def _checked_moments(returns_matrix, q_grid, tau_range, tickers):
    """q grid, horizons (defaults where None) and [Q, Tau, N] moments of a
    2-D panel with >= 1 column, horizons >= 1 leaving MIN_AGGREGATED_OBS
    values, and no zero moment (named by its column's ticker or index)."""
    X = np.asarray(returns_matrix, dtype=float)
    if X.ndim != 2:
        raise EstimationError("expected a 2-D [time x stock] matrix")
    q_grid = DEFAULT_Q_GRID if q_grid is None else np.asarray(q_grid, dtype=float)
    tau_range = DEFAULT_TAU_RANGE if tau_range is None else np.asarray(tau_range)
    if tau_range.size and tau_range.min() < 1:
        raise EstimationError(f"horizon tau={tau_range.min()} must be >= 1")
    T, N = X.shape
    if N == 0:
        raise EstimationError("panel has no stock columns")
    if tau_range.size and T - tau_range.max() + 1 < MIN_AGGREGATED_OBS:
        raise EstimationError(
            f"series length {T} leaves fewer than {MIN_AGGREGATED_OBS} "
            f"observations at tau={tau_range.max()}")
    moments = panel_moments(X, q_grid, tau_range)
    bad = np.argwhere(moments == 0.0)
    if bad.size:
        i, j, n = bad[0]
        name = tickers[n] if tickers is not None else n
        raise EstimationError(
            f"zero moment at (q={q_grid[i]}, tau={tau_range[j]}) "
            f"for {name}: degenerate series")
    return q_grid, tau_range, moments


def _loglog_fit(taus, moments):
    """OLS of ln(moment) on ln(tau) over [Q, Tau, N] positive, finite
    moments and >= 3 distinct horizons: [Q, N] slopes zeta, ln K and R^2."""
    n_taus = len(np.unique(taus))
    if n_taus < 3:
        raise EstimationError(
            f"need at least 3 distinct horizons, got {n_taus}")
    if not np.all((moments > 0) & (moments < np.inf)):
        raise EstimationError("non-positive or infinite moment")
    ln_tau = np.log(np.asarray(taus, dtype=float))
    xc = ln_tau - ln_tau.mean()
    sxx = np.dot(xc, xc)
    Y = np.log(moments)  # [Q, Tau, N]
    zeta = np.tensordot(xc, Y, axes=(0, 1)) / sxx          # [Q, N]
    ybar = Y.mean(axis=1)
    lnK = ybar - zeta * ln_tau.mean()
    resid = Y - zeta[:, None, :] * ln_tau[None, :, None] - lnK[:, None, :]
    tss = np.sum((Y - ybar[:, None, :]) ** 2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(tss > 0, 1.0 - np.sum(resid ** 2, axis=1) / tss, 1.0)
    return zeta, lnK, r2


def _proxy_fit(q, zeta):
    """Fit zeta(q) = A*q + B*q^2 to each column of the [Q, N] exponents by
    the 2x2 normal equations in closed form: [N] arrays A, B and the RSS."""
    if len(np.unique(q)) < 2:
        raise EstimationError("proxy fit needs at least 2 distinct q values")
    s2, s3, s4 = np.sum(q ** 2), np.sum(q ** 3), np.sum(q ** 4)
    det = s2 * s4 - s3 * s3
    if det == 0.0:
        raise EstimationError("singular normal equations in proxy fit")
    b1 = q @ zeta        # [N]
    b2 = (q ** 2) @ zeta
    A = (s4 * b1 - s3 * b2) / det
    B = (s2 * b2 - s3 * b1) / det
    pres = zeta - A[None, :] * q[:, None] - B[None, :] * (q ** 2)[:, None]
    return A, B, np.sum(pres ** 2, axis=0)


def estimate_scaling_panel(returns_matrix, q_grid=None, tau_range=None,
                           tickers=None):
    """Scaling estimates of every column of a [time x stock] matrix.

    The [Q, Tau, N] moments come from :func:`panel_moments`; the log-log
    and proxy fits then run on the whole panel. Column n of the result's
    arrays belongs to column n of the matrix.
    """
    q, tau_range, moments = _checked_moments(returns_matrix, q_grid,
                                             tau_range, tickers)
    zeta, lnK, r2 = _loglog_fit(tau_range, moments)
    A, B, rss = _proxy_fit(q, zeta)
    return ScalingResult(q_grid=q.copy(), zeta=zeta, lnK=lnK, per_q_r2=r2,
                         A_hat=A, B_hat=B, fit_rss=rss)
