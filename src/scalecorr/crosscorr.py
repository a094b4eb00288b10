"""Pairwise Pearson correlations, significance, and per-stock averages.

The coefficients are matrix products of once-centred, once-normalised
columns instead of O(N^2) passes over the data. :func:`correlation_matrix`
centres and normalises the returns it is given in place, so the caller's
return matrix holds those columns afterwards. It never holds the N x N
matrix rho: it computes rho's upper triangle one row block at a time
(:func:`_tiles`, one BLAS ``gemm`` per block, the flops of one ``syrk``)
and adds each block into the per-stock averages. rho itself is built from
the same blocks only when it is asked for (:attr:`CorrelationSummary.rho`),
each block mirrored into both triangles, so it is exactly symmetric and
rho_bar is exactly its filtered mean. Each stock's average
cross-correlation rho_bar_i is the mean of its coefficients with the other
N-1 stocks; in "filtered" mode coefficients compatible with the
uncorrelated null (p >= alpha) count as 0.

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
from functools import cached_property

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
    columns: np.ndarray  # the [T x N] unit-norm returns rho is built from
    rho_bar: np.ndarray
    significance_mode: str
    alpha: float
    n_obs: int
    zeroed: int  # pairs i < j the filter set to 0 (0 in "all" mode)

    @cached_property
    def rho(self):
        """The N x N coefficient matrix, built from the row blocks of
        :func:`_tiles` on first access: each block fills its rows of the
        upper triangle and, transposed, its columns of the lower one."""
        N = len(self.tickers)
        rho = np.empty((N, N))
        for rows, tile in _tiles(self.columns):
            rho[rows, rows.start:] = tile
            rho[rows.start:, rows] = tile.T
        return rho

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
    mask = r > -lo
    mask &= r < lo
    near = r >= -hi
    near &= r <= hi
    near[mask] = False
    near = np.flatnonzero(near)
    mask.flat[near] = t_pvalue(r.flat[near], dof) >= alpha
    return mask


def _blocks(n, N):
    """Column slices of a [n x N] float64 array, about BLOCK_BYTES / 2 each,
    or row slices of its [N x n] transpose. Half a scaling block keeps this
    stage's temporaries small; quarter blocks make twice the BLAS calls and
    took 0.14-0.20 s against 0.14-0.15 s on a 4000 x 1202 panel."""
    return _column_blocks(2 * n, N)


def _sums_of_squares(X):
    """Each column's sum of squares, row after row from +0.0: the squares
    of one row block of ``X`` at a time, below the running sums, summed
    down their columns (numpy adds the rows of an array at least 2 wide in
    order)."""
    T, N = X.shape
    sums = np.zeros(N)
    blocks = _blocks(N, T)
    squares = np.empty((blocks[0].stop + 1, N))
    for rows in blocks:
        block = squares[:rows.stop - rows.start + 1]
        block[0] = sums
        np.square(X[rows], out=block[1:])
        np.sum(block, axis=0, out=sums)
    return sums


def _tiles(X):
    """rho's upper triangle in row blocks: (rows, tile) per block, where
    ``tile`` is rho[rows, rows.start:], a [h x (N - rows.start)] view into
    one buffer that the next tile overwrites.

    ``X`` holds unit-norm columns. A tile is ``X[:, rows].T @
    X[:, rows.start:]`` (one gemm; a single block is ``X.T @ X``, which numpy
    computes with syrk), clipped to [-1, 1], with its leading [h x h] square
    made exactly symmetric from its upper triangle and a unit diagonal. The
    blocks are rho's column blocks of :func:`_blocks`, as rows.
    """
    N = X.shape[1]
    blocks = _blocks(N, N)
    buf = np.empty(blocks[0].stop * N)
    for rows in blocks:
        h, a = rows.stop - rows.start, rows.start
        tile = buf[:h * (N - a)].reshape(h, N - a)
        np.matmul(X[:, rows].T, X[:, a:], out=tile)
        np.clip(tile, -1.0, 1.0, out=tile)
        square = tile[:, :h]
        for i in range(1, h):
            square[i, :i] = square[:i, i]
        np.fill_diagonal(square, 1.0)
        yield rows, tile


def correlation_matrix(panel, alpha=DEFAULT_ALPHA,
                       significance_mode=PipelineConfig.significance_mode):
    """The rho_bar vector of a return panel, in a summary whose ``rho`` and
    ``pvalue`` are computed on access.

    ``panel`` is a ReturnPanel or any object with .returns and .tickers.
    The returns are the only N x T buffer: a writeable float64 array is
    centred and scaled to unit-norm columns in place, so ``panel.returns``
    holds those columns afterwards (any other array is copied first), and
    the summary keeps that array to build rho from. Beside it, the stage
    holds one row block of squares (:func:`_sums_of_squares`) or one tile
    of rho with its boolean filter mask (:func:`_tiles`) at a time.

    rho_bar is reduced from the tiles, each filtered and its diagonal
    zeroed in place. A tile's entries right of its square are added to
    their columns' running sums, row after row. Row i of a tile holds
    column i's entries from rows.start on, mirrored; a cumulative sum along
    the row, from column i's running sum, adds them in order. So every
    column of rho is summed row after row from +0.0, and its bits match a
    whole-matrix column sum.
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
    norms = _sums_of_squares(X)
    np.sqrt(norms, out=norms)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise EstimationError(
            f"correlation undefined for constant column {tickers[zero[0]]}")
    X /= norms

    # only the pairs i < j that the filter skips are counted
    rho_bar = np.zeros(N)
    zeroed = 0
    for rows, tile in _tiles(X):
        h, end = rows.stop - rows.start, rows.stop
        if significance_mode == "filtered":
            skip = insignificant(tile, alpha, T - 2)
            zeroed += int(np.count_nonzero(skip[:, h:])
                          + np.count_nonzero(np.triu(skip[:, :h], 1)))
            tile[skip] = 0.0
        np.fill_diagonal(tile[:, :h], 0.0)
        for row in tile[:, h:]:
            rho_bar[end:] += row
        tile[:, 0] += rho_bar[rows]
        np.add.accumulate(tile, axis=1, out=tile)
        rho_bar[rows] = tile[:, -1]
    rho_bar /= N - 1

    return CorrelationSummary(tickers=tickers, columns=X, rho_bar=rho_bar,
                              significance_mode=significance_mode,
                              alpha=alpha, n_obs=T, zeroed=zeroed)
