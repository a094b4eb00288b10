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
(:func:`panel_moments`) evaluates the moments in blocks of about
``BLOCK_BYTES`` per buffer, small enough for a core's L2 cache, in one set
of scratch buffers. From ``SPLIT_CELLS`` panel cells on, a forked child
(:func:`textio.halves`) takes the blocks right of the middle block boundary
while this process takes the rest: the short ufunc calls on a block leave
threads waiting on the GIL most of the time. A block holds its series as
contiguous rows, one cumulative sum per block, and each moment is a row
mean (numpy's pairwise summation). The powers |r|^q come from a power
ladder (:func:`_ladder`): one ``exp`` per horizon for the step and one per
anchor q other than the step, then one product per further q of an evenly
spaced grid. Every series goes through the same operations in the same
order whatever the block width or process, so the output depends on
neither.
"""

from dataclasses import dataclass

import numpy as np

from . import textio
from .config import PipelineConfig
from .errors import EstimationError

DEFAULT_Q_GRID = PipelineConfig().q_grid()
DEFAULT_TAU_RANGE = PipelineConfig().tau_range()
MIN_AGGREGATED_OBS = 30
BLOCK_BYTES = 1 << 20          # float64 bytes per [block x T] buffer
# panel cells (T * N) from which a forked child fills half the blocks; the
# fork and hand-over take ~3 ms with 60 MB resident, the kernel ~0.3-0.6 us
# a cell (2 cores), so a smaller panel gains too little to be worth it
SPLIT_CELLS = 1 << 17
LADDER_RUNGS = 32              # products before the ladder re-anchors
LADDER_ULPS = 4                # how far a rung's q may sit off the ladder


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


def _column_blocks(T, N):
    """Column slices of a [T x N] float64 panel, about BLOCK_BYTES each."""
    width = max(1, BLOCK_BYTES // (8 * T))
    return [slice(a, min(a + width, N)) for a in range(0, N, width)]


def _ladder(q_grid):
    """The power ladder of a q grid: its step h and, per q, whether
    |r|^q is the previous q's power times |r|^h (a rung) rather than a fresh
    ``exp(q * ln|r|)`` (an anchor).

    h is the mean step (q[-1] - q[0]) / (Q - 1). q[i] is a rung when h > 0,
    its anchor q[a] > 0 (so a zero |r| gives 0 * 0, not 0 * inf), it lies
    within LADDER_ULPS ulps of q[a] + (i - a) * h, and i - a <= LADDER_RUNGS,
    which bounds the rounding the products accumulate. Any other q is an
    anchor; an evenly spaced positive grid is one anchor per LADDER_RUNGS + 1
    values, an uneven grid mostly anchors.
    """
    q = np.asarray(q_grid, dtype=float)
    h = (q[-1] - q[0]) / (len(q) - 1) if len(q) > 1 else 0.0
    rung = np.zeros(len(q), dtype=bool)
    a = 0
    for i in range(1, len(q)):
        k = i - a
        rung[i] = (h > 0 and q[a] > 0 and k <= LADDER_RUNGS
                   and abs(q[a] + k * h - q[i])
                   <= LADDER_ULPS * np.spacing(abs(q[i])))
        if not rung[i]:
            a = i
    return h, rung


def panel_moments(X, q_grid, tau_range):
    """The [Q, Tau, N] moments E[|r_tau|^q] of every column of X, for
    horizons >= 1 that leave MIN_AGGREGATED_OBS values.

    Each block of columns, copied to [width x T] rows, takes one cumulative
    sum for all horizons. Per horizon it takes ln|r_tau| once and, if the
    grid has rungs, the step ``exp(h * ln|r_tau|)`` once, and walks the q
    grid down its :func:`_ladder`: an anchor q is ``exp(q * ln|r_tau|)`` (a
    copy of the step where q == h), a rung multiplies the previous power by
    the step in place, and each power is reduced to its row means. An evenly
    spaced grid that starts at its step thus costs one ``exp`` pass per
    horizon instead of one per q; the products differ from a per-q ``exp``
    in the last few bits. Every block works in one scratch set (block copy,
    cumulative sum, ``ln``, power and step buffers) sized for the widest
    block, of which a narrower block uses the first rows. From SPLIT_CELLS
    cells on, where :func:`textio.can_fork` allows it, the blocks from the
    block boundary nearest N/2 on are filled by a forked child, in its copy
    of the scratch and of the result, and their moments come back through
    the pipe into the result's columns.
    """
    T, N = X.shape
    tau_range = np.asarray(tau_range)
    if tau_range.size and tau_range.min() < 1:
        raise EstimationError(f"horizon tau={tau_range.min()} must be >= 1")
    if tau_range.size and T - tau_range.max() + 1 < MIN_AGGREGATED_OBS:
        raise EstimationError(
            f"series length {T} leaves fewer than {MIN_AGGREGATED_OBS} "
            f"observations at tau={tau_range.max()}")
    h, rung = _ladder(q_grid)
    ladder = rung.any()
    moments = np.empty((len(q_grid), len(tau_range), N))
    blocks = _column_blocks(T, N)
    width = blocks[0].stop  # the widest block
    scratch = (np.empty((width, T)), np.zeros((width, T + 1)),
               *(np.empty((width, T)) for _ in range(3)))

    # zeros give ln|r| = -inf and exp(q * -inf) = 0; an exp or a product
    # that overflows gives inf, which _loglog_fit rejects
    @np.errstate(divide="ignore", over="ignore")
    def fill(part):  # the moments of the blocks in ``part``
        for cols in part:
            w = cols.stop - cols.start
            block, csum, ln_buf, power_buf, step_buf = (
                buf[:w] for buf in scratch)
            np.copyto(block, X[:, cols].T)
            np.cumsum(block, axis=1, out=csum[:, 1:])
            for j, tau in enumerate(int(t) for t in tau_range):
                m = T - tau + 1
                ln_abs, power, step = (
                    buf[:, :m] for buf in (ln_buf, power_buf, step_buf))
                # tau = 1 keeps the returns as they are: differencing the
                # cumsum would round them
                if tau == 1:
                    np.abs(block, out=ln_abs)
                else:
                    np.subtract(csum[:, tau:], csum[:, :-tau], out=ln_abs)
                    np.abs(ln_abs, out=ln_abs)
                np.log(ln_abs, out=ln_abs)
                if ladder:
                    np.multiply(ln_abs, h, out=step)
                    np.exp(step, out=step)
                for i, q in enumerate(q_grid):
                    if rung[i]:
                        power *= step
                    elif ladder and q == h:
                        np.copyto(power, step)
                    else:
                        np.multiply(ln_abs, q, out=power)
                        np.exp(power, out=power)
                    moments[i, j, cols] = np.mean(power, axis=1)

    if T * N < SPLIT_CELLS or len(blocks) < 2 or not textio.can_fork():
        fill(blocks)
        return moments
    k = min(range(1, len(blocks)), key=lambda b: abs(2 * blocks[b].start - N))
    theirs = list(moments.reshape(-1, N)[:, blocks[k].start:])  # their rows

    def second():
        fill(blocks[k:])
        return None, theirs

    textio.halves(lambda: fill(blocks[:k]), second, lambda *_: theirs)
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
    if X.shape[1] == 0:
        raise EstimationError("panel has no stock columns")
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
    moments and >= 3 distinct horizons: [Q, N] slopes zeta, ln K and R^2.
    The moments are overwritten by their logarithms."""
    n_taus = len(np.unique(taus))
    if n_taus < 3:
        raise EstimationError(
            f"need at least 3 distinct horizons, got {n_taus}")
    if not np.all((moments > 0) & (moments < np.inf)):
        raise EstimationError("non-positive or infinite moment")
    ln_tau = np.log(np.asarray(taus, dtype=float))
    xc = ln_tau - ln_tau.mean()
    sxx = np.dot(xc, xc)
    Y = np.log(moments, out=moments)  # [Q, Tau, N]
    zeta = np.tensordot(xc, Y, axes=(0, 1)) / sxx          # [Q, N]
    lnK, r2 = np.empty_like(zeta), np.empty_like(zeta)
    for i, y in enumerate(Y):  # one q at a time: [Tau, N]
        ybar = y.mean(axis=0)
        lnK[i] = ybar - zeta[i] * ln_tau.mean()
        resid = y - zeta[i] * ln_tau[:, None] - lnK[i]
        tss = np.sum((y - ybar) ** 2, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            r2[i] = np.where(tss > 0, 1.0 - np.sum(resid ** 2, axis=0) / tss,
                             1.0)
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
