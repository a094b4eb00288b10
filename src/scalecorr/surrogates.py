"""Surrogate panels separating tail effects from temporal memory.

Two constructions: a synchronous shuffle (one random permutation of the time
axis applied to every column at once, destroying autocorrelation while
preserving the equal-time cross-correlation matrix) and a marginal
Gaussianization (per column, values replaced by standard-normal quantiles of
their mid-ranks, removing distribution-shape effects while preserving the
temporal rank structure).
"""

from dataclasses import dataclass

import numpy as np

from . import _special as special
from .errors import EstimationError
from .panel import ReturnPanel
from .scaling import _column_blocks


@dataclass
class SurrogateSpec:
    kind: str
    seed: int
    permutation: np.ndarray = None

    def digest(self):
        import hashlib  # OpenSSL is left out of the package's import
        return hashlib.sha256(self.permutation.astype(np.int64).tobytes()).hexdigest()

    def to_pairs(self):
        pairs = [("kind", self.kind), ("seed", str(self.seed))]
        if self.permutation is None:
            return pairs
        return pairs + [("permutation_digest", self.digest())]


def synchronous_shuffle(panel, seed):
    """Apply one seeded random permutation of the time axis to all columns.

    The rows are permuted in place, one column block at a time, so the
    panel's returns hold the shuffled values afterwards; returns that are
    not a writeable float64 array are copied first. Returns the shuffled
    panel and a spec recording the permutation.
    """
    X = np.require(panel.returns, float, "W")
    T, N = X.shape
    if T < 2:
        raise EstimationError("shuffle needs at least 2 time points")
    permutation = np.random.default_rng(seed).permutation(T)
    for cols in _column_blocks(T, N):
        X[:, cols] = X[permutation, cols]
    out = ReturnPanel(dates=list(panel.dates), tickers=list(panel.tickers),
                      returns=X)
    return out, SurrogateSpec(kind="synchronous_shuffle", seed=seed,
                              permutation=permutation)


def mid_rank_levels(X):
    """Overwrite a writeable [T x N] float array with (rank + 0.5) / T per
    column, ranks 0..T-1 with ties broken by time index (stable sort), and
    return it. The columns are sorted one block of about BLOCK_BYTES at a
    time, so the sort order is never N x T."""
    T, N = X.shape
    mid = ((np.arange(T) + 0.5) / T)[:, None]
    for cols in _column_blocks(T, N):
        order = np.argsort(X[:, cols], axis=0, kind="stable")
        np.put_along_axis(X[:, cols], order, mid, axis=0)
    return X


def marginal_gaussianize(panel, seed=0):
    """Replace each column by the normal quantiles of its mid-ranks.

    Rank ties are broken deterministically by original time index (stable
    sort), so a fixed input maps to a fixed output regardless of seed.
    The quantiles replace the panel's returns in place; returns that are not
    a writeable float64 array are copied first. Returns the new panel and a
    spec recording the seed.
    """
    X = np.require(panel.returns, float, "W")
    if X.shape[0] < 10:
        raise EstimationError("gaussianization needs at least 10 time points")
    const = np.flatnonzero(np.ptp(X, axis=0) == 0.0)
    if const.size:
        raise EstimationError(
            f"ranks undefined for constant column {panel.tickers[const[0]]}")
    levels = mid_rank_levels(X)
    out = ReturnPanel(dates=list(panel.dates), tickers=list(panel.tickers),
                      returns=special.ndtri(levels, out=levels))
    return out, SurrogateSpec(kind="marginal_gaussianize", seed=seed)
