"""Surrogate panels separating tail effects from temporal memory.

Two constructions: a synchronous shuffle (one random permutation of the time
axis applied to every column at once, destroying autocorrelation while
preserving the equal-time cross-correlation matrix) and a marginal
Gaussianization (per column, values replaced by standard-normal quantiles of
their mid-ranks, removing distribution-shape effects while preserving the
temporal rank structure).
"""

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import EstimationError
from .panel import ReturnPanel


@dataclass
class SurrogateSpec:
    kind: str
    seed: int
    permutation: np.ndarray = None

    def digest(self):
        if self.permutation is None:
            return ""
        return hashlib.sha256(self.permutation.astype(np.int64).tobytes()).hexdigest()

    def to_pairs(self):
        return [("kind", self.kind), ("seed", str(self.seed)),
                ("permutation_digest", self.digest())]


def synchronous_shuffle(panel, seed, permutation=None):
    """Apply one seeded random permutation of the time axis to all columns.

    ``permutation`` overrides the random draw (test hook). Returns the
    shuffled panel and a spec recording the permutation.
    """
    X = np.asarray(panel.returns)
    T = X.shape[0]
    if T < 2:
        raise EstimationError("shuffle needs at least 2 time points")
    if permutation is None:
        permutation = np.random.default_rng(seed).permutation(T)
    else:
        permutation = np.asarray(permutation)
        if sorted(permutation) != list(range(T)):
            raise EstimationError("permutation is not a bijection on 0..T-1")
    out = ReturnPanel(dates=list(panel.dates), tickers=list(panel.tickers),
                      returns=X[permutation].copy(),
                      column_means_removed=np.asarray(
                          panel.column_means_removed).copy())
    return out, SurrogateSpec(kind="synchronous_shuffle", seed=seed,
                              permutation=permutation)


def mid_rank_levels(X):
    """(rank + 0.5) / T per column of a [T x N] array, ranks 0..T-1 with
    ties broken by time index (stable sort)."""
    T, N = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    ranks = np.empty(X.shape)
    ranks[order, np.arange(N)[None, :]] = np.arange(T, dtype=float)[:, None]
    return (ranks + 0.5) / T


def marginal_gaussianize(panel, seed=0):
    """Replace each column by the normal quantiles of its mid-ranks.

    Rank ties are broken deterministically by original time index (stable
    sort), so a fixed input maps to a fixed output regardless of seed.
    """
    X = np.asarray(panel.returns, dtype=float)
    if X.shape[0] < 10:
        raise EstimationError("gaussianization needs at least 10 time points")
    const = np.flatnonzero(np.ptp(X, axis=0) == 0.0)
    if const.size:
        raise EstimationError(
            f"ranks undefined for constant column {panel.tickers[const[0]]}")
    out = stats.norm.ppf(mid_rank_levels(X))
    return ReturnPanel(dates=list(panel.dates), tickers=list(panel.tickers),
                       returns=out)
