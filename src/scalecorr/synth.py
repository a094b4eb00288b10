"""Synthetic market panels with known ground truth.

Generators used as positive and negative controls: iid Gaussian columns
(uniscaling, zero cross-correlation), standardized Student-t columns (heavy
tails bias the small-horizon scaling, curvature proxy < 0), a one-factor
market with analytic pairwise correlations beta_i*beta_j /
sqrt((beta_i^2+1)(beta_j^2+1)), and a dyadic lognormal multiplicative
cascade whose volatility field produces genuine multiscaling.
"""

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from . import _special as special
from .errors import ConfigError
from .panel import ReturnPanel
from .surrogates import mid_rank_levels

KINDS = ("gaussian_iid", "student_t", "one_factor", "cascade")
_EPOCH = dt.date(2000, 1, 3)


def check_size(n_stocks, n_days, seed):
    """ConfigError unless a synthetic panel has >= 2 stocks, >= 64 days and
    a non-negative seed, the bounds every generator here shares."""
    if n_stocks < 2:
        raise ConfigError("recipe needs n_stocks >= 2")
    if n_days < 64:
        raise ConfigError("recipe needs n_days >= 64")
    if seed < 0:
        raise ConfigError(f"seed={seed} is negative")


@dataclass
class MarketRecipe:
    """Parameters of one synthetic panel; unused fields may stay None."""

    n_stocks: int
    n_days: int
    seed: int
    kind: str
    nu: float = None                 # student_t tail index (> 2)
    betas: np.ndarray = None         # one_factor loadings, len n_stocks
    tail: str = "gaussian"           # one_factor innovation kind
    tail_nu: float = 3.0             # one_factor innovation tail index
    depth: int = 10                  # cascade levels
    multiplier_sigma: float = 0.3    # cascade lognormal spread

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown recipe kind {self.kind!r}")
        check_size(self.n_stocks, self.n_days, self.seed)
        if self.kind == "student_t" and not 2 < (self.nu or 0) < math.inf:
            raise ConfigError(f"student_t nu={self.nu} must be finite and > 2")
        if self.kind == "one_factor":
            if self.betas is None or len(self.betas) != self.n_stocks:
                raise ConfigError("one_factor recipe needs one beta per stock")
            if not np.all(np.isfinite(self.betas)):
                raise ConfigError("one_factor betas must be finite")
            if self.tail == "student_t" and not 2 < self.tail_nu < math.inf:
                raise ConfigError(f"tail_nu={self.tail_nu} must be finite and > 2")
        if self.kind == "cascade":
            if self.depth < 1:
                raise ConfigError("cascade depth must be >= 1")
            if not 0 <= self.multiplier_sigma < math.inf:
                raise ConfigError(f"multiplier_sigma={self.multiplier_sigma} "
                                  "must be finite and >= 0")
            if 2 ** self.depth > self.n_days:
                raise ConfigError(
                    f"cascade length 2^{self.depth} exceeds n_days={self.n_days}")


def _dates(n):
    return [_EPOCH + dt.timedelta(days=i) for i in range(n)]


def _standardized_t(rng, nu, size):
    return rng.standard_t(nu, size) / math.sqrt(nu / (nu - 2.0))


def _draw(rng, tail, nu, size):
    if tail == "gaussian":
        return rng.standard_normal(size)
    if tail == "student_t":
        return _standardized_t(rng, nu, size)
    raise ConfigError(f"unknown tail kind {tail!r}")


def cascade_volatility(rng, depth, sigma):
    """Dyadic multiplicative cascade of mean-one lognormal multipliers."""
    field_ = np.ones(1)
    mu = -0.5 * sigma * sigma
    for _ in range(depth):
        field_ = np.repeat(field_, 2)
        field_ = field_ * np.exp(rng.normal(mu, sigma, size=field_.size))
    return field_


@np.errstate(all="ignore")  # extreme draws are caught by the column check
def generate(recipe):
    """Draw one panel from a recipe; fixed recipe + seed is bit-reproducible.

    Finite but extreme recipe values (a beta of 1e200, a cascade sigma of
    1e200) can overflow or underflow the draws; the first column that is
    not finite or is constant is then a ConfigError."""
    recipe.validate()
    rng = np.random.default_rng(recipe.seed)
    T, N = recipe.n_days, recipe.n_stocks

    if recipe.kind == "gaussian_iid":
        X = rng.standard_normal((T, N))
    elif recipe.kind == "student_t":
        X = _standardized_t(rng, recipe.nu, (T, N))
    elif recipe.kind == "one_factor":
        betas = np.asarray(recipe.betas, dtype=float)
        f = _draw(rng, recipe.tail, recipe.tail_nu, T)
        eps = _draw(rng, recipe.tail, recipe.tail_nu, (T, N))
        X = (betas[None, :] * f[:, None] + eps) / np.sqrt(betas ** 2 + 1.0)
    else:  # cascade
        cols = []
        for _ in range(N):
            vol = cascade_volatility(rng, recipe.depth, recipe.multiplier_sigma)
            vol = np.resize(vol, T)  # tile/truncate to the panel length
            cols.append(vol * rng.standard_normal(T))
        X = np.column_stack(cols)

    tickers = [f"S{i:04d}" for i in range(N)]
    X = X - X.mean(axis=0)
    finite = np.isfinite(X).all(axis=0)
    bad = np.flatnonzero(~finite | (np.ptp(X, axis=0) == 0.0))
    if bad.size:
        i = bad[0]
        raise ConfigError(
            f"{recipe.kind} recipe draws a column {tickers[i]} that is "
            + ("not finite" if not finite[i] else "constant"))
    return ReturnPanel(dates=_dates(T), tickers=tickers, returns=X)


def coupled_market_recipe(n_stocks, n_days, seed, coupled=True,
                          nu_range=(2.5, 8.0), beta_range=(0.2, 1.5)):
    """One-factor market where tail heaviness varies per stock.

    When ``coupled``, the factor loading increases with the tail index, so
    heavy-tailed stocks (strong curvature) are also weakly correlated; when
    not, loadings are drawn independently of the tails.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n_stocks)
    if coupled:
        nus = nu_range[0] + (nu_range[1] - nu_range[0]) * u
        betas = beta_range[0] + (beta_range[1] - beta_range[0]) * u
    else:
        # Independence null. Tail shape must be homogeneous here: even
        # tails drawn independently of the loadings bias rho_bar, because
        # heavier-tailed marginals attenuate every Pearson coefficient of
        # that stock, recreating a positive association.
        nus = np.full(n_stocks, 0.5 * (nu_range[0] + nu_range[1]))
        betas = rng.uniform(beta_range[0], beta_range[1], n_stocks)
    return nus, betas


def generate_coupled_market(n_stocks, n_days, seed, coupled=True):
    """One-factor Gaussian dependence with per-stock t(nu_i) marginals.

    The Gaussian one-factor panel fixes the rank dependence (through the
    loadings), then each column is remapped onto standardized Student-t
    quantiles of its mid-ranks. Tail heaviness is therefore set by nu_i
    alone, independent of the loading unless the recipe couples them.
    """
    check_size(n_stocks, n_days, seed)
    nus, betas = coupled_market_recipe(n_stocks, n_days, seed, coupled)
    rng = np.random.default_rng(seed + 1)
    f = rng.standard_normal(n_days)
    eps = rng.standard_normal((n_days, n_stocks))
    Z = betas[None, :] * f[:, None] + eps
    levels = mid_rank_levels(Z)
    X = np.empty_like(Z)
    for i in range(n_stocks):
        quantiles = special.stdtrit(nus[i], levels[:, i])  # t(nu) quantiles
        X[:, i] = quantiles / math.sqrt(nus[i] / (nus[i] - 2.0))
    X -= X.mean(axis=0)
    tickers = [f"S{i:04d}" for i in range(n_stocks)]
    return ReturnPanel(dates=_dates(n_days), tickers=tickers, returns=X), betas
