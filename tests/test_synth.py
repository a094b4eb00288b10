import math

import numpy as np
import pytest
from scipy import stats

from scalecorr.association import kendall_tau
from scalecorr.crosscorr import correlation_matrix
from scalecorr.errors import ConfigError
from scalecorr.scaling import estimate_scaling_panel
from scalecorr.surrogates import mid_rank_levels
from scalecorr.synth import (MarketRecipe, cascade_volatility,
                             coupled_market_recipe, generate,
                             generate_coupled_market)

from conftest import stylized_fact_experiment


class TestRecipeValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            MarketRecipe(5, 128, 0, "garch").validate()

    def test_too_few_stocks(self):
        with pytest.raises(ConfigError):
            MarketRecipe(1, 128, 0, "gaussian_iid").validate()

    def test_too_few_days(self):
        with pytest.raises(ConfigError):
            MarketRecipe(5, 32, 0, "gaussian_iid").validate()

    def test_student_t_needs_finite_variance(self):
        with pytest.raises(ConfigError):
            MarketRecipe(5, 128, 0, "student_t", nu=2.0).validate()

    def test_cascade_depth_vs_days(self):
        with pytest.raises(ConfigError):
            MarketRecipe(5, 128, 0, "cascade", depth=8).validate()

    def test_one_factor_needs_betas(self):
        with pytest.raises(ConfigError):
            MarketRecipe(5, 128, 0, "one_factor").validate()


class TestGenerate:
    def test_bit_reproducible(self):
        r = MarketRecipe(6, 256, 42, "student_t", nu=4.0)
        a = generate(r)
        b = generate(r)
        np.testing.assert_array_equal(a.returns, b.returns)

    def test_columns_demeaned(self):
        panel = generate(MarketRecipe(5, 512, 1, "gaussian_iid"))
        assert np.abs(panel.returns.mean(axis=0)).max() < 1e-12

    def test_one_factor_pairwise_correlation(self):
        # max deviation from the analytic level stays < 0.05 at T = 4096
        betas = np.linspace(0.3, 1.2, 10)
        panel = generate(MarketRecipe(10, 4096, 5, "one_factor", betas=betas))
        c = correlation_matrix(panel, significance_mode="all")
        scale = np.sqrt(betas ** 2 + 1.0)
        target = np.outer(betas, betas) / np.outer(scale, scale)
        np.fill_diagonal(target, 1.0)
        assert np.abs(c.rho - target).max() < 0.05

    def test_one_factor_rho_bar_tracks_beta(self):
        betas = np.linspace(0.2, 1.5, 30)
        panel = generate(MarketRecipe(30, 4096, 2, "one_factor", betas=betas))
        c = correlation_matrix(panel)
        tau, _ = kendall_tau(betas, c.rho_bar)
        assert tau > 0.9

    def test_cascade_volatility_positive_dyadic(self):
        vol = cascade_volatility(np.random.default_rng(0), 8, 0.3)
        assert vol.shape == (256,)
        assert np.all(vol > 0)

    def test_cascade_zeta_concave(self):
        margins = []
        for seed in range(8):
            panel = generate(MarketRecipe(4, 2048, seed, "cascade", depth=10))
            r = estimate_scaling_panel(panel.returns)
            z = dict(zip(np.round(r.q_grid, 3), r.zeta))
            margins.extend(z[0.5] / 0.5 - z[1.0] / 1.0)
        assert np.median(margins) > 0.01

    def test_student_t_tail_curvature(self):
        Bs = []
        for seed in range(10):
            panel = generate(MarketRecipe(10, 4096, seed, "student_t", nu=3.0))
            Bs.extend(estimate_scaling_panel(panel.returns).B_hat)
        assert np.median(Bs) < -0.01


class TestStylizedFactExperiment:
    def test_coupled_market_positive_tau(self):
        report = stylized_fact_experiment(60, 2048, seed=3, coupled=True)
        tau, p = report.kendall_B_rho
        assert tau > 0
        assert p < 0.01

    def test_gaussian_null_tau_small(self):
        panel = generate(MarketRecipe(40, 4096, 9, "gaussian_iid"))
        result = estimate_scaling_panel(panel.returns)
        c = correlation_matrix(panel)
        tau, p = kendall_tau(result.B_hat, c.rho_bar)
        assert p > 0.05

    def test_coupled_flag_controls_tail_heterogeneity(self):
        (_, betas_c) = generate_coupled_market(20, 128, 0, coupled=True)
        (_, betas_u) = generate_coupled_market(20, 128, 0, coupled=False)
        assert betas_c.shape == betas_u.shape == (20,)

    @pytest.mark.parametrize("seed, coupled", [(0, True), (1, True),
                                               (2, False)])
    def test_coupled_market_equals_t_ppf_construction(self, seed, coupled):
        n, T = 12, 300
        panel, betas = generate_coupled_market(n, T, seed, coupled)
        nus, _ = coupled_market_recipe(n, T, seed, coupled)
        rng = np.random.default_rng(seed + 1)
        f = rng.standard_normal(T)
        levels = mid_rank_levels(betas[None, :] * f[:, None]
                                 + rng.standard_normal((T, n)))
        X = np.column_stack([stats.t.ppf(levels[:, i], nu)
                             / math.sqrt(nu / (nu - 2.0))
                             for i, nu in enumerate(nus)])
        X -= X.mean(axis=0)
        assert np.array_equal(panel.returns, X)
