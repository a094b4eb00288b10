import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from scalecorr.association import (build_report, kendall_tau,
                                   partial_correlation, simple_ols)
from scalecorr.crosscorr import pearson
from scalecorr.errors import EstimationError
from scalecorr.panel import log_capitalizations


def brute_force_tau(x, y):
    """Exhaustive pair enumeration, tau-b with tie correction."""
    n = len(x)
    con = dis = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            sx = np.sign(x[i] - x[j])
            sy = np.sign(y[i] - y[j])
            if sx == 0:
                tx += 1
            if sy == 0:
                ty += 1
            if sx * sy > 0:
                con += 1
            elif sx * sy < 0:
                dis += 1
    n0 = n * (n - 1) / 2
    return (con - dis) / math.sqrt((n0 - tx) * (n0 - ty))


class TestKendallTau:
    def test_perfect_concordance(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 5.0])
        tau, _ = kendall_tau(x, x)
        assert tau == 1.0

    def test_perfect_discordance(self):
        x = np.arange(8.0)
        tau, _ = kendall_tau(x, -x)
        assert tau == -1.0

    def test_hand_enumeration(self):
        # 10 pairs, (concordant - discordant)/10 = 0.4
        tau, _ = kendall_tau([1, 2, 3, 4, 5], [3, 1, 2, 5, 4])
        assert abs(tau - 0.4) < 1e-15

    def test_constant_vector_errors(self):
        with pytest.raises(EstimationError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_no_ties_pvalue_formula(self, rng):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        tau, p = kendall_tau(x, y)
        n = 40
        z = 3 * tau * math.sqrt(n * (n - 1)) / math.sqrt(2 * (2 * n + 5))
        assert abs(p - 2 * stats.norm.sf(abs(z))) < 1e-12
        # bit for bit from the integer statistic S = con - dis, with
        # var = n(n-1)(2n+5)/18
        s = round(tau * n * (n - 1) / 2)
        z = s / math.sqrt(n * (n - 1) * (2 * n + 5) / 18.0)
        assert p == 2.0 * stats.norm.sf(abs(z))

    def test_zero_statistic_pvalue_is_one(self):
        # 3 concordant and 3 discordant pairs: z = 0
        tau, p = kendall_tau([1, 2, 3, 4], [3, 1, 4, 2])
        assert tau == 0.0
        assert p == 2.0 * stats.norm.sf(0.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=2,
                    max_size=12),
           st.data())
    def test_matches_brute_force(self, xs, data):
        ys = data.draw(st.lists(st.integers(min_value=0, max_value=8),
                                min_size=len(xs), max_size=len(xs)))
        x = np.array(xs, dtype=float)
        y = np.array(ys, dtype=float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            return
        tau, _ = kendall_tau(x, y)
        assert abs(tau - brute_force_tau(x, y)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotone_transform_invariance(self, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal(15)
        y = g.uniform(0.5, 2.0, 15)
        tau, _ = kendall_tau(x, y)
        tau2, _ = kendall_tau(np.exp(x), y ** 3)
        assert abs(tau - tau2) < 1e-12


class TestSimpleOls:
    def test_exact_affine(self):
        x = np.arange(10.0)
        y = 3.0 * x - 1.0
        slope, intercept, resid, r2 = simple_ols(x, y)
        assert abs(slope - 3.0) < 1e-12
        assert abs(intercept + 1.0) < 1e-12
        assert np.abs(resid).max() < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_exact_line_through_origin(self):
        slope, intercept, _, _ = simple_ols([0.0, 1.0, 2.0], [0.0, 2.0, 4.0])
        assert abs(slope - 2.0) < 1e-12
        assert abs(intercept) < 1e-12

    def test_independent_response_r2_vanishes(self):
        g = np.random.default_rng(0)
        x = g.standard_normal(4096)
        y = g.standard_normal(4096)
        _, _, _, r2 = simple_ols(x, y)
        assert r2 < 0.05

    def test_constant_predictor_errors(self):
        with pytest.raises(EstimationError, match="singular"):
            simple_ols([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_r2_is_squared_pearson(self, rng):
        x = rng.standard_normal(60)
        y = 0.7 * x + rng.standard_normal(60)
        _, _, _, r2 = simple_ols(x, y)
        assert abs(r2 - pearson(x, y) ** 2) < 1e-12


class TestPartialCorrelation:
    def test_closed_form_identity(self, rng):
        # residual method equals (r_ab - r_ac r_bc)/sqrt((1-r_ac^2)(1-r_bc^2))
        for _ in range(50):
            Z = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 3))
            a, b, c = Z[:, 0], Z[:, 1], Z[:, 2]
            rab, rac, rbc = pearson(a, b), pearson(a, c), pearson(b, c)
            expected = (rab - rac * rbc) / math.sqrt(
                (1 - rac ** 2) * (1 - rbc ** 2))
            got, _ = partial_correlation(a, b, c)
            assert abs(got - expected) < 1e-10

    def test_population_one_third(self):
        # equicorrelated triple at 0.5: partial = (0.5-0.25)/0.75 = 1/3
        g = np.random.default_rng(42)
        L = np.linalg.cholesky(np.array([[1.0, 0.5, 0.5],
                                         [0.5, 1.0, 0.5],
                                         [0.5, 0.5, 1.0]]))
        Z = g.standard_normal((4096, 3)) @ L.T
        got, _ = partial_correlation(Z[:, 0], Z[:, 1], Z[:, 2])
        assert abs(got - 1.0 / 3.0) < 0.05

    def test_control_absorbs_a(self, rng):
        c = rng.standard_normal(500)
        a = c + 1e-6 * rng.standard_normal(500)
        b = rng.standard_normal(500)
        got, p = partial_correlation(a, b, c)
        assert abs(got) < 0.1

    def test_independent_triple(self):
        g = np.random.default_rng(5)
        got, p = partial_correlation(g.standard_normal(2000),
                                     g.standard_normal(2000),
                                     g.standard_normal(2000))
        assert abs(got) < 0.06

    def test_symmetric_in_a_b(self, rng):
        Z = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 3))
        r1, p1 = partial_correlation(Z[:, 0], Z[:, 1], Z[:, 2])
        r2, p2 = partial_correlation(Z[:, 1], Z[:, 0], Z[:, 2])
        assert abs(r1 - r2) < 1e-12
        assert abs(p1 - p2) < 1e-12

    def test_needs_four_points(self):
        with pytest.raises(EstimationError):
            partial_correlation([1.0, 2, 3], [1.0, 2, 3], [1.0, 3, 2])


class TestBuildReport:
    def test_monotone_proxy_gives_tau_one(self):
        i = np.arange(8)
        rho_bar = np.linspace(0.1, 0.5, 8)
        report = build_report(0.5 + 0.01 * i, -0.2 + 0.02 * i, rho_bar)
        assert report.kendall_B_rho[0] == 1.0

    def test_all_caps_absent_flags_block(self):
        i = np.arange(6)
        report = build_report(0.5 + 0.01 * i, -0.01 * i,
                              np.linspace(0, 0.5, 6), np.full(6, np.nan))
        assert not report.cap_block_available
        assert "unavailable" in report.to_text()
        keys = dict(report.to_pairs())
        assert keys["cap_block_available"] == "0"
        assert "partial_corr.rho" not in keys

    def test_cap_block_present(self):
        g = np.random.default_rng(1)
        tickers = [f"T{i}" for i in range(30)]
        lncap = np.linspace(1.0, 10.0, 30)
        rho_bar = 0.05 * lncap + 0.05 * g.standard_normal(30)
        B = 0.02 * lncap - 0.3 + 0.02 * g.standard_normal(30)
        medians = {t: math.exp(lncap[i]) for i, t in enumerate(tickers)}
        report = build_report(0.5 - B, B, rho_bar,
                              log_capitalizations(medians, tickers))
        assert report.cap_block_available
        assert report.n_used == 30
        assert report.pearson_B_lncap[0] > 0.5
        assert report.pearson_rho_lncap[0] > 0.5
        assert 0.0 <= report.r2_rho_bar <= 1.0
        assert 0.0 <= report.r2_B_hat <= 1.0

