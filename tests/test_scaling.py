import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalecorr import scaling
from scalecorr.errors import EstimationError
from scalecorr.scaling import (DEFAULT_Q_GRID, DEFAULT_TAU_RANGE, MomentCurve,
                               aggregate_returns, estimate_scaling,
                               estimate_scaling_panel, estimate_zeta,
                               fit_proxies, panel_moments, structure_function)


class TestAggregateReturns:
    def test_constant_series(self):
        out = aggregate_returns(np.full(50, 2.0), 5)
        np.testing.assert_allclose(out, 10.0, atol=1e-12)
        assert len(out) == 46

    def test_tau_one_is_identity(self, rng):
        x = rng.standard_normal(40)
        np.testing.assert_array_equal(aggregate_returns(x, 1), x)

    def test_hand_case(self):
        np.testing.assert_allclose(aggregate_returns([1.0, -1.0, 2.0], 2),
                                   [0.0, 1.0], atol=1e-15)

    def test_tau_too_long(self):
        with pytest.raises(EstimationError):
            aggregate_returns([1.0, 2.0, 3.0], 3)


class TestStructureFunction:
    def test_gaussian_self_similarity(self, rng):
        # E|r_tau| scales as tau^(1/2) for iid Gaussian
        x = rng.standard_normal(4096)
        curves = structure_function(x, q_grid=[1.0])
        m = curves[0].moments
        for j, tau in enumerate(curves[0].taus):
            assert abs(m[j] / m[0] / tau ** 0.5 - 1.0) < 0.05

    def test_all_zero_series_errors(self):
        with pytest.raises(EstimationError, match="zero moment"):
            structure_function(np.zeros(200))

    def test_deterministic_ones_exact_power(self):
        x = np.ones(200)
        curves = structure_function(x)
        for c in curves:
            np.testing.assert_allclose(c.moments, c.taus ** c.q, rtol=1e-12)

    def test_too_short_series(self):
        with pytest.raises(EstimationError, match="fewer than"):
            structure_function(np.ones(40))


class TestEstimateZeta:
    def test_exact_power_law(self):
        taus = np.arange(1.0, 20.0)
        curve = MomentCurve(q=1.0, taus=taus, moments=2.0 * taus ** 0.7)
        zeta, lnK, r2 = estimate_zeta([curve])
        assert abs(zeta[0] - 0.7) < 1e-12
        assert abs(lnK[0] - math.log(2.0)) < 1e-12
        assert abs(r2[0] - 1.0) < 1e-12

    def test_gaussian_iid_uniscaling(self, rng):
        x = rng.standard_normal(4096)
        curves = structure_function(x)
        zeta, _, _ = estimate_zeta(curves)
        for q, z in zip(DEFAULT_Q_GRID, zeta):
            assert abs(z - q / 2) < 0.03

    def test_one_point_curve_errors(self):
        with pytest.raises(EstimationError):
            estimate_zeta([MomentCurve(q=1.0, taus=np.array([2.0]),
                                       moments=np.array([1.0]))])


class TestFitProxies:
    def test_exact_quadratic_recovery(self):
        q = DEFAULT_Q_GRID
        A, B, rss = fit_proxies(q, 0.3 * q - 0.05 * q ** 2)
        assert abs(A - 0.3) < 1e-12
        assert abs(B + 0.05) < 1e-12
        assert rss < 1e-12

    def test_uniscaling_brownian(self):
        q = DEFAULT_Q_GRID
        A, B, _ = fit_proxies(q, 0.5 * q)
        assert abs(A - 0.5) < 1e-12
        assert abs(B) < 1e-12

    def test_needs_two_distinct_q(self):
        with pytest.raises(EstimationError):
            fit_proxies([0.5, 0.5], [1.0, 1.0])

    def test_gaussian_monte_carlo(self):
        # light version of the acceptance null; analytic zeta(q) = q/2
        A_all, B_all = [], []
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(4096)
            r = estimate_scaling(x - x.mean())
            A_all.append(r.A_hat)
            B_all.append(r.B_hat)
        assert abs(np.median(B_all)) < 0.02
        assert abs(np.median(A_all) - 0.5) < 0.02


class TestScaleInvariance:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_proxies_invariant_under_scaling(self, c):
        x = np.random.default_rng(7).standard_normal(800)
        base = estimate_scaling(x)
        scaled = estimate_scaling(c * x)
        np.testing.assert_allclose(scaled.zeta, base.zeta, atol=1e-9)
        assert abs(scaled.A_hat - base.A_hat) < 1e-9
        assert abs(scaled.B_hat - base.B_hat) < 1e-9
        # only the intercepts shift, by q * ln c
        np.testing.assert_allclose(scaled.lnK - base.lnK,
                                   base.q_grid * math.log(c), atol=1e-9)


class TestPanelEstimation:
    def test_matches_per_series(self, rng):
        X = rng.standard_normal((600, 4))
        panel_results = estimate_scaling_panel(X)
        for i, pr in enumerate(panel_results):
            sr = estimate_scaling(X[:, i])
            np.testing.assert_allclose(pr.zeta, sr.zeta, atol=1e-12)
            assert abs(pr.A_hat - sr.A_hat) < 1e-12
            assert abs(pr.B_hat - sr.B_hat) < 1e-12
            assert abs(pr.fit_rss - sr.fit_rss) < 1e-12

    def test_degenerate_column_names_ticker(self, rng):
        X = rng.standard_normal((200, 2))
        X[:, 1] = 0.0
        with pytest.raises(EstimationError, match="BAD"):
            estimate_scaling_panel(X, tickers=["OK", "BAD"])

    def test_needs_two_distinct_q(self, rng):
        X = rng.standard_normal((200, 3))
        with pytest.raises(EstimationError, match="2 distinct q"):
            estimate_scaling_panel(X, q_grid=[0.5, 0.5])
        with pytest.raises(EstimationError, match="2 distinct q"):
            estimate_scaling_panel(X, q_grid=[0.5])

    def test_needs_three_horizons(self, rng):
        X = rng.standard_normal((200, 3))
        with pytest.raises(EstimationError, match="3 distinct horizons"):
            estimate_scaling_panel(X, tau_range=np.array([1, 2]))
        with pytest.raises(EstimationError, match="3 distinct horizons"):
            estimate_scaling_panel(X, tau_range=np.array([2, 2, 5, 5]))

    def test_student_t_concavity_sign(self):
        # concave zeta(q): B < 0 together with A > 0.5
        Bs, As = [], []
        for seed in range(10):
            g = np.random.default_rng(seed)
            x = g.standard_t(3, 4096) / math.sqrt(3.0)
            r = estimate_scaling(x - x.mean())
            Bs.append(r.B_hat)
            As.append(r.A_hat)
        assert np.median(Bs) < 0
        assert np.median(As) > 0.5


class TestOneEstimator:
    """The per-series API runs the panel estimator on one column, so a bad
    input raises the same error through both entry points."""

    SERIES = {
        "gaussian": lambda g: g.standard_normal(200),
        "short": lambda g: g.standard_normal(40),
        "zeros": lambda g: np.zeros(200),
        "large": lambda g: 1e3 * g.standard_normal(200),
    }

    @pytest.mark.parametrize("series, kwargs, match", [
        ("gaussian", {"q_grid": [0.0, 0.5]}, "singular normal equations"),
        ("gaussian", {"q_grid": [0.5]}, "at least 2 distinct q"),
        ("gaussian", {"tau_range": [1, 2]}, "3 distinct horizons, got 2"),
        ("gaussian", {"tau_range": [0, 1, 2, 3]}, "tau=0 must be >= 1"),
        ("short", {}, "fewer than 30 observations at tau=19"),
        ("zeros", {}, r"zero moment at \(q=0.1, tau=1\) for X"),
        # |x|^q overflows: the moments are infinite
        ("large", {"q_grid": [200.0, 300.0]}, "infinite moment"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_same_error(self, series, kwargs, match):
        x = self.SERIES[series](np.random.default_rng(3))
        with pytest.raises(EstimationError, match=match) as scalar:
            estimate_scaling(x, ticker="X", **kwargs)
        with pytest.raises(EstimationError) as panel:
            estimate_scaling_panel(x[:, None], tickers=["X"], **kwargs)
        assert str(panel.value) == str(scalar.value)


def _unblocked_moments(X, q_grid, tau_range):
    """The whole-panel formula the blocked kernel replaced."""
    moments = np.empty((len(q_grid), len(tau_range), X.shape[1]))
    for j, tau in enumerate(tau_range):
        abs_agg = np.abs(aggregate_returns(X, int(tau)))
        with np.errstate(divide="ignore"):
            ln_abs = np.log(abs_agg)
        for i, q in enumerate(q_grid):
            moments[i, j] = np.mean(np.exp(q * ln_abs), axis=0)
    return moments


class TestBlockedKernel:
    """panel_moments is bit-identical to the unblocked formula for any block
    width and worker count."""

    T = 120

    @pytest.fixture
    def panel(self):
        g = np.random.default_rng(7)
        X = g.standard_t(3, size=(self.T, 23)) * 0.01
        X[5:9, 4] = 0.0       # exact zeros take the ln|x| = -inf path
        return X

    @pytest.mark.parametrize("width", [2, 4, 5, 22, 1000])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 21, 23])
    def test_bit_identical(self, panel, monkeypatch, width, workers, n):
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * self.T * width)
        monkeypatch.setattr(scaling, "MAX_WORKERS", workers)
        X = panel[:, :n]
        got = panel_moments(X, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        want = _unblocked_moments(X, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        assert np.array_equal(got, want)

    def test_many_threads_stress(self, panel, monkeypatch):
        # more workers than cores, two-column blocks and a short switch
        # interval: a lost or misplaced block write breaks bit-identity
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * self.T * 2)
        monkeypatch.setattr(scaling, "MAX_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [panel_moments(panel, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
                   for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        want = _unblocked_moments(panel, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        assert all(np.array_equal(g, want) for g in got)
