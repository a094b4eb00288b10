import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalecorr import scaling
from scalecorr.config import PipelineConfig
from scalecorr.errors import EstimationError
from scalecorr.scaling import (DEFAULT_Q_GRID, DEFAULT_TAU_RANGE, _loglog_fit,
                               _proxy_fit, estimate_scaling_panel,
                               panel_moments)

from conftest import running_threads


def aggregate_returns(returns, tau):
    """Reference tau-horizon returns: overlapping sliding sums of tau
    daily returns along axis 0, the series the moments are taken over."""
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
    """The moments E[|r_tau|^q] of one series: a one-column panel."""

    def test_gaussian_self_similarity(self, rng):
        # E|r_tau| scales as tau^(1/2) for iid Gaussian
        x = rng.standard_normal(4096)
        m = panel_moments(x[:, None], [1.0], DEFAULT_TAU_RANGE)[0, :, 0]
        for j, tau in enumerate(DEFAULT_TAU_RANGE):
            assert abs(m[j] / m[0] / tau ** 0.5 - 1.0) < 0.05

    def test_all_zero_series_errors(self):
        with pytest.raises(EstimationError, match="zero moment"):
            estimate_scaling_panel(np.zeros((200, 1)))

    def test_deterministic_ones_exact_power(self):
        m = panel_moments(np.ones((200, 1)), DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        np.testing.assert_allclose(
            m[:, :, 0], DEFAULT_TAU_RANGE[None, :] ** DEFAULT_Q_GRID[:, None],
            rtol=1e-12)

    def test_too_short_series(self):
        with pytest.raises(EstimationError, match="fewer than"):
            estimate_scaling_panel(np.ones((40, 1)))
        # the kernel checks its horizons itself: tau = 60 > T is no NaN
        with pytest.raises(EstimationError, match="fewer than 30 .* tau=60"):
            panel_moments(np.ones((50, 3)), DEFAULT_Q_GRID, [1, 60])


class TestEstimateZeta:
    """The log-log fit over [Q, Tau, N] moments."""

    def test_exact_power_law(self):
        taus = np.arange(1.0, 20.0)
        zeta, lnK, r2 = _loglog_fit(taus, (2.0 * taus ** 0.7)[None, :, None])
        assert zeta.shape == lnK.shape == r2.shape == (1, 1)
        assert abs(zeta[0, 0] - 0.7) < 1e-12
        assert abs(lnK[0, 0] - math.log(2.0)) < 1e-12
        assert abs(r2[0, 0] - 1.0) < 1e-12

    def test_gaussian_iid_uniscaling(self, rng):
        x = rng.standard_normal(4096)
        zeta = estimate_scaling_panel(x[:, None]).zeta[:, 0]
        for q, z in zip(DEFAULT_Q_GRID, zeta):
            assert abs(z - q / 2) < 0.03

    def test_one_point_curve_errors(self):
        with pytest.raises(EstimationError):
            _loglog_fit(np.array([2.0]), np.ones((1, 1, 1)))


class TestFitProxies:
    """The quadratic fit over [Q, N] exponents."""

    def test_exact_quadratic_recovery(self):
        q = DEFAULT_Q_GRID
        A, B, rss = _proxy_fit(q, (0.3 * q - 0.05 * q ** 2)[:, None])
        assert A.shape == B.shape == rss.shape == (1,)
        assert abs(A[0] - 0.3) < 1e-12
        assert abs(B[0] + 0.05) < 1e-12
        assert rss[0] < 1e-12

    def test_uniscaling_brownian(self):
        q = DEFAULT_Q_GRID
        A, B, _ = _proxy_fit(q, (0.5 * q)[:, None])
        assert abs(A[0] - 0.5) < 1e-12
        assert abs(B[0]) < 1e-12

    def test_needs_two_distinct_q(self):
        with pytest.raises(EstimationError):
            _proxy_fit(np.array([0.5, 0.5]), np.ones((2, 1)))

    def test_gaussian_monte_carlo(self):
        # light version of the acceptance null; analytic zeta(q) = q/2
        A_all, B_all = [], []
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(4096)
            r = estimate_scaling_panel((x - x.mean())[:, None])
            A_all.append(r.A_hat[0])
            B_all.append(r.B_hat[0])
        assert abs(np.median(B_all)) < 0.02
        assert abs(np.median(A_all) - 0.5) < 0.02


class TestScaleInvariance:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_proxies_invariant_under_scaling(self, c):
        x = np.random.default_rng(7).standard_normal((800, 1))
        base = estimate_scaling_panel(x)
        scaled = estimate_scaling_panel(c * x)
        np.testing.assert_allclose(scaled.zeta, base.zeta, atol=1e-9)
        np.testing.assert_allclose(scaled.A_hat, base.A_hat, atol=1e-9)
        np.testing.assert_allclose(scaled.B_hat, base.B_hat, atol=1e-9)
        # only the intercepts shift, by q * ln c
        np.testing.assert_allclose(scaled.lnK - base.lnK,
                                   base.q_grid[:, None] * math.log(c),
                                   atol=1e-9)


class TestPanelEstimation:
    def test_matches_per_series(self, rng):
        # one result of [Q, N] and [N] arrays, column i being the estimate
        # of column i alone
        X = rng.standard_normal((600, 4))
        r = estimate_scaling_panel(X)
        Q = len(DEFAULT_Q_GRID)
        np.testing.assert_array_equal(r.q_grid, DEFAULT_Q_GRID)
        assert r.zeta.shape == r.lnK.shape == r.per_q_r2.shape == (Q, 4)
        assert r.A_hat.shape == r.B_hat.shape == r.fit_rss.shape == (4,)
        for i in range(4):
            s = estimate_scaling_panel(X[:, [i]])
            for name in ("zeta", "lnK", "per_q_r2", "A_hat", "B_hat",
                         "fit_rss"):
                np.testing.assert_allclose(getattr(r, name)[..., i],
                                           getattr(s, name)[..., 0],
                                           atol=1e-12, err_msg=name)

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
            r = estimate_scaling_panel((x - x.mean())[:, None])
            Bs.append(r.B_hat[0])
            As.append(r.A_hat[0])
        assert np.median(Bs) < 0
        assert np.median(As) > 0.5


class TestOneEstimator:
    """A bad series raises one error through the panel entry point, named
    by its ticker where the fault lies in the series."""

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
        with pytest.raises(EstimationError, match=match):
            estimate_scaling_panel(x[:, None], tickers=["X"], **kwargs)


def test_overflowing_moment_raises_without_warning():
    """|x|^q overflows inside the worker threads; the error is the one
    line, with no RuntimeWarning before it."""
    X = 1e3 * np.random.default_rng(3).standard_normal((200, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="infinite moment"):
            estimate_scaling_panel(X, q_grid=[200.0, 300.0])


def _unblocked_moments(X, q_grid, tau_range):
    """The power ladder of panel_moments on the whole panel at once, with
    the series as contiguous rows."""
    h, rung = scaling._ladder(q_grid)
    moments = np.empty((len(q_grid), len(tau_range), X.shape[1]))
    for j, tau in enumerate(tau_range):
        rows = np.ascontiguousarray(aggregate_returns(X, int(tau)).T)
        with np.errstate(divide="ignore"):
            ln_abs = np.log(np.abs(rows))
        step = np.exp(h * ln_abs)
        for i, q in enumerate(q_grid):
            power = power * step if rung[i] else np.exp(q * ln_abs)
            moments[i, j] = np.mean(power, axis=1)
    return moments


def _per_q_moments(X, q_grid, tau_range):
    """The moments with one exp per (q, tau): mean(exp(q * ln|r_tau|))."""
    moments = np.empty((len(q_grid), len(tau_range), X.shape[1]))
    with np.errstate(divide="ignore", over="ignore"):
        for j, tau in enumerate(tau_range):
            ln_abs = np.log(np.abs(aggregate_returns(X, int(tau))))
            for i, q in enumerate(q_grid):
                moments[i, j] = np.mean(np.exp(q * ln_abs), axis=0)
    return moments


THOUSAND_Q = PipelineConfig(q_min=0.005, q_max=5.0, q_step=0.005).q_grid()
UNEVEN_Q = np.array([0.1, 0.25, 0.3, 0.35, 0.7, 1.0, 1.1, 1.2, 2.5, 3.0])


class TestPowerLadder:
    """The ladder's products stay within 1e-13 of a per-q exp, and zero
    and infinite moments fall on the same entries."""

    @pytest.fixture
    def panel(self):
        g = np.random.default_rng(11)
        X = g.standard_t(3, size=(300, 7)) * 0.01
        X[10:20, 2] = 0.0     # exact zeros: ln|r| = -inf
        X[:, 5] = 0.0         # an all-zero column: zero moments
        X[:, 6] *= 1e5        # large values: the high q overflow
        return X

    def test_plan(self):
        assert len(THOUSAND_Q) == 1000
        h, rung = scaling._ladder(DEFAULT_Q_GRID)
        assert h == pytest.approx(0.1) and list(np.flatnonzero(~rung)) == [0]
        # a long ladder re-anchors, which bounds the rounding it accumulates
        assert 8 <= scaling.LADDER_RUNGS <= 64
        h, rung = scaling._ladder(THOUSAND_Q)
        anchors = np.arange(0, 1000, scaling.LADDER_RUNGS + 1)
        assert np.array_equal(np.flatnonzero(~rung), anchors)
        # off the mean-step ladder every q is an anchor
        assert not scaling._ladder(UNEVEN_Q)[1].any()
        # a non-positive anchor would give 0 * inf for a zero return
        assert not scaling._ladder([-0.2, -0.1, 0.0, 0.1])[1].any()
        assert not scaling._ladder([0.5])[1].any()

    @pytest.mark.parametrize("q_grid", [DEFAULT_Q_GRID, THOUSAND_Q, UNEVEN_Q,
                                        np.arange(1.0, 121.0, 4.0)],
                             ids=["default", "thousand", "uneven", "high"])
    def test_matches_per_q_exp(self, panel, q_grid):
        tau_range = np.array([1, 2, 5, 13])
        got = panel_moments(panel, q_grid, tau_range)
        want = _per_q_moments(panel, q_grid, tau_range)
        assert np.array_equal(got == 0, want == 0)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        ok = (want > 0) & np.isfinite(want)
        assert ok.sum() > got.size // 2
        assert np.max(np.abs(got[ok] / want[ok] - 1.0)) <= 1e-13

    def test_same_errors_as_per_q_exp(self, panel):
        high = np.arange(1.0, 121.0, 4.0)
        assert np.isinf(panel_moments(panel, high, [1, 2, 3])).any()
        with pytest.raises(EstimationError, match="infinite moment"):
            estimate_scaling_panel(panel[:, [0, 6]], q_grid=high)
        with pytest.raises(EstimationError,
                           match=r"zero moment at \(q=0.1, tau=1\) for 5"):
            estimate_scaling_panel(panel)


class TestBlockedKernel:
    """panel_moments is bit-identical to the unblocked power ladder for any
    block width, in one process and with a forked child."""

    T = 120

    @pytest.fixture
    def panel(self):
        g = np.random.default_rng(7)
        X = g.standard_t(3, size=(self.T, 23)) * 0.01
        X[5:9, 4] = 0.0       # exact zeros take the ln|x| = -inf path
        return X

    @pytest.mark.parametrize("width", [1, 2, 4, 5, 22, 1000])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 21, 23])
    def test_bit_identical(self, panel, monkeypatch, forks, width, threads,
                           n):
        # the calling thread alone hands half the blocks to a child once
        # there are two; with two more threads running the kernel stays in
        # one process
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * self.T * width)
        monkeypatch.setattr(scaling, "SPLIT_CELLS", 0)
        X = panel[:, :n]
        # both grids start at their step; THOUSAND_Q also re-anchors at q
        # other than the step (one horizon keeps its 1000 q quick)
        for q_grid, taus in ((DEFAULT_Q_GRID, DEFAULT_TAU_RANGE),
                             (THOUSAND_Q, [2])):
            want = _unblocked_moments(X, q_grid, taus)
            with running_threads(threads - 1):
                got = panel_moments(X, q_grid, taus)
            assert np.array_equal(got, want)
        assert len(forks) == (2 if threads == 1 and n > width else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_many_threads_stress(self, panel, monkeypatch, forks):
        # more calling threads than cores, two-column blocks and a short
        # switch interval: each call stays in one process, and a block
        # written to another call's scratch or result breaks bit-identity
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * self.T * 2)
        monkeypatch.setattr(scaling, "SPLIT_CELLS", 0)
        want = _unblocked_moments(panel, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        got = {}  # shift -> moments of the panel's columns rolled by it

        def call(shift):
            X = np.roll(panel, shift, axis=1)
            got[shift] = [panel_moments(X, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
                          for _ in range(3)]

        threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not forks
        assert sorted(got) == [0, 1, 2, 3]
        assert all(np.array_equal(m, np.roll(want, shift, axis=2))
                   for shift, runs in got.items() for m in runs)


class TestForkedKernel:
    """The second core is a forked child, never a thread."""

    @pytest.fixture
    def panel(self, monkeypatch):
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * 120 * 4)
        monkeypatch.setattr(scaling, "SPLIT_CELLS", 0)
        return np.random.default_rng(7).standard_t(3, size=(120, 23)) * 0.01

    def test_starts_no_thread(self, panel, monkeypatch, forks):
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread))
        got = panel_moments(panel, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        assert not started and len(forks) == 1
        assert np.array_equal(got, _unblocked_moments(
            panel, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE))

    def test_serial_below_the_threshold(self, panel, monkeypatch, forks):
        monkeypatch.setattr(scaling, "SPLIT_CELLS", panel.size + 1)
        panel_moments(panel, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        assert not forks

    def test_child_exception_is_raised_here(self, panel, monkeypatch, forks):
        parent, cumsum = os.getpid(), np.cumsum

        def failing_in_the_child(*args, **kwargs):
            if os.getpid() != parent:
                raise ArithmeticError("in the child")
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", failing_in_the_child)
        with pytest.raises(ArithmeticError, match="^in the child$"):
            panel_moments(panel, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cli_import_loads_no_thread_pool(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, scalecorr.cli; "
             "print('concurrent.futures' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def _whole_panel_loglog_fit(taus, moments):
    """The log-log fit over all of [Q, Tau, N] at once."""
    ln_tau = np.log(np.asarray(taus, dtype=float))
    xc = ln_tau - ln_tau.mean()
    Y = np.log(moments)
    zeta = np.tensordot(xc, Y, axes=(0, 1)) / np.dot(xc, xc)
    ybar = Y.mean(axis=1)
    lnK = ybar - zeta * ln_tau.mean()
    resid = Y - zeta[:, None, :] * ln_tau[None, :, None] - lnK[:, None, :]
    tss = np.sum((Y - ybar[:, None, :]) ** 2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(tss > 0, 1.0 - np.sum(resid ** 2, axis=1) / tss, 1.0)
    return zeta, lnK, r2


class TestLoglogFit:
    """The fit takes the log of the moments in place and works one q at a
    time, bit for bit as over the whole panel."""

    # measured: ~1.67x the moments' bytes (the tensordot's copy of the
    # logs, then one q's temporaries); ~3.9x over the whole panel at once
    PEAK_OVER_MOMENTS = 2.5

    def test_peak_over_moments(self):
        moments = np.random.default_rng(3).uniform(
            0.5, 2.0, (len(DEFAULT_Q_GRID), len(DEFAULT_TAU_RANGE), 1202))
        nbytes = moments.nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _loglog_fit(DEFAULT_TAU_RANGE, moments)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_OVER_MOMENTS * nbytes

    # a lone column is reduced pairwise by numpy, wide blocks row by row
    @pytest.mark.parametrize("n", [1202, 7, 1])
    def test_bit_identical_to_whole_panel(self, n):
        X = np.random.default_rng(n).standard_t(4, size=(300, n)) * 0.01
        moments = panel_moments(X, DEFAULT_Q_GRID, DEFAULT_TAU_RANGE)
        want = _whole_panel_loglog_fit(DEFAULT_TAU_RANGE, moments)
        got = estimate_scaling_panel(X)
        for g, w in zip((got.zeta, got.lnK, got.per_q_r2), want):
            assert g.tobytes() == w.tobytes()
