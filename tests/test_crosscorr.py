import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from scalecorr import crosscorr, scaling
from scalecorr.crosscorr import (correlation_matrix, critical_r, insignificant,
                                 pearson, pearson_pvalue, t_pvalue)
from scalecorr.errors import EstimationError

from conftest import make_return_panel


def t_density(x, df):
    """Student-t pdf written out, independent oracle for the p-value path."""
    c = math.exp(special.gammaln((df + 1) / 2) - special.gammaln(df / 2))
    c /= math.sqrt(df * math.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


class TestPearson:
    def test_self_correlation(self, rng):
        x = rng.standard_normal(50)
        assert pearson(x, x) == 1.0

    def test_anti_correlation(self, rng):
        x = rng.standard_normal(50)
        assert pearson(x, -x) == -1.0

    def test_hand_value(self):
        # direct covariance/variance arithmetic: 6.5 / sqrt(5 * 8.75)
        r = pearson([1, 2, 3, 4], [1, 2, 3, 5])
        assert abs(r - 6.5 / math.sqrt(5 * 8.75)) < 1e-15
        assert abs(r - 0.9827076298239908) < 1e-12

    def test_constant_series_errors(self):
        with pytest.raises(EstimationError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(EstimationError):
            pearson([1.0, 2.0], [1.0, 2.0])


class TestPearsonPvalue:
    def test_null_center(self):
        for n in (3, 10, 100):
            assert pearson_pvalue(0.0, n) == 1.0

    def test_degenerate(self):
        assert pearson_pvalue(1.0, 10) == 0.0
        assert pearson_pvalue(-1.0, 10) == 0.0

    def test_against_quadrature_oracle(self):
        # rho = 0.5, n = 20: t = 2.4495, two tails of t(18)
        rho, n = 0.5, 20
        t = rho * math.sqrt((n - 2) / (1 - rho * rho))
        assert abs(t - 2.449489742783178) < 1e-12
        tail, _ = integrate.quad(t_density, t, np.inf, args=(n - 2,))
        p = pearson_pvalue(rho, n)
        assert abs(p - 2 * tail) < 1e-10
        assert abs(p - 0.0246) < 5e-4

    def test_small_n_errors(self):
        with pytest.raises(EstimationError):
            pearson_pvalue(0.5, 2)


class TestTPvalue:
    def test_elementwise_two_sided(self):
        r = np.array([[-1.0, -0.5, 0.0], [0.5, 0.999, 1.0]])
        p = t_pvalue(r, 18)
        assert p.shape == r.shape
        assert p[0, 0] == p[1, 2] == 0.0
        assert p[0, 2] == 1.0
        assert p[0, 1] == p[1, 0] == pearson_pvalue(0.5, 20)
        assert abs(p[1, 0] - 0.0246) < 5e-4

    def test_matrix_pvalues_are_t_pvalues_of_rho(self, rng):
        panel = make_return_panel(rng.standard_normal((50, 5)))
        c = correlation_matrix(panel)
        np.testing.assert_array_equal(c.pvalue, t_pvalue(c.rho, 48))
        np.testing.assert_array_equal(c.pvalue, c.pvalue.T)
        assert np.all(np.diag(c.pvalue) == 0.0)


    @pytest.mark.parametrize("dof", [1, 2, 3, 7, 48, 1000, 1e5])
    def test_equals_scipy_stats_sf_bit_for_bit(self, rng, dof):
        r = np.concatenate([rng.uniform(-1.0, 1.0, 2000),
                            [0.0, 1.0, -1.0, 1.0 - 1e-9, -(1.0 - 1e-9)]])
        with np.errstate(divide="ignore"):
            t = np.abs(r) * np.sqrt(dof / (1.0 - r * r))
        assert np.array_equal(t_pvalue(r, dof), 2.0 * stats.t.sf(t, dof))


def reference_correlation(X, alpha, significance_mode):
    """The correlation stage written with a separate normalised array
    ``G = Xc / norms``, whole N x N temporaries and scipy.stats' t survival
    function: G, rho, the p-values, rho_bar and the zeroed pairs i < j."""
    T, N = X.shape
    Xc = X - X.mean(axis=0)
    norms = np.sqrt(np.sum(Xc * Xc, axis=0))
    G = Xc / norms
    rho = G.T @ G
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return (G, rho) + reference_from_rho(rho, T, alpha, significance_mode)


def reference_from_rho(rho, T, alpha, significance_mode):
    """The p-values, rho_bar and zeroed pairs i < j of a given N x N rho of
    T observations, from whole N x N temporaries."""
    N = len(rho)
    with np.errstate(divide="ignore"):
        t = np.abs(rho) * np.sqrt((T - 2) / (1.0 - rho * rho))
    pvalue = 2.0 * stats.t.sf(t, T - 2)
    work = rho.copy()
    np.fill_diagonal(work, 0.0)
    zeroed = 0
    if significance_mode == "filtered":
        zeroed = int(np.sum(np.triu(pvalue >= alpha, 1)))
        work[pvalue >= alpha] = 0.0
    return pvalue, work.sum(axis=0) / (N - 1), zeroed


def _neighbours(x, steps=3):
    """x and the ``steps`` floats on either side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


class TestSignificanceFilter:
    """The critical-|r| filter zeroes exactly the coefficients whose
    t_pvalue is >= alpha, deciding most of them without a p-value."""

    ALPHAS = [5e-324, 1e-300, 1e-8, 0.001, 0.01, 0.05, 0.3, 0.9,
              1.0 - 1e-12]

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("T", [3, 4, 4000])
    def test_same_mask_as_pvalues(self, rng, T, alpha):
        dof = T - 2
        r_c = critical_r(alpha, dof)
        band = crosscorr.SIGNIFICANCE_BAND
        edges = [r_c, r_c * (1 - band), min(r_c * (1 + band), 1.0)]
        r = np.concatenate([
            *(_neighbours(e) for e in edges),
            r_c * (1.0 + np.linspace(-3 * band, 3 * band, 601)),
            rng.uniform(-1.0, 1.0, 2000), [0.0, 1.0, np.nextafter(1.0, 0)]])
        r = np.clip(r, 0.0, 1.0)
        r = np.concatenate([r, -r]).reshape(2, -1)
        want = t_pvalue(r, dof) >= alpha
        assert np.array_equal(insignificant(r, alpha, dof), want)
        assert np.array_equal(insignificant(r.T, alpha, dof), want.T)

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.3])
    @pytest.mark.parametrize("T", [3, 4, 4000])
    def test_few_pvalues(self, rng, monkeypatch, T, alpha):
        evaluated = []

        def counting(r, dof):
            evaluated.append(np.size(r))
            return t_pvalue(r, dof)

        monkeypatch.setattr(crosscorr, "t_pvalue", counting)
        r = rng.uniform(-1.0, 1.0, 10_000)
        assert np.array_equal(insignificant(r, alpha, T - 2),
                              t_pvalue(r, T - 2) >= alpha)
        assert sum(evaluated) < 10  # two band edges, almost no pair


def assert_equals_reference(c, X, alpha, mode):
    """c.rho is exactly symmetric, has a unit diagonal and is within 1e-15
    of the whole-matrix ``G.T @ G``, bit for bit where one row block holds
    the panel (syrk); c's p-values, rho_bar and zeroed pairs are those of
    the whole-matrix reference applied to c.rho, bit for bit."""
    T, N = X.shape
    _, rho, *_ = reference_correlation(X, alpha, mode)
    assert np.array_equal(c.rho, c.rho.T)
    assert np.all(np.diag(c.rho) == 1.0)
    if len(crosscorr._blocks(N, N)) == 1:
        assert np.array_equal(c.rho, rho)
    else:
        assert np.abs(c.rho - rho).max() <= 1e-15
    pvalue, rho_bar, zeroed = reference_from_rho(c.rho, T, alpha, mode)
    assert np.array_equal(c.pvalue, pvalue)
    assert np.array_equal(c.rho_bar, rho_bar)
    assert c.zeroed == zeroed


class TestCorrelationMatrix:
    @pytest.mark.parametrize("mode", ["filtered", "all"])
    @pytest.mark.parametrize("T", [3, 4, 40, 256, 257, 600])
    def test_panel_lengths_equal_reference(self, rng, T, mode):
        """Panels from the shortest allowed to longer than N, in one row
        block: rho is the reference's syrk, bit for bit."""
        X = rng.standard_normal((T, 12))
        c = correlation_matrix(make_return_panel(X), 0.3, mode)
        _, rho, pvalue, rho_bar, zeroed = reference_correlation(X, 0.3, mode)
        assert np.array_equal(c.rho, rho)
        assert np.array_equal(c.pvalue, pvalue)
        assert np.array_equal(c.rho_bar, rho_bar)
        assert c.zeroed == zeroed

    @pytest.mark.parametrize("mode", ["filtered", "all"])
    @pytest.mark.parametrize("N", [30, 600])
    def test_equals_reference_and_normalises_input(self, rng, N, mode):
        """The returns are left as the reference's G; rho's row blocks are
        one (N = 30) and six of 109 rows, the last one of 55."""
        # loadings from 0 to 0.4: some pairs pass the filter, some do not
        X = (np.linspace(0.0, 0.4, N) * rng.standard_normal((250, 1))
             + rng.standard_normal((250, N)))
        panel = make_return_panel(X)
        c = correlation_matrix(panel, 0.05, mode)
        G, *_ = reference_correlation(X, 0.05, mode)
        assert np.array_equal(panel.returns, G)
        assert len(crosscorr._blocks(N, N)) == (1 if N == 30 else 6)
        assert_equals_reference(c, X, 0.05, mode)
        if mode == "filtered":
            assert 0 < c.zeroed < N * (N - 1) // 2
        else:
            assert c.zeroed == 0

    @pytest.mark.parametrize("mode", ["filtered", "all"])
    @pytest.mark.parametrize("width", [1, 2, 4, 11])
    def test_column_blocks_equal_reference(self, rng, monkeypatch, width,
                                           mode):
        """Both passes in several blocks, the last one partial: the norms
        in row blocks of 1, 1, 3 and 9 of the 40 rows, and rho in row
        blocks of 1, 1, 3 and 9 of its 23 rows."""
        T, N = 40, 23
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * T * width)
        X = (np.linspace(0.0, 0.6, N) * rng.standard_normal((T, 1))
             + rng.standard_normal((T, N)))
        panel = make_return_panel(X)
        c = correlation_matrix(panel, 0.05, mode)
        G, *_ = reference_correlation(X, 0.05, mode)
        assert np.array_equal(panel.returns, G)
        assert_equals_reference(c, X, 0.05, mode)
        if mode == "filtered":
            assert 0 < c.zeroed < N * (N - 1) // 2

    @pytest.mark.parametrize("mode", ["filtered", "all"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 11, 22])
    def test_row_blocks_equal_reference(self, rng, monkeypatch, rows, mode):
        """rho and rho_bar in row blocks of ``rows`` rows; 2, 11 and 22 end
        in a lone row. Building rho again gives the same bits."""
        T, N = 40, 23
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 16 * N * rows)
        heights = [b.stop - b.start for b in crosscorr._blocks(N, N)]
        assert heights[0] == rows and sum(heights) == N
        X = (np.linspace(0.0, 0.6, N) * rng.standard_normal((T, 1))
             + rng.standard_normal((T, N)))
        c = correlation_matrix(make_return_panel(X), 0.05, mode)
        assert_equals_reference(c, X, 0.05, mode)
        assert c.rho is c.rho  # built once per summary
        first = c.rho.copy()
        del c.rho
        assert np.array_equal(c.rho, first)

    def test_read_only_returns_are_copied(self, rng):
        X = rng.standard_normal((100, 4))
        want = correlation_matrix(make_return_panel(X), 0.05, "all")
        panel = make_return_panel(X)
        panel.returns.flags.writeable = False
        got = correlation_matrix(panel, 0.05, "all")
        assert np.array_equal(got.rho, want.rho)
        assert np.array_equal(got.rho_bar, want.rho_bar)
        assert np.array_equal(panel.returns, X)

    def test_two_stock_rho_bar(self, rng):
        x = rng.standard_normal(500)
        y = 0.5 * x + rng.standard_normal(500)
        panel = make_return_panel(np.column_stack([x, y]))
        c = correlation_matrix(panel, significance_mode="all")
        r12 = pearson(x, y)
        assert abs(c.rho_bar[0] - r12) < 1e-12
        assert abs(c.rho_bar[1] - r12) < 1e-12

    def test_two_stock_filtered_zeroes_insignificant(self, rng):
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        panel = make_return_panel(np.column_stack([x, y]))
        c = correlation_matrix(panel, significance_mode="filtered")
        if c.pvalue[0, 1] >= c.alpha:
            assert c.rho_bar[0] == 0.0 and c.rho_bar[1] == 0.0

    def test_independent_columns_small_rho_bar(self):
        devs = []
        for seed in range(5):
            X = np.random.default_rng(seed).standard_normal((4096, 20))
            c = correlation_matrix(make_return_panel(X))
            devs.append(np.abs(c.rho_bar).max())
        assert np.median(devs) < 0.01

    def test_one_factor_analytic_level(self):
        # beta chosen so population pairwise rho = 0.4
        beta = math.sqrt(2.0 / 3.0)
        g = np.random.default_rng(11)
        f = g.standard_normal(4096)
        X = (beta * f[:, None] + g.standard_normal((4096, 50))) / math.sqrt(
            beta ** 2 + 1)
        c = correlation_matrix(make_return_panel(X))
        assert np.all(np.abs(c.rho_bar - 0.4) < 0.03)

    def test_matrix_invariants(self, rng):
        X = rng.standard_normal((300, 8))
        c = correlation_matrix(make_return_panel(X))
        assert np.array_equal(c.rho, c.rho.T)  # each tile fills both
        assert np.abs(c.rho).max() <= 1.0
        assert np.all(np.diag(c.rho) == 1.0)
        assert np.all(np.diag(c.pvalue) == 0.0)
        assert np.all((c.pvalue >= 0) & (c.pvalue <= 1))
        assert np.all(np.abs(c.rho_bar) <= 1.0)

    def test_time_permutation_invariance(self, rng):
        X = rng.standard_normal((200, 6))
        perm = rng.permutation(200)
        a = correlation_matrix(make_return_panel(X))
        b = correlation_matrix(make_return_panel(X[perm]))
        assert np.abs(a.rho - b.rho).max() < 1e-12
        assert np.abs(a.pvalue - b.pvalue).max() < 1e-12
        assert np.abs(a.rho_bar - b.rho_bar).max() < 1e-12

    def test_ticker_reorder_permutes_consistently(self, rng):
        X = rng.standard_normal((200, 5))
        tickers = ["A", "B", "C", "D", "E"]
        a = correlation_matrix(make_return_panel(X, tickers))
        order = [3, 1, 4, 0, 2]
        b = correlation_matrix(make_return_panel(
            X[:, order], [tickers[i] for i in order]))
        assert np.abs(b.rho - a.rho[np.ix_(order, order)]).max() < 1e-12
        assert np.abs(b.rho_bar - a.rho_bar[order]).max() < 1e-12

    def test_all_mode_mean_identity(self, rng):
        X = rng.standard_normal((150, 7))
        c = correlation_matrix(make_return_panel(X), significance_mode="all")
        N = 7
        off = c.rho.sum() - np.trace(c.rho)
        assert abs(c.rho_bar.mean() - off / (N * (N - 1))) < 1e-12

    def test_filtered_not_larger_on_factor_panel(self):
        beta = math.sqrt(2.0 / 3.0)
        g = np.random.default_rng(3)
        f = g.standard_normal(2048)
        X = (beta * f[:, None] + g.standard_normal((2048, 20))) / math.sqrt(
            beta ** 2 + 1)
        panel = make_return_panel(X)
        allm = correlation_matrix(panel, significance_mode="all")
        filt = correlation_matrix(panel, significance_mode="filtered")
        assert np.all(np.abs(filt.rho_bar) <= np.abs(allm.rho_bar) + 1e-15)

    def test_constant_column_names_ticker(self, rng):
        X = rng.standard_normal((100, 3))
        X[:, 2] = 5.0
        with pytest.raises(EstimationError, match="FLAT"):
            correlation_matrix(make_return_panel(X, ["A", "B", "FLAT"]))


class TestCorrelationMemory:
    """correlation_matrix works inside the returns it is given: it holds
    one column block of the returns' squares, or one row block of rho with
    its boolean filter mask, at a time, and neither an N x T copy of the
    panel nor any N x N array."""

    @staticmethod
    def peak(rng, T, N):
        panel = make_return_panel(rng.standard_normal((T, N)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            correlation_matrix(panel)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_no_panel_copy(self, rng):
        # measured (bytes per N x T cell): 1.97 with rho and its column
        # blocks, 1.22 in row blocks (beside rho: 8.0 with a centred copy,
        # 2.6 in place in blocks of 256 rows, 0.77 in column blocks)
        T, N = 2000, 300
        assert self.peak(rng, T, N) / (T * N) < 1.5

    def test_no_matrix_copy(self, rng):
        # measured (multiples of one N x N float matrix): 1.28 with rho
        # and its column blocks, 0.27 in row blocks
        N = 600
        assert self.peak(rng, 500, N) / (8 * N * N) < 0.5
