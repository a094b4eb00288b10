import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from scalecorr import scaling
from scalecorr.crosscorr import correlation_matrix
from scalecorr.errors import EstimationError
from scalecorr.surrogates import (marginal_gaussianize, mid_rank_levels,
                                  synchronous_shuffle)

from conftest import make_return_panel


class TestSynchronousShuffle:
    def test_permutation_is_the_seeded_draw(self, rng):
        X = rng.standard_normal((50, 3))
        out, spec = synchronous_shuffle(make_return_panel(X), seed=6)
        order = np.random.default_rng(6).permutation(50)
        np.testing.assert_array_equal(out.returns, X[order])
        assert spec.kind == "synchronous_shuffle"
        assert spec.digest() == hashlib.sha256(
            order.astype(np.int64).tobytes()).hexdigest()

    def test_column_multisets_preserved(self, rng):
        X = rng.standard_normal((200, 4))
        out, _ = synchronous_shuffle(make_return_panel(X), seed=9)
        for i in range(4):
            np.testing.assert_array_equal(np.sort(out.returns[:, i]),
                                          np.sort(X[:, i]))

    def test_correlation_matrix_preserved(self, rng):
        X = rng.standard_normal((300, 6))
        out, _ = synchronous_shuffle(make_return_panel(X), seed=3)
        a = correlation_matrix(make_return_panel(X))
        b = correlation_matrix(out)
        assert np.abs(a.rho - b.rho).max() < 1e-12

    def test_rows_shuffled_synchronously(self, rng, monkeypatch):
        # permuted in column blocks of 2, 2 and 1
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * 100 * 2)
        X = rng.standard_normal((100, 5))
        out, spec = synchronous_shuffle(make_return_panel(X), seed=1)
        np.testing.assert_array_equal(out.returns, X[spec.permutation])

    def test_lag1_autocorrelation_destroyed(self):
        # persistent series; after shuffling acf1 is O(1/sqrt(T))
        g = np.random.default_rng(4)
        T = 4096
        x = np.cumsum(g.standard_normal((T, 2)), axis=0) * 0.02
        x += g.standard_normal((T, 2))
        x -= x.mean(axis=0)
        panel = make_return_panel(x)
        out, _ = synchronous_shuffle(panel, seed=8)
        for i in range(2):
            col = out.returns[:, i] - out.returns[:, i].mean()
            acf1 = np.dot(col[:-1], col[1:]) / np.dot(col, col)
            assert abs(acf1) < 4 / np.sqrt(T)

    def test_fixed_seed_reproducible(self, rng):
        X = rng.standard_normal((64, 2))
        a, sa = synchronous_shuffle(make_return_panel(X), seed=77)
        b, sb = synchronous_shuffle(make_return_panel(X), seed=77)
        np.testing.assert_array_equal(a.returns, b.returns)
        assert sa.digest() == sb.digest()

    def test_spec_pairs(self, rng):
        _, spec = synchronous_shuffle(
            make_return_panel(rng.standard_normal((10, 2))), seed=4)
        assert spec.to_pairs() == [("kind", "synchronous_shuffle"),
                                   ("seed", "4"),
                                   ("permutation_digest", spec.digest())]
        # no permutation, no digest line
        _, spec = marginal_gaussianize(
            make_return_panel(rng.standard_normal((10, 2))), seed=4)
        assert spec.to_pairs() == [("kind", "marginal_gaussianize"),
                                   ("seed", "4")]


class TestMarginalGaussianize:
    def test_moments_near_standard_normal(self, rng):
        panel = make_return_panel(rng.standard_t(3, (4096, 3)))
        out, _ = marginal_gaussianize(panel)
        for i in range(3):
            col = out.returns[:, i]
            assert abs(col.mean()) < 0.05
            assert abs(col.var() - 1.0) < 0.05

    def test_rank_order_preserved(self, rng):
        X = rng.standard_normal((500, 2))
        out, _ = marginal_gaussianize(make_return_panel(X))
        for i in range(2):
            np.testing.assert_array_equal(np.argsort(out.returns[:, i]),
                                          np.argsort(X[:, i]))

    def test_idempotent_on_unique_ranks(self, rng):
        panel = make_return_panel(rng.standard_normal((256, 3)))
        once, _ = marginal_gaussianize(panel)
        twice, _ = marginal_gaussianize(make_return_panel(once.returns))
        assert np.abs(twice.returns - once.returns).max() < 1e-12

    def test_constant_column_errors(self, rng):
        X = rng.standard_normal((100, 2))
        X[:, 1] = 1.5
        with pytest.raises(EstimationError):
            marginal_gaussianize(make_return_panel(X))

    def test_deterministic(self, rng):
        X = rng.standard_normal((128, 2))
        a, _ = marginal_gaussianize(make_return_panel(X))
        b, _ = marginal_gaussianize(make_return_panel(X))
        np.testing.assert_array_equal(a.returns, b.returns)

    def test_column_sums_within_tolerance(self, rng):
        panel = make_return_panel(rng.standard_t(4, (1024, 4)))
        out, _ = marginal_gaussianize(panel)
        sums = np.abs(out.returns.sum(axis=0))
        assert np.all(sums <= 1e-9 * out.returns.shape[0])

    def test_equals_scipy_stats_ppf_bit_for_bit(self, rng, monkeypatch):
        # sorted in column blocks of 3 and 1
        monkeypatch.setattr(scaling, "BLOCK_BYTES", 8 * 1000 * 3)
        X = rng.standard_t(3, (1000, 4))
        X[::7, 2] = 0.25  # ties, broken by time index
        out, _ = marginal_gaussianize(make_return_panel(X))
        levels = (stats.rankdata(X, method="ordinal", axis=0) - 0.5) / len(X)
        assert np.array_equal(mid_rank_levels(X), levels)
        assert np.array_equal(out.returns, stats.norm.ppf(levels))


class TestSurrogateMemory:
    """A surrogate works inside the returns it is given: it allocates one
    column block at a time (the shuffle's permuted rows, the
    Gaussianization's sort order), and no N x T array on the way."""

    # measured (bytes per cell): shuffle ~1.3 in place, ~8 with a new
    # output; Gaussianization ~2.7 in place, ~10.7 with a new output. The
    # panel is some six column blocks wide, so that one block is a small
    # part of it.
    BYTES_PER_CELL = {synchronous_shuffle: 4, marginal_gaussianize: 4}

    @pytest.mark.parametrize("surrogate", list(BYTES_PER_CELL),
                             ids=lambda f: f.__name__)
    def test_peak_per_cell(self, rng, surrogate):
        T, N = 2000, 400
        panel = make_return_panel(rng.standard_normal((T, N)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out, _ = surrogate(panel, 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.returns.shape == (T, N)
        assert peak / (T * N) < self.BYTES_PER_CELL[surrogate]

    @pytest.mark.parametrize("surrogate", list(BYTES_PER_CELL),
                             ids=lambda f: f.__name__)
    def test_read_only_input_unchanged(self, rng, surrogate):
        panel = make_return_panel(rng.standard_normal((50, 3)))
        panel.returns.flags.writeable = False
        before = panel.returns.copy()
        out, _ = surrogate(panel, 3)
        assert out.returns is not panel.returns
        np.testing.assert_array_equal(panel.returns, before)
        assert not np.array_equal(out.returns, before)
