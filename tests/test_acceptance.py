"""Acceptance suite: one test per criterion, each printing a PASS line.

Monte Carlo criteria use medians over fixed seed sets; end-to-end controls
use fixed documented seeds.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from scalecorr.association import kendall_tau, partial_correlation
from scalecorr.cli import main
from scalecorr.crosscorr import correlation_matrix, pearson
from scalecorr.errors import EstimationError
from scalecorr.panel import preprocess
from scalecorr.scaling import (DEFAULT_Q_GRID, _loglog_fit, _proxy_fit,
                               estimate_scaling_panel)
from scalecorr.surrogates import marginal_gaussianize, synchronous_shuffle
from scalecorr.synth import MarketRecipe, generate

from conftest import (make_return_panel, price_records,
                      stylized_fact_experiment)
from test_association import brute_force_tau

N_SEEDS = 50


def _proxies(X):
    return estimate_scaling_panel(X - X.mean(axis=0))


def test_criterion_1_uniscaling_null():
    start = time.time()
    A_all, B_all = [], []
    for seed in range(N_SEEDS):
        X = np.random.default_rng(seed).standard_normal((4096, 20))
        r = _proxies(X)
        A_all.extend(r.A_hat)
        B_all.extend(r.B_hat)
    med_B = np.median(np.abs(B_all))
    med_A = np.median(np.abs(np.array(A_all) - 0.5))
    elapsed = time.time() - start
    assert med_B < 0.02
    assert med_A < 0.02
    assert elapsed < 60
    print(f"\nPASS criterion 1: uniscaling null, median|B|={med_B:.4f} "
          f"median|A-0.5|={med_A:.4f} ({elapsed:.1f}s)")


def test_criterion_2_tail_mechanism():
    start = time.time()
    B_raw, B_gauss = [], []
    for seed in range(N_SEEDS):
        g = np.random.default_rng(1000 + seed)
        X = g.standard_t(3, (4096, 20)) / math.sqrt(3.0)
        X -= X.mean(axis=0)
        B_raw.extend(estimate_scaling_panel(X).B_hat)
        normalized, _ = marginal_gaussianize(make_return_panel(X))
        B_gauss.extend(estimate_scaling_panel(normalized.returns).B_hat)
    med_raw = np.median(B_raw)
    med_gauss = np.median(np.abs(B_gauss))
    elapsed = time.time() - start
    assert med_raw < -0.01
    assert med_gauss < 0.02
    assert elapsed < 120
    print(f"\nPASS criterion 2: tail mechanism, median B(t3)={med_raw:.4f}, "
          f"median|B| after normalization={med_gauss:.4f} ({elapsed:.1f}s)")


def test_criterion_3_shuffle_preservation():
    g = np.random.default_rng(2024)
    T = 4096
    # heavy-tailed, autocorrelated panel
    vol = np.exp(0.5 * np.cumsum(g.standard_normal((T, 8)), axis=0) / math.sqrt(T))
    X = vol * g.standard_t(4, (T, 8))
    X -= X.mean(axis=0)
    # the shuffle permutes its panel's returns in place: one copy of X each
    shuffled, _ = synchronous_shuffle(make_return_panel(X), seed=99)
    before = correlation_matrix(make_return_panel(X)).rho
    after = correlation_matrix(shuffled).rho
    max_diff = np.abs(before - after).max()
    assert max_diff < 1e-12
    worst_acf = 0.0
    for i in range(X.shape[1]):
        col = shuffled.returns[:, i] - shuffled.returns[:, i].mean()
        worst_acf = max(worst_acf,
                        abs(np.dot(col[:-1], col[1:]) / np.dot(col, col)))
    assert worst_acf < 4 / math.sqrt(T)
    print(f"\nPASS criterion 3: shuffle preservation, max|drho|={max_diff:.2e}, "
          f"max|acf1|={worst_acf:.4f} < {4 / math.sqrt(T):.4f}")


def test_criterion_4_exact_recovery():
    taus = np.arange(1.0, 20.0)
    zeta, lnK, _ = _loglog_fit(taus, (2.0 * taus ** 0.7)[None, :, None])
    zeta, lnK = zeta[0], lnK[0]
    assert abs(zeta[0] - 0.7) < 1e-12
    assert abs(lnK[0] - math.log(2.0)) < 1e-12
    q = DEFAULT_Q_GRID
    (A,), (B,), (rss,) = _proxy_fit(q, (0.3 * q - 0.05 * q ** 2)[:, None])
    assert abs(A - 0.3) < 1e-12
    assert abs(B + 0.05) < 1e-12
    assert rss < 1e-12
    print(f"\nPASS criterion 4: exact recovery, slope err={abs(zeta[0]-0.7):.2e}, "
          f"proxy errs=({abs(A-0.3):.2e}, {abs(B+0.05):.2e})")


def test_criterion_5_oracle_equivalence():
    g = np.random.default_rng(55)
    worst_tau = 0.0
    for _ in range(1000):
        n = int(g.integers(2, 13))
        if g.random() < 0.5:
            x = g.integers(0, 5, n).astype(float)
            y = g.integers(0, 5, n).astype(float)
        else:
            x = g.standard_normal(n)
            y = g.standard_normal(n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        tau, _ = kendall_tau(x, y)
        worst_tau = max(worst_tau, abs(tau - brute_force_tau(x, y)))
    assert worst_tau < 1e-12

    worst_pc = 0.0
    for _ in range(1000):
        n = int(g.integers(10, 60))
        Z = g.standard_normal((n, 3)) @ (g.standard_normal((3, 3)) +
                                         np.eye(3))
        a, b, c = Z[:, 0], Z[:, 1], Z[:, 2]
        rab, rac, rbc = pearson(a, b), pearson(a, c), pearson(b, c)
        denom = (1 - rac ** 2) * (1 - rbc ** 2)
        if denom < 1e-6:
            continue
        expected = (rab - rac * rbc) / math.sqrt(denom)
        got, _ = partial_correlation(a, b, c)
        worst_pc = max(worst_pc, abs(got - expected))
    assert worst_pc < 1e-10
    print(f"\nPASS criterion 5: oracle equivalence, kendall dev={worst_tau:.2e}, "
          f"partial-corr dev={worst_pc:.2e}")


def test_criterion_6_factor_calibration():
    beta = math.sqrt(2.0 / 3.0)  # population pairwise rho = 0.4
    panel = generate(MarketRecipe(50, 4096, 7, "one_factor",
                                  betas=np.full(50, beta)))
    c = correlation_matrix(panel)
    max_dev = np.abs(c.rho_bar - 0.4).max()
    assert max_dev < 0.03
    print(f"\nPASS criterion 6: factor calibration, max|rho_bar-0.4|={max_dev:.4f}")


def test_criterion_7_stylized_fact_controls():
    start = time.time()
    coupled = stylized_fact_experiment(100, 4096, seed=3, coupled=True)
    tau_c, p_c = coupled.kendall_B_rho
    uncoupled = stylized_fact_experiment(100, 4096, seed=3, coupled=False)
    tau_u, p_u = uncoupled.kendall_B_rho
    elapsed = time.time() - start
    assert tau_c > 0
    assert p_c < 0.01
    assert p_u > 0.05
    assert elapsed < 300
    print(f"\nPASS criterion 7: stylized-fact controls, coupled tau={tau_c:.3f} "
          f"(p={p_c:.2e}), uncoupled tau={tau_u:.3f} (p={p_u:.3f}) "
          f"({elapsed:.1f}s)")


EXPECTED_PANEL = """\
date\tAAA\tBBB
2020-01-02\t102\t202
2020-01-03\t103\t203
2020-01-04\t104\t204
2020-01-05\t105\t205
2020-01-06\t106\t206
2020-01-07\t107\t206
2020-01-08\t108\t208
2020-01-09\t109\t209
2020-01-10\t110\t210
2020-01-11\t110\t211
"""

EXPECTED_MASK = """\
date\tAAA\tBBB
2020-01-02\t0\t0
2020-01-03\t0\t0
2020-01-04\t0\t0
2020-01-05\t0\t0
2020-01-06\t0\t0
2020-01-07\t0\t1
2020-01-08\t0\t0
2020-01-09\t0\t0
2020-01-10\t0\t0
2020-01-11\t1\t0
"""


def test_criterion_8_preprocessing_fixture(tmp_path):
    def mk(ticker, days, base):
        return [f"{ticker},2020-01-{d:02d},{base + d}" for d in days]

    aaa = mk("AAA", range(1, 11), 100.0)             # 10 dates, full
    bbb = mk("BBB", [2, 3, 4, 5, 6, 8, 9, 10, 11], 200.0)  # gap at 7
    ccc = mk("CCC", range(1, 9), 300.0)              # 8 < 0.9 * 10, removed
    panel = preprocess(price_records(aaa + bbb + ccc), k=0.90)
    prices_path = tmp_path / "panel.tsv"
    mask_path = tmp_path / "mask.tsv"
    panel.write(prices_path, mask_path)
    assert prices_path.read_text() == EXPECTED_PANEL
    assert mask_path.read_text() == EXPECTED_MASK
    print("\nPASS criterion 8: pre-processing fixture byte-for-byte")


def test_criterion_9_determinism(tmp_path):
    ret = str(tmp_path / "ret.tsv")
    assert main(["synth", "--kind", "one_factor", "--n-stocks", "6",
                 "--n-days", "300", "--seed", "2", "--out", ret]) == 0
    for mode in ("raw", "shuffled", "gaussianized"):
        d1 = str(tmp_path / f"{mode}_1")
        d2 = str(tmp_path / f"{mode}_2")
        for d in (d1, d2):
            assert main(["run", "--returns", ret, "--mode", mode,
                         "--seed", "11", "--output-dir", d]) == 0
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        for name in names:
            assert filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                               shallow=False), (mode, name)
    print("\nPASS criterion 9: byte-identical re-runs in all three modes")


def test_criterion_10_desk_scale():
    from scalecorr.association import build_report

    start = time.time()
    panel = generate(MarketRecipe(1202, 4000, 0, "one_factor",
                                  betas=np.linspace(0.2, 1.5, 1202)))
    result = estimate_scaling_panel(panel.returns)
    corr = correlation_matrix(panel)
    report = build_report(result.A_hat, result.B_hat, corr.rho_bar)
    elapsed = time.time() - start
    assert report.n_stocks == 1202
    assert elapsed < 120
    print(f"\nPASS criterion 10: N=1202, T=4000 pipeline in {elapsed:.1f}s")
