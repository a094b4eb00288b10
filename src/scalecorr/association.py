"""Association statistics between per-stock quantities.

Kendall tau-b (merge-sort inversion counting, O(n log n)) for the rank
dependence between the curvature proxy and the average cross-correlation,
plain OLS against log-capitalization, and the partial Pearson correlation of
the two OLS residual vectors with log-capitalization as the control.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _special as special
from .crosscorr import pearson, pearson_pvalue, t_pvalue
from .errors import EstimationError
from . import textio


def _merge_count(values):
    """Number of inversions (i < j with v_i > v_j) via merge sort."""
    n = len(values)
    if n < 2:
        return 0, values
    mid = n // 2
    left_inv, left = _merge_count(values[:mid])
    right_inv, right = _merge_count(values[mid:])
    merged = []
    inv = left_inv + right_inv
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            inv += len(left) - i
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return inv, merged


def _tie_sums(values):
    """(sum t(t-1)/2, sum t(t-1)(2t+5), sum t(t-1), sum t(t-1)(t-2)) over ties."""
    _, counts = np.unique(values, return_counts=True)
    t = counts.astype(float)
    return (float(np.sum(t * (t - 1) / 2.0)),
            float(np.sum(t * (t - 1) * (2 * t + 5))),
            float(np.sum(t * (t - 1))),
            float(np.sum(t * (t - 1) * (t - 2))))


def kendall_tau(x, y):
    """Tie-corrected Kendall tau-b with a two-sided normal-approximation p.

    With no ties the statistic reduces to z = 3*tau*sqrt(n(n-1)) /
    sqrt(2(2n+5)).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise EstimationError("kendall_tau: inputs must be equal-length vectors")
    n = len(x)
    if n < 2:
        raise EstimationError("kendall_tau: need at least 2 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise EstimationError("kendall_tau: ranks undefined for constant vector")

    # sort by (x, y); discordant pairs are then strict inversions in y
    order = np.lexsort((y, x))
    ys = y[order]
    dis, _ = _merge_count(list(ys))

    n0 = n * (n - 1) / 2.0
    n1, vt, txx, txxx = _tie_sums(x)
    n2, vu, tyy, tyyy = _tie_sums(y)
    # joint ties: pairs identical in both coordinates
    _, joint_counts = np.unique(np.column_stack([x, y]), axis=0,
                                return_counts=True)
    jt = joint_counts.astype(float)
    n3 = float(np.sum(jt * (jt - 1) / 2.0))

    con_minus_dis = n0 - n1 - n2 + n3 - 2.0 * dis
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        raise EstimationError("kendall_tau: degenerate tie structure")
    tau = con_minus_dis / denom

    v0 = n * (n - 1) * (2 * n + 5)
    var = (v0 - vt - vu) / 18.0
    var += txx * tyy / (2.0 * n * (n - 1))
    if n > 2:
        var += txxx * tyyy / (9.0 * n * (n - 1) * (n - 2))
    if var <= 0:
        raise EstimationError("kendall_tau: zero variance under the null")
    z = con_minus_dis / math.sqrt(var)
    p = float(2.0 * special.ndtr(-abs(z)))  # 2 * normal sf(|z|)
    return float(np.clip(tau, -1.0, 1.0)), p


def simple_ols(x, y):
    """Least-squares line y = slope*x + intercept.

    Returns (slope, intercept, residuals, r2).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise EstimationError("simple_ols: inputs must be equal-length vectors")
    if len(x) < 3:
        raise EstimationError("simple_ols: need at least 3 observations")
    xc = x - x.mean()
    sxx = np.dot(xc, xc)
    if sxx == 0.0:
        raise EstimationError("simple_ols: singular fit, constant predictor")
    slope = np.dot(xc, y - y.mean()) / sxx
    intercept = y.mean() - slope * x.mean()
    residuals = y - slope * x - intercept
    tss = np.dot(y - y.mean(), y - y.mean())
    r2 = 1.0 - np.dot(residuals, residuals) / tss if tss > 0 else 1.0
    return float(slope), float(intercept), residuals, float(max(0.0, min(1.0, r2)))


def partial_correlation(a, b, control):
    """Pearson correlation of a and b after regressing both on the control,
    and its :func:`t_pvalue` with n-3 degrees of freedom."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    control = np.asarray(control, dtype=float)
    if not (a.shape == b.shape == control.shape) or a.ndim != 1:
        raise EstimationError("partial_correlation: shape mismatch")
    n = len(a)
    if n < 4:
        raise EstimationError("partial_correlation: need at least 4 observations")
    _, _, res_a, _ = simple_ols(control, a)
    _, _, res_b, _ = simple_ols(control, b)
    r = pearson(res_a, res_b)
    return r, float(t_pvalue(r, n - 3))


@dataclass
class AssociationReport:
    """The per-market association block: rank dependence of the proxies on
    rho_bar plus the capitalization analysis on the subset with data."""

    kendall_B_rho: tuple       # (tau, p) for (B_hat, rho_bar), all stocks
    kendall_A_rho: tuple       # (tau, p) for (A_hat, rho_bar), all stocks
    n_stocks: int
    cap_block_available: bool = False
    pearson_B_lncap: tuple = None
    pearson_rho_lncap: tuple = None
    partial_corr: tuple = None
    r2_rho_bar: float = None
    r2_B_hat: float = None
    n_used: int = 0

    def to_pairs(self):
        """Flat (key, full-precision value) pairs, machine-readable."""
        pairs = [
            ("n_stocks", str(self.n_stocks)),
            ("kendall_B_rho.tau", textio.fmt(self.kendall_B_rho[0])),
            ("kendall_B_rho.p", textio.fmt(self.kendall_B_rho[1])),
            ("kendall_A_rho.tau", textio.fmt(self.kendall_A_rho[0])),
            ("kendall_A_rho.p", textio.fmt(self.kendall_A_rho[1])),
            ("cap_block_available", str(int(self.cap_block_available))),
        ]
        if self.cap_block_available:
            pairs += [
                ("n_used", str(self.n_used)),
                ("pearson_B_lncap.rho", textio.fmt(self.pearson_B_lncap[0])),
                ("pearson_B_lncap.p", textio.fmt(self.pearson_B_lncap[1])),
                ("pearson_rho_lncap.rho", textio.fmt(self.pearson_rho_lncap[0])),
                ("pearson_rho_lncap.p", textio.fmt(self.pearson_rho_lncap[1])),
                ("partial_corr.rho", textio.fmt(self.partial_corr[0])),
                ("partial_corr.p", textio.fmt(self.partial_corr[1])),
                ("r2_rho_bar", textio.fmt(self.r2_rho_bar)),
                ("r2_B_hat", textio.fmt(self.r2_B_hat)),
            ]
        return pairs

    def to_text(self):
        """Human-readable report, one block per analysis; p to 3 decimals."""
        def line(label, value, p):
            return f"  {label:<34s} {value:+.3f}   p = {p:.3f}"

        out = [f"Association report (n = {self.n_stocks} stocks)", ""]
        out.append("Rank dependence on average cross-correlation:")
        out.append(line("Kendall tau (B_hat vs rho_bar)", *self.kendall_B_rho))
        out.append(line("Kendall tau (A_hat vs rho_bar)", *self.kendall_A_rho))
        out.append("")
        if self.cap_block_available:
            out.append(f"Capitalization analysis (n = {self.n_used} stocks "
                       f"with data):")
            out.append(line("Pearson (B_hat vs ln cap)", *self.pearson_B_lncap))
            out.append(line("Pearson (rho_bar vs ln cap)", *self.pearson_rho_lncap))
            out.append(line("Partial corr (B_hat, rho_bar | ln cap)",
                            *self.partial_corr))
            out.append(f"  {'R^2 (rho_bar ~ ln cap)':<34s} {self.r2_rho_bar:.3f}")
            out.append(f"  {'R^2 (B_hat ~ ln cap)':<34s} {self.r2_B_hat:.3f}")
        else:
            out.append("Capitalization analysis: unavailable "
                       "(fewer than 4 stocks with capitalization data)")
        return "\n".join(out) + "\n"

    def write(self, path, text_path=None):
        """Write :meth:`to_pairs` to ``path`` and, if given, :meth:`to_text`
        to ``text_path``."""
        textio.write_keyvalues(path, self.to_pairs())
        if text_path is not None:
            with open(text_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self.to_text())


def build_report(A, B, rho_bar, ln_cap=None):
    """Assemble the association report from per-stock arrays.

    ``A``, ``B`` (the proxies), ``rho_bar`` and the optional ``ln_cap`` (log
    median capitalization, NaN for a stock without data) run over the same
    stocks. The capitalization block needs at least 4 stocks with data.
    """
    A, B, rho_bar = (np.asarray(v, dtype=float) for v in (A, B, rho_bar))
    report = AssociationReport(kendall_B_rho=kendall_tau(B, rho_bar),
                               kendall_A_rho=kendall_tau(A, rho_bar),
                               n_stocks=len(rho_bar))
    have = ~np.isnan(ln_cap) if ln_cap is not None else []
    n_used = int(np.sum(have))
    if n_used < 4:
        return report
    lncap, Bs, rs = np.asarray(ln_cap)[have], B[have], rho_bar[have]
    report.r2_rho_bar = simple_ols(lncap, rs)[3]
    report.r2_B_hat = simple_ols(lncap, Bs)[3]
    rB = pearson(Bs, lncap)
    rr = pearson(rs, lncap)
    report.cap_block_available = True
    report.n_used = n_used
    report.pearson_B_lncap = (rB, pearson_pvalue(rB, n_used))
    report.pearson_rho_lncap = (rr, pearson_pvalue(rr, n_used))
    report.partial_corr = partial_correlation(Bs, rs, lncap)
    return report
