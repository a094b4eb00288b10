"""Command-line interface.

Subcommands mirror the pipeline stages so each is usable standalone on
serialized intermediates: clean, returns, scaling, xcorr, associate,
surrogate, synth, run, compare.
"""

import argparse
import sys

import numpy as np

from . import textio
from .association import build_report
from .config import (FIELD_TYPES, SIGNIFICANCE_MODES, PipelineConfig,
                     build_config, parse_config_file)
from .crosscorr import correlation_matrix
from .errors import ConfigError, PipelineError
from .panel import (PricePanel, ReturnPanel, compute_returns,
                    load_capitalizations, load_prices, median_capitalization,
                    preprocess)
from .pipeline import (compare_reports, read_proxies_table, run,
                       write_proxies_table)
from .scaling import estimate_scaling_panel
from .surrogates import marginal_gaussianize, synchronous_shuffle
from .synth import KINDS, MarketRecipe, check_size, generate


def _add_config_args(p):
    """``--config`` and one flag per PipelineConfig field (``--tau-min`` for
    tau_min), unset by default so that file values and defaults apply."""
    p.add_argument("--config", help="key=value config file")
    for name, parse in FIELD_TYPES.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=parse,
                       choices=(SIGNIFICANCE_MODES
                                if name == "significance_mode" else None))


def _config(args, *fields):
    """A PipelineConfig holding the named arguments, defaults elsewhere."""
    return PipelineConfig(**{f: getattr(args, f) for f in fields})


def make_parser():
    parser = argparse.ArgumentParser(
        prog="scalecorr",
        description="Multiscaling proxies, average cross-correlations, and "
                    "their association, with surrogate robustness checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="raw price records -> forward-filled panel")
    p.add_argument("--prices", required=True)
    p.add_argument("--k", type=float, default=PipelineConfig.k)
    p.add_argument("--out", required=True, help="panel output path")
    p.add_argument("--mask-out", help="fill-mask output path")

    p = sub.add_parser("returns", help="price panel -> demeaned log-returns")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scaling", help="return panel -> proxy table")
    p.add_argument("--returns", required=True)
    p.add_argument("--tau-min", type=int, default=PipelineConfig.tau_min)
    p.add_argument("--tau-max", type=int, default=PipelineConfig.tau_max)
    p.add_argument("--q-min", type=float, default=PipelineConfig.q_min)
    p.add_argument("--q-max", type=float, default=PipelineConfig.q_max)
    p.add_argument("--q-step", type=float, default=PipelineConfig.q_step)
    p.add_argument("--out", required=True)

    p = sub.add_parser("xcorr", help="return panel -> correlation summary")
    p.add_argument("--returns", required=True)
    p.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    p.add_argument("--significance-mode", choices=SIGNIFICANCE_MODES,
                   default=PipelineConfig.significance_mode)
    p.add_argument("--rho-out", required=True)
    p.add_argument("--pvalue-out")
    p.add_argument("--rho-bar-out")

    p = sub.add_parser("associate",
                       help="proxy table + rho_bar (+caps) -> report")
    p.add_argument("--proxies", required=True)
    p.add_argument("--rho-bar", required=True)
    p.add_argument("--capitalization")
    p.add_argument("--out", required=True, help="key-value report path")
    p.add_argument("--text-out", help="human-readable report path")

    p = sub.add_parser("surrogate", help="return panel -> surrogate panel")
    p.add_argument("--returns", required=True)
    p.add_argument("--kind", choices=["synchronous_shuffle",
                                      "marginal_gaussianize"], required=True)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--spec-out", help="sidecar metadata path")

    p = sub.add_parser("synth", help="recipe -> synthetic return panel")
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("--n-stocks", type=int, required=True)
    p.add_argument("--n-days", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nu", type=float)
    p.add_argument("--beta-min", type=float, default=0.2)
    p.add_argument("--beta-max", type=float, default=1.5)
    p.add_argument("--tail", choices=["gaussian", "student_t"],
                   default=MarketRecipe.tail)
    p.add_argument("--tail-nu", type=float, default=MarketRecipe.tail_nu)
    p.add_argument("--depth", type=int, default=MarketRecipe.depth)
    p.add_argument("--multiplier-sigma", type=float,
                   default=MarketRecipe.multiplier_sigma)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="full pipeline into an output directory")
    _add_config_args(p)
    p.add_argument("--mode", choices=["raw", "shuffled", "gaussianized"],
                   default="raw")

    p = sub.add_parser("compare", help="difference table of two reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--alpha", type=float, default=PipelineConfig.alpha)
    p.add_argument("--out", help="write the table here instead of stdout")

    return parser


def _cmd_clean(args):
    cfg = _config(args, "prices", "k").validate()
    panel = preprocess(load_prices(cfg.prices), cfg.k)
    panel.write(args.out, args.mask_out)


def _cmd_returns(args):
    panel = PricePanel.read(args.panel)
    compute_returns(panel).write(args.out)


def _cmd_scaling(args):
    # not validate(): a grid the estimator rejects is an estimation error
    cfg = _config(args, "q_min", "q_max", "q_step", "tau_min", "tau_max")
    q_grid, tau_range = cfg.q_grid(), cfg.tau_range()
    panel = ReturnPanel.read(args.returns)
    result = estimate_scaling_panel(panel.returns, q_grid, tau_range,
                                    tickers=panel.tickers)
    write_proxies_table(args.out, panel.tickers, result)


def _cmd_xcorr(args):
    cfg = _config(args, "returns", "alpha", "significance_mode").validate()
    panel = ReturnPanel.read(cfg.returns)
    corr = correlation_matrix(panel, cfg.alpha, cfg.significance_mode)
    corr.write(args.rho_out, args.pvalue_out, args.rho_bar_out)


def _cmd_associate(args):
    # the stocks are the rho_bar file's tickers, in order, that have proxies
    proxies = read_proxies_table(args.proxies)
    rows, _, values = textio.read_matrix(args.rho_bar)
    common = [i for i, t in enumerate(rows) if t in proxies]
    if not common:
        raise ConfigError(f"no common tickers between {args.proxies} and "
                          f"{args.rho_bar}")
    tickers = [rows[i] for i in common]
    A, B = np.array([proxies[t] for t in tickers]).T
    ln_cap = None
    if args.capitalization:
        ln_cap = median_capitalization(load_capitalizations(
            args.capitalization)).log_values(tickers)
    report = build_report(A, B, values[common, 0], ln_cap)
    textio.write_keyvalues(args.out, report.to_pairs())
    if args.text_out:
        with open(args.text_out, "w", newline="\n") as fh:
            fh.write(report.to_text())


def _cmd_surrogate(args):
    cfg = _config(args, "returns", "seed").validate()
    panel = ReturnPanel.read(cfg.returns)
    surrogate = (synchronous_shuffle if args.kind == "synchronous_shuffle"
                 else marginal_gaussianize)
    out, spec = surrogate(panel, cfg.seed)
    out.write(args.out)
    if args.spec_out:
        textio.write_keyvalues(args.spec_out, spec.to_pairs())


def _cmd_synth(args):
    betas = None
    check_size(args.n_stocks, args.n_days, args.seed)  # before np.linspace
    if args.kind == "one_factor":
        if not np.isfinite([args.beta_min, args.beta_max]).all():
            raise ConfigError("one_factor betas must be finite")
        betas = np.linspace(args.beta_min, args.beta_max, args.n_stocks)
    recipe = MarketRecipe(n_stocks=args.n_stocks, n_days=args.n_days,
                          seed=args.seed, kind=args.kind, nu=args.nu,
                          betas=betas, tail=args.tail, tail_nu=args.tail_nu,
                          depth=args.depth,
                          multiplier_sigma=args.multiplier_sigma)
    generate(recipe).write(args.out)


def _cmd_run(args):
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in FIELD_TYPES}
    run(build_config(file_values, overrides), mode=args.mode)


def _cmd_compare(args):
    alpha = _config(args, "alpha").validate().alpha
    a = textio.read_keyvalues(args.report_a)
    b = textio.read_keyvalues(args.report_b)
    rows = compare_reports(a, b, alpha=alpha)
    header = ["statistic", "value_a", "value_b", "abs_diff", "both_significant"]
    if args.out:
        textio.write_table(args.out, header, rows)
    else:
        for row in [header] + rows:
            print(*row, sep="\t")


_COMMANDS = {
    "clean": _cmd_clean,
    "returns": _cmd_returns,
    "scaling": _cmd_scaling,
    "xcorr": _cmd_xcorr,
    "associate": _cmd_associate,
    "surrogate": _cmd_surrogate,
    "synth": _cmd_synth,
    "run": _cmd_run,
    "compare": _cmd_compare,
}


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
