"""Command-line interface.

Subcommands mirror the pipeline stages so each is usable standalone on
serialized intermediates: clean, returns, scaling, xcorr, associate,
surrogate, synth, run, compare.
"""

import argparse
import ctypes
import sys

import numpy as np

from . import textio
from .association import build_report
from .config import (FIELD_TYPES, SIGNIFICANCE_MODES, build_config,
                     parse_config_file)
from .crosscorr import correlation_matrix
from .errors import ConfigError, PipelineError
from .panel import (PricePanel, ReturnPanel, compute_returns,
                    load_capitalizations, load_prices, log_capitalizations,
                    median_capitalization, preprocess)
from .pipeline import (MODES, compare_reports, input_at, read_columns, run,
                       write_proxies_table)
from .scaling import estimate_scaling_panel
from .surrogates import marginal_gaussianize, synchronous_shuffle
from .synth import KINDS, MarketRecipe, check_size, generate


def _add_config_args(p, *fields, required=False):
    """One flag per named PipelineConfig field (``--tau-min`` for tau_min),
    unset by default so that file values and defaults apply."""
    for name in fields:
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=FIELD_TYPES[name], required=required,
                       choices=(SIGNIFICANCE_MODES
                                if name == "significance_mode" else None))


def _config(args):
    """The validated PipelineConfig of the parsed config flags over the
    ``--config`` file over the defaults."""
    path = getattr(args, "config", None)
    return build_config(parse_config_file(path) if path else {},
                        {f: getattr(args, f, None) for f in FIELD_TYPES})


def make_parser():
    parser = argparse.ArgumentParser(
        prog="scalecorr",
        description="Multiscaling proxies, average cross-correlations, and "
                    "their association, with surrogate robustness checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="raw price records -> forward-filled panel")
    _add_config_args(p, "prices", required=True)
    _add_config_args(p, "k")
    p.add_argument("--out", required=True, help="panel output path")
    p.add_argument("--mask-out", help="fill-mask output path")

    p = sub.add_parser("returns", help="price panel -> demeaned log-returns")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scaling", help="return panel -> proxy table")
    _add_config_args(p, "returns", required=True)
    _add_config_args(p, "tau_min", "tau_max", "q_min", "q_max", "q_step")
    p.add_argument("--out", required=True)

    p = sub.add_parser("xcorr", help="return panel -> correlation summary")
    _add_config_args(p, "returns", required=True)
    _add_config_args(p, "alpha", "significance_mode")
    p.add_argument("--rho-out", required=True)
    p.add_argument("--pvalue-out")
    p.add_argument("--rho-bar-out")

    p = sub.add_parser("associate",
                       help="proxy table + rho_bar (+caps) -> report")
    p.add_argument("--proxies", required=True)
    p.add_argument("--rho-bar", required=True)
    _add_config_args(p, "capitalization")
    p.add_argument("--out", required=True, help="key-value report path")
    p.add_argument("--text-out", help="human-readable report path")

    p = sub.add_parser("surrogate", help="return panel -> surrogate panel")
    _add_config_args(p, "returns", required=True)
    p.add_argument("--kind", choices=["synchronous_shuffle",
                                      "marginal_gaussianize"], required=True)
    _add_config_args(p, "seed")
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
    p.add_argument("--config", help="key=value config file")
    _add_config_args(p, *FIELD_TYPES)
    p.add_argument("--mode", choices=MODES, default="raw")

    p = sub.add_parser("compare", help="difference table of two reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    _add_config_args(p, "alpha")
    p.add_argument("--out", help="write the table here instead of stdout")

    return parser


def _cmd_clean(args):
    cfg = _config(args)
    panel = preprocess(load_prices(cfg.prices), cfg.k)
    panel.write(args.out, args.mask_out)


def _cmd_returns(args):
    panel = PricePanel.read(args.panel)
    compute_returns(panel).write(args.out)


def _cmd_scaling(args):
    cfg = _config(args)
    panel = ReturnPanel.read(cfg.returns)
    result = estimate_scaling_panel(panel.returns, cfg.q_grid(),
                                    cfg.tau_range(), tickers=panel.tickers)
    write_proxies_table(args.out, panel.tickers, result)


def _cmd_xcorr(args):
    cfg = _config(args)
    panel = ReturnPanel.read(cfg.returns)
    corr = correlation_matrix(panel, cfg.alpha, cfg.significance_mode)
    corr.write(args.rho_out, args.pvalue_out, args.rho_bar_out)


def _cmd_associate(args):
    cfg = _config(args)
    # the stocks are the rho_bar file's tickers, in order, that have proxies
    proxies = read_columns(args.proxies, "A_hat", "B_hat")
    rho_bar = read_columns(args.rho_bar, "rho_bar")
    tickers = [t for t in rho_bar if t in proxies]
    if not tickers:
        raise ConfigError(f"no common tickers between {args.proxies} and "
                          f"{args.rho_bar}")
    A, B, rho = np.array([proxies[t] + rho_bar[t] for t in tickers]).T
    ln_cap = None
    if cfg.capitalization:
        ln_cap = log_capitalizations(median_capitalization(
            load_capitalizations(cfg.capitalization)), tickers)
    build_report(A, B, rho, ln_cap).write(args.out, args.text_out)


def _cmd_surrogate(args):
    cfg = _config(args)
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
    run(_config(args), mode=args.mode)


def _cmd_compare(args):
    alpha = _config(args).alpha
    a = textio.read_keyvalues(args.report_a)
    b = textio.read_keyvalues(args.report_b)
    rows = compare_reports(a, b, alpha=alpha)
    header = ["statistic", "value_a", "value_b", "abs_diff", "both_significant"]
    if args.out:
        textio.write_table(args.out, header, rows)
    else:
        for row in [header] + rows:
            print(*row, sep="\t")


# the input and output path arguments of the subcommands that read files
# and write others (run checks its own bundle)
_PATHS = {
    "clean": (["prices"], ["out", "mask_out"]),
    "returns": (["panel"], ["out"]),
    "scaling": (["returns"], ["out"]),
    "xcorr": (["returns"], ["rho_out", "pvalue_out", "rho_bar_out"]),
    "associate": (["proxies", "rho_bar", "capitalization"],
                  ["out", "text_out"]),
    "surrogate": (["returns"], ["out", "spec_out"]),
    "compare": (["report_a", "report_b"], ["out"]),
}


def _check_paths(args):
    """ConfigError, before anything is written, where an output path is
    one of the command's inputs or another of its outputs."""
    inputs, outputs = ([getattr(args, name) for name in names]
                       for names in _PATHS.get(args.command, ([], [])))
    outputs = [path for path in outputs if path]
    for k, path in enumerate(outputs):
        source = input_at(path, inputs)
        if source is not None:
            raise ConfigError(f"{path} is the input {source}; "
                              f"{args.command} would overwrite it")
        other = input_at(path, outputs[:k])
        if other is not None:
            raise ConfigError(f"{path} is also the output {other}")


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


def _fix_mmap_threshold():
    """Fix glibc's mmap threshold (M_MMAP_THRESHOLD = -3) at its 128 KiB
    default. Left dynamic, it rises when a large mapped block is freed, and
    the arrays allocated after that stay resident in the heap once freed,
    which raised a price run's peak by ~5 MB. A libc without ``mallopt``
    keeps its own policy."""
    try:
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)
    except (AttributeError, OSError, TypeError):
        pass


def main(argv=None):
    _fix_mmap_threshold()
    args = make_parser().parse_args(argv)
    try:
        _check_paths(args)
        _COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:  # a bare MemoryError has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return ConfigError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
