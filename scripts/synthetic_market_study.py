#!/usr/bin/env python3
"""End-to-end study on a synthetic market.

Generates a coupled market (heavy-tailed stocks load weakly on the common
factor), runs the pipeline in raw, shuffled, and gaussianized modes, and
prints the association reports side by side: the B_hat vs rho_bar rank
dependence should survive the synchronous shuffle (tail-driven) and vanish
after marginal normalization.

Usage: python scripts/synthetic_market_study.py [--n-stocks N] [--n-days T]
       [--seed S] [--outdir DIR]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from scalecorr import textio
from scalecorr.cli import main as cli_main
from scalecorr.errors import PipelineError
from scalecorr.pipeline import compare_reports
from scalecorr.synth import generate_coupled_market


def run(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-stocks", type=int, default=100)
    ap.add_argument("--n-days", type=int, default=4096)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--outdir", default="study_out")
    args = ap.parse_args(argv)

    try:
        panel, betas = generate_coupled_market(args.n_stocks, args.n_days,
                                               args.seed, coupled=True)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    os.makedirs(args.outdir, exist_ok=True)
    returns_path = os.path.join(args.outdir, "market_returns.tsv")
    panel.write(returns_path)
    print(f"generated coupled market: {args.n_stocks} stocks x "
          f"{args.n_days} days -> {returns_path}")

    for mode in ("raw", "shuffled", "gaussianized"):
        outdir = os.path.join(args.outdir, mode)
        rc = cli_main(["run", "--returns", returns_path, "--mode", mode,
                       "--seed", str(args.seed), "--output-dir", outdir])
        if rc != 0:
            return rc
        print(f"\n=== mode: {mode} ===")
        with open(os.path.join(outdir, "association.txt")) as fh:
            print(fh.read())

    raw = textio.read_keyvalues(os.path.join(args.outdir, "raw",
                                             "association.tsv"))
    shuf = textio.read_keyvalues(os.path.join(args.outdir, "shuffled",
                                              "association.tsv"))
    print("=== raw vs shuffled ===")
    for row in compare_reports(raw, shuf):
        print("\t".join(str(v) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(run())
