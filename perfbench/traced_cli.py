"""Run ``scalecorr.cli.main`` in-process with spans at its layer boundaries.

Usage: python perfbench/traced_cli.py SPANS_JSON <scalecorr cli arguments>

The package is left untouched: this script replaces the functions that
``pipeline.run`` reaches, as they are bound in ``scalecorr.pipeline``,
``scalecorr.textio`` and ``scalecorr.panel`` (plus ``run`` as bound in
``scalecorr.cli``), by wrappers that record a span per call. A span holds its
name, layer (the package module that defines the function), parent span,
start and end on the perf_counter clock, the process high-water RSS at both
ends, and counts taken from the call's arguments and result. Counting runs
after the span ends, inside a child span of layer ``trace``, so it is charged
to the tracer and not to the caller. Spans stay in memory and are written to
SPANS_JSON when the CLI returns. A listed name that no longer exists is
recorded as missing, not treated as an error.
"""

import functools
import importlib
import json
import os
import resource
import sys
import time

_clock = time.perf_counter
T_START = _clock()

INGEST = ["load_prices", "preprocess", "compute_returns",
          "load_capitalizations", "median_capitalization"]
TARGETS = {
    "scalecorr.cli": ["run"],
    "scalecorr.pipeline": ["_sha256"] + INGEST + [
        "synchronous_shuffle", "marginal_gaussianize",
        "estimate_scaling_panel", "correlation_matrix", "build_report"],
    "scalecorr.panel": INGEST,
    "scalecorr.textio": ["read_matrix", "read_keyvalues", "write_matrix",
                         "write_table", "write_keyvalues"],
}


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_scaling(args, kwargs, result):
    X = args[0]
    T, N = X.shape
    q = len(args[1])
    horizons = sum(T - int(tau) + 1 for tau in args[2])
    # computed from shapes: one |r|^q per aggregated value and q, reading the
    # panel once per horizon and the aggregated values once per q
    return {"moment_evals": q * horizons * N,
            "bytes_moved": 8 * N * (T * len(args[2]) + horizons * (q + 1))}


def _count_corr(args, kwargs, result):
    import numpy as np  # already loaded by scalecorr; kept out of "import"
    T, N = result.n_obs, len(result.tickers)
    zeroed = 0
    if result.significance_mode == "filtered":
        zeroed = int((result.pvalue[np.triu_indices(N, k=1)]
                      >= result.alpha).sum())
    return {"gemm_flops": 2 * N * N * T, "pairs": N * (N - 1) // 2,
            "zeroed": zeroed}


def _count_preprocess(args, kwargs, result):
    return {"cells": int(result.prices.size),
            "filled": int(result.fill_mask.sum()),
            "dropped": len(args[0]) - len(result.tickers)}


def _count_write_matrix(args, kwargs, result):
    return {"bytes": _size(args[0]), "values": len(args[1]) * len(args[2])}


def _count_write_table(args, kwargs, result):
    rows = args[2]
    return {"bytes": _size(args[0]),
            "values": len(args[1]) * len(rows) if hasattr(rows, "__len__")
            else 0}


COUNTERS = {
    "_sha256": lambda a, k, r: {"bytes": _size(a[0])},
    "load_prices": lambda a, k, r: {"records": sum(len(s.dates) for s in r)},
    "preprocess": _count_preprocess,
    "estimate_scaling_panel": _count_scaling,
    "correlation_matrix": _count_corr,
    "build_report": lambda a, k, r: {"n_stocks": int(r.n_stocks)},
    "read_matrix": lambda a, k, r: {"bytes": _size(a[0])},
    "read_keyvalues": lambda a, k, r: {"bytes": _size(a[0])},
    "write_matrix": _count_write_matrix,
    "write_table": _count_write_table,
    "write_keyvalues": lambda a, k, r: {"bytes": _size(a[0]),
                                        "values": 2 * len(a[1])},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []

    def open(self, name, layer):
        span = {"id": len(self.spans),
                "parent": self.stack[-1] if self.stack else None,
                "name": name, "layer": layer, "start": _clock(),
                "rss_start_kb": _maxrss_kb(), "counts": {}}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span):
        span["end"] = _clock()
        span["rss_end_kb"] = _maxrss_kb()
        self.stack.pop()

    def wrap(self, fn, name, layer):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                tally = self.open("count", "trace")
                try:
                    span["counts"] = counter(args, kwargs, result)
                finally:
                    self.close(tally)
            return result
        return traced

    def install(self):
        wrapped = {}
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{name}")
                    continue
                if id(fn) not in wrapped:
                    layer = getattr(fn, "__module__", module_name)
                    wrapped[id(fn)] = self.wrap(fn, name,
                                                layer.rpartition(".")[2])
                setattr(module, name, wrapped[id(fn)])


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("import", "import")
    import scalecorr.cli
    tracer.close(span)
    span = tracer.open("install", "trace")
    tracer.install()
    tracer.close(span)
    span = tracer.open("main", "cli")
    try:
        code = scalecorr.cli.main(cli_args)
    finally:
        tracer.close(span)
        with open(spans_path, "w") as fh:
            json.dump({"process_start": T_START, "spans": tracer.spans,
                       "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
