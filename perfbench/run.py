"""Benchmark of ``scalecorr run`` on seeded workloads, timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Each timed run is a fresh ``python -m scalecorr.cli run ...`` child with
PYTHONPATH pointing at the checkout's ``src/``, writing into a fresh, empty
output directory; its wall time, peak RSS (``ru_maxrss``) and the bytes of
the bundle it left are recorded, and the bundle is checked by the
independent oracle in ``oracle.py``. Runs repeat while their wall times are
expected to add up to no more than ``--seconds`` (at least one run), and the
medians are reported. ``setup_s`` is the median wall time of fresh
interpreters that only import ``scalecorr.cli``.

``--trace 1`` alternates untraced runs with runs of ``traced_cli.py``, which
wraps the package's layer boundaries, and reports the per-layer metrics of
the traced run with the median wall time. Inputs are generated from
``--seed`` (``workloads.py``) and cached, outside every timing, under
``.bench_build/perfbench``; the spans and a full report of every invocation
are written there too. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".bench_build", "perfbench")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0
MB = 1e6

LAYERS = ["import", "pipeline", "panel", "textio", "scaling", "crosscorr",
          "surrogates", "association"]


@dataclass
class Sample:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    cpu_s: float
    bundle_mb: float = 0.0
    problems: list = None


class Launcher:
    """The small process that spawns and measures every child
    (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd, env, log_path, timeout):
        self.proc.stdin.write(json.dumps({"cmd": cmd, "env": env,
                                          "log": log_path,
                                          "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Sample(wall_s=reply["wall_s"], exit_code=reply["exit_code"],
                      peak_rss_mb=reply["maxrss_kb"] * 1024 / MB,
                      cpu_s=reply["cpu_s"])

    def close(self, abort=False):
        """Let the launcher exit once its child is done; on abort, have it
        kill the child first."""
        if abort:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _tail(path, n=5):
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-n:])


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out) if out.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        return None


def _blas_threads(np):
    """OpenBLAS's own thread count, when the bundled library exposes it."""
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(inputs_meta):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = _getconf("LEVEL3_CACHE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": l3,
        "input_bytes": sum(m["bytes"] for m in inputs_meta.values()),
        "input_over_l3": (sum(m["bytes"] for m in inputs_meta.values()) / l3
                          if l3 else None),
    }


def cli_args(workload, meta, seed, outdir):
    args = ["run", "--mode", workload.mode, "--seed", str(seed),
            "--output-dir", outdir]
    for flag, m in sorted(meta.items()):
        args += [flag, m["path"]]
    return args


def layer_metrics(doc, wall_s):
    """Per-layer numbers of one traced run from its spans.

    Self time is a span's duration minus its children's; the self times of
    all spans plus ``trace.unaccounted_s`` (interpreter start-up and exit,
    outside every span) add up to the traced run's wall time.
    """
    spans = doc["spans"]
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    for s in spans:
        below = kids.get(s["id"], [])
        s["self_s"] = (s["end"] - s["start"]
                       - sum(k["end"] - k["start"] for k in below))
        s["self_rss_kb"] = (s["rss_end_kb"] - s["rss_start_kb"]
                            - sum(k["rss_end_kb"] - k["rss_start_kb"]
                                  for k in below))

    def total(key, layer=None, names=None, prefix=None):
        return sum(s[key] if key in s else s["counts"].get(key, 0)
                   for s in spans
                   if (layer is None or s["layer"] == layer)
                   and (names is None or s["name"] in names)
                   and (prefix is None or s["name"].startswith(prefix)))

    pairs = total("pairs", "crosscorr")
    cells = total("cells", "panel")
    roots = sum(s["end"] - s["start"] for s in kids.get(None, []))
    m = {
        "trace.run_s": (wall_s, "s"),
        "trace.unaccounted_s": (wall_s - roots, "s"),
        "trace.count_s": (total("self_s", "trace"), "s"),
        "trace.missing_names": (len(doc["missing"]), "count"),
        "import.s": (total("self_s", "import"), "s"),
        "cli.self_s": (total("self_s", "cli"), "s"),
        "pipeline.self_s": (total("self_s", "pipeline"), "s"),
        "pipeline.sha256.bytes": (total("bytes", "pipeline"), "B"),
        "panel.load_prices.s": (total("self_s", "panel", ["load_prices"]),
                                "s"),
        "panel.load_prices.records": (total("records", "panel"), "count"),
        "panel.preprocess.s": (total("self_s", "panel", ["preprocess"]), "s"),
        "panel.preprocess.cells": (cells, "count"),
        "panel.preprocess.filled_frac": (
            total("filled", "panel") / cells if cells else 0.0, "ratio"),
        "panel.preprocess.dropped": (total("dropped", "panel"), "count"),
        "panel.compute_returns.s": (
            total("self_s", "panel", ["compute_returns"]), "s"),
        "panel.capitalization.s": (
            total("self_s", "panel", ["load_capitalizations",
                                      "median_capitalization"]), "s"),
        "textio.read.s": (total("self_s", "textio", prefix="read"), "s"),
        "textio.read.bytes": (total("bytes", "textio", prefix="read"), "B"),
        "textio.write.s": (total("self_s", "textio", prefix="write"), "s"),
        "textio.write.bytes": (total("bytes", "textio", prefix="write"),
                               "B"),
        "textio.write.values": (total("values", "textio", prefix="write"),
                                "count"),
        "scaling.s": (total("self_s", "scaling"), "s"),
        "scaling.moment_evals": (total("moment_evals", "scaling"), "count"),
        "scaling.bytes_moved": (total("bytes_moved", "scaling"), "B"),
        "crosscorr.s": (total("self_s", "crosscorr"), "s"),
        "crosscorr.gemm_flops": (total("gemm_flops", "crosscorr"), "flop"),
        "crosscorr.pairs": (pairs, "count"),
        "crosscorr.zeroed_frac": (
            total("zeroed", "crosscorr") / pairs if pairs else 0.0, "ratio"),
        "surrogates.s": (total("self_s", "surrogates"), "s"),
        "association.s": (total("self_s", "association"), "s"),
        "association.n_stocks": (total("n_stocks", "association"), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.rss_step_mb"] = (
            total("self_rss_kb", layer) * 1024 / MB, "MB")
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["desk", "wide", "prices"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    args = p.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "scalecorr", "cli.py")):
        print("perfbench: no src/scalecorr here; run from the repository "
              "root", file=sys.stderr)
        return 2
    t_begin = time.perf_counter()
    # started before numpy is imported, so children do not inherit its RSS
    scratch = os.path.join(WORK, "runs", str(os.getpid()))
    launcher = Launcher()
    try:
        code = _bench(args, src, launcher, scratch, t_begin)
    except BaseException:
        launcher.close(abort=True)
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    launcher.close()
    return code


def _bench(args, src, launcher, scratch, t_begin):
    import workloads
    from oracle import Oracle

    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.generate(w.name, args.size, args.seed)
    meta = workloads.materialize(inputs, os.path.join(WORK, "inputs"),
                                 w.name, args.size, args.seed)
    oracle = Oracle(w.mode, inputs, [m["sha256"] for m in meta.values()])
    del inputs
    env_record = environment(meta)
    tag = f"{w.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    os.makedirs(scratch)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log = os.path.join(scratch, "child.log")

    def deadline():
        return max(5.0, CHILD_TIMEOUT_S - (time.perf_counter() - t_begin))

    probe = [sys.executable, "-c", "import scalecorr.cli"]
    setups = [launcher.run(probe, env, log, deadline())
              for _ in range(1 if args.trace else SETUP_PROBES)]
    if any(s.exit_code for s in setups):
        print(f"perfbench: importing scalecorr.cli failed: {_tail(log)}",
              file=sys.stderr)
        return 1

    def timed_run(traced):
        outdir = os.path.join(scratch, "out")
        shutil.rmtree(outdir, ignore_errors=True)
        spans_path = os.path.join(scratch, "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                   spans_path]
        else:
            cmd = [sys.executable, "-m", "scalecorr.cli"]
        sample = launcher.run(cmd + cli_args(w, meta, args.seed, outdir),
                              env, log, deadline())
        sample.bundle_mb = _dir_bytes(outdir) / MB
        sample.problems = (oracle.check(outdir) if sample.exit_code == 0
                           else [f"exit code {sample.exit_code}: "
                                 f"{_tail(log)}"])
        shutil.rmtree(outdir, ignore_errors=True)
        spans = None
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans = json.load(fh)
            os.remove(spans_path)
        return sample, spans

    # at least one run (a pair when tracing); another only while the timed
    # runs are expected to stay within --seconds, so an invocation takes
    # about the same time whatever the speed of the host
    plain, traced = [], []
    measured = 0.0
    while True:
        sample, _ = timed_run(False)
        plain.append(sample)
        measured += sample.wall_s
        if args.trace:
            sample, spans = timed_run(True)
            traced.append((sample, spans))
            measured += sample.wall_s
        step = measured / len(plain)
        if measured + step > args.seconds or deadline() < 5.0 + 2 * step:
            break

    runs = plain + [s for s, _ in traced]
    failed = [s for s in runs if s.problems]
    ok = [s for s in plain if not s.problems] or plain

    print(f"perfbench {tag}: {len(plain)} runs"
          + (f" + {len(traced)} traced" if traced else ""))
    for flag, m in sorted(meta.items()):
        print(f"input {flag} {os.path.basename(m['path'])}: {m['bytes']} B "
              f"sha256={m['sha256']}")
    print("environment: " + json.dumps(env_record, sort_keys=True))
    for i, s in enumerate(runs):
        print(f"run {i + 1}{' traced' if i >= len(plain) else ''}: "
              f"{s.wall_s:.3f} s, rss {s.peak_rss_mb:.1f} MB, bundle "
              f"{s.bundle_mb:.3f} MB, cpu {s.cpu_s:.2f} s, "
              + ("; ".join(s.problems) if s.problems else "ok"))
    print(f"failed_frac: {len(failed)}/{len(runs)} = "
          f"{len(failed) / len(runs):g}")
    print(f"elapsed: {time.perf_counter() - t_begin:.1f} s, of which "
          f"{measured:.1f} s in timed runs")

    report = {"workload": w.name, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs": meta, "environment": env_record,
              "setup_s": [s.wall_s for s in setups],
              "runs": [asdict(s) for s in plain],
              "traced_runs": [asdict(s) for s, _ in traced]}
    if args.trace:
        ok_traced = [(s, d) for s, d in traced if not s.problems and d] \
            or [(s, d) for s, d in traced if d]
        if not ok_traced:
            print("perfbench: traced run left no spans", file=sys.stderr)
            return 1
        ok_traced.sort(key=lambda sd: sd[0].wall_s)
        chosen, doc = ok_traced[(len(ok_traced) - 1) // 2]
        metrics = layer_metrics(doc, chosen.wall_s)
        metrics["trace.overhead_s"] = (
            chosen.wall_s - statistics.median(s.wall_s for s in ok), "s")
        metrics["process.cpu_s"] = (statistics.median(s.cpu_s for s in ok),
                                    "s")
        if doc["missing"]:
            print("missing wrapped names (reported as 0): "
                  + ", ".join(doc["missing"]))
        report["spans"] = [d for _, d in traced]
    else:
        metrics = {
            "run_s": (statistics.median(s.wall_s for s in ok), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in ok),
                            "MB"),
            "bundle_mb": (statistics.median(s.bundle_mb for s in ok), "MB"),
            "setup_s": (statistics.median(s.wall_s for s in setups), "s"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    report["metrics"] = metrics
    with open(os.path.join(WORK, "reports", f"{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=float)

    print(json.dumps({
        "correct": not failed, "attempted": len(runs), "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
