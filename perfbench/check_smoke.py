"""Tests of the benchmark itself, on its tiny ``smoke`` sizes.

Run from the repository root (the name keeps them out of the package's own
test run):

    python -m pytest perfbench/check_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = sorted(workloads.WORKLOADS)


def _bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(_bench(workload, 0))["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_and_accounts_for_its_time(workload):
    metrics = {k: v["value"]
               for k, v in _result(_bench(workload, 1))["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.missing_names"] == 0
    parts = [v for k, v in metrics.items()
             if k.endswith((".s", ".self_s")) or k in (
                 "trace.count_s", "trace.unaccounted_s")]
    assert sum(parts) == pytest.approx(metrics["trace.run_s"], abs=1e-6)
    assert metrics["association.n_stocks"] > 0
    assert metrics["scaling.moment_evals"] > 0


def test_inputs_depend_only_on_the_seed():
    a, b = (workloads.generate("prices", "smoke", 5) for _ in range(2))
    c = workloads.generate("prices", "smoke", 6)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.observed, b.observed)
    assert not np.array_equal(a.prices, c.prices)


def test_cached_inputs_are_reused_and_pinned(tmp_path):
    inputs = workloads.generate("desk", "smoke", 5)
    first = workloads.materialize(inputs, str(tmp_path), "desk", "smoke", 5)
    again = workloads.materialize(inputs, str(tmp_path), "desk", "smoke", 5)
    assert first == again
    path = first["--returns"]["path"]
    assert workloads.sha256_file(path) == first["--returns"]["sha256"]
    loaded = np.loadtxt(path, delimiter="\t", skiprows=1,
                        usecols=range(1, len(inputs.tickers) + 1))
    assert np.array_equal(loaded, inputs.returns)


@pytest.mark.parametrize("workload", NAMES)
def test_oracle_accepts_the_cli_and_rejects_a_corrupted_bundle(workload,
                                                               tmp_path):
    w = workloads.WORKLOADS[workload]
    inputs = workloads.generate(workload, "smoke", 4)
    meta = workloads.materialize(inputs, str(tmp_path / "in"), workload,
                                 "smoke", 4)
    oracle = Oracle(w.mode, inputs, [m["sha256"] for m in meta.values()])
    out = str(tmp_path / "out")
    args = ["run", "--mode", w.mode, "--seed", "4", "--output-dir", out]
    for flag, m in meta.items():
        args += [flag, m["path"]]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "scalecorr.cli"] + args, env=env,
                   check=True, timeout=120)
    assert oracle.check(out) == []

    path = os.path.join(out, "rho_bar.tsv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    ticker = lines[1 + int(oracle.sample[-1])].split("\t")[0]
    lines[1 + int(oracle.sample[-1])] = f"{ticker}\t0.5"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any(p.startswith("rho_bar of") for p in oracle.check(out))

    lines[1] = lines[1].split("\t")[0] + "\tnan"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("non-finite" in p for p in oracle.check(out))


def test_missing_wrapped_name_is_recorded_not_fatal():
    code = ("import traced_cli as t; "
            "t.TARGETS['scalecorr.textio'].append('write_npy'); "
            "tracer = t.Tracer(); tracer.install(); print(tracer.missing)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "['scalecorr.textio.write_npy']"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(NAMES[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
