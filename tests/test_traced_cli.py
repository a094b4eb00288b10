"""The benchmark's tracer (``perfbench/traced_cli.py``) wraps the functions
``pipeline.run`` reaches by name; a rename or a moved call would leave a
layer untimed. This runs the tracer on a tiny ``run --returns`` input and
checks that it found every name and timed the three analysis layers."""

import json
import os
import subprocess
import sys

import numpy as np

from conftest import make_return_panel

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_run_finds_every_layer(tmp_path):
    # one common factor, so that the filtered rho_bar is not constant
    g = np.random.default_rng(0)
    X = np.linspace(0.2, 1.5, 6) * g.standard_normal((200, 1)) \
        + g.standard_normal((200, 6))
    returns = str(tmp_path / "returns.tsv")
    make_return_panel(X - X.mean(axis=0)).write(returns)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
         str(spans), "run", "--returns", returns,
         "--output-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["missing"] == []
    names = {span["name"] for span in doc["spans"]}
    assert {"estimate_scaling_panel", "correlation_matrix",
            "build_report"} <= names
