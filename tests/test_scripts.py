import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "synthetic_market_study.py")


@pytest.fixture
def study():
    spec = importlib.util.spec_from_file_location("synthetic_market_study",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_market_study_smoke(study, tmp_path):
    assert study.run(["--n-stocks", "20", "--n-days", "600",
                      "--outdir", str(tmp_path)]) == 0
    for mode in ("raw", "shuffled", "gaussianized"):
        bundle = tmp_path / mode
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["mode"] == mode
        assert sorted(os.listdir(bundle)) == sorted(manifest["outputs"]
                                                    + ["manifest.json"])


def test_negative_seed_is_one_error_line(study, tmp_path, capsys):
    out = tmp_path / "study"
    assert study.run(["--n-stocks", "4", "--n-days", "128", "--seed", "-1",
                      "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed=-1 is negative\n"
    assert not out.exists()


@pytest.mark.parametrize("size, message", [
    (["--n-stocks", "1", "--n-days", "600"], "recipe needs n_stocks >= 2"),
    (["--n-stocks", "4", "--n-days", "10"], "recipe needs n_days >= 64"),
], ids=["one-stock", "ten-days"])
def test_undersized_market_is_one_error_line(study, tmp_path, capsys, size,
                                             message):
    """A market too small for the pipeline is a configuration error before
    anything is written, not an estimation error after the returns are."""
    out = tmp_path / "study"
    assert study.run([*size, "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
