import filecmp
import os

import numpy as np
import pytest

from scalecorr import textio
from scalecorr.cli import main
from scalecorr.config import PipelineConfig
from scalecorr.errors import ConfigError
from scalecorr.scaling import DEFAULT_Q_GRID
from scalecorr.panel import ReturnPanel


@pytest.fixture
def prices_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for ticker in ["AAA", "BBB", "CCC", "DDD"]:
        price = 100.0
        for day in range(1, 26):
            price *= float(np.exp(0.01 * rng.standard_normal()))
            lines.append(f"{ticker},2020-01-{day:02d},{price:.6f}")
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def returns_file(tmp_path):
    out = str(tmp_path / "ret.tsv")
    assert main(["synth", "--kind", "one_factor", "--n-stocks", "8",
                 "--n-days", "400", "--seed", "1", "--out", out]) == 0
    return out


class TestStageCommands:
    def test_clean_and_returns(self, prices_file, tmp_path):
        panel = str(tmp_path / "panel.tsv")
        mask = str(tmp_path / "mask.tsv")
        ret = str(tmp_path / "returns.tsv")
        assert main(["clean", "--prices", prices_file, "--out", panel,
                     "--mask-out", mask]) == 0
        assert main(["returns", "--panel", panel, "--out", ret]) == 0
        rp = ReturnPanel.read(ret)
        assert rp.returns.shape == (24, 4)
        assert np.abs(rp.returns.sum(axis=0)).max() < 1e-9 * 24

    def test_scaling_xcorr_associate(self, returns_file, tmp_path):
        proxies = str(tmp_path / "proxies.tsv")
        rho = str(tmp_path / "rho.tsv")
        rho_bar = str(tmp_path / "rho_bar.tsv")
        report = str(tmp_path / "report.tsv")
        assert main(["scaling", "--returns", returns_file,
                     "--out", proxies]) == 0
        assert main(["xcorr", "--returns", returns_file, "--rho-out", rho,
                     "--rho-bar-out", rho_bar]) == 0
        assert main(["associate", "--proxies", proxies, "--rho-bar", rho_bar,
                     "--out", report]) == 0
        kv = textio.read_keyvalues(report)
        assert "kendall_B_rho.tau" in kv
        assert abs(float(kv["kendall_B_rho.tau"])) <= 1.0

    def test_surrogate_command(self, returns_file, tmp_path):
        out = str(tmp_path / "shuf.tsv")
        spec = str(tmp_path / "spec.tsv")
        assert main(["surrogate", "--returns", returns_file, "--kind",
                     "synchronous_shuffle", "--seed", "5", "--out", out,
                     "--spec-out", spec]) == 0
        orig = ReturnPanel.read(returns_file)
        shuf = ReturnPanel.read(out)
        np.testing.assert_allclose(np.sort(shuf.returns, axis=0),
                                   np.sort(orig.returns, axis=0), atol=0)
        kv = textio.read_keyvalues(spec)
        assert kv["kind"] == "synchronous_shuffle"
        assert len(kv["permutation_digest"]) == 64


class TestExitCodes:
    def test_data_error_is_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("AAA,2020-01-01,0\n")
        assert main(["clean", "--prices", str(bad),
                     "--out", str(tmp_path / "x.tsv")]) == 1

    def test_config_error_is_2(self, returns_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"returns={returns_file}\nsignificance_mode=bogus\n")
        assert main(["run", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_estimation_error_is_3(self, tmp_path):
        # series far too short for the default tau range
        out = str(tmp_path / "ret.tsv")
        main(["synth", "--kind", "gaussian_iid", "--n-stocks", "3",
              "--n-days", "64", "--seed", "0", "--out", out])
        assert main(["run", "--returns", out,
                     "--output-dir", str(tmp_path / "o")]) == 3

    def test_missing_file_is_2(self, tmp_path):
        assert main(["returns", "--panel", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "x.tsv")]) == 2

    def test_directory_input_is_2(self, tmp_path, capsys):
        assert main(["run", "--prices", str(tmp_path),
                     "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_close_is_1_and_writes_nothing(self, prices_file,
                                                       tmp_path, capsys,
                                                       token):
        lines = open(prices_file).read().splitlines()
        lines[30] = lines[30].rpartition(",")[0] + "," + token
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--prices", str(bad), "--output-dir",
                     str(out)]) == 1
        assert "line 31: non-finite close" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_zero_median_cap_is_1(self, returns_file, tmp_path, capsys):
        caps = tmp_path / "caps.csv"
        caps.write_text("".join(f"S{i:04d},2020-01-01,{0 if i == 3 else 5}\n"
                                for i in range(8)))
        assert main(["run", "--returns", returns_file, "--capitalization",
                     str(caps), "--output-dir", str(tmp_path / "o")]) == 1
        assert "S0003: median capitalization 0" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, where", [
        (lambda rows: rows[:2] + [rows[2].split("\t")[0]] + rows[3:],
         "line 3 has 1 fields"),
        (lambda rows: [rows[0].replace("B_hat", "C_hat")] + rows[1:],
         "line 1: no B_hat column"),
        (lambda rows: rows[:4] + [rows[4].replace("\t", "\tx", 1)] + rows[5:],
         "line 5: could not convert"),
        (lambda rows: rows[:4] + ["\t".join(["S", "nan"] + rows[4].split(
            "\t")[2:])] + rows[5:], "line 5: non-finite"),
        (lambda rows: [], "empty file"),
    ])
    def test_malformed_proxies_table_is_1(self, returns_file, tmp_path,
                                          capsys, edit, where):
        proxies = tmp_path / "proxies.tsv"
        rho_bar = str(tmp_path / "rho_bar.tsv")
        assert main(["scaling", "--returns", returns_file,
                     "--out", str(proxies)]) == 0
        assert main(["xcorr", "--returns", returns_file,
                     "--rho-out", str(tmp_path / "rho.tsv"),
                     "--rho-bar-out", rho_bar]) == 0
        rows = proxies.read_text().splitlines()
        proxies.write_text("".join(r + "\n" for r in edit(rows)))
        assert main(["associate", "--proxies", str(proxies), "--rho-bar",
                     rho_bar, "--out", str(tmp_path / "r.tsv")]) == 1
        err = capsys.readouterr().err
        assert str(proxies) in err and where in err


class TestGridValidation:
    def test_q_grid_stops_at_q_max(self):
        assert list(PipelineConfig(q_step=0.35).q_grid()) == [0.1, 0.45, 0.8]
        assert list(PipelineConfig().q_grid()) == list(DEFAULT_Q_GRID)

    def test_q_step_past_q_max_run(self, returns_file, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file, "--q-step", "0.35",
                     "--output-dir", str(out)]) == 0
        header = (out / "proxies.tsv").read_text().splitlines()[0]
        assert header.split("\t")[4:] == ["zeta_q0.1", "zeta_q0.45",
                                          "zeta_q0.8"]

    @pytest.mark.parametrize("flags", [
        ["--q-min", "0.5", "--q-max", "0.5"],
        ["--q-min", "0.1", "--q-max", "0.3", "--q-step", "0.5"],
        ["--tau-min", "1", "--tau-max", "2"],
        ["--tau-min", "4", "--tau-max", "4"],
    ])
    def test_degenerate_grid_is_config_error(self, returns_file, tmp_path,
                                             capsys, flags):
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file, "--output-dir",
                     str(out)] + flags) == 2
        assert "associate" not in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_grid_is_config_error(self, returns_file, tmp_path):
        # 1e-12 steps from 0.1 to 1.0 would be ~9e11 values (6.5 TiB)
        assert main(["run", "--returns", returns_file, "--q-step", "1e-12",
                     "--output-dir", str(tmp_path / "o")]) == 2
        with pytest.raises(ConfigError, match="more than 10000 values"):
            PipelineConfig(returns="r.tsv", q_step=1e-300).validate()
        assert len(PipelineConfig(q_min=1e-4, q_max=1.0,
                                  q_step=1e-4).q_grid()) == 10_000

    @pytest.mark.parametrize("field", ["q_min", "q_max", "q_step"])
    def test_nan_grid_bound_is_config_error(self, field):
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig(returns="r.tsv", **{field: float("nan")}).validate()

    def test_degenerate_grid_rejected_by_validate(self):
        with pytest.raises(ConfigError):
            PipelineConfig(returns="r.tsv", q_min=0.5, q_max=0.5).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(returns="r.tsv", tau_min=3, tau_max=4).validate()

    def test_scaling_command_single_q_is_estimation_error(self, returns_file,
                                                          tmp_path):
        assert main(["scaling", "--returns", returns_file, "--q-min", "0.5",
                     "--q-max", "0.5",
                     "--out", str(tmp_path / "p.tsv")]) == 3

    @pytest.mark.parametrize("argv", [
        ["xcorr", "--returns", "{returns}", "--alpha", "7",
         "--rho-out", "{out}"],
        ["scaling", "--returns", "{returns}", "--q-step", "0",
         "--out", "{out}"],
        ["scaling", "--returns", "{returns}", "--q-min", "-1",
         "--out", "{out}"],
        ["clean", "--prices", "{prices}", "--k", "1.5", "--out", "{out}"],
    ])
    def test_subcommands_check_ranges_like_run(self, returns_file,
                                               prices_file, tmp_path, capsys,
                                               argv):
        out = tmp_path / "out.tsv"
        argv = [a.format(returns=returns_file, prices=prices_file, out=out)
                for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestUndecodableInput:
    """A file that is not UTF-8 text is a one-line error naming the file."""

    @pytest.mark.parametrize("argv, code", [
        (["clean", "--prices", "{bad}", "--out", "{out}"], 1),
        (["run", "--returns", "{returns}", "--capitalization", "{bad}",
          "--output-dir", "{out}"], 1),
        (["run", "--config", "{bad}", "--output-dir", "{out}"], 2),
        (["compare", "{bad}", "{bad}"], 1),
        (["associate", "--proxies", "{bad}", "--rho-bar", "{returns}",
          "--out", "{out}"], 1),
        (["scaling", "--returns", "{bad}", "--out", "{out}"], 1),
    ])
    @pytest.mark.parametrize("where", ["first line", "last line"])
    def test_non_utf8_file(self, returns_file, tmp_path, capsys, argv, code,
                           where):
        data = bytearray(open(returns_file, "rb").read())
        # the returns file is longer than one read buffer, so the last
        # line is decoded in a later chunk than the first
        assert len(data) > 1 << 16
        data[2 if where == "first line" else -3] = 0xFF
        bad = tmp_path / "bad.txt"
        bad.write_bytes(bytes(data))
        argv = [a.format(bad=bad, returns=returns_file, out=tmp_path / "o")
                for a in argv]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in err


class TestRun:
    def test_bundle_and_determinism(self, returns_file, tmp_path):
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        for out in (out1, out2):
            assert main(["run", "--returns", returns_file, "--seed", "7",
                         "--output-dir", out]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            assert filecmp.cmp(os.path.join(out1, name),
                               os.path.join(out2, name), shallow=False), name

    def test_shuffled_mode_preserves_rho_bar(self, returns_file, tmp_path):
        raw, shuf = str(tmp_path / "raw"), str(tmp_path / "shuf")
        assert main(["run", "--returns", returns_file,
                     "--output-dir", raw]) == 0
        assert main(["run", "--returns", returns_file, "--mode", "shuffled",
                     "--seed", "13", "--output-dir", shuf]) == 0
        _, _, a = textio.read_matrix(os.path.join(raw, "rho_bar.tsv"))
        _, _, b = textio.read_matrix(os.path.join(shuf, "rho_bar.tsv"))
        assert np.abs(a - b).max() < 1e-12

    def test_config_file_with_overrides(self, returns_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"returns={returns_file}\nalpha=0.01\nseed=3\n")
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(cfg), "--alpha", "0.10",
                     "--output-dir", out]) == 0
        import json
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["alpha"] == "0.1"
        assert manifest["config"]["seed"] == "3"
        assert manifest["input_digests"]["returns"]

    def test_capitalization_block_end_to_end(self, returns_file, tmp_path):
        rng = np.random.default_rng(2)
        lines = []
        for i in range(8):
            for month in (1, 2, 3):
                cap = float(rng.uniform(1e8, 1e11))
                lines.append(f"S{i:04d},2020-{month:02d}-01,{cap:.2f}")
        caps = tmp_path / "caps.csv"
        caps.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "o")
        assert main(["run", "--returns", returns_file, "--capitalization",
                     str(caps), "--output-dir", out]) == 0
        kv = textio.read_keyvalues(os.path.join(out, "association.tsv"))
        assert kv["cap_block_available"] == "1"
        assert kv["n_used"] == "8"
        assert "partial_corr.rho" in kv
        assert os.path.exists(os.path.join(out, "median_cap.tsv"))
        # scatter carries ln cap as the third data column
        with open(os.path.join(out, "scatter_B.tsv")) as fh:
            rows = [ln.split("\t") for ln in fh.read().splitlines()[1:]]
        assert all(r[3] != "NA" for r in rows)

    def test_gaussianized_mode_runs(self, returns_file, tmp_path):
        out = str(tmp_path / "g")
        assert main(["run", "--returns", returns_file, "--mode",
                     "gaussianized", "--output-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "surrogate_returns.tsv"))


class TestCompare:
    def test_self_comparison_all_zero(self, returns_file, tmp_path):
        out = str(tmp_path / "o")
        main(["run", "--returns", returns_file, "--output-dir", out])
        report = os.path.join(out, "association.tsv")
        diff = str(tmp_path / "diff.tsv")
        assert main(["compare", report, report, "--out", diff]) == 0
        with open(diff) as fh:
            rows = [ln.split("\t") for ln in fh.read().splitlines()[1:]]
        for row in rows:
            if row[3] != "-":
                assert float(row[3]) == 0.0

    def test_disjoint_reports_error(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("x\t1\n")
        b.write_text("y\t2\n")
        assert main(["compare", str(a), str(b)]) == 2
