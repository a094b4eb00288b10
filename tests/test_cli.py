import datetime as dt
import errno
import filecmp
import json
import os
import shutil

import numpy as np
import pytest

from scalecorr import textio
from scalecorr.association import build_report
from scalecorr.cli import main
from scalecorr.config import PipelineConfig
from scalecorr.errors import ConfigError
from scalecorr.scaling import DEFAULT_Q_GRID
from scalecorr.panel import ReturnPanel
from scalecorr.pipeline import STAGING_DIR, read_proxies_table


def _assert_same_files(a, b):
    """Directories ``a`` and ``b`` hold the same names and the same bytes."""
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), name


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
def long_prices_file(returns_file, tmp_path):
    """Close records S0000..S0007 over 401 days, priced from
    ``returns_file`` so that every default stage has enough data."""
    panel = ReturnPanel.read(returns_file)
    prices = 100.0 * np.exp(np.vstack([np.zeros(panel.returns.shape[1]),
                                       np.cumsum(panel.returns, axis=0)]))
    start = panel.dates[0].toordinal() - 1
    path = tmp_path / "long_prices.csv"
    path.write_text("".join(
        f"{t},{dt.date.fromordinal(start + d).isoformat()},{p!r}\n"
        for i, t in enumerate(panel.tickers)
        for d, p in enumerate(prices[:, i].tolist())))
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

    def test_associate_joins_by_ticker(self, returns_file, tmp_path):
        """The stocks are the rho_bar file's rows, in its order, that the
        proxy table also holds."""
        proxies = str(tmp_path / "proxies.tsv")
        rho_bar = str(tmp_path / "rho_bar.tsv")
        assert main(["scaling", "--returns", returns_file,
                     "--out", proxies]) == 0
        assert main(["xcorr", "--returns", returns_file, "--rho-out",
                     str(tmp_path / "rho.tsv"), "--rho-bar-out", rho_bar]) == 0
        rows, _, values = textio.read_matrix(rho_bar)
        # reversed, one ticker dropped and one the proxy table lacks
        keep = [len(rows) - 1 - i for i in range(len(rows) - 1)]
        joined = tmp_path / "joined.tsv"
        textio.write_matrix(str(joined), [rows[i] for i in keep] + ["ZZZ"],
                            ["rho_bar"],
                            np.append(values[keep, 0], 0.5)[:, None],
                            corner="ticker")
        report = tmp_path / "report.tsv"
        assert main(["associate", "--proxies", proxies, "--rho-bar",
                     str(joined), "--out", str(report)]) == 0
        table = read_proxies_table(proxies)
        expected = build_report([table[rows[i]][0] for i in keep],
                                [table[rows[i]][1] for i in keep],
                                values[keep, 0])
        assert textio.read_keyvalues(report) == dict(expected.to_pairs())
        assert expected.n_stocks == len(rows) - 1

    def test_associate_rejects_repeated_tickers(self, returns_file, tmp_path,
                                                capsys):
        proxies = str(tmp_path / "proxies.tsv")
        rho_bar = tmp_path / "rho_bar.tsv"
        assert main(["scaling", "--returns", returns_file,
                     "--out", proxies]) == 0
        assert main(["xcorr", "--returns", returns_file, "--rho-out",
                     str(tmp_path / "rho.tsv"), "--rho-bar-out",
                     str(rho_bar)]) == 0
        header, *rows = rho_bar.read_text().splitlines(keepends=True)
        rho_bar.write_text(header + "".join(rows) * 2)
        assert main(["associate", "--proxies", proxies, "--rho-bar",
                     str(rho_bar), "--out", str(tmp_path / "r.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert (f"{rho_bar}: lines 2 and {len(rows) + 2}: repeated row label "
                f"'S0000'") in err

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

    def test_empty_overlap_errors(self, returns_file, tmp_path, capsys):
        proxies = str(tmp_path / "proxies.tsv")
        assert main(["scaling", "--returns", returns_file,
                     "--out", proxies]) == 0
        rho_bar = tmp_path / "rho_bar.tsv"
        rho_bar.write_text("ticker\trho_bar\nA\t0.1\nB\t0.2\n")
        out = tmp_path / "r.tsv"
        assert main(["associate", "--proxies", proxies, "--rho-bar",
                     str(rho_bar), "--out", str(out)]) == 2
        assert "no common tickers" in capsys.readouterr().err
        assert not out.exists()

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
        with open(prices_file) as fh:
            lines = fh.read().splitlines()
        lines[30] = lines[30].rpartition(",")[0] + "," + token
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["run", "--prices", str(bad), "--output-dir",
                     str(out)]) == 1
        assert "line 31: non-finite close" in capsys.readouterr().err
        assert not out.exists()

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
         "line 5 field 2: could not convert"),
        (lambda rows: rows[:4] + ["\t".join(["S", "nan"] + rows[4].split(
            "\t")[2:])] + rows[5:], "line 5: non-finite"),
        (lambda rows: rows[:4] + [rows[4].rpartition("\t")[0] + "\tnan"]
         + rows[5:], "line 5: non-finite value nan in column 'zeta_q"),
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

    @pytest.mark.parametrize("command", ["run", "scaling"])
    def test_q_min_rounding_to_zero_is_config_error(self, returns_file,
                                                    tmp_path, capsys, command):
        # the grid is rounded to 12 decimals, so q_min = 1e-13 becomes 0
        out = tmp_path / "o"
        target = ["--output-dir"] if command == "run" else ["--out"]
        assert main([command, "--returns", returns_file, "--q-min", "1e-13",
                     "--q-max", "0.5", "--q-step", "0.5"]
                    + target + [str(out)]) == 2
        err = capsys.readouterr().err
        assert "q_min=1e-13 rounds to 0" in err and err.count("\n") == 1
        assert not out.exists()

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


@pytest.mark.parametrize("argv", [
    ["run", "--returns", "{returns}", "--mode", "shuffled", "--seed", "-1",
     "--output-dir", "{out}"],
    ["surrogate", "--returns", "{returns}", "--kind", "synchronous_shuffle",
     "--seed", "-1", "--out", "{out}"],
    ["synth", "--kind", "gaussian_iid", "--n-stocks", "4", "--n-days", "64",
     "--seed", "-1", "--out", "{out}"],
], ids=["run", "surrogate", "synth"])
def test_negative_seed_is_config_error(returns_file, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([a.format(returns=returns_file, out=out) for a in argv]) == 2
    assert capsys.readouterr().err == "error: seed=-1 is negative\n"
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
        with open(returns_file, "rb") as fh:
            data = bytearray(fh.read())
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
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
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
        # scatter carries ln cap as its fifth field
        with open(os.path.join(out, "scatter.tsv")) as fh:
            rows = [ln.split("\t") for ln in fh.read().splitlines()[1:]]
        assert all(r[4] != "NA" for r in rows)

    def test_rerun_leaves_only_the_new_bundle(self, returns_file, tmp_path):
        caps = tmp_path / "caps.csv"
        caps.write_text("".join(f"S{i:04d},2020-01-01,{1e9 * (i + 1)}\n"
                                for i in range(8)))
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file, "--capitalization",
                     str(caps), "--output-dir", str(out)]) == 0
        assert (out / "median_cap.tsv").exists()
        assert main(["run", "--returns", returns_file, "--mode", "shuffled",
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                                 + ["manifest.json"])
        assert "returns.tsv" not in manifest["outputs"]

    def test_rerun_keeps_its_input(self, long_prices_file, tmp_path):
        # a raw --prices run writes and lists the returns it derives
        out = tmp_path / "o"
        assert main(["run", "--prices", long_prices_file,
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "returns.tsv" in manifest["outputs"]
        before = (out / "returns.tsv").read_bytes()
        assert main(["run", "--mode", "shuffled", "--returns",
                     str(out / "returns.tsv"), "--output-dir", str(out)]) == 0
        assert (out / "returns.tsv").read_bytes() == before

    @pytest.mark.parametrize("mode, source, caps, extra", [
        ("raw", "returns", False, []),
        ("raw", "prices", True, ["fill_mask.tsv", "median_cap.tsv",
                                 "panel.tsv", "returns.tsv"]),
        ("shuffled", "prices", False, ["fill_mask.tsv", "panel.tsv",
                                       "surrogate_returns.tsv",
                                       "surrogate_spec.tsv"]),
        ("gaussianized", "returns", False, ["surrogate_returns.tsv",
                                            "surrogate_spec.tsv"]),
    ], ids=["raw-returns", "raw-prices-caps", "shuffled-prices",
            "gaussianized-returns"])
    def test_bundle_file_list(self, returns_file, long_prices_file, tmp_path,
                              mode, source, caps, extra):
        """Each result is stored once: a returns input is not copied, and
        there is no p-value matrix and one scatter table."""
        out = tmp_path / "o"
        argv = ["run", "--mode", mode, "--output-dir", str(out), "--" + source,
                returns_file if source == "returns" else long_prices_file]
        if caps:
            path = tmp_path / "caps.csv"
            path.write_text("".join(f"S{i:04d},2020-01-01,{1e9 * (i + 1)}\n"
                                    for i in range(8)))
            argv += ["--capitalization", str(path)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == sorted(
            ["association.tsv", "association.txt", "corr_matrix.tsv",
             "proxies.tsv", "rho_bar.tsv", "scatter.tsv"] + extra)
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                                 + ["manifest.json"])

    def test_rerun_removes_the_old_layout(self, returns_file, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        old = ["corr_pvalues.tsv", "returns.tsv", "scatter_A.tsv",
               "scatter_B.tsv"]
        for name in old:
            (out / name).write_text("from an earlier layout\n")
        (out / "manifest.json").write_text(json.dumps({"outputs": old}))
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                                 + ["manifest.json"])
        assert not any((out / name).exists() for name in old)

    def test_gaussianized_mode_runs(self, returns_file, tmp_path):
        out = str(tmp_path / "g")
        assert main(["run", "--returns", returns_file, "--mode",
                     "gaussianized", "--output-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "surrogate_returns.tsv"))


class TestStagedRun:
    """A run commits its bundle only after every stage has succeeded."""

    @pytest.fixture
    def caps(self, tmp_path):
        path = tmp_path / "caps.csv"
        path.write_text("".join(f"S{i:04d},2020-01-01,{1e9 * (i + 1)}\n"
                                for i in range(8)))
        return path

    def test_failed_run_leaves_the_earlier_bundle(self, returns_file, caps,
                                                  tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file, "--capitalization",
                     str(caps), "--output-dir", str(out)]) == 0
        before = tmp_path / "before"
        shutil.copytree(out, before)
        bad = tmp_path / "bad.csv"
        bad.write_text(caps.read_text() + "X,2020-01-01,abc\n")
        assert main(["run", "--returns", returns_file, "--mode", "shuffled",
                     "--capitalization", str(bad),
                     "--output-dir", str(out)]) == 1
        assert "[capitalization]" in capsys.readouterr().err
        _assert_same_files(before, out)

    def test_failed_write_leaves_no_staging_directory(self, returns_file,
                                                      tmp_path, monkeypatch):
        def disk_full(path, pairs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(textio, "write_keyvalues", disk_full)
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_leftover_staging_directory_is_removed(self, returns_file,
                                                   tmp_path):
        out = tmp_path / "o"
        (out / STAGING_DIR).mkdir(parents=True)
        (out / STAGING_DIR / "proxies.tsv").write_text("left by a killed run")
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                                 + ["manifest.json"])

    @pytest.mark.parametrize("manifest", [
        lambda victim: json.dumps({"outputs": ["../victim.txt"]}),
        lambda victim: json.dumps({"outputs": [str(victim)]}),
        lambda victim: '{"outputs": ["victim.txt"',
    ], ids=["parent", "absolute", "not-json"])
    def test_crafted_manifest_is_2_and_removes_nothing(self, returns_file,
                                                       tmp_path, capsys,
                                                       manifest):
        victim = tmp_path / "victim.txt"
        victim.write_text("keep me")
        out = tmp_path / "o"
        out.mkdir()
        (out / "manifest.json").write_text(manifest(victim))
        (out / "victim.txt").write_text("keep me too")
        before = tmp_path / "before"
        shutil.copytree(out, before)
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'manifest.json'}: ")
        assert err.count("\n") == 1
        assert victim.read_text() == "keep me"
        _assert_same_files(before, out)


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

    @pytest.mark.parametrize("alpha", ["7", "nan"])
    def test_alpha_checked_like_xcorr(self, returns_file, tmp_path, capsys,
                                      alpha):
        out = str(tmp_path / "o")
        assert main(["run", "--returns", returns_file, "--output-dir", out]) == 0
        report = os.path.join(out, "association.tsv")
        assert main(["xcorr", "--returns", returns_file, "--alpha", alpha,
                     "--rho-out", str(tmp_path / "rho.tsv")]) == 2
        expected = capsys.readouterr().err
        diff = tmp_path / "diff.tsv"
        assert main(["compare", report, report, "--alpha", alpha,
                     "--out", str(diff)]) == 2
        assert capsys.readouterr().err == expected == (
            f"error: alpha={float(alpha)} outside (0, 1)\n")
        assert not diff.exists()

    def test_disjoint_reports_error(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("x\t1\n")
        b.write_text("y\t2\n")
        assert main(["compare", str(a), str(b)]) == 2
