import ctypes
import datetime as dt
import errno
import filecmp
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from scalecorr import cli, pipeline, textio
from scalecorr.association import build_report
from scalecorr.cli import main, make_parser
from scalecorr.config import PipelineConfig
from scalecorr.crosscorr import correlation_matrix
from scalecorr.errors import ConfigError, EstimationError
from scalecorr.scaling import DEFAULT_Q_GRID
from scalecorr.panel import ReturnPanel
from scalecorr.pipeline import STAGING_DIR, read_columns


def _sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
def fifo(tmp_path):
    """A FIFO in tmp_path. Every reader that opens it is given an empty
    stream within ~20 ms, so code that reads it fails instead of blocking."""
    path = tmp_path / "input.fifo"
    os.mkfifo(path)
    stop = threading.Event()

    def end_each_read():
        while not stop.wait(0.02):
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # ENXIO: no reader has it open
                pass

    writer = threading.Thread(target=end_each_read, daemon=True)
    writer.start()
    yield str(path)
    stop.set()
    writer.join()


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

    @pytest.mark.parametrize("mode", ["filtered", "all"])
    def test_xcorr_pvalue_out_is_the_t_test_matrix(self, returns_file,
                                                   tmp_path, mode):
        """--pvalue-out writes the p-values of every coefficient, byte for
        byte the matrix of scipy.stats' t survival function."""
        from scipy import stats
        got, want = tmp_path / "p.tsv", tmp_path / "want.tsv"
        assert main(["xcorr", "--returns", returns_file, "--significance-mode",
                     mode, "--rho-out", str(tmp_path / "rho.tsv"),
                     "--pvalue-out", str(got)]) == 0
        tickers, _, rho = textio.read_matrix(str(tmp_path / "rho.tsv"))
        T = ReturnPanel.read(returns_file).returns.shape[0]
        with np.errstate(divide="ignore"):
            t = np.abs(rho) * np.sqrt((T - 2) / (1.0 - rho * rho))
        textio.write_matrix(str(want), tickers, tickers,
                            2.0 * stats.t.sf(t, T - 2), corner="ticker")
        assert filecmp.cmp(got, want, shallow=False)

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
        table = read_columns(proxies, "A_hat", "B_hat")
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

    @pytest.mark.parametrize("table", ["rho.tsv", "proxies.tsv"])
    def test_associate_needs_a_rho_bar_column(self, returns_file, tmp_path,
                                              capsys, table):
        """The N x N matrix of ``xcorr --rho-out`` or a proxy table given as
        ``--rho-bar`` is a data error, not a column read by position."""
        proxies = str(tmp_path / "proxies.tsv")
        assert main(["scaling", "--returns", returns_file,
                     "--out", proxies]) == 0
        assert main(["xcorr", "--returns", returns_file, "--rho-out",
                     str(tmp_path / "rho.tsv")]) == 0
        report = tmp_path / "r.tsv"
        assert main(["associate", "--proxies", proxies, "--rho-bar",
                     str(tmp_path / table), "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / table}: line 1: no rho_bar column\n")
        assert not report.exists()

    def test_missing_column_names_the_header_line(self, returns_file,
                                                  tmp_path, capsys):
        """The header of a file that starts with blank lines is on a later
        line, and the missing-column error names that line."""
        proxies = tmp_path / "proxies.tsv"
        assert main(["scaling", "--returns", returns_file,
                     "--out", str(proxies)]) == 0
        blank = tmp_path / "blank.tsv"
        blank.write_text("\n" + proxies.read_text())
        report = tmp_path / "r.tsv"
        assert main(["associate", "--proxies", str(proxies), "--rho-bar",
                     str(blank), "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: {blank}: line 2: no rho_bar column\n")
        assert not report.exists()

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

    @pytest.mark.parametrize("flag", ["prices", "returns", "capitalization"])
    def test_fifo_input_is_2(self, returns_file, fifo, tmp_path, capsys,
                             flag):
        """The manifest pins an input by a digest taken after the stages,
        so an input whose bytes can be read only once is rejected before
        any stage runs."""
        out = tmp_path / "o"
        argv = ["run", "--" + flag, fifo, "--output-dir", str(out)]
        if flag == "capitalization":
            argv += ["--returns", returns_file]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} input {fifo} is not a regular file\n")
        assert not out.exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_piped_returns_is_2(self, returns_file, tmp_path, capsys):
        """``run --returns <(cat returns.tsv)`` hands the run a pipe."""
        with open(returns_file, "rb") as fh:
            head = b"".join(fh.readlines()[:50])  # fits a pipe's buffer
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, head)
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            assert main(["run", "--returns", path, "--output-dir",
                         str(tmp_path / "o")]) == 2
        finally:
            os.close(read_end)
        assert capsys.readouterr().err == (
            f"error: returns input {path} is not a regular file\n")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("argv", [
        ["xcorr", "--returns", "{bad}", "--rho-out", "{out}"],
        ["run", "--returns", "{bad}", "--output-dir", "{out}"],
        ["returns", "--panel", "{bad}", "--out", "{out}"],
    ], ids=["xcorr", "run", "returns"])
    def test_bad_date_label_names_file_and_line(self, tmp_path, capsys,
                                                argv):
        bad = tmp_path / "bad.tsv"
        bad.write_text("date\tA\tB\n2020-01-01\t1.5\t2\n\n"
                       "notadate\t1.25\t2.5\n2020-01-03\t1.5\t2\n")
        out = tmp_path / "o"
        assert main([a.format(bad=bad, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{bad}: line 4: unparseable date 'notadate'\n")
        assert not out.exists()

    @pytest.mark.parametrize("label, day", [("2020-01-02", "2020-01-02"),
                                            ("20200103", "2020-01-03")])
    @pytest.mark.parametrize("argv", [
        ["xcorr", "--returns", "{bad}", "--rho-out", "{out}"],
        ["run", "--returns", "{bad}", "--output-dir", "{out}"],
        ["returns", "--panel", "{bad}", "--out", "{out}"],
    ], ids=["xcorr", "run", "returns"])
    def test_date_not_after_the_one_before_names_file_and_line(
            self, tmp_path, capsys, argv, label, day):
        bad = tmp_path / "bad.tsv"
        bad.write_text("date\tA\tB\n2020-01-01\t1.5\t2\n2020-01-03\t1\t2\n"
                       f"\n{label}\t1.25\t2.5\n")
        out = tmp_path / "o"
        assert main([a.format(bad=bad, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{bad}: line 5: date {day} is not later than "
                            "2020-01-03\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("Unable to allocate 72.8 TiB for an array with shape "
         "(100000000, 100000) and data type float64", None),
        ("", "out of memory")])
    def test_memory_error_is_2(self, tmp_path, monkeypatch, capsys, text,
                               message):
        """An allocation that fails is one error line, not a traceback (the
        command is replaced: no such allocation is tried)."""
        def synth(args):
            raise MemoryError(text) if text else MemoryError

        monkeypatch.setitem(cli._COMMANDS, "synth", synth)
        out = tmp_path / "x.tsv"
        assert main(["synth", "--kind", "gaussian_iid", "--n-stocks",
                     "100000", "--n-days", "100000000", "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message or text}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\ufeff", "# no records\n\n"])
    @pytest.mark.parametrize("command", ["run", "clean"])
    def test_prices_without_records_is_1(self, tmp_path, capsys, command,
                                         text):
        """An empty price file is reported at load, naming the file."""
        prices = tmp_path / "prices.csv"
        prices.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        if command == "run":
            argv = ["run", "--prices", str(prices), "--output-dir", str(out)]
        else:
            argv = ["clean", "--prices", str(prices), "--out", str(out)]
        assert main(argv) == 1
        stage = "[load] " if command == "run" else ""
        assert capsys.readouterr().err == (
            f"error: {stage}{prices}: no price records\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "# no records\n\n"])
    @pytest.mark.parametrize("command", ["run", "associate"])
    def test_capitalization_without_records_is_1(
            self, returns_file, tmp_path, capsys, command, text):
        caps = tmp_path / "caps.csv"
        caps.write_text(text)
        out = tmp_path / "o"
        if command == "run":
            argv = ["run", "--returns", returns_file, "--output-dir",
                    str(out)]
        else:
            proxies = str(tmp_path / "proxies.tsv")
            rho_bar = str(tmp_path / "rho_bar.tsv")
            assert main(["scaling", "--returns", returns_file,
                         "--out", proxies]) == 0
            assert main(["xcorr", "--returns", returns_file, "--rho-out",
                         str(tmp_path / "rho.tsv"), "--rho-bar-out",
                         rho_bar]) == 0
            capsys.readouterr()
            argv = ["associate", "--proxies", proxies, "--rho-bar", rho_bar,
                    "--out", str(out)]
        assert main(argv + ["--capitalization", str(caps)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{caps}: no capitalization records\n")
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

    @pytest.mark.parametrize("argv", [
        ["xcorr", "--returns", "{returns}", "--alpha", "7",
         "--rho-out", "{out}"],
        ["scaling", "--returns", "{returns}", "--q-step", "0",
         "--out", "{out}"],
        ["scaling", "--returns", "{returns}", "--q-min", "-1",
         "--out", "{out}"],
        ["clean", "--prices", "{prices}", "--k", "1.5", "--out", "{out}"],
        ["scaling", "--returns", "{returns}", "--tau-min", "0",
         "--out", "{out}"],
        ["scaling", "--returns", "{returns}", "--tau-min", "3",
         "--tau-max", "4", "--out", "{out}"],
        ["scaling", "--returns", "{returns}", "--q-min", "0.5",
         "--q-max", "0.5", "--out", "{out}"],
        # more horizons than any panel could hold: no allocation is tried
        ["scaling", "--returns", "{returns}", "--tau-max", "100000000000",
         "--out", "{out}"],
    ])
    def test_subcommands_check_ranges_like_run(self, returns_file,
                                               prices_file, tmp_path, capsys,
                                               argv):
        """Exit 2 with the message of ``run`` given the same settings."""
        out = tmp_path / "out.tsv"
        argv = [a.format(returns=returns_file, prices=prices_file, out=out)
                for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        settings = argv[1:argv.index("--out" if "--out" in argv
                                     else "--rho-out")]
        assert main(["run", *settings, "--output-dir",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == err


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


@pytest.mark.parametrize("recipe, message", [
    (["--kind", "student_t", "--nu", "inf"], "nu=inf must be finite"),
    (["--kind", "one_factor", "--tail", "student_t", "--tail-nu", "inf"],
     "tail_nu=inf must be finite"),
    (["--kind", "one_factor", "--beta-min", "nan"], "betas must be finite"),
    (["--kind", "cascade", "--depth", "3", "--multiplier-sigma", "nan"],
     "multiplier_sigma=nan must be finite"),
    (["--kind", "cascade", "--depth", "3", "--multiplier-sigma", "-1"],
     "multiplier_sigma=-1.0 must be finite and >= 0"),
    (["--kind", "one_factor", "--beta-max", "inf"], "betas must be finite"),
    (["--kind", "one_factor", "--beta-max", "1e200"],
     "one_factor recipe draws a column S0001 that is constant"),
    (["--kind", "cascade", "--depth", "3", "--multiplier-sigma", "1e200"],
     "cascade recipe draws a column S0000 that is constant"),
    (["--kind", "one_factor", "--n-stocks", "-1"],
     "recipe needs n_stocks >= 2"),
], ids=["nu-inf", "tail-nu-inf", "beta-nan", "sigma-nan", "sigma-negative",
        "beta-inf", "beta-huge", "sigma-huge", "one-factor-negative-count"])
def test_synth_rejects_a_recipe_without_finite_draws(tmp_path, capsys, recipe,
                                                     message):
    """A recipe whose draws would be NaN, overflow or underflow to a
    constant column (or give a numpy warning or traceback) is a
    configuration error, and no panel is written."""
    out = tmp_path / "s.tsv"
    assert main(["synth", "--n-stocks", "3", "--n-days", "128", *recipe,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("price", ["0", "-2"])
def test_returns_non_positive_price_is_data_error(tmp_path, capsys, price):
    panel, out = tmp_path / "p.tsv", tmp_path / "r.tsv"
    panel.write_text("date\tAAA\tBBB\n2020-01-01\t10\t20\n"
                     f"2020-01-02\t11\t{price}\n2020-01-03\t12\t{price}\n"
                     "2020-01-04\t-1\t22\n")
    assert main(["returns", "--panel", str(panel), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: non-positive price {price} for BBB on 2020-01-02\n")
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


class TestByteOrderMark:
    """A leading UTF-8 byte order mark is not part of a config file or a
    key-value report, and a bad byte is still named at its file offset."""

    BOM = b"\xef\xbb\xbf"

    def test_config_file(self, returns_file, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(self.BOM + f"returns={returns_file}\nk=0.9\n"
                        .encode())
        assert main(["run", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")]) == 0

    def test_config_file_bad_byte_offset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(self.BOM + b"k=\xff\n")
        assert main(["run", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert "byte 0xff in position 5:" in capsys.readouterr().err

    def test_key_value_report(self, returns_file, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(out)]) == 0
        report = out / "association.tsv"
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(self.BOM + report.read_bytes())
        diff = tmp_path / "diff.tsv"
        assert main(["compare", str(report), str(marked),
                     "--out", str(diff)]) == 0
        rows = [ln.split("\t") for ln in diff.read_text().splitlines()[1:]]
        assert rows and all(row[3] in ("0", "-") for row in rows)


@pytest.mark.parametrize("ticker", ["", "T\tX"])
@pytest.mark.parametrize("what", ["prices", "capitalization"])
def test_ticker_that_is_empty_or_holds_a_tab_is_1(long_prices_file, tmp_path,
                                                  capsys, ticker, what):
    """No tab-delimited bundle file could hold such a ticker."""
    caps = tmp_path / "caps.csv"
    caps.write_text("".join(f"S{i:04d},2020-01-0{d},{1e6 * (i + d)}\n"
                            for i in range(8) for d in (1, 2)))
    path = caps if what == "capitalization" else long_prices_file
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[4] = ticker + "," + lines[4].partition(",")[2]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["run", "--prices", long_prices_file, "--capitalization",
                 str(caps), "--output-dir", str(out)]) == 1
    stage = "capitalization" if what == "capitalization" else "load"
    assert capsys.readouterr().err == (
        f"error: [{stage}] line 5: bad ticker {ticker!r}\n")
    assert not out.exists()


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

    def test_run_computes_no_pvalue_matrix(self, returns_file, tmp_path,
                                           monkeypatch):
        """The filter gets p-values for a few coefficients at most, and
        writing the bundle asks for none."""
        from scalecorr import crosscorr
        sizes = []

        def counting(r, dof):
            sizes.append(np.size(r))
            return t_pvalue(r, dof)

        t_pvalue = crosscorr.t_pvalue
        monkeypatch.setattr(crosscorr, "t_pvalue", counting)
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(tmp_path / "o")]) == 0
        assert sizes and max(sizes) < 8 * 8

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
        assert manifest["input_digests"] == {
            "returns": _sha256_of(returns_file)}

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
        # every stock of the run has a median capitalization
        tickers, _, _ = textio.read_matrix(os.path.join(out, "median_cap.tsv"))
        assert tickers == [f"S{i:04d}" for i in range(8)]

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

    def test_rerun_keeps_its_input(self, returns_file, tmp_path):
        # a shuffled run writes and lists the surrogate returns; a raw run
        # on them writes none but keeps its input
        out = tmp_path / "o"
        given = out / "surrogate_returns.tsv"
        assert main(["run", "--mode", "shuffled", "--returns", returns_file,
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert given.name in manifest["outputs"]
        before = given.read_bytes()
        assert main(["run", "--returns", str(given),
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert given.name not in manifest["outputs"]
        assert given.read_bytes() == before

    @pytest.mark.parametrize("mode, source, caps, extra", [
        ("raw", "returns", False, []),
        ("raw", "prices", True, ["median_cap.tsv"]),
        ("shuffled", "prices", False, ["surrogate_returns.tsv",
                                       "surrogate_spec.tsv"]),
        ("gaussianized", "returns", False, ["surrogate_returns.tsv",
                                            "surrogate_spec.tsv"]),
    ], ids=["raw-returns", "raw-prices-caps", "shuffled-prices",
            "gaussianized-returns"])
    def test_bundle_file_list(self, returns_file, long_prices_file, tmp_path,
                              mode, source, caps, extra):
        """The bundle holds the results, each once, and the returns they
        come from only in the surrogate modes: no join of its own tables
        and no matrix that a subcommand rebuilds from the pinned inputs
        (the returns, correlations, p-values, the cleaned panel, its fill
        mask)."""
        out = tmp_path / "o"
        inputs = {source: returns_file if source == "returns"
                  else long_prices_file}
        if caps:
            path = tmp_path / "caps.csv"
            path.write_text("".join(f"S{i:04d},2020-01-01,{1e9 * (i + 1)}\n"
                                    for i in range(8)))
            inputs["capitalization"] = str(path)
        argv = ["run", "--mode", mode, "--output-dir", str(out)]
        for flag, path in inputs.items():
            argv += ["--" + flag, path]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digests"] == {
            flag: _sha256_of(path) for flag, path in inputs.items()}
        assert manifest["outputs"] == sorted(
            ["association.tsv", "association.txt", "proxies.tsv",
             "rho_bar.tsv"] + extra)
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                                 + ["manifest.json"])

    def test_rerun_removes_the_old_layout(self, returns_file, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        old = ["corr_matrix.tsv", "corr_pvalues.tsv", "fill_mask.tsv",
               "panel.tsv", "returns.tsv", "scatter_A.tsv", "scatter_B.tsv"]
        for name in old:
            (out / name).write_text("from an earlier layout\n")
        (out / "manifest.json").write_text(json.dumps({"outputs": old}))
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"]
                                                 + ["manifest.json"])
        assert not any((out / name).exists() for name in old)

    def test_subcommands_rebuild_a_prices_run(self, long_prices_file,
                                              tmp_path):
        """``clean`` then ``returns`` rebuild the returns a raw ``--prices``
        run analysed, and ``scaling``, ``xcorr`` and ``associate`` on them
        write its results byte for byte."""
        caps = tmp_path / "caps.csv"
        caps.write_text("".join(f"S{i:04d},2020-01-01,{1e9 * (i + 1)}\n"
                                for i in range(8)))
        out, new = tmp_path / "o", tmp_path / "new"
        assert main(["run", "--prices", long_prices_file, "--capitalization",
                     str(caps), "--output-dir", str(out)]) == 0
        new.mkdir()
        panel, returns = new / "panel.tsv", new / "returns.tsv"
        assert main(["clean", "--prices", long_prices_file,
                     "--out", str(panel)]) == 0
        assert main(["returns", "--panel", str(panel),
                     "--out", str(returns)]) == 0
        assert main(["scaling", "--returns", str(returns),
                     "--out", str(new / "proxies.tsv")]) == 0
        assert main(["xcorr", "--returns", str(returns), "--rho-out",
                     str(new / "rho.tsv"), "--rho-bar-out",
                     str(new / "rho_bar.tsv")]) == 0
        assert main(["associate", "--proxies", str(new / "proxies.tsv"),
                     "--rho-bar", str(new / "rho_bar.tsv"),
                     "--capitalization", str(caps),
                     "--out", str(new / "association.tsv"),
                     "--text-out", str(new / "association.txt")]) == 0
        for name in ["proxies.tsv", "rho_bar.tsv", "association.tsv",
                     "association.txt"]:
            assert filecmp.cmp(new / name, out / name, shallow=False), name

    @pytest.mark.parametrize("mode, source, analysed", [
        ("raw", "returns", None),
        ("raw", "prices", "returns.tsv"),
        ("shuffled", "returns", "surrogate_returns.tsv"),
        ("gaussianized", "prices", "surrogate_returns.tsv"),
    ])
    def test_xcorr_on_the_run_returns_gives_its_rho_bar(
            self, returns_file, long_prices_file, tmp_path, mode, source,
            analysed):
        """``xcorr`` on the returns a run analysed (its returns input, the
        surrogate returns of its bundle, or the returns.tsv that ``clean``
        then ``returns`` rebuild from its prices input) writes the bundle's
        rho_bar.tsv."""
        out = tmp_path / "o"
        given = returns_file if source == "returns" else long_prices_file
        assert main(["run", "--mode", mode, "--seed", "5", "--output-dir",
                     str(out), "--" + source, given]) == 0
        if analysed == "returns.tsv":  # not in the bundle: rebuilt there
            panel = tmp_path / "panel.tsv"
            assert main(["clean", "--prices", given, "--out", str(panel)]) == 0
            assert main(["returns", "--panel", str(panel),
                         "--out", str(out / analysed)]) == 0
        rho, rho_bar = tmp_path / "rho.tsv", tmp_path / "rho_bar.tsv"
        assert main(["xcorr", "--returns",
                     str(out / analysed) if analysed else given,
                     "--rho-out", str(rho), "--rho-bar-out",
                     str(rho_bar)]) == 0
        assert filecmp.cmp(rho_bar, out / "rho_bar.tsv", shallow=False)

    @pytest.mark.parametrize("via", ["path", "symlink"])
    def test_run_never_overwrites_its_input(self, returns_file, tmp_path,
                                           capsys, via):
        """A run whose bundle would replace its own input is a config
        error that changes neither the earlier bundle nor the input."""
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file, "--mode", "shuffled",
                     "--output-dir", str(out)]) == 0
        before = tmp_path / "before"
        shutil.copytree(out, before)
        given = out / "surrogate_returns.tsv"
        if via == "symlink":
            (tmp_path / "link.tsv").symlink_to(given)
            given = tmp_path / "link.tsv"
        assert main(["run", "--returns", str(given), "--mode", "shuffled",
                     "--seed", "2", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'surrogate_returns.tsv'} is the input {given}; "
            "the run would overwrite it\n")
        _assert_same_files(before, out)

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_prices_and_returns_together_is_2(self, returns_file,
                                              long_prices_file, tmp_path,
                                              capsys, via):
        """A run given both inputs would analyse one of them only: a config
        error that writes nothing, in a fresh or a used output directory."""
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(used)]) == 0
        before = tmp_path / "before"
        shutil.copytree(used, before)
        both = ["--prices", long_prices_file, "--returns", returns_file]
        if via == "config":
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"prices={long_prices_file}\n"
                           f"returns={returns_file}\n")
            both = ["--config", str(cfg)]
        for out in (used, fresh):
            assert main(["run", *both, "--output-dir", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: exactly one of a prices file and a returns file is "
                "required\n")
        _assert_same_files(before, used)
        assert not fresh.exists()

    def test_price_series_are_released_after_cleaning(
            self, long_prices_file, tmp_path, monkeypatch):
        """No price series outlives the clean stage: the loaded records,
        and each series built from them, are dead by the time the scaling
        stage starts."""
        refs = []

        def load_prices(path):
            series = load(path)
            refs.append(weakref.ref(series))
            refs.extend(map(weakref.ref, series))
            return series

        def estimate_scaling_panel(*args, **kwargs):
            assert refs and all(ref() is None for ref in refs)
            return estimate(*args, **kwargs)

        load, estimate = pipeline.load_prices, pipeline.estimate_scaling_panel
        monkeypatch.setattr(pipeline, "load_prices", load_prices)
        monkeypatch.setattr(pipeline, "estimate_scaling_panel",
                            estimate_scaling_panel)
        assert main(["run", "--prices", long_prices_file, "--mode",
                     "shuffled", "--output-dir", str(tmp_path / "o")]) == 0

    def test_returns_are_released_after_rho_bar(self, returns_file, tmp_path,
                                                monkeypatch):
        """Once rho_bar.tsv is written, neither the N x T returns nor the
        correlation summary, which keeps them, is alive: both are dead by
        the time the association starts."""
        refs = []

        def correlation_matrix(panel, *args, **kwargs):
            corr = correlate(panel, *args, **kwargs)
            refs.extend([weakref.ref(panel.returns), weakref.ref(corr)])
            return corr

        def build_report(*args, **kwargs):
            assert refs and all(ref() is None for ref in refs)
            return report(*args, **kwargs)

        correlate, report = pipeline.correlation_matrix, pipeline.build_report
        monkeypatch.setattr(pipeline, "correlation_matrix", correlation_matrix)
        monkeypatch.setattr(pipeline, "build_report", build_report)
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(tmp_path / "o")]) == 0
        assert len(refs) == 2

    def test_xcorr_stage_allocates_no_matrix(self, tmp_path, monkeypatch):
        """The xcorr stage of a run never holds an N x N float array: its
        traced peak stays below 8 N^2 bytes (measured: 0.57 of that, and
        1.52 when the stage built rho)."""
        N = 400
        returns = str(tmp_path / "wide.tsv")
        assert main(["synth", "--kind", "one_factor", "--n-stocks", str(N),
                     "--n-days", "400", "--seed", "3", "--out", returns]) == 0
        peaks = []

        def correlation_matrix(*args, **kwargs):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                corr = correlate(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            return corr

        correlate = pipeline.correlation_matrix
        monkeypatch.setattr(pipeline, "correlation_matrix", correlation_matrix)
        assert main(["run", "--returns", returns,
                     "--output-dir", str(tmp_path / "o")]) == 0
        assert len(peaks) == 1 and peaks[0] < 8 * N * N

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

    @pytest.mark.parametrize("flag", ["returns", "capitalization"])
    def test_input_changed_during_the_run_is_1(self, returns_file, caps,
                                               tmp_path, capsys, monkeypatch,
                                               flag):
        """An input rewritten after its stage read it, before it is hashed,
        stops the run: the manifest would pin bytes it did not analyse."""
        out = tmp_path / "o"
        argv = ["run", "--returns", returns_file, "--capitalization",
                str(caps), "--output-dir", str(out)]
        assert main(argv) == 0
        before = tmp_path / "before"
        shutil.copytree(out, before)
        path = returns_file if flag == "returns" else str(caps)

        def build_report(*args, **kwargs):  # every input has been read
            with open(path, "a") as fh:
                fh.write("\n")
            return report(*args, **kwargs)

        report = pipeline.build_report
        monkeypatch.setattr(pipeline, "build_report", build_report)
        capsys.readouterr()
        assert main(argv + ["--mode", "shuffled"]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} input {path} changed during the run\n")
        _assert_same_files(before, out)

    def test_output_dir_that_is_a_file_is_2(self, returns_file, tmp_path,
                                            capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        assert main(["run", "--returns", returns_file,
                     "--output-dir", str(afile)]) == 2
        assert capsys.readouterr().err == (
            f"error: output_dir {afile} exists and is not a directory\n")
        assert afile.read_text() == "keep\n"

    def test_every_pair_zeroed_stops_at_xcorr(self, returns_file, caps,
                                              tmp_path, capsys):
        # six independent random walks: the filter zeroes all 15 pairs
        rng = np.random.default_rng(1)
        walks = [100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(250)))
                 for _ in range(6)]
        start = dt.date(2020, 1, 1)
        prices = tmp_path / "walks.csv"
        prices.write_text("".join(
            f"T{i},{start + dt.timedelta(days=d)},{p!r}\n"
            for i, walk in enumerate(walks)
            for d, p in enumerate(walk.tolist())))
        walk_caps = tmp_path / "walk_caps.csv"
        walk_caps.write_text("".join(f"T{i},2020-01-01,{1e9 * (i + 1)}\n"
                                     for i in range(6)))
        out = tmp_path / "o"
        assert main(["run", "--returns", returns_file, "--capitalization",
                     str(caps), "--output-dir", str(out)]) == 0
        before = tmp_path / "before"
        shutil.copytree(out, before)
        capsys.readouterr()
        assert main(["run", "--prices", str(prices), "--capitalization",
                     str(walk_caps), "--mode", "shuffled",
                     "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: [xcorr] rho_bar is 0 for all 6 stocks, so its association"
            " is undefined: the significance filter at alpha=0.05 zeroed 15 "
            "of 15 pairs\n")
        _assert_same_files(before, out)

    @pytest.mark.parametrize("significance", ["all", "filtered"])
    def test_two_stocks_stop_at_xcorr(self, tmp_path, capsys, significance):
        """Two stocks always share rho_bar, the one coefficient between
        them, whatever the filter did: the error says so."""
        returns = str(tmp_path / "two.tsv")
        assert main(["synth", "--kind", "one_factor", "--n-stocks", "2",
                     "--n-days", "300", "--seed", "4", "--out", returns]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["run", "--returns", returns, "--significance-mode",
                     significance, "--output-dir", str(out)]) == 3
        assert re.fullmatch(
            r"error: \[xcorr\] rho_bar is \S+ for all 2 stocks, so its "
            r"association is undefined: two stocks always share rho_bar\n",
            capsys.readouterr().err)
        assert not out.exists()

    def test_equal_rho_bar_without_filter_names_no_filter(self):
        corr = correlation_matrix(ReturnPanel(
            dates=None, tickers=["A", "B", "C"],
            returns=np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, -1.0],
                              [1.0, -1.0, 0.0]])), significance_mode="all")
        assert corr.rho_bar.min() == corr.rho_bar.max()
        with pytest.raises(EstimationError) as info:
            pipeline._varying_rho_bar(corr)
        assert str(info.value) == (
            f"rho_bar is {corr.rho_bar[0]:g} for all 3 stocks, so its "
            "association is undefined")

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

    def test_empty_output_dir_is_config_error(self, returns_file, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert main(["run", "--returns", returns_file,
                     "--output-dir", ""]) == 2
        assert capsys.readouterr().err == "error: output_dir is empty\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_repeated_config_key_is_config_error(self, returns_file,
                                                 tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"returns={returns_file}\nalpha=0.05\n# twice\n"
                       "alpha = 0.5\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg),
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: lines 2 and 4: repeated key 'alpha'\n")
        assert not out.exists()


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


class TestOutputsAreNotInputs:
    """A subcommand given an output path that is one of its inputs, or
    another of its outputs, is a config error that writes nothing: the
    check comes before any file is read or written."""

    @pytest.fixture
    def files(self, tmp_path):
        """Input files of every subcommand, and a symlink to the first."""
        paths = {}
        for name in ["prices", "panel", "returns", "proxies", "rho_bar",
                     "caps", "report_a", "report_b"]:
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(f"{name}\n")
        (tmp_path / "link.txt").symlink_to(paths["prices"])
        paths["link"] = tmp_path / "link.txt"
        paths["new"] = tmp_path / "new.txt"
        return {name: str(path) for name, path in paths.items()}

    @staticmethod
    def _refused(tmp_path, capsys, argv, message):
        def contents():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        before = contents()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert contents() == before

    def _overwrites(self, tmp_path, capsys, command, argv, path, source):
        self._refused(tmp_path, capsys, [command] + argv,
                      f"{path} is the input {source}; {command} would "
                      "overwrite it")

    @pytest.mark.parametrize("case", ["out", "mask", "symlink", "both"])
    def test_clean(self, files, tmp_path, capsys, case):
        f = files
        out, mask = {"out": (f["prices"], f["new"]),
                     "mask": (f["new"], f["prices"]),
                     "symlink": (f["new"], f["link"]),
                     "both": (f["new"], f["new"])}[case]
        argv = ["--prices", f["prices"], "--out", out, "--mask-out", mask]
        if case == "both":
            self._refused(tmp_path, capsys, ["clean"] + argv,
                          f"{f['new']} is also the output {f['new']}")
        else:
            self._overwrites(tmp_path, capsys, "clean", argv,
                             out if case == "out" else mask, f["prices"])

    @pytest.mark.parametrize("relative", [False, True])
    def test_returns(self, files, tmp_path, capsys, monkeypatch, relative):
        out = files["panel"]
        if relative:
            monkeypatch.chdir(tmp_path)
            out = os.path.join(os.curdir, "panel.txt")
        self._overwrites(tmp_path, capsys, "returns",
                         ["--panel", files["panel"], "--out", out], out,
                         files["panel"])

    def test_scaling(self, files, tmp_path, capsys):
        self._overwrites(tmp_path, capsys, "scaling",
                         ["--returns", files["returns"], "--out",
                          files["returns"]], files["returns"],
                         files["returns"])

    @pytest.mark.parametrize("flag", ["--rho-out", "--pvalue-out",
                                      "--rho-bar-out", "outputs"])
    def test_xcorr(self, files, tmp_path, capsys, flag):
        f = files
        argv = ["--returns", f["returns"], "--rho-out", f["new"]]
        if flag == "outputs":
            self._refused(tmp_path, capsys,
                          ["xcorr"] + argv + ["--rho-bar-out", f["new"]],
                          f"{f['new']} is also the output {f['new']}")
            return
        if flag == "--rho-out":
            argv = argv[:2]
        self._overwrites(tmp_path, capsys, "xcorr",
                         argv + [flag, f["returns"]], f["returns"],
                         f["returns"])

    @pytest.mark.parametrize("case", ["proxies", "rho_bar", "caps",
                                      "outputs"])
    def test_associate(self, files, tmp_path, capsys, case):
        f = files
        argv = ["--proxies", f["proxies"], "--rho-bar", f["rho_bar"],
                "--capitalization", f["caps"], "--out", f["new"]]
        if case == "outputs":
            self._refused(tmp_path, capsys,
                          ["associate"] + argv + ["--text-out", f["new"]],
                          f"{f['new']} is also the output {f['new']}")
        else:
            self._overwrites(tmp_path, capsys, "associate",
                             argv + ["--text-out", f[case]], f[case], f[case])

    @pytest.mark.parametrize("case", ["out", "spec", "outputs"])
    def test_surrogate(self, files, tmp_path, capsys, case):
        f = files
        out, spec = {"out": (f["returns"], f["new"]),
                     "spec": (f["new"], f["returns"]),
                     "outputs": (f["new"], f["new"])}[case]
        argv = ["--returns", f["returns"], "--kind", "synchronous_shuffle",
                "--out", out, "--spec-out", spec]
        if case == "outputs":
            self._refused(tmp_path, capsys, ["surrogate"] + argv,
                          f"{f['new']} is also the output {f['new']}")
        else:
            self._overwrites(tmp_path, capsys, "surrogate", argv,
                             f["returns"], f["returns"])

    @pytest.mark.parametrize("report", ["report_a", "report_b"])
    def test_compare(self, files, tmp_path, capsys, report):
        f = files
        self._overwrites(tmp_path, capsys, "compare",
                         [f["report_a"], f["report_b"], "--out", f[report]],
                         f[report], f[report])


def test_files_are_utf8_whatever_the_locale(long_prices_file, tmp_path):
    """Under the C locale, without Python's UTF-8 mode, the stage commands
    and a run read and write the same UTF-8 bytes as in this process."""
    prices = tmp_path / "prices.csv"
    with open(long_prices_file, encoding="utf-8") as fh:
        text = fh.read().replace("S0000", "\u00c40000")
    with open(prices, "w", encoding="utf-8") as fh:
        fh.write(text)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), LC_ALL="C",
               PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    for where in ("utf8", "c"):
        d = tmp_path / where
        d.mkdir()
        for argv in (["clean", "--prices", str(prices), "--out",
                      str(d / "panel.tsv"), "--mask-out", str(d / "mask.tsv")],
                     ["returns", "--panel", str(d / "panel.tsv"), "--out",
                      str(d / "returns.tsv")],
                     ["scaling", "--returns", str(d / "returns.tsv"), "--out",
                      str(d / "proxies.tsv")],
                     ["run", "--prices", str(prices), "--output-dir",
                      str(d / "run")]):
            if where == "utf8":
                assert main(argv) == 0
                continue
            proc = subprocess.run([sys.executable, "-m", "scalecorr.cli",
                                   *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
    _assert_same_files(tmp_path / "utf8" / "run", tmp_path / "c" / "run")
    (tmp_path / "utf8" / "run").rename(tmp_path / "utf8_run")
    (tmp_path / "c" / "run").rename(tmp_path / "c_run")
    _assert_same_files(tmp_path / "utf8", tmp_path / "c")
    with open(tmp_path / "c" / "proxies.tsv", encoding="utf-8") as fh:
        assert "\u00c40000" in fh.read()


def _fresh_python(*args):
    """stdout of a fresh interpreter on this checkout's package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_scipy_stats_and_linalg():
    """The package loads only four ufuncs from scipy's special-function
    extension, not scipy.special, scipy.stats or scipy.linalg, and not
    OpenSSL's hashes (``_hashlib``), which only the digests need; a fresh
    interpreter shows it, where this test process may have imported
    scipy.stats itself."""
    code = ("import sys, scalecorr.cli; print(sorted(m for m in "
            "('scipy.stats', 'scipy.linalg', 'scipy.special', '_hashlib') "
            "if m in sys.modules))")
    assert _fresh_python("-c", code) == "[]\n"


@pytest.mark.parametrize("mode", ["raw", "shuffled", "gaussianized"])
def test_openssl_loads_after_the_correlation_stage(returns_file, tmp_path,
                                                   mode):
    """A run first loads OpenSSL's hashes to take its digests, after
    correlation_matrix has returned; a fresh interpreter shows it."""
    code = ("import sys\n"
            "from scalecorr import cli, pipeline\n"
            "correlate = pipeline.correlation_matrix\n"
            "def correlation_matrix(*args, **kwargs):\n"
            "    corr = correlate(*args, **kwargs)\n"
            "    print('_hashlib' in sys.modules)\n"
            "    return corr\n"
            "pipeline.correlation_matrix = correlation_matrix\n"
            "print(cli.main(sys.argv[1:]), '_hashlib' in sys.modules)\n")
    assert _fresh_python("-c", code, "run", "--returns", returns_file,
                         "--mode", mode, "--output-dir",
                         str(tmp_path / "o")) == "False\n0 True\n"


def test_numpy_random_and_secrets_after_a_shuffled_run(returns_file,
                                                       tmp_path):
    """The shuffle imports numpy.random without OpenSSL, through a
    stand-in ``secrets`` that it removes: afterwards an unseeded generator
    still draws, ``import secrets`` gives the real module, and the seeded
    permutation's digest is the one numpy's own import of ``secrets``
    gave (400 days, seed 3)."""
    code = ("import sys\n"
            "from scalecorr import cli\n"
            "print(cli.main(sys.argv[1:]))\n"
            "import numpy as np\n"
            "print(np.random.default_rng().integers(1 << 62) >= 0)\n"
            "import secrets\n"
            "print(secrets.token_hex(4) != secrets.token_hex(4), "
            "hasattr(secrets, 'compare_digest'))\n")
    out = tmp_path / "o"
    assert _fresh_python("-c", code, "run", "--returns", returns_file,
                         "--mode", "shuffled", "--seed", "3", "--output-dir",
                         str(out)) == "0\nTrue\nTrue True\n"
    assert textio.read_keyvalues(out / "surrogate_spec.tsv") == {
        "kind": "synchronous_shuffle", "seed": "3", "permutation_digest":
        "d5d1fe6aa97dd6933fc274541dbe49c357b4f4016258ee90e39016463158ccdd"}


def test_package_import_maps_neither_scipy_ufuncs_nor_openssl():
    """``import scalecorr`` imports every module of the package, and none
    of them may load scipy's special-function extension or OpenSSL's
    hashes at import: each belongs after the peak of a run (a module-level
    import that pulls either one back in fails here)."""
    code = ("import sys, scalecorr; print(sorted(m for m in "
            "('scipy.special._ufuncs', '_hashlib') if m in sys.modules))")
    assert _fresh_python("-c", code) == "[]\n"


@pytest.mark.parametrize("mode, stage", [
    ("raw", "xcorr correlation_matrix"),
    ("shuffled", "xcorr correlation_matrix"),
    ("gaussianized", "surrogate marginal_gaussianize")])
def test_scipy_loads_at_the_first_stage_that_needs_it(returns_file, tmp_path,
                                                      mode, stage):
    """scipy's special functions load at the significance filter in raw and
    shuffled runs, after the load and scaling stages, and at the surrogate
    in gaussianized runs; a fresh interpreter shows the first stage after
    which ``scipy.special._ufuncs`` is loaded."""
    code = ("import sys\n"
            "from scalecorr import cli, pipeline\n"
            "run_stage, seen = pipeline._stage, []\n"
            "def stage(name, fn, *args, **kwargs):\n"
            "    out = run_stage(name, fn, *args, **kwargs)\n"
            "    if not seen and 'scipy.special._ufuncs' in sys.modules:\n"
            "        seen.append(f'{name} {fn.__name__}')\n"
            "    return out\n"
            "pipeline._stage = stage\n"
            "print(cli.main(sys.argv[1:]), *seen)\n")
    assert _fresh_python("-c", code, "run", "--returns", returns_file,
                         "--mode", mode, "--output-dir",
                         str(tmp_path / "o")) == f"0 {stage}\n"


@pytest.mark.parametrize("libc", ["mallopt", "no-mallopt", "no-libc"])
def test_mmap_threshold_is_fixed_where_libc_allows(returns_file, tmp_path,
                                                   monkeypatch, libc):
    """``main`` fixes glibc's mmap threshold at 128 KiB; a libc without
    ``mallopt``, or none that ctypes can load, is left as it is, and the
    run writes the same bundle."""
    assert main(["run", "--returns", returns_file,
                 "--output-dir", str(tmp_path / "a")]) == 0
    calls = []

    class Libc:
        def mallopt(self, *args):
            calls.append(args)
            return 1

    def CDLL(name):
        if libc == "no-libc":
            raise OSError("no C library")
        return Libc() if libc == "mallopt" else object()

    monkeypatch.setattr(cli.ctypes, "CDLL", CDLL)
    assert main(["run", "--returns", returns_file,
                 "--output-dir", str(tmp_path / "b")]) == 0
    assert calls == ([(-3, 131072)] if libc == "mallopt" else [])
    _assert_same_files(tmp_path / "a", tmp_path / "b")


@pytest.mark.parametrize("libc", ["malloc_trim", "no-malloc_trim",
                                  "no-libc"])
def test_free_heap_is_returned_where_libc_allows(long_prices_file, tmp_path,
                                                 monkeypatch, libc):
    """Once ingest is done, ``load_prices`` hands glibc's free heap pages
    back with ``malloc_trim(0)``; a libc without it, or none that ctypes
    can load, is left as it is, and the run writes the same bundle."""
    argv = ["run", "--prices", long_prices_file, "--output-dir"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    calls = []

    class Libc:
        def malloc_trim(self, pad):
            calls.append(pad.value)
            return 1

    def CDLL(name):
        if libc == "no-libc":
            raise OSError("no C library")
        return Libc() if libc == "malloc_trim" else object()

    monkeypatch.setattr(ctypes, "CDLL", CDLL)
    assert main(argv + [str(tmp_path / "b")]) == 0
    assert calls == ([0] if libc == "malloc_trim" else [])
    _assert_same_files(tmp_path / "a", tmp_path / "b")


def test_readme_cli_examples_parse():
    """Every ``scalecorr`` line of the README's CLI block and every inline
    `scalecorr ...` example parses, so a renamed or dropped flag fails."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```")[1]
    examples = [ln for ln in block.splitlines() if ln.startswith("scalecorr ")]
    assert len(examples) == 9
    examples += re.findall(r"`(scalecorr [^`]+)`", text)
    parser = make_parser()
    for example in examples:
        try:
            parser.parse_args(shlex.split(example)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {example}")
