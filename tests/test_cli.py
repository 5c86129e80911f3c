"""End-to-end command line runs through main(), including exit codes."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveinput import cli, l2
from waveinput.approx import pms_sequence
from waveinput.cli import _csv_blocks, _write_csvs, main, parse_config
from waveinput.errors import ConfigError
from waveinput.l2 import L2Solution, l2_minimizer
from waveinput.oracle import answer
from waveinput.tbvp import extend_input, full_norm, shift_sequence


def write_config(path, **kv):
    base = {
        "f0": "zero",
        "fT": "zero",
        "T": "1.0",
        "K1": "1",
        "K2": "1",
        "n": "65",
        "norm": "l2",
    }
    base.update(kv)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    path.write_text("# test run\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "run.cfg"))
        assert cfg.output_dir == "out"
        assert cfg.eps_schedule is None
        assert cfg.norm == "l2"

    def test_n_even_exit2_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", n="64")
        assert main(["solve", "--config", cfg]) == 2
        assert "n must be odd" in capsys.readouterr().err

    def test_missing_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("f0 = zero\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(str(path))

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("f0 = zero\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "extra, key, first",
        [("n = 129\nnorm = l1\n", "n", 7), ("t = 2.0\n", "t", 4)],
        ids=["n-and-norm", "T-and-t"],
    )
    def test_repeated_key_exit2_names_both_lines(self, tmp_path, capsys, extra, key, first):
        # keys are case-insensitive, so T and t are one key; the first repeat (line 9) is named
        path = tmp_path / "run.cfg"
        path.write_text(Path(write_config(path)).read_text(encoding="utf-8") + extra, "utf-8")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = f"config error: line 9: config key {key!r} already set on line {first}\n"
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o").exists()

    def test_bad_norm(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", norm="sup")
        assert main(["solve", "--config", cfg]) == 2
        assert "norm" in capsys.readouterr().err

    def test_negative_seed_exit2(self, tmp_path, capsys):
        # the key is no longer read, but it is still checked
        cfg = write_config(tmp_path / "run.cfg", seed="-1")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_increasing_schedule_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", eps_schedule="1e-3 1e-2")
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(cfg)

    def test_small_n_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", n="33")
        with pytest.raises(ConfigError, match="at least 65"):
            parse_config(cfg)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    @pytest.mark.parametrize(
        "key, setting",
        [("T", {"T": "inf"}), ("f0", {"f0": "sin nan 0"}), ("f0", {"f0": "sin inf 0"})],
        ids=["T-inf", "param-nan", "param-inf"],
    )
    def test_non_finite_number_exit2_names_key(self, tmp_path, capsys, key, setting, norm):
        cfg = write_config(tmp_path / "run.cfg", norm=norm, **setting)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}:") and "finite" in err

    def test_function_from_sample_file(self, tmp_path):
        xs = np.linspace(-3.0, 3.0, 41)
        rows = [f"{float(x)!r},{float(np.sin(x))!r}" for x in xs]
        rows.insert(20, "")  # a blank line inside the data is skipped
        (tmp_path / "f0.csv").write_text("x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert cli._read_xy(str(tmp_path / "f0.csv"))[0].tolist() == xs.tolist()
        cfg = parse_config(
            write_config(tmp_path / "run.cfg", f0=f"file {tmp_path / 'f0.csv'}")
        )
        assert cfg.spec.f0.domain == (-3.0, 3.0)  # the spline through the samples
        assert cfg.spec.f0.value(xs[7]) == np.sin(xs[7])
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(
            tmp_path / "run2.cfg", f0=f"file {tmp_path / 'f0.csv'}"
        ), "--out", str(out), "--quiet"]) == 0
        assert (out / "minimizer.csv").exists()

    def test_a_utf8_bom_reads_like_a_plain_file(self, tmp_path):
        # a headerless sample file and a config, each written once plain and once
        # with a byte order mark: the BOM must not cost the first row or the first key
        xs = np.linspace(-3.05, 3.05, 41)
        rows = "".join(f"{x!r},{float(np.sin(x))!r}\n" for x in xs.tolist())
        outs = []
        for encoding in ("utf-8", "utf-8-sig"):
            run = tmp_path / encoding
            run.mkdir()
            (run / "f0.csv").write_text(rows, encoding=encoding)
            got = cli._read_xy(str(run / "f0.csv"))
            assert [a.tolist() for a in got] == [xs.tolist(), np.sin(xs).tolist()]
            cfg = write_config(run / "run.cfg", f0=f"file {run / 'f0.csv'}", norm="l1")
            (run / "run.cfg").write_text((run / "run.cfg").read_text(), encoding=encoding)
            assert main(["solve", "--config", cfg, "--out", str(run / "o"), "--quiet"]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted((run / "o").iterdir())})
        assert outs[0] == outs[1] and "minimizer.csv" in outs[0]

    @pytest.mark.parametrize("defect", ["unsorted_x", "nan_y"])
    def test_bad_sample_file_exit2(self, tmp_path, capsys, defect):
        xs = np.linspace(-3.0, 3.0, 41)
        ys = np.sin(xs)
        if defect == "unsorted_x":
            xs[[10, 11]] = xs[[11, 10]]
        else:
            ys[20] = np.nan
        rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist()))
        (tmp_path / "f0.csv").write_text("x,y\n" + rows, encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg", f0=f"file {tmp_path / 'f0.csv'}")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "f0: " in capsys.readouterr().err

    @pytest.mark.parametrize("head", ["", "x,y\n", "# sin samples\nx y\n", "nan or inf?\n"])
    def test_leading_lines_not_starting_like_a_number_are_headers(self, tmp_path, head):
        (tmp_path / "f.csv").write_text(head + "-1.0,0.5\n0.0,0.0\n1.0,0.5\n", encoding="utf-8")
        xs, ys = cli._read_xy(str(tmp_path / "f.csv"))
        assert (xs.tolist(), ys.tolist()) == ([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5])

    @pytest.mark.parametrize("first", ["-1.0;0.5", "-1.0", ".5 x", "+2e0 y", "7x,0.5"])
    def test_a_first_row_starting_like_a_number_must_parse(self, tmp_path, first):
        (tmp_path / "f.csv").write_text(f"x,y\n{first}\n0.0,0.0\n1.0,0.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"malformed row {first!r}")):
            cli._read_xy(str(tmp_path / "f.csv"))


def _samples(tmp_path, lo, hi, tail="", sep=","):
    """A 41-row sample file of sin over [lo, hi], then ``tail``; returns its path.

    ``sep`` takes the place of the first data row's comma.
    """
    rows = [f"{x!r},{float(np.sin(x))!r}\n" for x in np.linspace(lo, hi, 41).tolist()]
    rows[0] = rows[0].replace(",", sep)
    path = tmp_path / "f0.csv"
    path.write_text("x,y\n" + "".join(rows) + tail, encoding="utf-8")
    return path


def _argv(tmp_path, command, **kv):
    return [command, "--config", write_config(tmp_path / "run.cfg", **kv)]


def _solve_argv(tmp_path, **kv):
    return _argv(tmp_path, "solve", **kv)


def _zeros(tmp_path, T, n=65):
    """An input file of zeros on the n-node decision grid of [-T, T]; returns its path."""
    path = tmp_path / "zeros.csv"
    rows = "".join(f"{x!r},0.0\n" for x in np.linspace(-T, T, n).tolist())
    path.write_text("x,v\n" + rows, encoding="utf-8")
    return path


def _text_config(tmp_path, text):
    (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
    return ["solve", "--config", str(tmp_path / "run.cfg")]


# each bad input: the argv it runs, and the text that names its key, line or file
BAD_INPUTS = {
    "empty-spec": (lambda t: _solve_argv(t, f0=""), "f0: empty function spec"),
    "file-without-path": (lambda t: _solve_argv(t, f0="file"), "f0: file spec needs a path"),
    "non-numeric-parameter": (lambda t: _solve_argv(t, fT="sin one 0"), "fT: bad parameter"),
    "non-integer-K1": (lambda t: _solve_argv(t, K1="1.5"), "K1: expected an integer"),
    "non-integer-n": (lambda t: _solve_argv(t, n="65.0"), "n: expected an integer"),
    "non-numeric-T": (lambda t: _solve_argv(t, T="one"), "T: expected a number"),
    "unreadable-config": (
        lambda t: ["solve", "--config", str(t / "missing.cfg")],
        "cannot read config file {tmp}/missing.cfg",
    ),
    "line-without-equals": (lambda t: _text_config(t, "f0 = zero\nfT zero\n"), "line 2:"),
    "T-not-positive": (
        lambda t: _solve_argv(t, T="-1"), "T=-1.0 is outside the supported range [1e-75, 1e75]"
    ),
    "K1-below-1": (lambda t: _solve_argv(t, K1="0"), "K1 and K2 must be at least 1, got K1=0"),
    "eps-not-positive": (lambda t: _solve_argv(t, eps_schedule="1e-1 0"), "eps_schedule entries"),
    "malformed-sample-row": (
        lambda t: _solve_argv(t, f0="file " + str(_samples(t, -3.05, 3.05, "0.5,oops\n"))),
        "f0: malformed row '0.5,oops' in {tmp}/f0.csv",
    ),
    # a first data row that starts like a number is a row, not a header to skip
    "first-sample-row-with-semicolon": (
        lambda t: _solve_argv(t, f0="file " + str(_samples(t, -3.05, 3.05, sep=";"))),
        "f0: malformed row '-3.05;",
    ),
    "unreadable-sample-file": (
        lambda t: _solve_argv(t, f0=f"file {t / 'missing.csv'}"),
        "f0: cannot read {tmp}/missing.csv",
    ),
    "unreadable-input": (
        lambda t: ["verify", "--config", write_config(t / "run.cfg"), "--input", str(t / "in.csv")],
        "cannot read {tmp}/in.csv",
    ),
    "f0-does-not-cover-window": (
        lambda t: _solve_argv(t, f0=f"file {_samples(t, -1.0, 1.0)}"),
        "f0 and fT must cover the window",
    ),
    "window-not-finite": (
        lambda t: _solve_argv(t, T="1e308"), "T=1e+308 is outside the supported range [1e-75, 1e75]"
    ),
    # sigma^2 and w^2 underflow to 0, where the second derivatives divide by them
    "gaussian-sigma-squared-0": (
        lambda t: _solve_argv(t, f0="gaussian 1 0 1e-200"),
        "f0: catalog entry 'gaussian' needs sigma > 0 and max(|amp|, 1)/sigma^4 finite, "
        "got sigma=1e-200",
    ),
    "tanh-bump-w-squared-0": (
        lambda t: _solve_argv(t, fT="tanh-bump 1 0 1e-200"),
        "fT: catalog entry 'tanh-bump' needs max(|2 amp|, 1)/w^2 finite, got w=1e-200",
    ),
    # sigma^4 and w^2 are subnormal: the second-derivative scale overflows
    "gaussian-sigma-1e-80": (
        lambda t: _solve_argv(t, f0="gaussian 1 0 1e-80"),
        "f0: catalog entry 'gaussian' needs sigma > 0 and max(|amp|, 1)/sigma^4 finite, "
        "got sigma=1e-80",
    ),
    "tanh-bump-w-1e-160": (
        lambda t: _solve_argv(t, f0="tanh-bump 1 0 1e-160"),
        "f0: catalog entry 'tanh-bump' needs max(|2 amp|, 1)/w^2 finite, got w=1e-160",
    ),
    # typed errors raised past the config: each reached main as a traceback before
    "l2-pms-input-misses-integral": (
        lambda t: _argv(t, "pms", f0="gaussian 1e12 0.1 0.6", fT="sin 1 -1", eps_schedule="1e-1"),
        "input is not feasible: integral constraint fails",
    ),
    # the float range (tbvp._check_scale): T, then the data scale
    "solve-T-1e-310": (
        lambda t: _argv(t, "solve", f0="sin 1 0", fT="sin 1 -1", T="1e-310"),
        "T=1e-310 is outside the supported range [1e-75, 1e75]",
    ),
    "oracle-T-1e-310": (
        lambda t: _argv(t, "oracle", f0="sin 1 0", fT="sin 1 -1", T="1e-310"),
        "T=1e-310 is outside the supported range [1e-75, 1e75]",
    ),
    "l2-solve-T-1e-300": (
        lambda t: _argv(t, "solve", f0="sin 1 0", fT="sin 1 -1", T="1e-300"),
        "T=1e-300 is outside the supported range [1e-75, 1e75]",
    ),
    "l1-pms-T-1e-300": (
        lambda t: _argv(t, "pms", f0="sin 1 0", fT="sin 1 -1", T="1e-300", norm="l1",
                        eps_schedule="1e-1"),
        "T=1e-300 is outside the supported range [1e-75, 1e75]",
    ),
    # each warned, raised untyped or printed inf or nan before
    "verify-T-1e-200": (
        lambda t: [*_argv(t, "verify", f0="sin 1 0", fT="sin 1 -1", T="1e-200", norm="l1"),
                   "--input", str(_zeros(t, 1e-200))],
        "T=1e-200 is outside the supported range [1e-75, 1e75]",
    ),
    "verify-T-1e200": (
        lambda t: [*_argv(t, "verify", f0="sin 1 0", fT="sin 1 -1", T="1e200"),
                   "--input", str(_zeros(t, 1e200))],
        "T=1e+200 is outside the supported range [1e-75, 1e75]",
    ),
    "sin-frequency-1e300": (
        lambda t: _argv(t, "solve", f0="sin 1e300 0", fT="sin 1 -1", norm="l1"),
        "the data scale nan (|A|/(2T) and the shifts) is outside the supported range [0, 1e75]",
    ),
    "l2-oracle-T-1e307": (
        lambda t: _argv(t, "oracle", f0="sin 1 0", fT="sin 1 -1", T="1e307"),
        "T=1e+307 is outside the supported range [1e-75, 1e75]",
    ),
    "l1-pms-poly-1e300": (
        lambda t: _argv(t, "pms", f0="sin 1 0", fT="poly 0 1e300 1", norm="l1",
                        eps_schedule="1e-1"),
        "the data scale 2e+300 (|A|/(2T) and the shifts) is outside the supported range [0, 1e75]",
    ),
    # A and every shift are 0: only u, f0 on the window, is out of range
    "verify-const-1e300-T-1e10": (
        lambda t: [*_argv(t, "verify", f0="const 1e300", fT="const 1e300", T="1e10"),
                   "--input", str(_zeros(t, 1e10))],
        "the data scale 1e+300 (|f0| and the extended input) is outside the supported range "
        "[0, 1e75]",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_and_names_it(tmp_path, capsys, case):
    argv, needle = BAD_INPUTS[case]
    assert main([*argv(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle.format(tmp=tmp_path) in err, err


# two faults each.  parse_config reads f0, fT, T, K1 and K2 into one ProblemSpec before
# it reads n, norm, eps_schedule and seed, and before pms looks for an eps_schedule, so a
# data or K fault is named first
TWO_FAULTS = {
    "sample-file-and-even-n": (
        lambda t: _solve_argv(t, f0=f"file {t / 'missing.csv'}", n="64"), "f0: cannot read"
    ),
    "T-range-and-norm": (
        lambda t: _solve_argv(t, T="1e80", norm="sup"), "T=1e+80 is outside the supported range"
    ),
    "window-and-seed": (
        lambda t: _solve_argv(t, f0=f"file {_samples(t, -1.0, 1.0)}", seed="-1"),
        "f0 and fT must cover the window",
    ),
    "K-and-schedule": (
        lambda t: _solve_argv(t, K2="0", eps_schedule="1e-2 1e-1"),
        "K1 and K2 must be at least 1, got K1=1, K2=0",
    ),
    "catalog-and-pms-schedule": (
        lambda t: _argv(t, "pms", fT="tanh-bump 1 0 1e-200"), "fT: catalog entry 'tanh-bump'"
    ),
    "K-and-pms-schedule": (
        lambda t: _argv(t, "pms", K1="0"), "K1 and K2 must be at least 1, got K1=0, K2=1"
    ),
}


@pytest.mark.parametrize("case", list(TWO_FAULTS))
def test_a_data_or_K_fault_is_named_first(tmp_path, capsys, case):
    argv, needle = TWO_FAULTS[case]
    assert main([*argv(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and needle in err, err


class TestSolve:
    def test_zero_data_l2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        got = capsys.readouterr().out
        assert "A  = 0.0" in got
        assert "objective = 0.0" in got
        assert "ms_check = ms_exists" in got
        data = np.genfromtxt(out / "minimizer.csv", delimiter=",", names=True)
        assert np.allclose(data["v"], 0.0, atol=1e-12)
        for name in ("envelopes.csv", "shifts.csv", "extended.csv"):
            assert (out / name).exists()

    def test_traveling_wave_l1(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm="l1", n="129"
        )
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        got = capsys.readouterr().out
        assert "strip = " in got
        assert "boundary_case = " in got
        with open(out / "shifts.csv", encoding="utf-8") as fh:
            assert fh.readline().strip() == "x,t_1,t_2,t_3"
        with open(out / "envelopes.csv", encoding="utf-8") as fh:
            assert fh.readline().strip() == "x,a_1,a_2,a_3"
        ext = np.genfromtxt(out / "extended.csv", delimiter=",", names=True)
        assert ext["x"][0] == pytest.approx(-3.0)
        assert ext["x"][-1] == pytest.approx(3.0)

    def test_u_equals_t_solves_and_verifies(self, tmp_path, capsys):
        # u = t: f0 = 0 and fT = 1 have the exact input v = 1, the top
        # envelope 0 shifted by A/(2T) = 1
        out = tmp_path / "o"
        cfg = write_config(
            tmp_path / "run.cfg", fT="const 1", norm="l1", eps_schedule="1e-1 1e-3"
        )
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert "boundary_case = shifted_top" in capsys.readouterr().out
        data = np.genfromtxt(out / "minimizer.csv", delimiter=",", names=True)
        assert np.max(np.abs(data["v"] - 1.0)) <= 64 * np.finfo(float).eps
        verify = ["verify", "--config", cfg, "--input", str(out / "minimizer.csv")]
        assert main(verify + ["--out", str(out)]) == 0
        assert "classification = MS_candidate" in capsys.readouterr().out
        for command in ("oracle", "pms"):
            assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0

    @pytest.mark.parametrize("command", ["solve", "oracle", "pms", "verify"])
    def test_zero_integral_top_envelope_exits_0(self, tmp_path, command):
        # the top envelope of fT = 1 + x^2 over f0 = 0 integrates to 0, and
        # A = 2 lies above it: the shifted envelope reaches A all the same
        out = str(tmp_path / "o")
        cfg = write_config(
            tmp_path / "run.cfg", fT="poly 1 0 1", norm="l1", eps_schedule="1e-1"
        )
        assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
        extra = ["--input", f"{out}/minimizer.csv"] if command == "verify" else []
        assert main([command, "--config", cfg, "--out", out, "--quiet", *extra]) == 0

    @pytest.mark.parametrize("f0", ["tanh-bump 1 0 0.001", "gaussian 1 0 1e-77"])
    def test_narrow_bump_solves_without_a_warning(self, tmp_path, f0):
        # cosh and z^2/sigma^4 overflow where the bump is 0 already; the suite's
        # RuntimeWarning filter turns any warning into a failure
        cfg = write_config(tmp_path / "run.cfg", f0=f0, fT="sin 1 -1")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_roundtrip_zero_data(self, tmp_path, capsys):
        # the report holds the same rows at every K
        keys = ["classification", "feasibility_residual", "pde_residual_max", "pde_budget",
                "boundaryT_max", "endpoint_value_residual", "endpoint_deriv_residual",
                "kink_cells"]
        for K in ("1", "8"):
            out = tmp_path / f"out-{K}"
            cfg = write_config(tmp_path / f"run-{K}.cfg", K1=K, K2=K)
            assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            code = main(
                ["verify", "--config", cfg, "--input", str(out / "minimizer.csv"), "--out", str(out)]
            )
            assert code == 0
            got = capsys.readouterr().out
            assert "classification = MS_candidate" in got
            assert [ln.partition(" = ")[0] for ln in got.splitlines()] == keys
            report = (out / "report.csv").read_text(encoding="utf-8")
            assert report.startswith("metric,value\n")
            assert "classification,MS_candidate" in report
            assert [ln.partition(",")[0] for ln in report.splitlines()[1:]] == keys

    def test_infeasible_exit4(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        bad = tmp_path / "bad.csv"
        xs = np.linspace(-1.0, 1.0, 65)
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,v\n")
            for x in xs:
                fh.write(f"{float(x)!r},0.1\n")
        code = main(
            ["verify", "--config", cfg, "--input", str(bad), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 4

    def test_grid_mismatch_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        bad = tmp_path / "bad.csv"
        xs = np.linspace(-1.0, 1.0, 33)
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,v\n")
            for x in xs:
                fh.write(f"{float(x)!r},0.0\n")
        assert main(["verify", "--config", cfg, "--input", str(bad)]) == 2
        assert "rows" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [0, 1], ids=["x", "v"])
    def test_non_finite_input_exit2(self, tmp_path, capsys, column):
        cfg = write_config(tmp_path / "run.cfg")
        rows = np.column_stack([np.linspace(-1.0, 1.0, 65), np.zeros(65)])
        rows[32, column] = np.nan
        bad = tmp_path / "bad.csv"
        text = "".join(f"{x!r},{v!r}\n" for x, v in rows.tolist())
        bad.write_text("x,v\n" + text, encoding="utf-8")
        out = str(tmp_path / "o")
        assert main(["verify", "--config", cfg, "--input", str(bad), "--out", out]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_pms_file_verifies_as_its_x_v_columns(self, tmp_path, capsys):
        # pms_001.csv holds x, v and d1; verify must read it as the x,v file it contains
        cfg = write_config(
            tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", n="129", eps_schedule="1e-1"
        )
        pms = tmp_path / "pms"
        assert main(["pms", "--config", cfg, "--out", str(pms), "--quiet"]) == 0
        lines = (pms / "pms_001.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,v,d1"
        xv = tmp_path / "xv.csv"
        xv.write_text("".join(",".join(ln.split(",")[:2]) + "\n" for ln in lines), encoding="utf-8")
        got = {}
        for name, path in (("pms", pms / "pms_001.csv"), ("xv", xv)):
            out = tmp_path / f"verify-{name}"
            assert main(["verify", "--config", cfg, "--input", str(path), "--out", str(out)]) == 0
            got[name] = (capsys.readouterr().out, (out / "report.csv").read_bytes())
        assert "classification = " in got["pms"][0]
        assert got["pms"] == got["xv"]

    def test_x_column_shifted_by_nodes_at_small_T_exit2(self, tmp_path, capsys):
        T, n = 1e-6, 8193
        cfg = write_config(tmp_path / "run.cfg", T=repr(T), n=str(n))
        xs = np.linspace(-T, T, n) + 3 * (2 * T / (n - 1))
        bad = tmp_path / "shifted.csv"
        bad.write_text("x,v\n" + "".join(f"{x!r},0.0\n" for x in xs.tolist()), encoding="utf-8")
        out = str(tmp_path / "o")
        assert main(["verify", "--config", cfg, "--input", str(bad), "--out", out]) == 2
        assert "x-column" in capsys.readouterr().err


def per_cell_csv(path, header, rows):
    """The per-cell writer the block formatter replaced: repr(float(x)) over each row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


class TestWriteCsv:
    SPECIAL = [-0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 3.0, 1.7976931348623157e308,
               -1.7976931348623157e308]

    @pytest.mark.parametrize("ncols", [2, 18])
    def test_bytes_match_per_cell_writer(self, tmp_path, ncols):
        rng = np.random.default_rng(ncols)
        # several blocks of cli._BLOCK_CELLS // ncols rows, the last one partial
        table = rng.standard_normal((8195, ncols)) * 10.0 ** rng.integers(-300, 300, (8195, ncols))
        for j in range(ncols):
            table[j : j + len(self.SPECIAL), j] = self.SPECIAL
        seam = cli._BLOCK_CELLS // ncols  # the first row of the second block
        table[seam - 5 : seam + 5] = np.resize(self.SPECIAL, (10, ncols))
        names = [f"c{j}" for j in range(ncols)]
        _write_csvs([(str(tmp_path / "new.csv"), names, None)], table[:, 0], table[:, 1:])
        per_cell_csv(tmp_path / "old.csv", ",".join(names), (tuple(row) for row in table))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @staticmethod
    def sweep():
        """A deterministic sweep of float64 values, both signs, for the vectorized repr."""
        rng = np.random.default_rng(23)

        def ulps(x, k=3):  # x and its k neighbours on each side
            return (np.asarray(x).view(np.int64)[:, None] + np.arange(-k, k + 1)).view(np.float64)

        # exact halves: x = odd·2^-(17 - e) puts y = x·10^(16 - e) half-way between integers,
        # and x = odd·2^-(16 - e) on an odd multiple of 5, half-way between multiples of 10
        halves = []
        for e in range(-4, 16):
            for s in (17 - e, 16 - e):
                lo, hi = 10.0**e * 2.0**s, min(10.0 ** (e + 1) * 2.0**s, 2.0**53)
                odd = 2 * rng.integers(int(lo) // 2, int(hi) // 2, 2000) + 1
                halves.append(np.ldexp(odd.astype(np.float64), -s))
        values = np.concatenate([
            rng.integers(0, 2**64, 30_000, dtype=np.uint64).view(np.float64),  # every exponent
            10.0 ** rng.uniform(-4.5, 16.5, 90_000),  # mostly repr's fixed notation
            np.round(rng.uniform(-50, 50, 20_000) * (d := 10.0 ** rng.integers(0, 12, 20_000))) / d,
            np.linspace(-3, 3, 8193),  # a decision grid
            ulps([float(f"1e{k}") for k in range(-5, 18)]).ravel(),
            ulps(np.ldexp(1.0, np.arange(-30, 61))).ravel(),
            ulps([1e-4, 1e16], 40).ravel(),
            *halves,
            [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            rng.integers(1, 2**52, 1000).view(np.float64),  # subnormals
        ])
        flip = (rng.random(len(values)) < 0.5).astype(np.uint64) << np.uint64(63)
        return (values.view(np.uint64) ^ flip).view(np.float64)  # the sign bit, NaNs too

    def test_kernel_matches_repr_on_a_sweep(self):
        values = self.sweep()
        assert len(values) >= 200_000
        table = values[: len(values) // 3 * 3].reshape(-1, 3)
        want = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        assert b"".join(b for b, in _csv_blocks([None], *table.T)) == want.encode()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_kernel_matches_repr_on_any_float(self, xs):
        want = "".join(f"{x!r}\n" for x in xs)
        blocks = _csv_blocks([None], np.array(xs, dtype=np.float64))
        assert b"".join(b for b, in blocks) == want.encode()


def per_file_solve_csvs(cfg_path, out):
    """The four solve CSVs written cell by cell by `per_cell_csv`, one table per
    file, envelopes from a descending np.sort."""
    cfg = parse_config(cfg_path)
    ans = answer(shift_sequence(cfg.spec, cfg.n), cfg.spec.A, cfg.norm)
    ts, v = ans.ts, ans.v
    ext = extend_input(v, ts)
    xs, K = ts.grid.xs, ts.K
    out.mkdir()
    for name, header, columns in (
        ("envelopes.csv", "x," + ",".join(f"a_{j}" for j in range(1, K + 1)),
         (xs, np.sort(ts.values, axis=0)[::-1].T)),
        ("shifts.csv", "x," + ",".join(f"t_{j}" for j in range(1, K + 1)), (xs, ts.values.T)),
        ("minimizer.csv", "x,v", (xs, v.values)),
        ("extended.csv", "x,v_ext", (ext.xs, ext.values)),
    ):
        per_cell_csv(out / name, header, np.column_stack(columns).tolist())


SOLVE_CSVS = ("envelopes.csv", "shifts.csv", "minimizer.csv", "extended.csv")


# one config on each side of cli._FORK_CELLS: n=129/K=3 writes every file in this
# process, n=2049/K=5 forks a child that writes extended.csv
WRITERS = pytest.mark.parametrize(
    "kv, forks",
    [(dict(n="129"), False), (dict(n="2049", K1="2", K2="2"), True)],
    ids=["one-process", "fork"],
)


def count_forks(monkeypatch):
    """Record the pid each os.fork call returns in this process."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)  # the child appends 0 to its own copy, and never returns to the test
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def fail_on(monkeypatch, path_end):
    """Make cli._write_csvs raise RuntimeError('disk full') on a file ending in path_end."""
    write = cli._write_csvs

    def failing(files, *columns):
        if any(str(path).endswith(path_end) for path, _, _ in files):
            raise RuntimeError("disk full")
        write(files, *columns)

    monkeypatch.setattr(cli, "_write_csvs", failing)


class TestSolveWriter:
    @pytest.mark.parametrize(
        "kv, forks",
        [
            (dict(f0="sin 1 0", fT="sin 1 -1", norm="l1", n="65"), False),
            (dict(f0="sin 1 0", fT="sin 1 -1", norm="l2", n="65"), False),
            (
                dict(f0="gaussian 1 0 0.8", fT="poly 0.1 -0.2 0.05", norm="l1", n="513", K2="2"),
                False,
            ),
            (dict(f0="tanh-bump 1 0.2 0.6", fT="cos 1.3 0.4", norm="l2", n="513", K1="2"), False),
            # K=17 at n=513: 27157 cells fork, in 3 decision-grid blocks of 215 rows and 5
            # window blocks (CI's record step pins the n=8193 bytes)
            (dict(f0="sin 1 0", fT="sin 1 -1", norm="l1", n="513", K1="8", K2="8"), True),
            (dict(f0="sin 1 0", fT="sin 1 -1", norm="l2", n="513", K1="8", K2="8"), True),
            # K=3 writes 11n - 4 cells: 24999 just below cli._FORK_CELLS, 25021 just above
            (dict(f0="sin 1 0", fT="sin 1 -1", norm="l1", n="2273"), False),
            (dict(f0="gaussian 1 0 0.8", fT="sin 1.3 0.4", norm="l2", n="2275"), True),
            # zero data: every shift row is 0.0, so every envelope row ties
            (dict(norm="l1"), False),
            (dict(norm="l2"), False),
        ],
        ids=[
            "l1-65", "l2-65", "l1-513", "l2-513", "l1-513-K17", "l2-513-K17",
            "l1-2273-below-fork", "l2-2275-above-fork", "zero-l1", "zero-l2",
        ],
    )
    def test_bytes_match_per_file_writer(self, tmp_path, monkeypatch, kv, forks):
        fork_calls = count_forks(monkeypatch)
        cfg = write_config(tmp_path / "run.cfg", **kv)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "new"), "--quiet"]) == 0
        assert len(fork_calls) == forks
        per_file_solve_csvs(cfg, tmp_path / "old")
        for name in SOLVE_CSVS:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    def test_without_fork_a_big_solve_writes_in_one_process(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")  # as on a system without fork
        # the "fork" config of WRITERS, which forks where os.fork exists
        cfg = write_config(
            tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", n="2049", K1="2", K2="2"
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "new"), "--quiet"]) == 0
        per_file_solve_csvs(cfg, tmp_path / "old")
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == sorted(SOLVE_CSVS)
        for name in SOLVE_CSVS:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    # "this-process" fails the envelopes/shifts/minimizer writer, which always runs in this
    # process; "child" fails the extended.csv writer, which runs in the child when forked
    @pytest.mark.parametrize("part", [0, 1], ids=["this-process", "child"])
    @WRITERS
    def test_failed_half_fails_and_leaves_no_csv(
        self, tmp_path, monkeypatch, capfd, part, kv, forks
    ):
        fail_on(monkeypatch, "extended.csv" if part else "minimizer.csv")
        fork_calls = count_forks(monkeypatch)
        out = tmp_path / "o"
        out.mkdir()
        for name in SOLVE_CSVS:  # a complete earlier run must not survive either
            (out / name).write_text("stale\n", encoding="utf-8")
        cfg = write_config(tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", **kv)
        with pytest.raises(OSError if part and forks else RuntimeError):
            main(["solve", "--config", cfg, "--out", str(out)])
        assert len(fork_calls) == forks
        for pid in fork_calls:  # reaped, whichever process failed
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert list(out.iterdir()) == []
        got = capfd.readouterr()
        assert "wrote" not in got.out
        message = "solve: writing extended.csv failed: RuntimeError('disk full')"
        assert got.err.count(message) == (1 if part and forks else 0)

    @WRITERS
    def test_summary_lines_appear_once(self, tmp_path, monkeypatch, capfd, kv, forks):
        fork_calls = count_forks(monkeypatch)
        print("pending", end="")  # buffered before the fork, printed once
        cfg = write_config(tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm="l1", **kv)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(fork_calls) == forks
        lines = capfd.readouterr().out.splitlines()
        assert lines[0].startswith("pendingA  = ")
        assert lines[-1] == f"wrote {' '.join(SOLVE_CSVS)} to {tmp_path / 'o'}"
        assert len(lines) == 8 and len(set(lines)) == 8


# argv: "one" pins the child to its first CPU; "numpy" loads numpy before the CLI,
# so the CLI's BLAS default does not apply and OPENBLAS_NUM_THREADS alone decides
_PINNED_CHILD = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
if sys.argv[2] == "numpy":
    import numpy
from waveinput.cli import main
for norm in ("l1", "l2"):
    cfg = os.path.join(sys.argv[3], f"{norm}.cfg")
    cmds = (["solve"], ["verify", "--input", f"{norm}/minimizer.csv"], ["oracle"], ["pms"])
    codes = [main([*cmd, "--config", cfg, "--out", norm]) for cmd in cmds]
    assert codes == [0, 0, 0, 0], codes
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs and CPU affinity",
)
def test_bytes_do_not_depend_on_cpu_count(tmp_path):
    # every weighted sum is numpy's pairwise sum, so neither the CPU count nor the BLAS
    # thread count reaches a bit of solve, verify, oracle or pms, whether the CLI or its
    # caller loaded numpy.  The size is measured: with functions.wsum calling np.dot, the
    # blas-2 child first writes another byte at n=751, in pms_summary.csv only (OpenBLAS
    # splits a dot product above 10000 terms, and the PMS curves are that long); the
    # decision-grid sums split from n=10001 on, and np.dot in the L2 closed form alone
    # passes at n=751 but fails here
    for norm in ("l1", "l2"):
        write_config(
            tmp_path / f"{norm}.cfg", f0="sin 1 0", fT="sin 1 -1", norm=norm, n="16385",
            eps_schedule="1e-1 1e-3",
        )
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    runs = {
        "all-cpus": ("all", "cli", {}),
        "one-cpu": ("one", "cli", {}),
        "blas-1": ("all", "numpy", {"OPENBLAS_NUM_THREADS": "1"}),
        "blas-2": ("all", "numpy", {"OPENBLAS_NUM_THREADS": "2"}),
    }
    procs = {}
    for run, (cpus, first, env) in runs.items():
        (tmp_path / run).mkdir()
        procs[run] = subprocess.Popen(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", _PINNED_CHILD, cpus, first,
             str(tmp_path)],
            cwd=tmp_path / run, env={**base, **env},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    outs = {run: proc.communicate() for run, proc in procs.items()}
    for run, proc in procs.items():
        assert proc.returncode == 0, outs[run][1]
    ref = tmp_path / "all-cpus"
    files = sorted(p.relative_to(ref) for p in ref.rglob("*.csv"))
    assert len(files) == 16
    for run in runs:
        assert outs[run][0] == outs["all-cpus"][0], run
        differ = [str(f) for f in files if (tmp_path / run / f).read_bytes() != (ref / f).read_bytes()]
        assert differ == [], run


class TestOracle:
    def test_zero_data_l2_certifies(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["oracle", "--config", cfg]) == 0
        got = capsys.readouterr().out
        assert "converged = True" in got
        assert "rel_gap" in got

    def test_uncertified_minimizer_exit5(self, tmp_path, capsys, monkeypatch):
        # the closed form plus a bump of zero integral: still feasible, but
        # its objective sits above the dual
        def bumped(ts, A):
            sol = l2_minimizer(ts, A)
            bump = np.sin(np.pi * ts.grid.xs / ts.spec.T)
            v = ts.grid.with_values(sol.v.values + bump)
            return L2Solution(v, sol.A1, sol.mean_shift, full_norm(v, ts, 2))

        monkeypatch.setattr(l2, "l2_minimizer", bumped)
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["oracle", "--config", cfg]) == 5
        assert "converged = False" in capsys.readouterr().out

    def test_readme_traveling_wave_l1_certifies(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm="l1", n="513"
        )
        assert main(["oracle", "--config", cfg]) == 0
        assert "converged = True" in capsys.readouterr().out


class TestPMS:
    def test_missing_schedule_exit2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["pms", "--config", cfg]) == 2
        assert "eps_schedule" in capsys.readouterr().err

    def test_zero_data_all_satisfied(self, tmp_path):
        out = tmp_path / "p"
        cfg = write_config(tmp_path / "run.cfg", eps_schedule="1e-1 1e-2")
        assert main(["pms", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert (out / "pms_001.csv").exists()
        assert (out / "pms_002.csv").exists()
        lines = (out / "pms_summary.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "eps,achieved_error,norm_gap,bound,satisfied"
        assert len(lines) == 3
        assert all(ln.endswith(",yes") for ln in lines[1:])

    def test_readme_l1_reaches_1e_4_at_n65(self, tmp_path):
        out = tmp_path / "p"
        cfg = write_config(
            tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm="l1", eps_schedule="1e-4"
        )
        assert main(["pms", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "pms_summary.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2 and lines[1].endswith(",yes")

    @pytest.mark.parametrize("norm, p", [("l1", 1), ("l2", 2)])
    def test_curve_bytes_match_per_cell_writer(self, tmp_path, norm, p):
        out = tmp_path / "p"
        cfg = write_config(
            tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm=norm, n="513",
            eps_schedule="1e-1 1e-3",
        )
        assert main(["pms", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        run = parse_config(cfg)
        ans = answer(shift_sequence(run.spec, run.n), run.spec.A, run.norm)
        entries = pms_sequence(ans.v, ans.ts, run.eps_schedule, p)
        assert len(entries) == 2
        for i, e in enumerate(entries, 1):
            g = e.result.g
            table = np.column_stack([g.xs, g.values, g.d1]).tolist()
            per_cell_csv(tmp_path / "old.csv", "x,v,d1", table)
            assert (out / f"pms_{i:03d}.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_budget_past_float_range_is_satisfied(self, tmp_path, norm):
        # in L2 the closed-form corner width squares share / jump past the float range;
        # the corner cap then sets the width, as in L1
        out = tmp_path / "p"
        cfg = write_config(
            tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm=norm, eps_schedule="1e300"
        )
        assert main(["pms", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "pms_summary.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("1e+300,") and lines[1].endswith(",yes")

    def test_unreachable_budget_exit6_keeps_partial(self, tmp_path, capsys):
        out = tmp_path / "p"
        cfg = write_config(
            tmp_path / "run.cfg",
            f0="sin 1 0",
            fT="sin 1 -1",
            norm="l1",
            eps_schedule="1e-1 1e-15",
        )
        assert main(["pms", "--config", cfg, "--out", str(out), "--quiet"]) == 6
        assert "budget" in capsys.readouterr().err
        assert (out / "pms_001.csv").exists()
        assert not (out / "pms_002.csv").exists()
        lines = (out / "pms_summary.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2  # header plus the one completed entry


ROOT = Path(__file__).resolve().parent.parent


def _infeasible_input(tmp_path):
    """v = 0.1 on the 65-node grid of write_config's zero problem, whose A is 0."""
    rows = "".join(f"{x!r},0.1\n" for x in np.linspace(-1.0, 1.0, 65).tolist())
    (tmp_path / "bad.csv").write_text("x,v\n" + rows, encoding="utf-8")
    return "bad.csv"


# argv per case, run in tmp_path, with the exit code it must give
EXITS = {
    "solve": (0, lambda t: ["solve", "--config", write_config(t / "run.cfg", f0="sin 1 0",
                                                             fT="sin 1 -1", norm="l1"), "--out", "o"]),
    "missing-config": (2, lambda t: ["oracle", "--config", "missing.cfg"]),
    "argparse-usage": (2, lambda t: ["solve"]),
    "infeasible-verify": (4, lambda t: ["verify", "--config", write_config(t / "run.cfg"),
                                        "--input", _infeasible_input(t), "--out", "o"]),
    "unreachable-pms": (6, lambda t: ["pms", "--config", write_config(
        t / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm="l1", eps_schedule="1e-1 1e-15"),
        "--out", "o"]),
    # a typed error raised past the config (GridError: v = A/(2T) overflows)
    "typed-error": (2, lambda t: ["solve", "--config", write_config(
        t / "run.cfg", f0="sin 1 0", fT="sin 1 -1", T="1e-310"), "--out", "o"]),
}


# id: (the stream whose reader is gone, exit case as in EXITS)
CLOSED = {
    "stdout-help": ("stdout", (0, lambda t: ["--help"])),
    "stdout-unreachable-pms": ("stdout", EXITS["unreachable-pms"]),
    "stderr-argparse-usage": ("stderr", EXITS["argparse-usage"]),
    "stderr-missing-config": ("stderr", EXITS["missing-config"]),
    "stderr-unreachable-pms": ("stderr", EXITS["unreachable-pms"]),
}


class TestExitPath:
    """The command line exits by os._exit after main, argparse's codes included: each exit
    code and every byte of stdout and stderr, both piped, are those of main in process.
    A stream with no reader ends quietly, and the other stream, the CSVs and the exit code
    stay main's."""

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue().encode(), err.getvalue().encode()

    @pytest.fixture(scope="class")
    def closed_runs(self, tmp_path_factory):
        """{(CLOSED case, unbuffered): (main in process, the child)}, each a dict of the exit
        code, the CSVs in "o" and the bytes of each stream the child could write.

        Every child starts at once, its one stream the write end of a pipe whose read end is
        already closed: its first write (unbuffered) or the flush before os._exit (buffered)
        finds no reader.
        """
        def csvs(t):
            return {p.name: p.read_bytes() for p in (t / "o").glob("*")}

        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        read, write = os.pipe()
        os.close(read)
        children, wants = {}, {}
        try:
            for case, (stream, (_, argv)) in CLOSED.items():
                for unbuffered in (False, True):
                    t = tmp_path_factory.mktemp(case)
                    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write}
                    children[case, unbuffered] = t, subprocess.Popen(
                        [sys.executable, "-m", "waveinput.cli", *argv(t)], cwd=t,
                        env={**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env, **pipes,
                    )
            with pytest.MonkeyPatch.context() as mp:  # main runs while the children do
                for case, (_, (_, argv)) in CLOSED.items():
                    t = tmp_path_factory.mktemp(case)
                    mp.chdir(t)
                    code, out, err = self._in_process(argv(t))
                    wants[case] = {"code": code, "stdout": out, "stderr": err, "csvs": csvs(t)}
        finally:
            os.close(write)
            outs = {key: proc.communicate() for key, (_, proc) in children.items()}
        runs = {}
        for (case, unbuffered), (t, proc) in children.items():
            got = dict(zip(("stdout", "stderr"), outs[case, unbuffered]))
            got.update(code=proc.returncode, csvs=csvs(t))
            del got[CLOSED[case][0]]
            runs[case, unbuffered] = wants[case], got
        return runs

    @staticmethod
    def _ends_quietly(runs, case, unbuffered):
        stream, (expected_code, _) = CLOSED[case]
        want, got = runs[case, unbuffered]
        assert want["code"] == expected_code
        assert got == {key: value for key, value in want.items() if key != stream}
        assert all(b"Traceback" not in got.get(s, b"") for s in ("stdout", "stderr"))
        return want

    @pytest.mark.parametrize("case", list(EXITS))
    def test_children_match_main_in_process(self, tmp_path, monkeypatch, case):
        expected_code, argv = EXITS[case]
        argv = argv(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
        want = self._in_process(argv)
        assert want[0] == expected_code
        module, function = re.search(
            r'^waveinput = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text("utf-8"), re.M
        ).groups()
        # block-buffered pipes, as in a plain run: only the flush before os._exit writes them
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        for entry in (
            ["-m", "waveinput.cli"],
            # what the installed script runs
            ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"],
        ):
            proc = subprocess.run([sys.executable, *entry, *argv], env=env, capture_output=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == want, entry
            assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_closed_stdout_ends_quietly(self, closed_runs, unbuffered):
        # pms prints a line before it fails: every CSV is still written, and the exit code
        # and stderr are main's
        want = self._ends_quietly(closed_runs, "stdout-unreachable-pms", unbuffered)
        assert want["stdout"].count(b"\n") == 1 and want["stderr"]
        assert sorted(want["csvs"]) == ["pms_001.csv", "pms_summary.csv"]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case", [case for case in CLOSED if case != "stdout-unreachable-pms"])
    def test_a_closed_stream_ends_quietly(self, closed_runs, case, unbuffered):
        want = self._ends_quietly(closed_runs, case, unbuffered)
        assert want[CLOSED[case][0]]  # main writes to the closed stream

    def test_a_stdout_closed_at_start_takes_nothing(self, tmp_path, monkeypatch):
        # fd 1 is closed before the interpreter starts (as by ">&-"), so sys.stdout is None;
        # every CSV, the exit code and stderr are still main's
        expected_code, argv = EXITS["unreachable-pms"]
        here, child = tmp_path / "in-process", tmp_path / "child"
        for t in (here, child):
            t.mkdir()
        monkeypatch.chdir(here)
        code, _, err = self._in_process(argv(here))
        proc = subprocess.run(
            [sys.executable, "-m", "waveinput.cli", *argv(child)], cwd=child,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
        )
        assert code == expected_code and (proc.returncode, proc.stderr) == (code, err)
        written = [{p.name: p.read_bytes() for p in (t / "o").iterdir()} for t in (here, child)]
        assert written[0] == written[1] and "pms_summary.csv" in written[0]

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle", "pms"])
    def test_each_subcommand_builds_one_shift_sequence(self, tmp_path, monkeypatch, command):
        from waveinput import tbvp

        real, calls = tbvp.shift_sequence, []

        def counted(spec, n):
            calls.append(n)
            return real(spec, n)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "waveinput" and getattr(module, "shift_sequence", None) is real:
                monkeypatch.setattr(module, "shift_sequence", counted)
        argv = [command, "--config", write_config(tmp_path / "run.cfg", eps_schedule="1e-1 1e-2"),
                "--out", str(tmp_path / "o"), "--quiet"]
        if command == "verify":
            argv += ["--input", str(_zeros(tmp_path, 1.0))]
        assert main(argv) == 0
        assert calls == [65]

    def test_repeated_main_calls_in_one_process_agree(self, tmp_path, monkeypatch):
        # main builds its argparse parser once per process, and every later call reuses it
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        # each case writes its own run.cfg just before it runs
        first = [self._in_process(argv(tmp_path)) for _, argv in EXITS.values()]
        assert [code for code, _, _ in first] == [code for code, _ in EXITS.values()]
        assert [self._in_process(argv(tmp_path)) for _, argv in EXITS.values()] == first
        assert cli._parser() is cli._parser()
