"""End-to-end command line runs through main(), including exit codes."""

import numpy as np
import pytest

from waveinput import oracle
from waveinput.cli import main, parse_config
from waveinput.errors import ConfigError
from waveinput.l2 import L2Solution, l2_minimizer
from waveinput.tbvp import full_norm


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
        rows = "\n".join(f"{float(x)!r},{float(np.sin(x))!r}" for x in xs)
        (tmp_path / "f0.csv").write_text("x,y\n" + rows + "\n", encoding="utf-8")
        cfg = parse_config(
            write_config(tmp_path / "run.cfg", f0=f"file {tmp_path / 'f0.csv'}")
        )
        assert cfg.f0_spec[0] == "file"
        out = tmp_path / "o"
        assert main(["solve", "--config", write_config(
            tmp_path / "run2.cfg", f0=f"file {tmp_path / 'f0.csv'}"
        ), "--out", str(out), "--quiet"]) == 0
        assert (out / "minimizer.csv").exists()

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

    def test_degenerate_scaling_exit3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", fT="const 1", norm="l1")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "degenerate scaling" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            f0="sin 1 0",
            fT="gaussian 1 0 0.8",
            norm="l2",
            seed="7",
        )
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for name in ("envelopes.csv", "minimizer.csv", "shifts.csv", "extended.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_roundtrip_zero_data(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        code = main(
            ["verify", "--config", cfg, "--input", str(out / "minimizer.csv"), "--out", str(out)]
        )
        assert code == 0
        got = capsys.readouterr().out
        assert "classification = MS_candidate" in got
        report = (out / "report.csv").read_text(encoding="utf-8")
        assert report.startswith("metric,value\n")
        assert "classification,MS_candidate" in report

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

        monkeypatch.setattr(oracle, "l2_minimizer", bumped)
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
