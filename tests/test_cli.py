"""End-to-end command line runs through main(), including exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveinput import cli, oracle
from waveinput.approx import pms_sequence
from waveinput.cli import _float_csv, _write_csv, main, parse_config
from waveinput.errors import ConfigError
from waveinput.l2 import L2Solution, l2_minimizer
from waveinput.tbvp import extend_input, full_norm


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
        # more rows than one 256-row block, with a partial last block
        table = rng.standard_normal((8195, ncols)) * 10.0 ** rng.integers(-300, 300, (8195, ncols))
        for j in range(ncols):
            table[j : j + len(self.SPECIAL), j] = self.SPECIAL
        table[250:260] = np.resize(self.SPECIAL, (10, ncols))  # across the first block seam
        names = [f"c{j}" for j in range(ncols)]
        _write_csv(str(tmp_path / "new.csv"), names, _float_csv(table[:, 0], table[:, 1:]))
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
        assert b"".join(_float_csv(*table.T)) == want.encode()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_kernel_matches_repr_on_any_float(self, xs):
        want = "".join(f"{x!r}\n" for x in xs)
        assert b"".join(_float_csv(np.array(xs, dtype=np.float64))) == want.encode()


def per_file_solve_csvs(cfg_path, out):
    """The four solve CSVs written cell by cell by `per_cell_csv`, one table per
    file, envelopes from a descending np.sort."""
    cfg = parse_config(cfg_path)
    spec = cli.build_problem(cfg)
    ts, _, v, _ = cli._solve_minimizer(cfg, spec)
    ext = extend_input(v, spec)
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


def fail_on(monkeypatch, name, path_end=""):
    """Make cli.<name> raise RuntimeError('disk full') on a first argument ending in path_end."""
    write = getattr(cli, name)

    def failing(path, *args):
        if str(path).endswith(path_end):
            raise RuntimeError("disk full")
        write(path, *args)

    monkeypatch.setattr(cli, name, failing)


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
            (dict(f0="sin 1 0", fT="sin 1 -1", norm="l1", n="8193", K1="8", K2="8"), True),
            # K=3 writes 11n - 4 cells: 24999 just below cli._FORK_CELLS, 25021 just above
            (dict(f0="sin 1 0", fT="sin 1 -1", norm="l1", n="2273"), False),
            (dict(f0="gaussian 1 0 0.8", fT="sin 1.3 0.4", norm="l2", n="2275"), True),
            # zero data: every shift row is 0.0, so every envelope row ties
            (dict(norm="l1"), False),
            (dict(norm="l2"), False),
        ],
        ids=[
            "l1-65", "l2-65", "l1-513", "l2-513", "l1-8193-K17",
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

    # "this-process" fails the envelopes/shifts/minimizer writer, which always runs in this
    # process; "child" fails the extended.csv writer, which runs in the child when forked
    @pytest.mark.parametrize("part", [0, 1], ids=["this-process", "child"])
    @WRITERS
    def test_failed_half_fails_and_leaves_no_csv(
        self, tmp_path, monkeypatch, capfd, part, kv, forks
    ):
        if part:
            fail_on(monkeypatch, "_write_csv", "extended.csv")
        else:
            fail_on(monkeypatch, "_write_grid_csvs")
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


# pins itself to its first CPU when argv[1] is "one", before numpy loads
_PINNED_CHILD = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from waveinput.cli import main
codes = [main(["solve", "--config", sys.argv[2], "--out", "out"]),
         main(["oracle", "--config", sys.argv[2]])]
assert codes == [0, 0], codes
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs and CPU affinity",
)
def test_bytes_do_not_depend_on_cpu_count(tmp_path):
    # at n=16385 the L2 closed form's dot products are long enough for a threaded
    # BLAS to split them, which changes the last bits of A1 and v on many CPUs
    cfg = write_config(
        tmp_path / "run.cfg", f0="sin 1 0", fT="sin 1 -1", norm="l2", n="16385"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    procs = {}
    for cpus in ("all", "one"):
        (tmp_path / cpus).mkdir()
        procs[cpus] = subprocess.Popen(
            [sys.executable, "-c", _PINNED_CHILD, cpus, cfg], cwd=tmp_path / cpus,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    outs = {cpus: proc.communicate() for cpus, proc in procs.items()}
    for cpus, proc in procs.items():
        assert proc.returncode == 0, outs[cpus][1]
    assert outs["all"][0] == outs["one"][0]
    for name in SOLVE_CSVS:
        assert (tmp_path / "all" / "out" / name).read_bytes() == (
            tmp_path / "one" / "out" / name
        ).read_bytes(), name


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
        spec = cli.build_problem(run)
        _, _, v, _ = cli._solve_minimizer(run, spec)
        entries = pms_sequence(v, spec, run.eps_schedule, p)
        assert len(entries) == 2
        for i, e in enumerate(entries, 1):
            g = e.result.g
            table = np.column_stack([g.xs, g.values, g.d1]).tolist()
            per_cell_csv(tmp_path / "old.csv", "x,v,d1", table)
            assert (out / f"pms_{i:03d}.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

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
