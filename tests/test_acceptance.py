"""Release gate: one numbered check per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -s`` to see one [PASS]/[FAIL]
line per check.  Tolerances here are contractual; loosening them is a
release decision, not a test fix.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    feasible_random_v,
    in_strip_sibling,
    random_spec,
    traveling_spec,
    zero_spec,
)
from test_cli import write_config
from waveinput.approx import approximate_c1, pms_sequence
from waveinput.cli import main as cli_main
from waveinput.functions import GridFunction, catalog, integrate, sample, simpson_weights, wsum
from waveinput.l1 import (
    construct_h,
    order_envelopes,
    select_strip,
    strip_lower_bound,
)
from waveinput.l2 import l2_minimizer
from waveinput.oracle import answer, l1_oracle, l2_oracle
from waveinput.tbvp import dalembert, extend_input, full_norm, segment_integrals, shift_sequence
from waveinput.verify import verify_solution


@contextmanager
def gate(label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label} ({time.perf_counter() - t0:.2f} s)")
        raise
    print(f"[PASS] {label} ({time.perf_counter() - t0:.2f} s)")


def test_01_traveling_wave_reconstruction():
    with gate("01 traveling-wave reconstruction exact to 1e-7"):
        t0 = time.perf_counter()
        spec = traveling_spec(1, 1, 1.0)
        n = 1025
        xs = np.linspace(-1.0, 1.0, n)
        v = GridFunction(-1.0, 1.0, n, -np.cos(xs))
        field = dalembert(v, shift_sequence(spec, n))
        lo, hi = spec.window
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 21):
            xq = np.linspace(lo + t, hi - t, 801)
            err = np.max(np.abs(field.u(t, xq) - np.sin(xq - t)))
            worst = max(worst, float(err))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-7, f"max reconstruction error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_02_zero_data_degenerate_suite():
    with gate("02 zero data: constants, minimizers, classification all zero"):
        spec = zero_spec()
        assert abs(spec.A) <= 1e-12
        assert abs(spec.c1) <= 1e-12
        assert abs(spec.c2) <= 1e-12
        ts = shift_sequence(spec, 257)
        assert np.max(np.abs(ts.values)) <= 1e-12
        sol2 = l2_minimizer(ts, spec.A)
        assert abs(sol2.objective) <= 1e-12
        assert np.max(np.abs(sol2.v.values)) <= 1e-12
        env = order_envelopes(ts)
        sol1 = construct_h(env, select_strip(env, spec.A), spec.A)
        assert abs(sol1.objective) <= 1e-12
        rep = verify_solution(sol2.v, ts)
        assert rep.classification == "MS_candidate"


def test_03_l2_closed_form_vs_oracle():
    with gate("03 dual oracle certifies the closed-form least-squares input"):
        rng = np.random.default_rng(301)
        for i in range(5):
            spec = random_spec(rng)
            ts = shift_sequence(spec, 257)
            t0 = time.perf_counter()
            rep = l2_oracle(ts, spec.A)
            elapsed = time.perf_counter() - t0
            sol = l2_minimizer(ts, spec.A)
            assert rep.converged
            assert rep.rel_gap < 1e-6, f"instance {i}: rel gap {rep.rel_gap:.3e}"
            assert np.max(np.abs(answer(ts, spec.A, "l2").v.values - sol.v.values)) < 1e-5
            assert elapsed < 60.0


def _interior_strip_instances(rng, count, n, min_room=1e-2, max_draws=300):
    found = []
    for _ in range(max_draws):
        spec = random_spec(rng)
        ts = shift_sequence(spec, n)
        env = order_envelopes(ts)
        j = select_strip(env, spec.A)
        if not 1 <= j <= env.K - 1:
            continue
        if float(np.median(env.values[j - 1] - env.values[j])) < min_room:
            continue
        found.append((spec, ts, env, j))
        if len(found) == count:
            return found
    raise AssertionError(f"only drew {len(found)}/{count} interior-strip instances")


def test_04_l1_strip_optimality():
    with gate("04 pinch construction beats random feasible inputs; flat optimum"):
        rng = np.random.default_rng(401)
        n = 129
        for k, (spec, ts, env, j) in enumerate(
            _interior_strip_instances(rng, 5, n)
        ):
            sol = construct_h(env, j, spec.A)
            for _ in range(200):
                v = feasible_random_v(spec, n, rng)
                assert full_norm(v, ts, 1) >= sol.objective - 1e-8
            rep = l1_oracle(ts, spec.A)
            assert rep.rel_gap < 1e-4, f"instance {k}: rel gap {rep.rel_gap:.3e}"
            sib = None
            for _ in range(10):
                sib = in_strip_sibling(env, j, sol.h, rng)
                if sib is not None:
                    break
            assert sib is not None, f"instance {k}: no in-strip sibling found"
            assert abs(integrate(sib) - spec.A) <= 1e-9
            assert abs(full_norm(sib, ts, 1) - sol.objective) <= 1e-8


def test_05_lower_bound_identity():
    with gate("05 strip objective equals its certified floor"):
        rng = np.random.default_rng(501)
        for spec, ts, env, j in _interior_strip_instances(rng, 5, 257, min_room=0.0):
            sol = construct_h(env, j, spec.A)
            bound = strip_lower_bound(env, j, spec.A)
            assert abs(sol.objective - bound) <= 1e-8


def test_06_offset_approximation_constraints():
    with gate("06 kinked target smoothed under budget with exact constraints"):
        t0 = time.perf_counter()
        n = 257  # odd, so the kink sits on a node
        xs = np.linspace(-1.0, 1.0, n)
        f = GridFunction(-1.0, 1.0, n, np.abs(xs))
        for p in (1, 2):
            res = approximate_c1(f, 0.3, -0.7, 1.0, 1e-3, p=p)
            assert res.achieved_lp_error < 1e-3
            assert res.integral_residual <= 1e-10
            assert res.endpoint_value_residual <= 1e-10
            assert res.endpoint_deriv_residual <= 1e-10
            # one float step each side of the seam: both branch formulas
            # must agree there in value and slope
            s = res.curve.seam
            left = np.nextafter(s, -np.inf)
            right = np.nextafter(s, np.inf)
            (lv,), (ld,) = res.curve(left)
            (rv,), (rd,) = res.curve(right)
            assert abs(lv - rv) < 1e-10
            assert abs(ld - rd) < 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_07_pms_norm_gap_bounds():
    with gate("07 smoothing sequences keep their advertised norm-gap bounds"):
        spec = traveling_spec(1, 1, 1.0)
        ts = shift_sequence(spec, 257)
        schedule = [1e-1, 1e-2, 1e-3]
        env = order_envelopes(ts)
        h = construct_h(env, select_strip(env, spec.A), spec.A).h
        for e in pms_sequence(h, ts, schedule, p=1):
            assert e.norm_gap <= 2 * spec.K * spec.T * e.epsilon + 1e-12
            assert e.satisfied
        v2 = l2_minimizer(ts, spec.A).v
        for e in pms_sequence(v2, ts, schedule, p=2):
            assert e.satisfied, f"eps {e.epsilon}: gap {e.norm_gap} > {e.bound}"


def test_08_equilibrium_identity():
    with gate("08 per-period integrals of extensions match the data constants"):
        rng = np.random.default_rng(801)
        for _ in range(5):
            spec = random_spec(rng)
            ts = shift_sequence(spec, 1025)
            for _ in range(4):
                v = feasible_random_v(spec, 1025, rng)
                per_period = wsum(simpson_weights(v.n, v.h), dalembert(v, ts).branch)
                assert np.max(np.abs(per_period - segment_integrals(spec))) < 1e-8


def test_09_reduction_identity():
    with gate("09 folded decision-interval norm equals the full-window norm"):
        rng = np.random.default_rng(901)
        for _ in range(10):
            spec = random_spec(rng)
            ts = shift_sequence(spec, 513)
            for _ in range(5):
                v = feasible_random_v(spec, 513, rng, compatible=True)
                ext = extend_input(v, ts)
                w = simpson_weights(ext.n, ext.h)
                for p in (1, 2):
                    direct = float(np.dot(w, np.abs(ext.values) ** p))
                    folded = full_norm(v, ts, p)
                    assert abs(folded - direct) <= 1e-6 * max(1.0, direct)


def test_10_residual_convergence_order():
    with gate("10 interior residual decays at second order across grids"):
        spec = traveling_spec(1, 1, 1.0)
        v = catalog("cos", [1.0, math.pi])  # -cos(x)
        grids = [sample(v, -spec.T, spec.T, n) for n in (129, 257, 513)]
        res = [verify_solution(g, shift_sequence(spec, g.n)).pde_residual_max for g in grids]
        r01 = res[0] / res[1]
        r12 = res[1] / res[2]
        assert 3.0 <= r01 <= 5.0, f"ratio 129/257 = {r01:.2f}"
        assert 3.0 <= r12 <= 5.0, f"ratio 257/513 = {r12:.2f}"


def test_11_cli_determinism_and_exit_codes(tmp_path):
    with gate("11 CLI: byte-identical reruns; exit codes 2, 4, 6"):
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
            assert cli_main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for name in ("envelopes.csv", "minimizer.csv", "shifts.csv", "extended.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

        bad_cfg = write_config(tmp_path / "bad.cfg", n="64")
        assert cli_main(["solve", "--config", bad_cfg, "--quiet"]) == 2

        zero_cfg = write_config(tmp_path / "zero.cfg")
        infeasible = tmp_path / "infeasible.csv"
        with open(infeasible, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,v\n")
            for x in np.linspace(-1.0, 1.0, 65):
                fh.write(f"{float(x)!r},0.1\n")
        code = cli_main(
            ["verify", "--config", zero_cfg, "--input", str(infeasible),
             "--out", str(tmp_path / "v"), "--quiet"]
        )
        assert code == 4

        pms_cfg = write_config(
            tmp_path / "pms.cfg",
            f0="sin 1 0",
            fT="sin 1 -1",
            norm="l1",
            eps_schedule="1e-15",
        )
        code = cli_main(
            ["pms", "--config", pms_cfg, "--out", str(tmp_path / "p"), "--quiet"]
        )
        assert code == 6
