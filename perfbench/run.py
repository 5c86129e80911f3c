"""Benchmark of the waveinput CLI: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --smoke                 # n=65, one pass, checks metric names
    python3 perfbench/run.py --record-verdicts 32    # rewrite the recorded verify verdicts

The load is a closed loop with one client: one ``python -m waveinput.cli``
child at a time, started by this process after the previous one exited.
Every run first sets up its inputs from ``--seed`` (three to nine times,
the median is ``setup_s``), then runs the workload's fixed call list (a
pass) as many times as the workload's nominal pass time fits in
``--seconds`` (at least once), and checks every output.  ``--trace 1``
instead replays the passes in this process, once plain and once with spans
around every public function of each waveinput module, and reports the
per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a
``src/waveinput`` under the working directory the run exits 1 and prints
no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
VERDICTS = Path(__file__).resolve().parent / "verdicts.json"

# name -> unit of the metrics a --trace 0 run reports
END_TO_END = {
    "wall_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# set up at least 3 times and until SETUP_BUDGET_S is spent, at most 9 times
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 2.0
PROBE_REPEATS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list) -> tuple:
    """Run one child to exit; returns (seconds, exit code, stdout, max RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return seconds, proc.returncode, out, usage.ru_maxrss / 1024.0


def tail(samples: list) -> tuple:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no percentile has ten beyond it, and the maximum is returned.
    """
    xs = sorted(samples)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pytest-benchmark": "present" if importlib.util.find_spec("pytest_benchmark") else "absent",
        "seed": seed,
    }


class Run:
    """One workload at one seed: set-up, the measured loop, checks and report."""

    def __init__(self, cli, name: str, seed: int, seconds: float, sizes, lines: list):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.say = lines.append
        self.attempted = 0
        self.failed = 0
        self.known = []
        self.verdicts = {}

    def setup(self, repeats: tuple) -> tuple:
        low, high = repeats
        times = []
        while len(times) < low or (len(times) < high and sum(times) < SETUP_BUDGET_S):
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            t0 = time.perf_counter()
            calls = workloads.SETUP[self.name](
                workloads.Context(self.cli, WORK, self.seed, self.sizes))
            times.append(time.perf_counter() - t0)
        return calls, times

    def judge(self, call, code: int, stdout: str) -> None:
        self.attempted += 1
        try:
            errors = call.check(code, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"output check raised {type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.say(f"FAILED {call.label}: {'; '.join(errors)}")
        elif call.known_defect and code != 0:
            self.known.append(call.label)
        if "verdict" in call.record:
            self.verdicts[call.label] = call.record["verdict"]

    def passes(self, run_pass) -> list:
        """Run a fixed number of passes: as many nominal passes as fit in --seconds, at least one.

        The count does not depend on measured speed, so two versions of the
        program always do the same work in a run.
        """
        count = max(1, int(self.seconds // workloads.NOMINAL_PASS_S[self.name]))
        return [run_pass() for _ in range(count)]

    def measure(self, calls) -> dict:
        """Closed loop, one client: each call is a fresh child process."""
        rss = []

        def one_pass():
            call_s = []
            for call in calls:
                shutil.rmtree(call.out, ignore_errors=True)  # no stale output can pass a check
                seconds, code, out, mb = spawn(["-m", "waveinput.cli", *call.argv])
                call_s.append(seconds)
                rss.append(mb)
                self.judge(call, code, out)
            return call_s

        per_pass = self.passes(one_pass)
        walls = [sum(p) for p in per_pass]
        pooled = [t for p in per_pass for t in p]
        tails = [tail(p) for p in per_pass]
        p50 = statistics.median(pooled)
        tail_s = statistics.median(t[0] for t in tails)
        _, pct, beyond = tails[0]
        self.say(f"loop: closed, 1 client, {len(walls)} pass(es) x {len(calls)} calls")
        self.say(f"wall_s       = {statistics.median(walls):.4f} s  (median of {len(walls)} passes)")
        self.say(f"call_p50_s   = {p50:.4f} s  (n={len(pooled)} calls)")
        self.say(f"call_tail_s  = {tail_s:.4f} s  (median over {len(tails)} passes of the per-pass "
                 f"p{pct:.1f} of n={len(calls)} calls, {beyond} beyond)")
        self.say(f"peak_rss_mb  = {max(rss):.1f} MB  (max of n={len(rss)} children)")
        return {"wall_s": statistics.median(walls), "call_p50_s": p50,
                "call_tail_s": tail_s, "peak_rss_mb": max(rss)}

    def csv_bytes(self, call) -> int:
        return sum(p.stat().st_size for p in call.out.glob("*.csv")) if call.out.is_dir() else 0

    def measure_traced(self, calls) -> dict:
        """In-process replay: pairs of (plain pass, traced pass)."""
        tracer = tracing.Tracer()

        def replay():
            for call in calls:
                shutil.rmtree(call.out, ignore_errors=True)
            t0 = time.perf_counter()
            outcomes = [(call, *workloads.run_cli(self.cli, call.argv)) for call in calls]
            seconds = time.perf_counter() - t0
            written = sum(self.csv_bytes(call) for call in calls)
            for call, code, out in outcomes:
                self.judge(call, code, out)
            return seconds, written

        def traced_replay():
            tracer.reset()
            with tracer.installed():
                return replay()

        def pair():
            # alternate the order so drift does not always favour one side
            if len(per_pass) % 2:
                traced, written = traced_replay()
                plain, _ = replay()
            else:
                plain, _ = replay()
                traced, written = traced_replay()
            metrics = tracing.layer_metrics(tracer.spans, tracer.counts, written)
            metrics.update({"trace.untraced_s": plain, "trace.traced_s": traced,
                            "trace.overhead_s": traced - plain})
            per_pass.append(metrics)

        per_pass = []
        self.passes(pair)
        out = tracing.median_metrics(per_pass)
        interp = [spawn(["-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
        imports = [spawn(["-c", "import waveinput.cli"])[0] for _ in range(PROBE_REPEATS)]
        out["cli.interp_s"] = statistics.median(interp)
        out["cli.import_s"] = statistics.median(imports)
        self.say(f"traced: {len(per_pass)} pair(s) of plain + traced in-process passes, "
                 f"{len(calls)} calls each; probes n={PROBE_REPEATS}")
        for name, unit in tracing.PER_LAYER.items():
            self.say(f"{name:<26} = {out[name]:.6g} {unit}")
        return out

    def report_outcomes(self, calls) -> None:
        ratio = self.failed / self.attempted
        self.say(f"fail_ratio   = {self.failed}/{self.attempted} = {ratio:.4g}  "
                 "(unexpected exit codes and failed output checks)")
        if self.known:
            labels = sorted(set(self.known))
            reasons = {c.known_defect for c in calls if c.label in labels}
            self.say(f"known defect = {len(self.known)}/{self.attempted} calls "
                     f"({', '.join(labels)}): {'; '.join(sorted(reasons))}")
            self.say(f"fail_ratio counting the known defect = "
                     f"{(self.failed + len(self.known)) / self.attempted:.4g}")
        elif any(c.known_defect for c in calls):
            self.say("known defect did not show: every call expected to show it exited 0")
        if self.verdicts:
            recorded = json.loads(VERDICTS.read_text(encoding="utf-8"))
            for label, verdict in sorted(self.verdicts.items()):
                want = recorded.get(f"{self.seed}:{label}")
                note = ("  (no recorded verdict)" if want is None
                        else "" if want == verdict else f"  CHANGED from recorded {want}")
                self.say(f"verdict {label} = {verdict}{note}")


def import_program():
    if not (SRC / "waveinput" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no waveinput sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import waveinput.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "waveinput").resolve():
        raise SystemExit(f"perfbench: imported waveinput from {cli.__file__}, not from {SRC}")
    return cli


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, sizes,
                 setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Returns (human-readable lines, result dict)."""
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}",
             f"why: {workloads.WHY[name]}",
             "env: " + " ".join(f"{k}={v}" for k, v in environment(seed).items())]
    run = Run(cli, name, seed, seconds, sizes, lines)
    try:
        # setup_s is reported by untraced runs only, so a traced run sets up once
        calls, setup_times = run.setup((1, 1) if trace else setup_repeats)
        setup_s = statistics.median(setup_times)
        lines.append(f"setup_s      = {setup_s:.4f} s  (median of n={len(setup_times)} set-ups)")
        if trace:
            metrics, units = run.measure_traced(calls), tracing.PER_LAYER
        else:
            metrics, units = run.measure(calls), END_TO_END
            metrics["setup_s"] = setup_s
        run.report_outcomes(calls)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return lines, result


def smoke(cli) -> int:
    """Each workload once at n=65, both modes; every declared metric must appear with a unit."""
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    if want[0] != END_TO_END or want[1] != tracing.PER_LAYER:
        problems.append("BENCHMARK.json metric names or units differ from the harness")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            lines, result = run_workload(cli, name, 0, 0.0, bool(trace),
                                         workloads.Sizes.smoke(), setup_repeats=(1, 1))
            print("\n".join(lines))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} != {sorted(want[trace])}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed call(s)")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def record_verdicts(cli, seeds: int) -> int:
    """Write verdicts.json: the verify verdict of every candidate for seeds 0..seeds-1."""
    verdicts = {}
    for seed in range(seeds):
        run = Run(cli, "verify-fine", seed, 0.0, workloads.Sizes(), [])
        try:
            calls, _ = run.setup((1, 1))
            for call in calls:
                run.judge(call, *workloads.run_cli(cli, call.argv))
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        verdicts.update({f"{seed}:{label}": v for label, v in sorted(run.verdicts.items())})
    VERDICTS.write_text(json.dumps(verdicts, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, checks metric names")
    ap.add_argument("--record-verdicts", type=int, metavar="SEEDS",
                    help="rewrite verdicts.json for verify-fine seeds 0..SEEDS-1")
    args = ap.parse_args(argv)
    if not (args.smoke or args.record_verdicts) and args.workload is None:
        ap.error("--workload is required unless --smoke or --record-verdicts is given")
    cli = import_program()
    if args.smoke:
        return smoke(cli)
    if args.record_verdicts:
        return record_verdicts(cli, args.record_verdicts)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        lines, result = run_workload(cli, name, args.seed, args.seconds, bool(args.trace),
                                     workloads.Sizes())
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
