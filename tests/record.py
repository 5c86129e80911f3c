"""The CLI's output record: every file, output line and exit code over fixed configs.

Each ``*.cfg`` in ``tests/record/`` runs through ``solve``, ``verify`` (on that
``solve``'s ``minimizer.csv``), ``oracle`` and ``pms``.  ``record.json`` keeps,
per config and command, the exit code, every stdout and stderr line (the output
directory reads ``<out>``) and the sha256 of every file written.

    python tests/record.py check      compare this tree's outputs with record.json
    python tests/record.py update     rewrite record.json from this tree's outputs
    python tests/record.py diff REV   list every output that differs between the git
                                      revision REV and this tree

``diff`` exports REV's ``src/`` with ``git archive``, runs the configs of this
tree against both sources, and prints each changed file with its largest
absolute and ulp difference over the float cells that differ, then each changed
output line, by its key and difference, and each key that one side prints and
the other does not.  A change that moves output bytes runs ``diff`` against its parent,
quotes the output in CHANGES.md and commits the ``update``d record with it.

The module imports ``waveinput.cli`` before numpy, as the CLI itself does.
Small configs (n <= 2049) are checked in tier-1 by ``tests/test_record.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "record"
RECORD = CONFIGS / "record.json"
ROOT = HERE.parent
SMALL_N = 2049


def configs(small: bool = False) -> list[Path]:
    """The record's configs by name; with ``small`` only those with n <= SMALL_N."""
    out = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        n = next(int(ln.split("=")[1]) for ln in path.read_text().splitlines() if ln.startswith("n "))
        if not small or n <= SMALL_N:
            out.append(path)
    return out


def _call(argv: list[str], out_dir: Path) -> dict:
    from waveinput import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out_dir)])
    lines = {k: s.getvalue().replace(str(out_dir), "<out>").splitlines()
             for k, s in (("stdout", stdout), ("stderr", stderr))}
    files = {}
    if out_dir.is_dir():
        for f in sorted(out_dir.iterdir()):
            files[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return {"exit": code, **lines, "files": files}


def build(out_root: Path, small: bool = False) -> dict:
    """Run every config into ``out_root/<config>/<command>``; return the record."""
    record = {}
    cwd = os.getcwd()
    os.chdir(CONFIGS)  # file-sample configs name their samples relative to the config
    try:
        for cfg in configs(small):
            out = Path(out_root) / cfg.stem
            record[cfg.stem] = {
                "solve": _call(["solve", "--config", str(cfg)], out / "solve"),
                "verify": _call(["verify", "--config", str(cfg), "--input",
                                 str(out / "solve" / "minimizer.csv")], out / "verify"),
                "oracle": _call(["oracle", "--config", str(cfg)], out / "oracle"),
                "pms": _call(["pms", "--config", str(cfg)], out / "pms"),
            }
    finally:
        os.chdir(cwd)
    return record


def mismatches(got: dict, want: dict) -> list[str]:
    """``config command: field`` for every entry of ``got`` that differs from ``want``."""
    out = []
    for name, runs in got.items():
        for cmd, run in runs.items():
            old = want.get(name, {}).get(cmd)
            if old is None:
                out.append(f"{name} {cmd}: not in the record")
                continue
            for key in ("exit", "stdout", "stderr"):
                if run[key] != old[key]:
                    out.append(f"{name} {cmd}: {key}")
            for f in sorted(set(run["files"]) | set(old["files"])):
                if run["files"].get(f) != old["files"].get(f):
                    out.append(f"{name} {cmd}: {f}")
    return out


def _ordered(x: float) -> int:
    """The float's bits as an integer that counts ulps across zero."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _cell_diff(a: str, b: str):
    """(abs, ulp) difference of two float cells, or None if either is not a float."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return abs(x - y), abs(_ordered(x) - _ordered(y))


def file_diff(old: Path, new: Path) -> str:
    """One line on how two CSVs differ: rows, largest abs/ulp diff, non-float cells."""
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    if len(a) != len(b):
        return f"{len(a)} -> {len(b)} lines"
    cells = text = 0
    worst_abs, worst_ulp = 0.0, 0
    for la, lb in zip(a, b):
        if la == lb:
            continue
        ca, cb = la.replace(";", ",").split(","), lb.replace(";", ",").split(",")
        if len(ca) != len(cb):
            text += 1
            continue
        for x, y in zip(ca, cb):
            if x == y:
                continue
            d = _cell_diff(x, y)
            if d is None:
                text += 1
            else:
                cells += 1
                worst_abs, worst_ulp = max(worst_abs, d[0]), max(worst_ulp, d[1])
    out = f"{cells} float cells differ, max abs {worst_abs:.3g}, max ulp {worst_ulp}"
    return out + (f"; {text} text cells differ" if text else "")


def _line_diff(old: str, new: str) -> str:
    """``key abs A ulp U`` for two ``key = float`` lines, else both lines quoted."""
    key, _, a = old.rpartition(" = ")
    d = _cell_diff(a, new.rpartition(" = ")[2]) if new.startswith(key + " = ") else None
    return f"{key} abs {d[0]:.3g} ulp {d[1]}" if d else f"{old!r} -> {new!r}"


def report(old_root: Path, old: dict, new_root: Path, new: dict) -> list[str]:
    """Every difference between two builds: one line per changed exit code, file or stream."""
    out = []
    for name in sorted(set(old) | set(new)):
        for cmd in ("solve", "verify", "oracle", "pms"):
            a, b = old.get(name, {}).get(cmd), new.get(name, {}).get(cmd)
            if a is None or b is None:
                out.append(f"{name} {cmd}: only in {'this tree' if a is None else 'REV'}")
                continue
            if a["exit"] != b["exit"]:
                out.append(f"{name} {cmd}: exit {a['exit']} -> {b['exit']}")
            for f in sorted(set(a["files"]) | set(b["files"])):
                if a["files"].get(f) == b["files"].get(f):
                    continue
                if f not in a["files"] or f not in b["files"]:
                    out.append(f"{name} {cmd}: {f} only in {'REV' if f in a['files'] else 'this tree'}")
                    continue
                diff = file_diff(old_root / name / cmd / f, new_root / name / cmd / f)
                out.append(f"{name} {cmd}: {f}: {diff}")
            for key in ("stdout", "stderr"):
                if a[key] == b[key]:
                    continue
                out.append(f"{name} {cmd}: {key}: " + _stream_diff(a[key], b[key]))
    return out


def _stream_diff(old: list[str], new: list[str]) -> str:
    """The changed lines of a stream, paired in order, or by key when lines come or go.

    Keys that only one side has are listed with - or +; ``name@x`` and ``name_<int>``
    keys count as one ``name@*`` or ``name_*`` entry with their number of rows.
    """
    if len(old) == len(new):
        return "; ".join(_line_diff(la, lb) for la, lb in zip(old, new) if la != lb)
    a, b = ({ln.partition(" = ")[0]: ln for ln in lines} for lines in (old, new))
    out = [f"{len(old)} -> {len(new)} lines"]
    for sign, mine, other in (("-", a, b), ("+", b, a)):
        only = [re.sub(r"(@).*|(_)-?\d+$", r"\1\2*", k) for k in mine if k not in other]
        out += [f"{sign}{k}" + (f" ({only.count(k)} rows)" if k.endswith("*") else "")
                for k in dict.fromkeys(only)]
    return "; ".join(out + [_line_diff(a[k], b[k]) for k in a if k in b and a[k] != b[k]])


def _build_with(src: Path, out_root: Path) -> dict:
    """The record of the package under ``src``, built in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "build", "--out", str(out_root)], env=env, check=True)
    return json.loads((out_root / "record.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "update", "build", "diff"):
        p = sub.add_parser(name)
        if name == "build":
            p.add_argument("--out", required=True, type=Path)
        if name == "diff":
            p.add_argument("rev")
    args = parser.parse_args(argv)

    if args.command == "build":  # the worker of diff: this interpreter's waveinput
        args.out.mkdir(parents=True, exist_ok=True)
        record = build(args.out)
        (args.out / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        new = _build_with(ROOT / "src", tmp / "new")
        if args.command == "update":
            RECORD.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
            return 0
        if args.command == "check":
            bad = mismatches(new, json.loads(RECORD.read_text()))
            print("\n".join(bad) or f"{len(new)} configs match the record")
            return 1 if bad else 0
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                                 check=True, capture_output=True).stdout
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        old = _build_with(tmp / "rev" / "src", tmp / "old")
        lines = report(tmp / "old", old, tmp / "new", new)
        print("\n".join(lines) or f"no output differs from {args.rev} on {len(new)} configs")
        return 0


if __name__ == "__main__":
    sys.exit(main())
