"""Import hygiene: every imported name is used, and the program loads no scipy.

The unused-import check is stdlib-only over the sources.  Names listed in a
module's ``__all__`` count as used (re-exports), and ``from __future__``
imports are skipped.  Quoted annotations are parsed, so a name used only
inside one still counts.

The import-path checks run the CLI in a fresh interpreter, since this
process may already hold scipy: every subcommand needs numpy and the
stdlib only, on catalog and ``file`` sample functions alike.  scipy is a
test-only dependency (the spline reference in ``test_functions.py``).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for d in ("src/waveinput", "tests", "demos")
    for p in (ROOT / d).glob("*.py")
)


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def test_no_unused_imports():
    unused = []
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        rel = path.relative_to(ROOT)
        unused += [f"{rel}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


_CHILD = """
import json, sys
from waveinput.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

_TRAVELING = {"f0": "sin 1 0", "fT": "sin 1 -1", "T": "1", "K1": "1", "K2": "1", "n": "65"}


def _run_fresh(argvs):
    """Exit codes of ``main`` on each argv, and the scipy modules loaded after."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes, mods = json.loads(proc.stdout.splitlines()[-1])
    return codes, set(mods)


def _config(tmp_path, name, **kv):
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return str(path)


def test_cli_import_loads_no_scipy():
    assert _run_fresh([]) == ([], set())


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_catalog_solve_verify_oracle_load_no_scipy(tmp_path, norm):
    cfg = _config(tmp_path, norm, norm=norm, **_TRAVELING)
    out = str(tmp_path / "out")
    codes, mods = _run_fresh([
        ["solve", "--config", cfg, "--out", out, "--quiet"],
        ["verify", "--config", cfg, "--input", f"{out}/minimizer.csv", "--out", out, "--quiet"],
        ["oracle", "--config", cfg, "--out", out, "--quiet"],
    ])
    assert codes == [0, 0, 0]
    assert mods == set()


def test_pms_loads_no_scipy(tmp_path):
    cfg = _config(tmp_path, "pms", norm="l2", eps_schedule="1e-1", **_TRAVELING)
    codes, mods = _run_fresh([["pms", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]])
    assert codes == [0]
    assert mods == set()


def test_file_sample_function_loads_no_scipy(tmp_path):
    samples = tmp_path / "f0.csv"
    samples.write_text(
        "x,y\n" + "".join(f"{x / 10!r},{(x / 10) ** 2!r}\n" for x in range(-30, 31)),
        encoding="utf-8",
    )
    cfg = _config(tmp_path, "file", **dict(_TRAVELING, f0=f"file {samples}", norm="l1"))
    out = str(tmp_path / "out")
    codes, mods = _run_fresh([
        ["solve", "--config", cfg, "--out", out, "--quiet"],
        ["verify", "--config", cfg, "--input", f"{out}/minimizer.csv", "--out", out, "--quiet"],
        ["oracle", "--config", cfg, "--out", out, "--quiet"],
    ])
    assert codes == [0, 0, 0]
    assert mods == set()
    assert (tmp_path / "out" / "minimizer.csv").exists()
