"""Import hygiene: every imported name is used, and each call loads only what it runs.

The unused-import check is stdlib-only over the sources.  Names listed in a
module's ``__all__`` or in the package's lazy ``_EXPORTS`` table count as
used (re-exports), and ``from __future__`` imports are skipped.  Quoted
annotations are parsed, so a name used only inside one still counts.

The import-path checks run the CLI in fresh interpreters, since this
process may already hold scipy, and compare exact module sets.  Each
check declares its children with ``conftest.spawns``; the launcher there
starts them before the first test runs, beside the in-process tests.
``import waveinput`` loads no numpy.  The CLI import and each subcommand, on
catalog and ``file`` sample functions alike, load only the waveinput modules
they run, no scipy module (scipy is a test-only dependency: the spline
reference in ``test_functions.py``), and no numpy module that a fresh
``import numpy`` does not load itself: never ``numpy.polynomial``, and never
the ``numpy.ma`` that numpy 2's ``unique``, ``union1d`` and ``median`` load on
first call.
The reference is a fresh ``import numpy`` child rather than a fixed list,
because numpy 1.x loads ``numpy.ma`` at import.  No source calls BLAS, LAPACK
or ``numpy.polynomial``, so no output depends on them; the CLI still starts
BLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set, which only makes
``import numpy`` faster.
"""

import ast
import json
import os
from pathlib import Path

import pytest

from waveinput.cli import main

from conftest import Child, spawns

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
            isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS") for t in node.targets
        ):
            names |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return names


# numpy calls that reach BLAS, LAPACK or numpy.polynomial: each sum is a functions.wsum
_FORBIDDEN_ATTRS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "polynomial"}
_FORBIDDEN_MODULES = ("numpy.linalg", "numpy.polynomial")


def _blas_sites(tree):
    """Line and text of every matrix product, BLAS-backed numpy call or forbidden import."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in _FORBIDDEN_ATTRS:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
            yield from ((node.lineno, n) for n in names if n.startswith(_FORBIDDEN_MODULES))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(_FORBIDDEN_MODULES):
            yield node.lineno, node.module


def test_no_blas_lapack_or_numpy_polynomial_in_the_package():
    sites = [
        f"{path.relative_to(ROOT)}:{line} {what}"
        for path in FILES if path.parent.name == "waveinput"
        for line, what in _blas_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not sites, "BLAS, LAPACK or numpy.polynomial in src: " + ", ".join(sites)


def test_no_unused_imports():
    unused = []
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        rel = path.relative_to(ROOT)
        unused += [f"{rel}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


# exit codes, every loaded module, the BLAS thread setting and the thread count
_CHILD = """
import json, os, sys
from waveinput.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(sys.modules), os.environ.get("OPENBLAS_NUM_THREADS"),
                  len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None]))
"""

_TRAVELING = {"f0": "sin 1 0", "fT": "sin 1 -1", "T": "1", "K1": "1", "K2": "1", "n": "65"}


def _fresh(code, argvs=(), **env):
    """``code`` in a fresh interpreter, given ``argvs`` as JSON.

    The child's environment has no OPENBLAS_NUM_THREADS unless ``env`` sets it.
    """
    return Child(["-c", code, json.dumps(argvs)], env)


def _json(ran):
    """The last stdout line of a child, as JSON."""
    assert ran.code == 0, ran.stderr.decode()
    return json.loads(ran.stdout.splitlines()[-1])


# every module loaded after a fresh ``import numpy``: a child of each test that reads _loaded
_NUMPY_ALONE = _fresh("import json, sys, numpy\nprint(json.dumps(sorted(sys.modules)))")


def _loaded(children, name):
    """Exit codes, BLAS setting and thread count, and the modules loaded: waveinput's,
    scipy's, and numpy's beyond those of ``import numpy`` alone."""
    codes, mods, blas, threads = _json(children[name])
    alone = set(_json(children["numpy"]))
    mods = {m for m in mods if m.startswith(("waveinput.", "numpy.", "scipy"))} - alone
    return codes, mods, blas, threads


def _config(tmp_path, name, **kv):
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return str(path)


# what every subcommand needs: config parsing, the catalog and the problem's shifts
_SHARED = {"waveinput.cli", "waveinput.errors", "waveinput.functions", "waveinput.tbvp"}

_STAR = """
import json, sys
import waveinput
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
ns = {}
exec("from waveinput import *", ns)
print(json.dumps([loaded, len(waveinput.__all__), sorted(set(waveinput.__all__) - set(ns))]))
"""


@spawns(lambda t: {"star": _fresh(_STAR)})
def test_package_import_loads_no_numpy_and_star_binds_every_name(children):
    loaded, count, unbound = _json(children["star"])
    assert loaded == []
    assert count == 47
    assert unbound == []


@spawns(lambda t: {"numpy": _NUMPY_ALONE, "cli": _fresh(_CHILD)})
def test_cli_import_loads_only_the_shared_modules(children):
    assert _loaded(children, "cli")[:2] == ([], _SHARED)


def _subcommands(tmp_path, case):
    norm = "l2" if case == "l2" else "l1"
    data = dict(_TRAVELING)
    if case == "file":  # f0 from samples: its spline is built without scipy
        samples = tmp_path / "f0.csv"
        rows = "".join(f"{x / 10!r},{(x / 10) ** 2!r}\n" for x in range(-30, 31))
        samples.write_text("x,y\n" + rows, encoding="utf-8")
        data["f0"] = f"file {samples}"
    cfg = _config(tmp_path, case, norm=norm, eps_schedule="1e-1", **data)
    out, solved = str(tmp_path / "out"), str(tmp_path / "solved")
    # verify reads the minimizer.csv of a solve run here, in process: the solve child runs beside it
    assert main(["solve", "--config", cfg, "--out", solved, "--quiet"]) == 0
    solve = ["solve", "--config", cfg, "--out", out, "--quiet"]
    verify = ["verify", "--config", cfg, "--input", f"{solved}/minimizer.csv", "--out", out,
              "--quiet"]
    oracle = ["oracle", "--config", cfg, "--quiet"]
    pms = ["pms", "--config", cfg, "--out", out, "--quiet"]
    return {"numpy": _NUMPY_ALONE} | {
        argv[0]: _fresh(_CHILD, [argv]) for argv in (solve, verify, oracle, pms)
    }


@spawns(_subcommands)
@pytest.mark.parametrize("case", ["l1", "l2", "file"])
def test_each_subcommand_loads_only_what_it_runs(children, case):
    l2 = {"waveinput.l2"} if case == "l2" else set()
    # every command in its own child, compared at once, so a failure names each command
    loaded = {command: _loaded(children, command)[:2] for command in children if command != "numpy"}
    assert loaded == {
        "solve": ([0], _SHARED | {"waveinput.oracle", "waveinput.l1"} | l2),
        "verify": ([0], _SHARED | {"waveinput.verify"}),
        "oracle": ([0], _SHARED | {"waveinput.oracle", "waveinput.l1"} | l2),
        "pms": ([0], _SHARED | {"waveinput.approx", "waveinput.oracle", "waveinput.l1"} | l2),
    }


@spawns(lambda t: {"numpy": _NUMPY_ALONE, "solve": _fresh(_CHILD, [[
    "solve", "--config", _config(t, "poly", **dict(_TRAVELING, fT="poly 0.1 -0.2 0.05", norm="l1")),
    "--out", str(t / "o"), "--quiet",
]])})
def test_poly_config_loads_no_numpy_polynomial(children):
    codes, mods, _, _ = _loaded(children, "solve")
    assert codes == [0]
    assert mods == _SHARED | {"waveinput.oracle", "waveinput.l1"}


def _blas(tmp_path):
    oracle = [["oracle", "--config", _config(tmp_path, "l2", norm="l2", **_TRAVELING), "--quiet"]]
    return {
        "numpy": _NUMPY_ALONE,
        "unset": _fresh(_CHILD, oracle),
        "set": _fresh(_CHILD, oracle, OPENBLAS_NUM_THREADS="2"),
    }


@spawns(_blas)
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc thread listing")
def test_cli_runs_blas_on_one_thread_unless_set(children):
    assert _loaded(children, "unset")[2:] == ("1", 1)
    assert _loaded(children, "set")[2] == "2"
