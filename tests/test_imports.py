"""Every imported name is used: a stdlib-only check over the sources.

Names listed in a module's ``__all__`` count as used (re-exports), and
``from __future__`` imports are skipped.  Quoted annotations are parsed,
so a name used only inside one still counts.
"""

import ast
from pathlib import Path

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
