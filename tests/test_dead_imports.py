"""Guard against dead imports in the library, tests, benchmarks and
examples.

Every name a non-``__init__`` module under ``src/repro``, ``tests``,
``benchmarks`` or ``examples`` imports must be used in that module:
read as a name, as the root of an attribute chain, inside a string
annotation, or listed in the module's ``__all__``.  Package
``__init__`` modules are exempt: re-exporting is their job.  An import
kept only for its side effect has to show that effect in the code.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TREES = (SRC, ROOT / "tests", ROOT / "benchmarks", ROOT / "examples")
MODULES = sorted(p for tree in TREES for p in tree.rglob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if (isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)):
                    try:
                        expr = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    used.update(n.id for n in ast.walk(expr)
                                if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    # the globs really found every tree
    assert all(any(p.is_relative_to(tree) for p in MODULES)
               for tree in TREES)
    assert len(MODULES) > 50
    dead = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        dead += [f"{path.relative_to(ROOT)}:{line} {name}"
                 for name, line in _imported_names(tree).items()
                 if name not in used]
    assert not dead, "unused imports:\n" + "\n".join(sorted(dead))
