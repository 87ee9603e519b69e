"""Every public top-level function and class of the library has a caller.

A name counts as used when library code (any module of `src/wcnn`), a demo
or a benchmark script refers to it, or when the README names it, or when
the package exports it.  Tests do not count: a function that only its own
test calls is dead code with a test attached.
"""

import ast
import re
from pathlib import Path

import wcnn

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "wcnn").glob("*.py"))

# one-level transforms that only tests call; they stay until their tests go
KEPT_FOR_TESTS = {"dwt1d", "dwt2d_level"}


def _referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_public_function_or_class_without_a_caller():
    callers = [*LIBRARY, *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*map(_referenced_names, callers), wcnn.__all__, KEPT_FOR_TESTS)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = []
    for path in LIBRARY:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in used and not re.search(rf"\b{node.name}\b", readme)):
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans, f"public names with no caller outside tests: {orphans}"
