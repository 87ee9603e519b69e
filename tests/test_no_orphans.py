"""Every public top-level function and class of the library has a caller.

A reference counts only when it resolves to the module that defines the
name: `from .M import N` (or `from wcnn.M import N`), `alias.N` where
`alias` is bound to module `M`, or a bare `N` inside `M` itself.  Callers
are the library modules (`src/wcnn`), the demos and the benchmark scripts;
a name the README mentions or the package exports also counts.  Tests do
not: a function that only its own test calls is dead code with a test
attached.  A function that merely shares its name with an attribute used
elsewhere (`np.zeros`, `ad.add`) does not count as used.
"""

import ast
import re
from pathlib import Path

import wcnn

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "wcnn").glob("*.py"))
MODULES = {path.stem for path in LIBRARY}


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The library module a `from ... import` reads from, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("wcnn."):
        return node.module.removeprefix("wcnn.")
    return None


def _references(path: Path, home: str | None) -> set[tuple[str, str]]:
    """(module, name) pairs that the file at `path` binds and uses; `home` is its own module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}  # local name -> library module
    refs: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(node)
            package = node.module == "wcnn" or (node.level == 1 and node.module is None)
            for a in node.names:
                if source is not None:
                    refs.add((source, a.name))
                elif package and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith("wcnn."):
                    aliases[a.asname] = a.name.removeprefix("wcnn.")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and home is not None:
            refs.add((home, node.id))
    return refs


def _used() -> set[tuple[str, str]]:
    used = set()
    for path in LIBRARY:
        used |= _references(path, path.stem)
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        used |= _references(path, None)
    return used


def test_reference_resolution(tmp_path):
    """Only bindings to the defining module count, never a bare name match."""
    caller = tmp_path / "caller.py"
    caller.write_text("from wcnn import wavelet as W\nfrom wcnn.model import build\n"
                      "import numpy as np\nW.decompose(x, 1)\nnp.zeros(3)\nreshape(x)\n")
    assert _references(caller, None) == {("wavelet", "decompose"), ("model", "build")}
    assert ("tensor", "reshape") in _references(caller, "tensor")  # bare name at home


def test_no_public_function_or_class_without_a_caller():
    used = _used()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = []
    for path in LIBRARY:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if (name and not name.startswith("_") and (path.stem, name) not in used
                    and name not in wcnn.__all__ and not re.search(rf"\b{name}\b", readme)):
                orphans.append(f"{path.name}:{node.lineno} {name}")
    assert not orphans, f"public names with no caller outside tests: {orphans}"
