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


def _package_module(name: str) -> str | None:
    """The library module that defines `name`, which the package re-exports, or None."""
    module = getattr(getattr(wcnn, name, None), "__module__", None) or ""
    return module.removeprefix("wcnn.") if module.startswith("wcnn.") else None


def _resolver(path: Path, home: str | None):
    """(tree, imported, resolve) of the file at `path`; `home` is its own module.

    `imported` maps each name a `from` import binds to a library definition
    to that (module, name); `resolve(node)` is the (module, name) that a
    Name or an `alias.N` Attribute node refers to, or None.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}  # local name -> library module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(node)
            package = node.module == "wcnn" or (node.level == 1 and node.module is None)
            for a in node.names:
                local = a.asname or a.name
                if source is not None:
                    imported[local] = (source, a.name)
                elif package and a.name in MODULES:
                    aliases[local] = a.name
                elif package and (defining := _package_module(a.name)):
                    imported[local] = (defining, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith("wcnn."):
                    aliases[a.asname] = a.name.removeprefix("wcnn.")

    def resolve(node: ast.AST) -> tuple[str, str] | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            return None if module is None else (module, node.attr)
        if isinstance(node, ast.Name):
            return imported.get(node.id) or (None if home is None else (home, node.id))
        return None

    return tree, imported, resolve


def _references(path: Path, home: str | None) -> set[tuple[str, str]]:
    """(module, name) pairs that the file at `path` binds and uses; `home` is its own module."""
    tree, imported, resolve = _resolver(path, home)
    return set(imported.values()) | {ref for node in ast.walk(tree)
                                     if (ref := resolve(node)) is not None}


def _callers():
    """(path, home module) of every caller file: the library, the demos and the benchmark."""
    yield from ((path, path.stem) for path in LIBRARY)
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        yield path, None


def _used() -> set[tuple[str, str]]:
    used = set()
    for path, home in _callers():
        used |= _references(path, home)
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


# Defaulted parameters that no call in the library, demos or benchmark passes,
# each with the reason it stays.
UNPASSED_DEFAULTS = {
    ("cli", "main", "argv"): "the in-process seam through which tests run the CLI; "
                             "the console script passes nothing and argparse reads sys.argv",
    ("data", "write_pnm", "maxval"): "acceptance's 16-bit PNM round trip writes maxval 65535; "
                                     "the library itself writes 8-bit images only",
}


def _public_functions() -> dict[tuple[str, str], ast.FunctionDef]:
    return {(path.stem, node.name): node for path in LIBRARY
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _passed(call: ast.Call, fn: ast.FunctionDef) -> set[str]:
    """The parameters of `fn` that `call` passes, by position or by keyword."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    unpacked = any(isinstance(a, ast.Starred) for a in call.args)
    names = set(positional if unpacked else positional[:len(call.args)])
    for kw in call.keywords:  # `**mapping` (arg None) may pass any of them
        names |= {kw.arg} if kw.arg else {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    return names


def test_every_defaulted_parameter_is_passed_by_some_caller():
    """A default no caller outside the tests overrides is a knob nobody turns."""
    functions = _public_functions()
    passed = set()
    for path, home in _callers():
        tree, _, resolve = _resolver(path, home)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (key := resolve(node.func)) in functions:
                passed |= {(*key, name) for name in _passed(node, functions[key])}
    unpassed = []
    for (module, name), fn in functions.items():
        positional = fn.args.posonlyargs + fn.args.args
        defaulted = positional[len(positional) - len(fn.args.defaults):] + [
            a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        unpassed += [(module, name, a.arg) for a in defaulted
                     if (module, name, a.arg) not in passed]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS), \
        f"defaulted parameters no caller outside the tests passes: {sorted(unpassed)}"
