"""Only `tensor` opens files for writing: every other library module writes
through `tensor.write_atomic`, so a write that fails midway leaves any
earlier file whole and no temporary behind.

The check reads each module's syntax tree.  A write is a call of
`write_text` or `write_bytes`, or an `open` call (the builtin, or a method
such as `Path.open`) whose mode has `w`, `a`, `x` or `+`, or whose mode is
not a string literal and so cannot be read here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "wcnn").glob("*.py"))


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an `open` call, or None for the default "r": the
    `mode=` keyword, else the argument after the path of the builtin
    (`open(path, mode)`) or the first argument of a method (`path.open(mode)`)."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    at = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[at] if len(call.args) > at else None


def _is_write(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def _writes(source: str) -> list[int]:
    """The line of every call in `source` that opens or writes a file for writing."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _is_write(node)]


def test_write_detection():
    source = ("open(p)\nopen(p, 'rb')\np.open()\nopen(p, mode='r')\n"
              "open(p, 'wb')\nopen(p, mode='a')\np.open('w')\nopen(p, 'r+b')\nopen(p, 'xb')\n"
              "open(p, m)\np.write_text(s)\np.write_bytes(b)\n")
    assert _writes(source) == [5, 6, 7, 8, 9, 10, 11, 12]


def test_only_tensor_opens_files_for_writing():
    writers = [f"{path.name}:{line}" for path in LIBRARY if path.name != "tensor.py"
               for line in _writes(path.read_text(encoding="utf-8"))]
    assert writers == [], f"library writes outside `tensor.write_atomic`: {writers}"
