"""Only `layers` runs work on threads: every other library module splits its
work through `layers._over_ranges`, so one pool sized to the CPUs serves
conv2d, batch norm, Adam and the Haar transform, and no two pools contend
for the same CPUs.

The check reads each module's syntax tree.  A thread source is an import of
`concurrent`, `threading`, `_thread` or `multiprocessing` (or a submodule),
or a call of a name ending in `Executor`, `Pool` or `Thread`.

A size gate `_SPLIT_*` only sets `_over_ranges`' `split`: no `if` statement
or conditional expression tests one, so no op keeps a second path for the
sizes below its gate.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "wcnn").glob("*.py"))
THREAD_MODULES = ("concurrent", "threading", "_thread", "multiprocessing")


def _threads(source: str) -> list[int]:
    """The line of every import of a thread module and every pool or thread
    construction in `source`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name.endswith(("Executor", "Pool", "Thread")):
                lines.append(node.lineno)
            continue
        else:
            continue
        if any(n.split(".")[0] in THREAD_MODULES for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def _gate_branches(source: str) -> list[int]:
    """The line of every `if` statement or conditional expression in `source`
    whose test names a `_SPLIT_*` gate."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.If, ast.IfExp))
                  and any(isinstance(n, ast.Name) and n.id.startswith("_SPLIT_")
                          or isinstance(n, ast.Attribute) and n.attr.startswith("_SPLIT_")
                          for n in ast.walk(node.test)))


def test_gate_branch_detection():
    source = ("split = x.size >= _SPLIT_BN\nL._over_ranges(n, fn, n >= W._SPLIT_HAAR)\n"
              "if split:\n    pass\nif x.size < _SPLIT_BN:\n    pass\n"
              "y = a if n >= L._SPLIT_FLOP else b\nif a:\n    pass\nelif b < _SPLIT_ADAM:\n    pass\n")
    assert _gate_branches(source) == [5, 7, 10]


def test_no_branch_tests_a_split_gate():
    branches = [f"{path.name}:{line}" for path in LIBRARY
                for line in _gate_branches(path.read_text(encoding="utf-8"))]
    assert branches == [], f"branches on a `_SPLIT_*` gate, not through `split`: {branches}"


def test_thread_detection():
    source = ("import os\nfrom . import layers\nimport numpy.linalg\nL._over_ranges(n, fn)\n"
              "import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "import multiprocessing.pool as mp\nThreadPoolExecutor(2)\nmp.ThreadPool(2)\n"
              "threading.Thread(target=f)\nfrom _thread import start_new_thread\n")
    assert _threads(source) == [5, 6, 7, 8, 9, 10, 11]


def test_only_layers_runs_threads():
    sources = [f"{path.name}:{line}" for path in LIBRARY if path.name != "layers.py"
               for line in _threads(path.read_text(encoding="utf-8"))]
    assert sources == [], f"thread pools or thread imports outside `layers`: {sources}"


def test_layers_builds_one_pool():
    assert len(_threads((ROOT / "src" / "wcnn" / "layers.py").read_text(encoding="utf-8"))) == 2
