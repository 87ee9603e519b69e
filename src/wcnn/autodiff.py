"""Reverse-mode automatic differentiation over array values.

Forward evaluation is eager.  Every operation records a `Variable` node that
remembers its parents and a backward closure, and carries a global creation
rank; the tape is this creation-ordered node sequence.  `backward()` replays
the closures in exact reverse creation order, so gradient accumulation on
fan-out is plain addition in recording order and 64-bit runs are
bit-reproducible.  A gradient array may be shared by several nodes (`add`
hands one to both parents), so none is ever written in place.  Nor is a tape
value between its forward and its backward: closures read their inputs
(`conv2d` reads its input again for dW, `batch_norm_relu` rebuilds its x-hat).
A node's output gradient is dropped as soon as its closure has used it.

Each forward pass supports exactly one backward pass.  Once its closure has
run, a node is spent: it keeps its value, name and gradient, but drops its
closure and its parents, and `backward` holds it no longer.  So a value is
freed as soon as the last closure that reads it has finished, even while the
caller still holds the loss or the logits.  A spent node is not a leaf
(`_parents` is None, not empty): reusing a spent subgraph raises.  Every
gradient check runs through `gradient_errors`.

Inside `no_grad()` nothing is taped: every op returns a bare `Variable`, with
no parents and no closure, so each value is freed as soon as the caller drops
it.  An eval-mode `model.forward` runs its whole body so, as do the probe
forwards of `gradient_errors`.  Taping is off for the whole process while the
context is open.

An op outside this module records its node with `record` too: `model.forward`
records each stage buffer, whose channels its blocks wrote, as the
`concat_channels` of those blocks, without the copy `concat_channels` makes.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .tensor import ShapeError, as_array, tag

_creation_rank = itertools.count()
_taping = True


class Variable:
    """An f32/f64 array value (`tensor.as_array`) in the computation record.

    `requires_grad` marks leaves whose gradient should be materialized;
    `backward()` sets `grad` to an array of the value's shape and dtype.
    """

    __slots__ = ("value", "grad", "requires_grad", "name", "_parents", "_backward_fn",
                 "_rank", "_live")

    def __init__(self, value, requires_grad: bool = False, name: str = ""):
        self.value = as_array(value)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Variable, ...] = ()
        self._backward_fn = None
        self._rank = next(_creation_rank)
        self._live = self.requires_grad

    def __repr__(self) -> str:
        return (f"Variable({self.name or 'var'}: {tag(self.value)}{list(self.value.shape)}, "
                f"requires_grad={self.requires_grad})")


@contextmanager
def no_grad():
    """Tape nothing inside: `record` returns a bare `Variable`.  Nests, and
    restores the taping state it found on exit, also after an exception."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def record(op: str, value, parents: tuple[Variable, ...], backward_fn) -> Variable:
    """Append an operation result to the tape; inside `no_grad()`, return it
    as a bare `Variable` with no parents and no closure.

    `backward_fn(output_grad: ndarray) -> tuple[ndarray | None, ...]` returns
    one gradient per parent (None for parents that need none).
    """
    out = Variable(value, name=op)
    if not _taping:
        return out
    out._parents = tuple(parents)
    out._live = any(p._live for p in out._parents)
    if out._live:
        out._backward_fn = backward_fn
    return out


def backward(loss: Variable) -> list[Variable]:
    """Accumulate d(loss)/d(leaf) into every reachable requires-grad leaf.

    Returns the list of requires-grad variables that received a gradient
    (empty when nothing in the graph requires one).  The loss must hold a
    single scalar.  Raises if any part of the subgraph was already consumed
    by a previous backward pass.
    """
    if loss.value.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")

    if not loss._live:
        return []

    # Reachable live nodes, then reverse creation order = reverse tape order.
    visited: dict[int, Variable] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited[id(node)] = node
        for p in node._parents or ():
            if p._live and id(p) not in visited:
                stack.append(p)
    order = sorted(visited.values(), key=lambda n: n._rank, reverse=True)
    del visited, node

    buffers: dict[int, np.ndarray] = {
        id(loss): np.ones(loss.value.shape, dtype=loss.value.dtype)
    }
    touched: list[Variable] = []
    for i, node in enumerate(order):
        order[i] = None  # once spent, a node lives only as long as its readers
        out_grad = buffers.pop(id(node), None)
        if out_grad is None:
            continue
        if node.requires_grad:
            node.grad = out_grad
            touched.append(node)
        if node._parents is None:
            raise RuntimeError(
                f"backward already consumed node {node.name!r}; "
                "rerun the forward pass before differentiating again"
            )
        if not node._parents:
            continue
        parent_grads = node._backward_fn(out_grad)
        parents, node._parents, node._backward_fn = node._parents, None, None
        for parent, g in zip(parents, parent_grads):
            if g is None or not parent._live:
                continue
            if g.shape != parent.value.shape:
                raise ShapeError(
                    f"{node.name}: gradient shape {g.shape} does not match "
                    f"parent shape {parent.value.shape}"
                )
            buf = buffers.get(id(parent))
            g = g if buf is None else buf + g
            buffers[id(parent)] = g.astype(parent.value.dtype, copy=False)
    return touched


# --- primitive recorded ops -------------------------------------------------


def add(a: Variable, b: Variable) -> Variable:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    value = a.value + b.value
    return record("add", value, (a, b), lambda g: (g, g))


def mul(a: Variable, b: Variable) -> Variable:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")
    ad, bd = a.value, b.value
    return record("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Variable, s: float) -> Variable:
    s = a.value.dtype.type(s)
    return record("scale", a.value * s, (a,), lambda g: (g * s,))


def total(a: Variable) -> Variable:
    """Sum all elements into a scalar."""
    shape, dt = a.value.shape, a.value.dtype
    value = np.asarray(a.value.sum(), dtype=dt)
    return record("total", value, (a,), lambda g: (np.full(shape, g.reshape(-1)[0], dtype=dt),))


def concat_channels(parts: list[Variable]) -> Variable:
    """Concatenate NCHW values along the channel axis, in argument order, into
    a fresh array.  Every part must agree with the first on batch, height,
    width and dtype."""
    if not parts:
        raise ShapeError("concat_channels requires at least one part")
    first = parts[0].value
    for t in (p.value for p in parts):
        if t.ndim != 4:
            raise ShapeError(f"concat_channels expects NCHW parts, got rank {t.ndim}")
        if (t.shape[0],) + t.shape[2:] != (first.shape[0],) + first.shape[2:]:
            raise ShapeError(f"concat_channels spatial/batch mismatch: {first.shape} vs {t.shape}")
        if t.dtype != first.dtype:
            raise ShapeError(f"concat_channels dtype mismatch: {tag(first)} vs {tag(t)}")
    value = np.concatenate([p.value for p in parts], axis=1)
    sizes = [p.value.shape[1] for p in parts]

    def backward_fn(g):
        grads, at = [], 0
        for c in sizes:
            grads.append(g[:, at:at + c])
            at += c
        return tuple(grads)

    return record("concat_channels", value, tuple(parts), backward_fn)


# --- finite-difference verification ----------------------------------------


def gradient_errors(loss, leaves: dict[str, Variable], coords, eps: float,
                    floor: float) -> dict[str, float]:
    """Worst central-difference error of each leaf's analytic gradient, by leaf name.

    `loss()` builds a scalar from the requires-grad `leaves` and must be
    deterministic.  One backward gives every analytic gradient; then each
    coordinate in `coords[name]` (every coordinate by default) is set to
    keep + eps and keep - eps in place, each probed by an untaped `loss()`
    (`no_grad()`), and restored.  A non-finite loss raises.  The error of a
    coordinate is

        |numeric - analytic| / max(|analytic| + |numeric|, floor)

    so `floor` decides below which gradient magnitude the error turns absolute.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = loss()
    if out.value.size != 1:
        raise ShapeError(f"gradient check needs a scalar loss, got shape {out.value.shape}")
    backward(out)
    errors = {}
    for name, leaf in leaves.items():
        flat = leaf.value.reshape(-1)
        analytic = np.zeros(flat.size) if leaf.grad is None else leaf.grad.reshape(-1)
        worst = 0.0
        for i in (coords or {}).get(name, range(flat.size)):
            keep = flat[i]
            with no_grad():  # the probes are never differentiated
                flat[i] = keep + eps
                fp = loss().value.item()
                flat[i] = keep - eps
                fm = loss().value.item()
            flat[i] = keep
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ValueError(f"non-finite output while probing {name}[{i}]")
            numeric = (fp - fm) / (2 * eps)
            worst = max(worst, abs(numeric - analytic[i])
                        / max(abs(analytic[i]) + abs(numeric), floor))
        errors[name] = worst
    return errors


def finite_difference_check(f, x, eps: float = 1e-5) -> float:
    """`gradient_errors` of the scalar function `f` of one leaf, a copy of `x`,
    over all its coordinates, with the error floor 1e-12."""
    leaf = Variable(as_array(x).copy(), requires_grad=True, name="fd-probe")
    return gradient_errors(lambda: f(leaf), {"x": leaf}, None, eps, floor=1e-12)["x"]
