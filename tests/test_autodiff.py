import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wcnn import autodiff as ad
from wcnn import layers as L
from wcnn.tensor import ShapeError, Tensor


def test_sum_gradient_is_ones():
    x = ad.Variable(Tensor([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
    loss = ad.total(x)
    leaves = ad.backward(loss)
    assert leaves == [x]
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_elementwise_square_gradient():
    x = ad.Variable(Tensor([1.0, 2.0]), requires_grad=True)
    loss = ad.total(ad.mul(x, x))
    ad.backward(loss)
    assert np.array_equal(x.grad, np.array([2.0, 4.0]))


def test_fanout_gradients_sum():
    # y = sum(x*x) + sum(3x) -> dy/dx = 2x + 3
    x = ad.Variable(Tensor([1.0, -4.0, 0.25]), requires_grad=True)
    loss = ad.add(ad.total(ad.mul(x, x)), ad.total(ad.scale(x, 3.0)))
    ad.backward(loss)
    assert np.allclose(x.grad, 2 * x.value + 3, rtol=0, atol=0)


def test_backward_requires_scalar_loss():
    x = ad.Variable(Tensor([1.0, 2.0]), requires_grad=True)
    y = ad.mul(x, x)
    with pytest.raises(ShapeError):
        ad.backward(y)


def test_backward_twice_raises():
    x = ad.Variable(Tensor([1.0, 2.0]), requires_grad=True)
    loss = ad.total(ad.mul(x, x))
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)


def test_backward_without_grad_leaves_is_empty():
    x = ad.Variable(Tensor([1.0, 2.0]))
    loss = ad.total(ad.mul(x, x))
    assert ad.backward(loss) == []
    assert x.grad is None


def test_no_flow_into_frozen_leaves():
    x = ad.Variable(Tensor([1.0, 2.0]), requires_grad=True)
    frozen = ad.Variable(Tensor([5.0, 7.0]))
    loss = ad.total(ad.mul(x, frozen))
    ad.backward(loss)
    assert frozen.grad is None
    assert np.array_equal(x.grad, frozen.value)


def _random_graph_grad(seed):
    rng = np.random.default_rng(seed)
    x = ad.Variable(Tensor(rng.standard_normal((4, 3))), requires_grad=True)
    y = ad.Variable(Tensor(rng.standard_normal((4, 3))), requires_grad=True)
    z = ad.add(ad.mul(x, y), ad.scale(x, -0.5))
    loss = ad.add(ad.total(ad.mul(z, z)), ad.total(y))
    ad.backward(loss)
    return x.grad.copy(), y.grad.copy()


def test_deterministic_gradients():
    gx1, gy1 = _random_graph_grad(11)
    gx2, gy2 = _random_graph_grad(11)
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gy1, gy2)


def test_concat_channels_and_offsets():
    a = ad.Variable(Tensor(np.arange(4.0).reshape(1, 1, 2, 2)))
    b = ad.Variable(Tensor(np.arange(8.0).reshape(1, 2, 2, 2) + 10))
    c = ad.concat_channels([a, b]).value
    assert c.shape == (1, 3, 2, 2)
    assert np.array_equal(c[:, :1], a.value)
    assert np.array_equal(c[:, 1:], b.value)

    single = ad.concat_channels([a]).value
    assert np.array_equal(single, a.value)
    assert single is not a.value

    with pytest.raises(ShapeError, match="spatial/batch mismatch"):
        ad.concat_channels([a, ad.Variable(Tensor(np.zeros((1, 1, 3, 2))))])
    with pytest.raises(ShapeError, match="spatial/batch mismatch"):
        ad.concat_channels([a, ad.Variable(Tensor(np.zeros((2, 1, 2, 2))))])
    with pytest.raises(ShapeError, match="dtype mismatch"):
        ad.concat_channels([a, ad.Variable(Tensor(np.zeros((1, 1, 2, 2)), dtype="f32"))])
    with pytest.raises(ShapeError, match="at least one"):
        ad.concat_channels([])
    rank3_part = ad.Variable(Tensor(np.zeros((1, 2, 2))))
    for rank3 in ([rank3_part], [a, rank3_part]):
        with pytest.raises(ShapeError, match="NCHW"):
            ad.concat_channels(rank3)


def test_concat_channels_records_the_array_its_parts_tile():
    buf = np.arange(40.0).reshape(2, 5, 2, 2).copy()
    assert ad.concat_channels([ad.Variable(buf[:, :2]), ad.Variable(buf[:, 2:])]).value is buf
    # out of order, with a gap, overlapping, short of the whole array, or
    # slices of a view: copied
    view = np.arange(40.0).reshape(2, 5, 2, 2)
    for cut in ([view[:, :2], view[:, 2:]], [buf[:, 2:], buf[:, :2]], [buf[:, :2], buf[:, 3:]], [buf[:, :3], buf[:, 2:]],
                [buf[:, :2], buf[:, 2:4]], [buf[:1, :2], buf[:1, 2:]],
                [buf[:, :2, :1], buf[:, 2:, :1]]):
        value = ad.concat_channels([ad.Variable(part) for part in cut]).value
        assert not np.shares_memory(value, buf)
        assert np.array_equal(value, np.concatenate(cut, axis=1))


def test_concat_channels_backward_splits():
    rng = np.random.default_rng(5)
    a = ad.Variable(Tensor(rng.standard_normal((1, 2, 2, 2))), requires_grad=True)
    b = ad.Variable(Tensor(rng.standard_normal((1, 3, 2, 2))), requires_grad=True)
    cat = ad.concat_channels([a, b])
    w = Tensor(rng.standard_normal((1, 5, 2, 2)))
    loss = ad.total(ad.mul(cat, ad.Variable(w)))
    ad.backward(loss)
    assert np.array_equal(a.grad, w.data[:, :2])
    assert np.array_equal(b.grad, w.data[:, 2:])


def test_shared_gradient_array_is_never_written_in_place():
    # `add` hands one gradient array to both parents; `a` then takes a second
    # contribution, which must not reach the array `b` holds
    a = ad.Variable(Tensor([1.0, 2.0]), requires_grad=True)
    b = ad.Variable(Tensor([3.0, 4.0]), requires_grad=True)
    ad.backward(ad.total(ad.add(ad.add(a, b), a)))
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert np.array_equal(b.grad, [1.0, 1.0])
    # the same on a scalar node that fans out
    t = ad.total(a)
    ad.backward(ad.add(t, t))
    assert np.array_equal(a.grad, [2.0, 2.0])


def test_backward_drops_each_gradient_once_spent():
    # along a chain only the gradient in hand and the one it produces are
    # alive; keeping every spent one would hold one array per node
    x = ad.Variable(Tensor(np.ones(1 << 17)), requires_grad=True)  # 1 MB
    y = x
    for _ in range(30):
        y = ad.scale(y, 0.5)
    loss = ad.total(y)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(x.grad == 0.5 ** 30)
    assert peak - before < 4 * x.value.nbytes


def test_gradient_errors_one_backward_for_every_leaf(monkeypatch):
    rng = np.random.default_rng(3)
    leaves = {name: ad.Variable(Tensor(rng.standard_normal(3)), requires_grad=True)
              for name in ("a", "b")}
    before = {name: v.value.copy() for name, v in leaves.items()}
    calls = {"loss": 0, "taped": 0, "backward": 0}
    real_backward = ad.backward

    def backward(loss):
        calls["backward"] += 1
        return real_backward(loss)

    def loss():
        calls["loss"] += 1
        out = ad.total(ad.mul(ad.mul(leaves["a"], leaves["a"]), leaves["b"]))
        calls["taped"] += bool(out._parents)
        return out

    monkeypatch.setattr(ad, "backward", backward)
    errors = ad.gradient_errors(loss, leaves, {"b": [0, 2]}, 1e-5, floor=1e-12)
    assert list(errors) == ["a", "b"]
    assert max(errors.values()) < 1e-8
    # the probe forwards run under `no_grad`; only the analytic one is taped
    assert calls == {"loss": 1 + 2 * (3 + 2), "taped": 1, "backward": 1}
    for name, v in leaves.items():  # every probed coordinate is restored
        assert np.array_equal(v.value, before[name])


def test_finite_difference_check_identity_sum():
    # binary-exact step: the central difference of a linear map is exact
    err = ad.finite_difference_check(ad.total, Tensor([1.0, 2.0, 3.0]), eps=0.25)
    assert err < 1e-12


def test_finite_difference_check_quadratic():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 3)))
    err = ad.finite_difference_check(lambda v: ad.total(ad.mul(v, v)), x, eps=1e-5)
    assert err < 1e-9


def test_finite_difference_check_flags_missing_grad_term():
    # A deliberately wrong backward closure must be caught by the checker.
    def broken_square(v):
        val = v.value**2
        return ad.record("broken", val.sum(), (v,), lambda g: (np.ones_like(val),))

    x = Tensor([1.0, 2.0, 3.0])
    err = ad.finite_difference_check(broken_square, x, eps=1e-5)
    assert err > 1e-2


def test_finite_difference_check_leaves_the_input_unchanged():
    # `f` fails as soon as a coordinate moves, so the sweep stops mid-probe
    x = Tensor([1.0, 2.0, 3.0])
    before = x.data.copy()

    def defined_only_at_x(v):
        val = v.value
        if not np.array_equal(val, before):
            raise FloatingPointError("probe moved")
        return ad.record("probe", np.asarray(val.sum()), (v,), lambda g: (np.ones_like(val) * g,))

    with pytest.raises(FloatingPointError):
        ad.finite_difference_check(defined_only_at_x, x, eps=1e-5)
    assert np.array_equal(x.data, before)


def test_backward_frees_spent_node_values():
    # with the loss still held, a spent chain keeps only the leaf's gradient:
    # no node is held by the tape, its children or the backward pass
    x = ad.Variable(Tensor(np.ones(1 << 17)), requires_grad=True)  # 1 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = x
        for _ in range(30):
            y = ad.scale(y, 0.5)
        mid = y
        for _ in range(3):
            y = ad.scale(y, 0.5)
        loss = ad.total(y)
        del y
        ad.backward(loss)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss.value == 0.5 ** 33 * x.value.size
    assert held - mid.value.nbytes < 3 * x.value.nbytes
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(loss)
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(ad.total(ad.scale(mid, 2.0)))


# --- no_grad ------------------------------------------------------------------------


def _taping() -> bool:
    """Whether an op recorded now keeps its parent: false inside `no_grad()`."""
    return bool(ad.scale(ad.Variable(Tensor([1.0]), requires_grad=True), 2.0)._parents)


def test_no_grad_records_nodes_with_no_parents_and_no_closure():
    rng = np.random.default_rng(8)
    x = ad.Variable(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = ad.Variable(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    with ad.no_grad():
        assert not _taping()
        y = L.conv2d(x, L.Conv2dParams(w))
        z = ad.concat_channels([y, ad.mul(x, x)])
        loss = ad.total(ad.scale(L.relu(z), 2.0))
    assert _taping()
    for node in (y, z, loss):
        assert node._parents == () and node._backward_fn is None and not node._live
    assert ad.backward(loss) == []
    assert x.grad is None and w.grad is None
    taped = ad.total(L.relu(L.conv2d(x, L.Conv2dParams(w))))
    assert np.array_equal(taped.value, ad.total(L.relu(y)).value)
    assert ad.backward(taped) == [w, x]


def test_no_grad_nests_and_restores_taping_after_an_exception():
    with ad.no_grad():
        with ad.no_grad():
            assert not _taping()
        assert not _taping()
    assert _taping()
    with pytest.raises(FloatingPointError):
        with ad.no_grad():
            with ad.no_grad():
                raise FloatingPointError("inside")
    assert _taping()
    x = ad.Variable(Tensor([1.0, 2.0]), requires_grad=True)
    loss = ad.total(ad.mul(x, x))
    assert loss._parents and ad.backward(loss) == [x]


# the same train-mode step, optionally after an untaped eval forward of the same model
_TRAIN_STEP = """
import numpy as np
from wcnn import autodiff as ad, layers as L, model as M

def train_step(untaped_eval_first):
    cfg = M.WaveletCnnConfig(levels=2, input_size=16, input_channels=1, channels=(4, 6),
                             num_classes=3, precision="f64")
    model = M.build(cfg)
    x = np.random.default_rng(31).standard_normal((2, 1, 16, 16))
    if untaped_eval_first:
        M.forward(model, x, "eval")
    logits = M.forward(model, x, "train")
    ad.backward(L.softmax_cross_entropy(logits, np.array([0, 2])))
    return {name: p.grad for name, p in model.params.items()}
"""


def test_train_step_after_an_untaped_eval_matches_a_fresh_process(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "fresh.npz"
    script = _TRAIN_STEP + "import sys\nnp.savez(sys.argv[1], **train_step(False))\n"
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scope = {}
    exec(_TRAIN_STEP, scope)
    got = scope["train_step"](True)
    with np.load(out) as fresh:
        assert sorted(fresh.files) == sorted(got)
        for name, grad in got.items():
            assert np.array_equal(grad, fresh[name]), name
