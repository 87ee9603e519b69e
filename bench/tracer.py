"""Outside-in span recorder for the traced benchmark run.

`Tracer.install()` rebinds the public functions of `wcnn.layers`,
`wcnn.autodiff`, `wcnn.wavelet`, `wcnn.model`, `wcnn.train` and `wcnn.data`
to timing wrappers, and `uninstall()` puts the originals back; no library file
changes.  The library calls these functions through module attributes
(`L.conv2d`, `M.forward`, `ad.record`, ...), so the rebinding reaches every
internal call site.  `record` is rebound in both `wcnn.autodiff` and
`wcnn.layers`, because `layers` imports it by name; `wcnn.wavelet` calls it as
`ad.record`.  The `record` wrapper times every backward closure and counts
tape nodes and conv2d work from operand shapes.

A span is `[name, start, end, parent index, step id]`.  Spans stay in memory
until the run writes them out.  A training step runs from the end of one
`adam_step` (or the start of `train.train`) to the end of the next; spans
inside `evaluate` or `save_model` carry no step id.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from wcnn import autodiff, data, layers, model, train, wavelet

# (module, public function, span name); None means the name depends on the call
WRAPPED = (
    (layers, "conv2d", "layers.conv2d.fwd"),
    (layers, "batch_norm", "layers.batch_norm.fwd"),
    (layers, "relu", "layers.relu.fwd"),
    (layers, "global_average_pool", "layers.head.fwd"),
    (layers, "fully_connected", "layers.head.fwd"),
    (layers, "softmax_cross_entropy", "layers.head.fwd"),
    (layers, "sigmoid_bce_multilabel", "layers.head.fwd"),
    (autodiff, "backward", "autodiff.backward"),
    (autodiff, "concat_channels", "autodiff.concat_channels.fwd"),
    (wavelet, "decompose_variables", "wavelet.subbands.fwd"),
    (wavelet, "decompose", "wavelet.decompose"),
    (wavelet, "reconstruct", "wavelet.reconstruct"),
    (model, "forward", None),
    (model, "build", "model.build"),
    (model, "save_model", "model.save_model"),
    (model, "load_model", "model.load_model"),
    (train, "train", "train.train"),
    (train, "adam_step", "train.adam_step"),
    (train, "augment", "train.augment"),
    (train, "global_contrast_normalization", "train.gcn"),
    (train, "evaluate", "train.evaluate"),
    (data, "synth_textures", "data.synth_textures"),
    (data, "load_images", "data.load_images"),
)

# tape op name -> span name of its backward closure
BACKWARD = {
    "conv2d": "layers.conv2d.bwd",
    "batch_norm": "layers.batch_norm.bwd",
    "relu": "layers.relu.bwd",
    "global_average_pool": "layers.head.bwd",
    "fully_connected": "layers.head.bwd",
    "softmax_cross_entropy": "layers.head.bwd",
    "sigmoid_bce_multilabel": "layers.head.bwd",
    "concat_channels": "autodiff.concat_channels.bwd",
}

# per-layer metric -> span names whose busy seconds it sums
BUSY = {
    "layers.conv2d.fwd_s": ("layers.conv2d.fwd",),
    "layers.conv2d.bwd_s": ("layers.conv2d.bwd",),
    "layers.batch_norm.fwd_s": ("layers.batch_norm.fwd",),
    "layers.batch_norm.bwd_s": ("layers.batch_norm.bwd",),
    "layers.relu.fwd_s": ("layers.relu.fwd",),
    "layers.relu.bwd_s": ("layers.relu.bwd",),
    "layers.head.fwd_s": ("layers.head.fwd",),
    "layers.head.bwd_s": ("layers.head.bwd",),
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.concat_channels_s": ("autodiff.concat_channels.fwd", "autodiff.concat_channels.bwd"),
    "wavelet.subbands.fwd_s": ("wavelet.subbands.fwd",),
    "wavelet.decompose_s": ("wavelet.decompose",),
    "wavelet.reconstruct_s": ("wavelet.reconstruct",),
    "model.forward.train_s": ("model.forward.train",),
    "model.forward.eval_s": ("model.forward.eval",),
    "model.save_model_s": ("model.save_model",),
    "model.load_model_s": ("model.load_model",),
    "model.build_s": ("model.build",),
    "train.adam_step_s": ("train.adam_step",),
    "train.augment_s": ("train.augment",),
    "train.gcn_s": ("train.gcn",),
    "train.evaluate_s": ("train.evaluate",),
    "data.synth_textures_s": ("data.synth_textures",),
    "data.load_images_s": ("data.load_images",),
}


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return f"model.forward.{mode}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._nested: set[int] = set()  # spans inside a span of the same name
        self._originals: list[tuple[object, str, object]] = []
        self._record = autodiff.record
        self.step: int | None = None
        self._next_step = 0
        self.steps = 0  # training steps that reached the end of adam_step
        self.counts: dict[str, float] = defaultdict(float)

    # --- span bookkeeping ------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.step]
        self.spans.append(span)
        if self._active[name]:
            self._nested.add(idx)
        self._active[name] += 1
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1

    def _open_step(self):
        self.step = self._next_step
        self._next_step += 1

    def _wrapper(self, fn, name):
        def wrapped(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return self._call(span, fn, args, kwargs)
        return wrapped

    def _train_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            self._open_step()
            try:
                return self._call("train.train", fn, args, kwargs)
            finally:
                self.step = None
        return wrapped

    def _adam_wrapper(self, fn):
        def wrapped(params, state):
            if self.step is not None:
                self.counts["adam_scalars"] += sum(p.value.size for p in params.values())
            out = self._call("train.adam_step", fn, (params, state), {})
            if self.step is not None:
                self.steps += 1
                self._open_step()
            return out
        return wrapped

    def _stepless_wrapper(self, fn, name):
        def wrapped(*args, **kwargs):
            saved, self.step = self.step, None
            try:
                return self._call(name, fn, args, kwargs)
            finally:
                self.step = saved
        return wrapped

    def _traced_record(self, op, value, parents, backward_fn):
        counts, in_step = self.counts, self.step is not None
        if in_step:
            counts["step_nodes"] += 1
        flops = 0
        if op == "conv2d":
            x, w = parents[0].value.data, parents[1].value.data
            n, o, ho, wo = value.shape
            k = w.shape[1] * w.shape[2] * w.shape[3]
            flops = 2 * n * ho * wo * o * k  # the forward GEMM
            counts["conv_flops"] += flops
            if in_step:
                counts["step_conv_calls"] += 1
                counts["step_conv_flops"] += flops
                counts["step_cols_bytes"] += n * ho * wo * k * x.itemsize
        if op.startswith("subbands_level"):
            bwd_name = "wavelet.subbands.bwd"
        else:
            bwd_name = BACKWARD.get(op, f"autodiff.{op}.bwd")

        def timed_backward(g):
            if flops:  # dW and dX GEMMs, each the size of the forward one
                counts["conv_flops"] += 2 * flops
                if self.step is not None:
                    counts["step_conv_flops"] += 2 * flops
            if bwd_name == "wavelet.subbands.bwd":
                counts["subband_bwd_calls"] += 1
            return self._call(bwd_name, backward_fn, (g,), {})

        return self._record(op, value, parents, timed_backward)

    # --- install / uninstall ---------------------------------------------------

    def _rebind(self, module, attr, replacement):
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr)
            if attr == "train":
                wrapped = self._train_wrapper(fn)
            elif attr == "adam_step":
                wrapped = self._adam_wrapper(fn)
            elif attr in ("evaluate", "save_model"):
                wrapped = self._stepless_wrapper(fn, name)
            else:
                wrapped = self._wrapper(fn, name or _forward_name)
            self._rebind(module, attr, wrapped)
        self._rebind(autodiff, "record", self._traced_record)
        self._rebind(layers, "record", self._traced_record)

    def uninstall(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    # --- derived metrics -------------------------------------------------------

    def busy(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if idx not in self._nested:
                out[name] += end - start
        return out

    def self_seconds(self, name: str) -> float:
        """Duration of the `name` spans minus what their child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return sum(end - start - child_time[idx]
                   for idx, (n, start, end, _, _) in enumerate(self.spans) if n == name)

    def metrics(self, wall_s: float) -> dict[str, float]:
        busy, c = self.busy(), self.counts
        steps = max(self.steps, 1)
        out: dict[str, float] = {}
        for metric, names in BUSY.items():
            out[metric] = sum(busy.get(n, 0.0) for n in names)
        out["autodiff.backward.self_s"] = self.self_seconds("autodiff.backward")
        for metric in [m for m in out if m.endswith("_s")]:
            out[metric[:-2] + "_share"] = out[metric] / wall_s
        conv_s = out["layers.conv2d.fwd_s"] + out["layers.conv2d.bwd_s"]
        out["layers.conv2d.calls"] = c["step_conv_calls"] / steps
        out["layers.conv2d.gflop"] = c["step_conv_flops"] / steps / 1e9
        out["layers.conv2d.gflop_per_s"] = c["conv_flops"] / 1e9 / conv_s if conv_s else 0.0
        out["layers.conv2d.im2col_mb"] = c["step_cols_bytes"] / steps / 1e6
        out["autodiff.nodes_per_step"] = c["step_nodes"] / steps
        out["wavelet.subbands.bwd_calls"] = c["subband_bwd_calls"]
        out["train.adam.scalars_per_step"] = c["adam_scalars"] / steps
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span plus `extra` (fingerprint, metrics) as one JSON file."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "step"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
