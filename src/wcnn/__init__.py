"""Multiresolution-analysis convolutional networks on a numpy autodiff engine.

The library decomposes images with an orthonormal Haar filter bank, injects
the detail subbands into a strided-convolution classifier at the matching
resolutions, and trains the whole thing with Adam — all on a small
from-scratch reverse-mode tape so every gradient can be checked against
finite differences.

Module map:

- `tensor`    the f32/f64 array contract, the transform's `Tensor` and the
              little-endian codec shared by WTNS1 files and WCNN1 checkpoints
- `autodiff`  tape-based reverse-mode differentiation, the untaped
              `no_grad` context, the shape-checked channel concatenation
              and the FD checker
- `layers`    conv / batch norm / pooling / losses over the tape
- `wavelet`   the Haar transform and its subband pyramids, the
              convolve-then-downsample primitive and its lowpass-only
              reduction
- `model`     the subband-injection network, parameter census, checkpoints
- `train`     Adam, contrast normalization, augmentation, the epoch loop
- `data`      PNM images, manifests, split policies, synthetic textures
- `metrics`   accuracy, multi-label precision/recall/F1, split aggregation
- `gradcheck` finite-difference sweeps over every layer and the whole model
- `schema`    dataclass configs from `key = value` text (run configs and
              the checkpoint config block)
- `cli`       the `wcnn` command line, configured through `runconfig`
"""

from .tensor import ShapeError, Tensor, load_wtns, save_wtns
from .autodiff import Variable, backward, finite_difference_check, no_grad
from .wavelet import SubbandPyramid, decompose, reconstruct
from .model import Model, WaveletCnnConfig, build, forward, load_model, param_count, save_model
# the epoch loop itself lives in wcnn.train (re-exporting the `train`
# function here would shadow that submodule)
from .train import AdamState, TrainConfig, adam_step, evaluate

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Model",
    "ShapeError",
    "SubbandPyramid",
    "Tensor",
    "TrainConfig",
    "Variable",
    "WaveletCnnConfig",
    "adam_step",
    "backward",
    "build",
    "decompose",
    "evaluate",
    "finite_difference_check",
    "forward",
    "load_model",
    "load_wtns",
    "no_grad",
    "param_count",
    "reconstruct",
    "save_model",
    "save_wtns",
    "__version__",
]
