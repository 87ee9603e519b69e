"""A fixed computation that gauges how fast the host runs at the moment.

On a shared virtual machine the host's speed drifts by a quarter or more over
minutes, so raw images per second from two runs of the same code disagree by
more than any useful regression bound.  The benchmark runs this kernel
between its operations and scales each timing to the speed at which the
kernel takes its nominal time.  The kernel never changes and calls nothing
in `wcnn`, so a change to the library moves the scaled numbers and the
host's drift does not.  Its parts follow the workloads: a Python loop of
small im2col GEMMs with per-channel statistics (desk training), large f32
GEMMs (224 px training) and strided pair sums over a 224 px f64 batch (the
Haar transform).  Memory-bound and compute-bound code feel the host's load
differently, so a workload picks the mix of parts that resembles it.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# mix -> (small-GEMM loops, large GEMMs, pair-sum passes), and the seconds
# that mix takes on the host the bounds were set on (2-vCPU Intel Xeon KVM
# guest, one OpenBLAS thread, in its slower state); only ratios matter
MIXES = {
    "training": ((40, 4, 3), 0.2),
    "transform": ((0, 0, 18), 0.1),
}


class Reference:
    def __init__(self, mix: str):
        (self.loops, self.gemms, self.passes), self.nominal_s = MIXES[mix]
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 15, 16, 16)).astype(np.float32)
        self.w = rng.standard_normal((12, 135)).astype(np.float32)
        self.a = rng.standard_normal((3136, 720)).astype(np.float32)
        self.b = rng.standard_normal((720, 64)).astype(np.float32)
        self.batch = rng.standard_normal((8, 3, 224, 224))

    def __call__(self) -> float:
        """Run the kernel once; return its wall seconds."""
        t0 = time.perf_counter()
        for _ in range(self.loops):
            xp = np.pad(self.x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            win = sliding_window_view(xp, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
            cols = np.ascontiguousarray(win).reshape(-1, 135)
            y = cols @ self.w.T
            y = np.maximum((y - y.mean(axis=0)) / (y.std(axis=0) + 1e-5), 0)
            _ = y.T @ cols, y @ self.w
        for _ in range(self.gemms):
            _ = self.a @ self.b
        for _ in range(self.passes):
            low = self.batch
            for _ in range(5):
                lo, hi = low[..., ::2] + low[..., 1::2], low[..., ::2] - low[..., 1::2]
                low = lo[..., ::2, :] + lo[..., 1::2, :]
                _ = lo[..., ::2, :] - lo[..., 1::2, :], hi[..., ::2, :] + hi[..., 1::2, :]
        return time.perf_counter() - t0
