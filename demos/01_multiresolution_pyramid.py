#!/usr/bin/env python3
"""Decompose an image into its subband pyramid and put it back together.

Each analysis level splits the current lowpass band into four half-resolution
subbands; the three detail bands are kept and the recursion continues on the
low band. With the orthonormal Haar pair the pyramid holds exactly the energy
of the input and inverts exactly.
"""

import tempfile
from pathlib import Path

import numpy as np

from wcnn import Tensor, decompose, reconstruct
from wcnn.tensor import save_wtns

rng = np.random.default_rng(0)

# a little oriented texture: diagonal grating plus noise
ii, jj = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
image = 0.5 + 0.4 * np.sin(2 * np.pi * 6 * (ii + jj) / 64) + rng.normal(0, 0.05, (64, 64))
x = Tensor(image[None, None])  # NCHW

pyramid = decompose(x, levels=4)
print("band        shape          energy share")
total = pyramid.energy()
for level, name, band in pyramid.bands():
    share = float((band.data**2).sum()) / total
    print(f"L{level} {name}     {str(band.shape):14s} {share:8.4f}")

back = reconstruct(pyramid)
err = np.abs(back.data - x.data).max() / np.abs(x.data).max()
print(f"\nenergy of pyramid / input : {total / float((x.data**2).sum()):.12f}")
print(f"max reconstruction error  : {err:.3e}")

# subbands can be persisted in the WTNS1 raw-tensor format
out = Path(tempfile.gettempdir()) / "demo_L1_LH.wtns"
save_wtns(out, pyramid.levels[0][0])
print(f"wrote {out}")
