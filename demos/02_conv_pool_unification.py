#!/usr/bin/env python3
"""One primitive covers convolution, pooling, and their composition.

correlate-then-keep-every-p-th:
  * p=1                     -> plain convolution
  * averaging kernel, p>1   -> average pooling
  * composite kernel w*p    -> convolution followed by pooling, in one pass

Chaining only the lowpass branch of the Haar pair is exactly what a stack of
strided convolutions computes; the detail subbands are what such a stack
throws away.
"""

import numpy as np

from wcnn import Tensor
from wcnn.autodiff import Variable
from wcnn.layers import average_pool
from wcnn.wavelet import HAAR_LOWPASS, cnn_reduction, generalized_conv_pool

rng = np.random.default_rng(1)
x = Tensor(rng.standard_normal(16))
w = rng.standard_normal(4)
avg = np.array([0.5, 0.5])

conv_only = generalized_conv_pool(x, w, 1)
pool_only = generalized_conv_pool(x, avg, 2)
two_pass = generalized_conv_pool(generalized_conv_pool(x, w, 1), avg, 2)
one_pass = generalized_conv_pool(x, np.convolve(w, avg), 2)
print("convolution (p=1)      :", np.round(conv_only.data[:5], 4), "...")
print("pairwise average (p=2) :", np.round(pool_only.data, 4))
print("conv then pool         :", np.round(two_pass.data, 4))
print("composite kernel, once :", np.round(one_pass.data, 4))
print("agreement              :", np.abs(two_pass.data - one_pass.data).max())

# the lowpass-only chain vs stacked average pooling (gain 2 per level)
img = Tensor(rng.standard_normal((1, 1, 32, 32)))
chain = cnn_reduction(img, [np.outer(HAAR_LOWPASS, HAAR_LOWPASS)] * 3)
pooled = Variable(img)
for _ in range(3):
    pooled = average_pool(pooled, 2)
gap = chain.data / pooled.value
print("\nlowpass chain / avg-pool chain (3 levels):",
      f"constant {gap.mean():.6f} (expected {2.0**3})")
