#!/usr/bin/env python3
"""The reverse-mode tape, and how every gradient in the library is verified.

Forward evaluation is eager; each operation records a backward closure, and
`backward` replays them in reverse creation order. `finite_difference_check`
compares any analytic gradient against central differences.
"""

import numpy as np

from wcnn import Tensor, Variable, backward, finite_difference_check
from wcnn.autodiff import add, mul, scale, total
from wcnn.gradcheck import layer_checks

# d/dx of sum(x*x + 3x) is 2x + 3
x = Variable(Tensor([1.0, -4.0, 0.25]), requires_grad=True)
loss = add(total(mul(x, x)), total(scale(x, 3.0)))
backward(loss)
print("x        :", x.value)
print("gradient :", x.grad, "(expected 2x+3 =", 2 * x.value + 3, ")")

# the same machinery, checked numerically
err = finite_difference_check(
    lambda v: add(total(mul(v, v)), total(scale(v, 3.0))),
    Tensor(np.array([0.5, 2.0, -1.0])), eps=1e-5)
print(f"finite-difference error  : {err:.2e}")

# the per-layer sweep used by `wcnn gradcheck` and the acceptance suite
print("\nper-layer finite-difference sweep:")
for name, e in layer_checks():
    print(f"  {name:32s} {e:.2e}")
