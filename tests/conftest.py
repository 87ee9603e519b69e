"""Pin BLAS to one thread before numpy loads, unless the caller chose a count.

conv2d already runs one image range per CPU; a multi-threaded BLAS under it
oversubscribes the CPUs and slows the training tests.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
