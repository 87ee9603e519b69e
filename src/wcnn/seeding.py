"""Deterministic random-number streams.

Training, initialization and the synthetic corpus draw from `stream_rng`, a
splittable scheme keyed by (seed, *stream keys).  Streams are independent of
batch size and iteration order: e.g. the augmentation stream for sample i of
epoch e is `stream_rng(seed, AUGMENT, e, i)` no matter how samples are
batched.  The run's seed reaches one other generator: `data.make_splits`
shuffles k-fold folds with `np.random.default_rng(seed)`.  It stays so:
`wcnn eval` re-derives a run's held-out fold from its seed, and another
shuffle would score a different fold for every existing k-fold run.
"""

from __future__ import annotations

import numpy as np

# Stream tags. Keep values stable: they are part of the reproducibility contract.
SHUFFLE = 1
AUGMENT = 2
INIT = 3
SYNTH = 4


def stream_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, keys)])))
