"""Pin BLAS to one thread before numpy loads, unless the caller chose a count.

conv2d already runs one image range per CPU; a multi-threaded BLAS under it
oversubscribes the CPUs and slows the training tests.

The `disk_full_halfway` fixture makes the library's file writes fail midway.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402  (after the pin)

from wcnn import tensor  # noqa: E402


class _DiskFullHalfway:
    """A file that writes half of its first write longer than `limit` bytes, then fails."""

    def __init__(self, fh, limit):
        self.fh, self.limit = fh, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > self.limit:
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


@pytest.fixture()
def disk_full_halfway(monkeypatch):
    """arm(limit): from then on, every file `tensor.write_atomic` opens writes
    half of its first write longer than `limit` bytes and fails, as on a full disk."""
    def arm(limit):
        monkeypatch.setattr(tensor, "open", lambda *a, **k: _DiskFullHalfway(open(*a, **k), limit),
                            raising=False)  # shadows the builtin inside `tensor` only
    return arm
