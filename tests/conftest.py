"""Pin BLAS to one thread before any test module imports numpy.

OpenBLAS reads its thread count once, when numpy is first imported. One
thread is faster for these small float64 GEMMs on a quiet host and far
faster under contention, and it keeps results independent of the
host's default thread count.

The ``full_disk`` fixture makes every file write of ``fusionpose.binfile``
fail part way, as on a full disk.
"""

import builtins
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class FailingFile:
    """Writes the first ``budget`` bytes, then fails like a full disk."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError("no space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


@pytest.fixture
def full_disk(monkeypatch):
    """Every file that ``binfile`` opens takes 40 bytes, then fails."""
    from fusionpose import binfile

    monkeypatch.setattr(binfile, "open",
                        lambda path, mode: FailingFile(builtins.open(path, mode), 40),
                        raising=False)
