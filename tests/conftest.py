"""Pin BLAS to one thread before any test module imports numpy.

OpenBLAS reads its thread count once, when numpy is first imported. One
thread is faster for these small float64 GEMMs on a quiet host and far
faster under contention, and it keeps results independent of the
host's default thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
