"""Session set-up shared by every test module.

The bit-for-bit tests (blocked potentials against the full-matrix oracle,
the pinned ``report.json`` files) need one BLAS thread: a threaded
matrix-vector product splits its rows between threads, and where a split
falls decides which rows OpenBLAS sums with its remainder kernel.  One
thread is also the reference mode of the ``equilab`` command line.  This
module is imported before any test module loads numpy, so the pin holds.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
