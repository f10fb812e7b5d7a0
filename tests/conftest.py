"""Session set-up shared by every test module.

The bit-for-bit tests (blocked potentials against the full-matrix oracle,
the pinned ``report.json`` files) need one BLAS thread: a threaded
matrix-vector product splits its rows between threads, and where a split
falls decides which rows OpenBLAS sums with its remainder kernel.  One
thread is also the reference mode of the ``equilab`` command line.  This
module is imported before any test module loads numpy, so the pin holds.

It also holds the closed-form kernels that the library computes only in
split form (a smooth part minus a logarithm), as an independent reference,
and the complex inverse Zhukovskii map they are built from; the library
evaluates Phi in real arithmetic only.
"""

import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def zhukovskii_inverse(z):
    """Phi(z) = z + sqrt(z-1) sqrt(z+1), the exterior-to-exterior branch, in complex arithmetic.

    On E the value is the limit from the upper half-plane,
    Phi(x) = x + i sqrt(1 - x^2), which has modulus exactly 1.
    """
    import numpy as np

    z = np.asarray(z, dtype=complex)
    w = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    out = z + w
    return out if out.shape else complex(out)


def _kernel_oracles(z, t):
    """(g_E(z, t), sheet-1 kernel) at real z != t outside E, in their literal forms.

    g_E is the quotient log(|1 - Phi(z) Phi(t)| / |Phi(z) - Phi(t)|); the
    surface kernel is log(|1 - 1/(phi(z) phi(t))| / |z - t|^2) with the
    sheet-1 value phi = 1/Phi.
    """
    import numpy as np

    z, t = np.asarray(z, dtype=float), np.asarray(t, dtype=float)
    pz, pt = zhukovskii_inverse(z), zhukovskii_inverse(t)
    green = np.log(np.abs(1.0 - pz * pt) / np.abs(pz - pt))
    sheet1 = np.log(np.abs(1.0 - 1.0 / ((1.0 / pz) * (1.0 / pt))) / np.abs(z - t) ** 2)
    return green, sheet1


@pytest.fixture(scope="session")
def kernel_oracles():
    return _kernel_oracles
