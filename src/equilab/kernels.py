"""Closed-form kernels on the two-sheeted surface of w^2 = z^2 - 1.

Everything here is elementary once the inverse Zhukovskii map

    Phi(z) = z + (z^2 - 1)^{1/2},   branch fixed by (z^2-1)^{1/2}/z -> 1 at infinity,

is in place: Phi maps the exterior of E = [-1, 1] onto the exterior of the
unit disk, |Phi| >= 1 everywhere, and |Phi| = 1 on E.  The two points of the
surface over z carry phi = Phi(z) (sheet 0) and phi = 1/Phi(z) (sheet 1), so
the sheet product is identically 1.

This is the only module that evaluates Phi, and each smooth part below is
defined here once; :mod:`equilab.measures` wraps them in named kernels, and
the solvers and the verifiers apply those same kernels.  Phi is evaluated
only at real points outside E, in real arithmetic (``_phi_real``); where an
evaluation point of ``green_e_smooth`` lies in E, g_E vanishes and the
smooth part is log|z - t| itself, so no complex branch is needed.

The kernels exposed here:

- ``scalar_kernel_smooth(s, t) = log|1 - Phi(s) Phi(t)|``, the bounded part
  of the sheet-1 surface kernel log(|1 - Phi(s) Phi(t)| / |s - t|^2) over
  real points outside E; measures integrate its singular part
  -2 log|s - t| in closed form over cells.
- ``sheet0_smooth(s, t) = log 2 + log|Phi(t)| - log|1 - Phi(s) Phi(t)|``, the
  bounded part of the sheet-0 kernel over real points outside E, by the
  factorization s - t = (Phi(s) - Phi(t)) (Phi(s) Phi(t) - 1) / (2 Phi(s) Phi(t));
  its singular part is -log|s - t|.
- ``green_e_smooth(z, t)``, the bounded part of the Green function g_E of the
  complement of E, whose singular part is -log|z - t|, at real z and real t
  outside E; ``IntervalGreen`` carries it to the complement of any single
  interval.
- ``green_e_at_infinity(x) = log|Phi(x)|``, the Green function with pole at
  infinity over real x, exactly 0 on E.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

E_LEFT = -1.0
E_RIGHT = 1.0
LOG2 = float(np.log(2.0))


# --------------------------------------------------------------------------
# domain types


def is_integer(x) -> bool:
    """True for integers; False for booleans, floats and strings."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for real numbers; False for booleans and strings."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite disjoint union of closed real intervals, ordered left to right."""

    intervals: tuple

    def __init__(self, intervals):
        ivs = tuple((l, r) for (l, r) in intervals)
        if not all(is_real(x) for iv in ivs for x in iv):
            raise TypeError("interval endpoints must be real numbers")
        ivs = tuple((float(l), float(r)) for (l, r) in ivs)
        if not ivs:
            raise ValueError("IntervalUnion needs at least one interval")
        for (l, r) in ivs:
            if not (np.isfinite(l) and np.isfinite(r)):
                raise ValueError("interval endpoints must be finite")
            if not l < r:
                raise ValueError(f"degenerate or reversed interval [{l}, {r}]")
        for (_, r0), (l1, _) in zip(ivs, ivs[1:]):
            if not r0 < l1:
                raise ValueError("intervals must be strictly disjoint and ordered")
        object.__setattr__(self, "intervals", ivs)

    @property
    def m(self) -> int:
        return len(self.intervals)

    @property
    def hull(self):
        return (self.intervals[0][0], self.intervals[-1][1])

    @property
    def total_length(self) -> float:
        return sum(r - l for (l, r) in self.intervals)

    def gap_to_unit_interval(self) -> float:
        """Distance from this set to E = [-1, 1]; negative means overlap."""
        gap = np.inf
        for (l, r) in self.intervals:
            if r < E_LEFT:
                gap = min(gap, E_LEFT - r)
            elif l > E_RIGHT:
                gap = min(gap, l - E_RIGHT)
            else:
                gap = min(gap, -1.0)
        return gap

    def is_symmetric(self) -> bool:
        """True when F = -F exactly; a nearly symmetric F is not symmetric."""
        return tuple(sorted((-r, -l) for (l, r) in self.intervals)) == self.intervals


MIN_GAP = 1e-6


def require_gap_to_e(F: IntervalUnion) -> IntervalUnion:
    """The one check that F keeps at least ``MIN_GAP`` from E = [-1, 1]; returns F."""
    gap = F.gap_to_unit_interval()
    if gap < MIN_GAP:
        raise ValueError(
            f"F must be disjoint from [-1, 1] with gap at least {MIN_GAP:g}; got gap {gap!r}"
        )
    return F


# --------------------------------------------------------------------------
# the inverse Zhukovskii map


def _phi_real(t):
    """Fast real-valued Phi for real |t| >= 1 (sign-aware square root).

    (t - 1)(t + 1) keeps the digits that t * t - 1 cancels near the branch points.
    """
    t = np.asarray(t, dtype=float)
    w = np.sign(t) * np.sqrt((t - 1.0) * (t + 1.0))
    out = t + w
    return out if out.shape else float(out)


# --------------------------------------------------------------------------
# surface kernel over real points


def scalar_kernel_smooth(s, t):
    """Bounded part log|1 - Phi(s) Phi(t)| of the kernel, for real s, t outside E."""
    ps = _phi_real(s)
    pt = _phi_real(t)
    out = np.log(np.abs(1.0 - ps * pt))
    return out if np.ndim(out) else float(out)


def sheet0_smooth(s, t):
    """Bounded part log 2 + log|Phi(t)| - log|1 - Phi(s) Phi(t)| of the sheet-0 kernel.

    Equal to log(|Phi(s) - Phi(t)| / |s - t|) - log|Phi(s)| for real s, t
    outside E, the diagonal s == t included.
    """
    return LOG2 + green_e_at_infinity(t) - scalar_kernel_smooth(s, t)


# --------------------------------------------------------------------------
# Green function of the complement of E


def green_e_smooth(z, t):
    """Smooth part of g_E in the split g_E(z,t) = smooth(z,t) - log|z - t|, real z, real t outside E.

    From the product form g_E = log(|1 - Phi(z) Phi(t)|^2 / (2 |z - t| |Phi(z) Phi(t)|)),
    at z outside E it is 2 log|1 - Phi(z) Phi(t)| - log 2 - log|Phi(z)| - log|Phi(t)|,
    finite on the diagonal, which is what the cell-integrated Green
    potential needs; at z in E, where g_E vanishes, it is log|z - t|.
    Each form is evaluated only at the z it serves.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    on_e = np.abs(z) <= E_RIGHT
    if on_e.all():
        out = np.log(np.abs(z - t))
    elif not on_e.any():
        out = (2.0 * scalar_kernel_smooth(z, t) - LOG2
               - green_e_at_infinity(z) - green_e_at_infinity(t))
    else:
        # a block whose rows straddle E: each entry by the form of its z
        z, t = np.broadcast_arrays(z, t)
        on_e = np.abs(z) <= E_RIGHT
        out = np.empty(z.shape)
        out[on_e] = green_e_smooth(z[on_e], t[on_e])
        out[~on_e] = green_e_smooth(z[~on_e], t[~on_e])
    return out if np.ndim(out) else float(out)


def green_e_at_infinity(x):
    """g_E(x, infinity) = log|Phi(x)| at real x; behaves as log|x| + log 2 + o(1) at infinity.

    With u = max(|x| - 1, 0), |Phi(x)| = 1 + u + sqrt(u (u + 2)), so the value
    is log1p(u + sqrt(u (u + 2))): it keeps its relative digits near the
    branch points, and a point inside E, where u is 0, gets exactly 0.
    """
    x = np.asarray(x, dtype=float)
    u = np.maximum(np.abs(x) - 1.0, 0.0)
    out = np.log1p(u + np.sqrt(u * (u + 2.0)))
    return out if np.ndim(out) else float(out)


# --------------------------------------------------------------------------
# Green function of the complement of a single interval, by affine pullback


@dataclass(frozen=True)
class IntervalGreen:
    """Green function of the complement of a single real interval [c, d].

    Conformal invariance under the affine map onto [-1, 1] gives
    g(z, t) = g_E(m(z), m(t)) with m(x) = (2x - c - d) / (d - c).
    """

    c: float
    d: float

    @property
    def slope(self) -> float:
        return 2.0 / (self.d - self.c)

    def map_to_unit(self, x):
        return (2.0 * np.asarray(x, dtype=float) - (self.c + self.d)) / (self.d - self.c)

    def smooth(self, z, t):
        """Smooth part in the split g(z,t) = smooth(z,t) - log|z - t|."""
        out = green_e_smooth(self.map_to_unit(z), self.map_to_unit(t)) - np.log(self.slope)
        return out if np.ndim(out) else float(out)


def green_single_interval(interval: IntervalUnion) -> IntervalGreen:
    if interval.m != 1:
        raise ValueError("closed-form Green function needs a single-interval F")
    (c, d) = interval.intervals[0]
    return IntervalGreen(c, d)
