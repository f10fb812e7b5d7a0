"""Closed-form kernels on the two-sheeted surface of w^2 = z^2 - 1.

Everything here is elementary once the inverse Zhukovskii map

    Phi(z) = z + (z^2 - 1)^{1/2},   branch fixed by (z^2-1)^{1/2}/z -> 1 at infinity,

is in place: Phi maps the exterior of E = [-1, 1] onto the exterior of the
unit disk, |Phi| >= 1 everywhere, and |Phi| = 1 on E.  The two points of the
surface over z carry phi = Phi(z) (sheet 0) and phi = 1/Phi(z) (sheet 1), so
the sheet product is identically 1.

The kernels exposed here:

- ``scalar_kernel(s, t) = log(|1 - Phi(s) Phi(t)| / |s - t|^2)``, the
  restriction to sheet 1 over real points of the surface kernel; its smooth
  and singular (-2 log|s-t|) parts are exposed separately so measures can
  integrate the singular part in closed form over cells.
- ``green_e(z, t)``, the Green function of the complement of E, in two
  algebraically equivalent forms (quotient of Phi expressions, and a product
  form obtained from the factorization of z - t through Phi).
- ``green_e_at_infinity(z) = log|Phi(z)|``, the Green function with pole at
  infinity.

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

    def is_symmetric(self, tol=1e-12) -> bool:
        flipped = sorted((-r, -l) for (l, r) in self.intervals)
        return all(
            abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol
            for a, b in zip(flipped, self.intervals)
        )


MIN_GAP = 1e-6


def require_gap_to_e(F: IntervalUnion) -> IntervalUnion:
    """The one check that F keeps at least ``MIN_GAP`` from E = [-1, 1]; returns F."""
    gap = F.gap_to_unit_interval()
    if gap < MIN_GAP:
        raise ValueError(
            f"F must be disjoint from [-1, 1] with gap at least {MIN_GAP:g}; got gap {gap!r}"
        )
    return F


@dataclass(frozen=True)
class RSPoint:
    """A point of the two-sheeted surface: complex projection plus sheet index."""

    z: complex
    sheet: int

    def __post_init__(self):
        if self.sheet not in (0, 1):
            raise ValueError("sheet must be 0 or 1")

    def involution(self) -> "RSPoint":
        """The sheet-swapping involution fixing the projection."""
        return RSPoint(self.z, 1 - self.sheet)


# --------------------------------------------------------------------------
# the inverse Zhukovskii map and sheet functions


def zhukovskii_inverse(z):
    """Phi(z) = z + sqrt(z-1) sqrt(z+1), the exterior-to-exterior branch.

    On E the value is the limit from the upper half-plane,
    Phi(x) = x + i sqrt(1 - x^2), which has modulus exactly 1.
    """
    z = np.asarray(z, dtype=complex)
    w = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    out = z + w
    return out if out.shape else complex(out)


def _phi_real(t):
    """Fast real-valued Phi for real |t| >= 1 (sign-aware square root)."""
    t = np.asarray(t, dtype=float)
    w = np.sign(t) * np.sqrt(t * t - 1.0)
    out = t + w
    return out if out.shape else float(out)


def phi_sheet(z, sheet: int):
    """phi over the point(s) of the surface with projection z on the given sheet."""
    base = zhukovskii_inverse(z)
    if sheet == 0:
        return base
    if sheet == 1:
        return 1.0 / base
    raise ValueError("sheet must be 0 or 1")


def phi_on_sheet(p: RSPoint) -> complex:
    """phi at a surface point; the product over the two sheets is exactly 1."""
    return complex(phi_sheet(p.z, p.sheet))


def external_field(p: RSPoint) -> float:
    """-log|phi| at a surface point; antisymmetric under the involution."""
    return float(-np.log(np.abs(phi_on_sheet(p))))


def zhukovskii_derivative_abs(t):
    """|Phi'(t)| = |Phi(t)| / sqrt(t^2 - 1) for real |t| > 1."""
    t = np.asarray(t, dtype=float)
    out = np.abs(_phi_real(t)) / np.sqrt(t * t - 1.0)
    return out if out.shape else float(out)


# --------------------------------------------------------------------------
# surface kernel over real points


def scalar_kernel_smooth(s, t):
    """Bounded part log|1 - Phi(s) Phi(t)| of the kernel, for real s, t outside E."""
    ps = _phi_real(s)
    pt = _phi_real(t)
    out = np.log(np.abs(1.0 - ps * pt))
    return out if np.ndim(out) else float(out)

def scalar_kernel(s, t):
    """log(|1 - Phi(s) Phi(t)| / |s - t|^2) for real s != t outside E.

    Diverges like -2 log|s - t| on the diagonal; the diagonal itself is the
    measures module's job (cell integration), so s == t is rejected here.
    """
    if np.any(np.asarray(s) == np.asarray(t)):
        raise ValueError("scalar_kernel is singular on the diagonal s == t")
    out = scalar_kernel_smooth(s, t) - 2.0 * np.log(np.abs(np.asarray(s, dtype=float) - t))
    return out if np.ndim(out) else float(out)


def rs_kernel(p: RSPoint, t):
    """The surface kernel log(|1 - 1/(phi(p) phi(t^(1)))| / |z - t|^2).

    Literal two-sheet form; for p on sheet 1 over real z it coincides with
    ``scalar_kernel(z, t)``, which is the identity the tests pin down.
    """
    fp = phi_on_sheet(p)
    ft = phi_sheet(np.asarray(t, dtype=complex), 1)
    num = np.abs(1.0 - 1.0 / (fp * ft))
    den = np.abs(p.z - np.asarray(t, dtype=complex)) ** 2
    out = np.log(num / den)
    return out if np.ndim(out) else float(out)


# --------------------------------------------------------------------------
# Green function of the complement of E


def green_e(z, t):
    """g_E(z, t) = log(|1 - Phi(z) Phi(t)| / |Phi(z) - Phi(t)|), z, t real, z != t.

    Boundary points inside [-1, 1] are accepted through the upper-limit
    convention for Phi; the value there is exactly zero.
    """
    if np.any(np.asarray(z) == np.asarray(t)):
        raise ValueError("green_e has a logarithmic pole at z == t")
    pz = zhukovskii_inverse(z)
    pt = zhukovskii_inverse(t)
    out = np.log(np.abs(1.0 - pz * pt) / np.abs(pz - pt))
    return out if np.ndim(out) else float(out)


def green_e_product_form(z, t):
    """Equivalent product form log(|1 - Phi(z) Phi(t)|^2 / (2 |z - t| |Phi(z) Phi(t)|)).

    Must agree with ``green_e`` to working precision; the pair is kept as a
    dual route for the kernel-identity test suite.
    """
    if np.any(np.asarray(z) == np.asarray(t)):
        raise ValueError("green_e has a logarithmic pole at z == t")
    pz = zhukovskii_inverse(z)
    pt = zhukovskii_inverse(t)
    num = np.abs(1.0 - pz * pt) ** 2
    den = 2.0 * np.abs(np.asarray(z, dtype=float) - t) * np.abs(pz * pt)
    out = np.log(num / den)
    return out if np.ndim(out) else float(out)


def green_e_smooth(z, t):
    """Smooth part of g_E in the split g_E(z,t) = smooth(z,t) - log|z - t|.

    From the product form: 2 log|1 - Phi(z) Phi(t)| - log 2 - log|Phi(z) Phi(t)|.
    Finite on the diagonal, which is what the cell-integrated Green potential
    needs.
    """
    pz = zhukovskii_inverse(z)
    pt = zhukovskii_inverse(t)
    out = 2.0 * np.log(np.abs(1.0 - pz * pt)) - LOG2 - np.log(np.abs(pz)) - np.log(np.abs(pt))
    return out if np.ndim(out) else float(out)


def green_e_at_infinity(z):
    """g_E(z, infinity) = log|Phi(z)|; behaves as log|z| + log 2 + o(1) at infinity."""
    out = np.log(np.abs(zhukovskii_inverse(z)))
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

    def value(self, z, t):
        return green_e(self.map_to_unit(z), self.map_to_unit(t))

    def smooth(self, z, t):
        """Smooth part in the split g(z,t) = smooth(z,t) - log|z - t|."""
        out = green_e_smooth(self.map_to_unit(z), self.map_to_unit(t)) - np.log(self.slope)
        return out if np.ndim(out) else float(out)


def green_single_interval(interval: IntervalUnion) -> IntervalGreen:
    if interval.m != 1:
        raise ValueError("closed-form Green function needs a single interval")
    (c, d) = interval.intervals[0]
    return IntervalGreen(c, d)
