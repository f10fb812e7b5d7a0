"""Type-I Hermite-Pade polynomials for the pair (f1, f2), in high precision.

The pair is f1(z) = (z^2 - 1)^{-1/2} and f2(z) = the Cauchy transform over
[-1, 1] of h against the arcsine weight, where h is itself the Cauchy
transform of a positive measure sigma on a compact F disjoint from [-1, 1].
For order n the polynomials (Q0, Q1, Q2), deg <= n, not all zero, satisfy

    Q0(z) + Q1(z) f1(z) + Q2(z) f2(z) = O(z^{-(2n+2)}),   z -> infinity.

With the Laurent moments a_k of f1 (Chebyshev moments, known exactly) and
b_k of f2, the order condition is a (2n+1) x (2n+2) homogeneous linear
system.  When F lies on one side of [-1, 1], (f1, f2) is a Nikishin system,
and Nikishin systems are perfect (Fidalgo Prieto and Lopez Lagomasino,
Constr. Approx. 34, 2011), so Q2 can be normalized to leading coefficient 1
before solving: the solver runs an LU solve of the remaining (2n+1)-square
system, estimates its 1-norm condition number from the LU factors (Hager's
estimator), and re-verifies the vanishing Laurent coefficients before
returning.  When the normalization fails numerically (a singular square
system, as at odd n on a symmetric F, where deg Q2 = n - 1), it falls back
to the last right-singular direction of the full system.  These systems are
severely ill-conditioned: log2 cond grows by about 13 bits per order on
F = [2, 3], and once it nears the working precision the solution degrades
although the residual check may still pass.  The escalation driver therefore
doubles the working precision (up to a cap) until log2 cond stays
GATE_MARGIN_BITS below it and the real-zero count is full.  Across the orders
of one run an HPSweep keeps one moment table per precision and starts each
order at the precision predicted from the previous order's conditioning
growth.

All moment arithmetic runs at an elevated working precision and is rounded
to the requested precision only at the end; b_k uses the exact recursion

    c_0(t) = f1(t),   c_k(t) = t c_{k-1}(t) - a_{k-1},
    b_k = - sum_j omega_j c_k(t_j)

over the per-component Gauss discretization (t_j, omega_j) of sigma, so the
only approximation in b_k is the quadrature of sigma, which is checked by
order doubling.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from math import comb

import mpmath as mp
import numpy as np

from .errors import PrecisionDiagnosticWarning, PrecisionError, QuadratureError
from .kernels import IntervalUnion
from .measures import DiscreteMeasure

DEFAULT_PRECISION_BITS = 512
MAX_PRECISION_BITS = 4096


# --------------------------------------------------------------------------
# sigma specifications


@dataclass(frozen=True)
class MarkovSpec:
    """A positive measure sigma on F given by a strictly positive density.

    ``rule`` selects the per-component Gauss discretization: "legendre" for a
    density smooth up to the endpoints, "chebyshev" for densities with
    inverse-square-root endpoint factors (the nodes then absorb them).
    """

    support: IntervalUnion
    density: object
    quad_order: int = 64
    rule: str = "legendre"

    def __post_init__(self):
        if self.support.gap_to_unit_interval() <= 0:
            raise ValueError("sigma support must be disjoint from [-1, 1]")
        if self.rule not in ("legendre", "chebyshev"):
            raise ValueError("rule must be 'legendre' or 'chebyshev'")
        if self.quad_order < 4:
            raise ValueError("quadrature order must be at least 4")


def arcsine_sigma(support: IntervalUnion, quad_order: int = 64) -> MarkovSpec:
    """Unit measure with arcsine density on each component (equal masses)."""
    m = support.m
    comps = support.intervals

    def density(t):
        t = mp.mpf(t)
        for (c, d) in comps:
            if c <= t <= d:
                return 1 / (m * mp.pi * mp.sqrt((t - c) * (d - t)))
        raise ValueError(f"{t} is outside the support")

    return MarkovSpec(support=support, density=density, quad_order=quad_order, rule="chebyshev")


def constant_sigma(support: IntervalUnion, quad_order: int = 64) -> MarkovSpec:
    """Unit measure with constant density over the whole support."""
    total = support.total_length

    def density(t):
        return mp.mpf(1) / total

    return MarkovSpec(support=support, density=density, quad_order=quad_order, rule="legendre")


_GL_CACHE = {}


def gauss_legendre(order: int, prec: int):
    """Gauss-Legendre nodes and weights on [-1, 1] at the given binary precision."""
    key = (order, prec)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    with mp.workprec(prec + 32):
        xs, ws = [], []
        seeds = np.polynomial.legendre.leggauss(order)[0]
        for seed in seeds:
            x = mp.mpf(float(seed))
            for _ in range(100):
                p0, p1 = mp.mpf(1), x
                for k in range(2, order + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x = x - dx
                if abs(dx) < mp.mpf(2) ** (-(prec + 16)):
                    break
            p0, p1 = mp.mpf(1), x
            for k in range(2, order + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = order * (x * p1 - p0) / (x * x - 1)
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
    with mp.workprec(prec):
        out = ([+x for x in xs], [+w for w in ws])
    _GL_CACHE[key] = out
    return out


def discretize_sigma(spec: MarkovSpec, order: int, prec: int):
    """Per-component Gauss nodes and weights (t_j, omega_j) for sigma."""
    ts, ws = [], []
    with mp.workprec(prec + 32):
        for (c, d) in spec.support.intervals:
            cm, dm = mp.mpf(c), mp.mpf(d)
            mid, half = (cm + dm) / 2, (dm - cm) / 2
            if spec.rule == "chebyshev":
                for j in range(1, order + 1):
                    th = mp.pi * (2 * j - 1) / (2 * order)
                    t = mid + half * mp.cos(th)
                    # Gauss rule for the weight 1/sqrt((t-c)(d-t)):
                    # omega = (pi/order) * density(t) * sqrt((t-c)(d-t))
                    w = (mp.pi / order) * spec.density(t) * mp.sqrt((t - cm) * (dm - t))
                    ts.append(t)
                    ws.append(w)
            else:
                xs, gw = gauss_legendre(order, prec)
                for x, g in zip(xs, gw):
                    t = mid + half * x
                    ts.append(t)
                    ws.append(g * half * spec.density(t))
    return ts, ws


# --------------------------------------------------------------------------
# moments


def moments_f1(k_max: int, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Laurent moments of f1: a_{2j} = binom(2j, j) / 4^j, odd moments zero.

    Exact in binary floating point as long as the binomial fits the
    precision, which it does by a wide margin at the orders used here.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    with mp.workprec(precision_bits):
        out = [mp.mpf(0)] * (k_max + 1)
        for j in range(0, k_max + 1, 2):
            out[j] = mp.mpf(comb(j, j // 2)) / mp.mpf(4) ** (j // 2)
    return out


def _cauchy_value_f1(t):
    # f1(t) for real |t| > 1 on the exterior branch: sign(t) / sqrt(t^2 - 1)
    return mp.sign(t) / mp.sqrt(t * t - 1)


def _moments_f2_at_order(k_max, ts, ws, precision_bits):
    tmax = max(abs(t) for t in ts)
    pad = int(k_max * mp.log(tmax, 2)) + 64
    with mp.workprec(precision_bits + pad):
        a = moments_f1(k_max, precision_bits + pad)
        ck = [_cauchy_value_f1(t) for t in ts]
        b = [mp.mpf(0)] * (k_max + 1)
        for k in range(k_max + 1):
            s = mp.mpf(0)
            for j, t in enumerate(ts):
                s += ws[j] * ck[j]
                ck[j] = t * ck[j] - a[k]
            b[k] = -s
    with mp.workprec(precision_bits):
        return [+x for x in b]


def moments_f2(k_max: int, sigma: MarkovSpec, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Laurent moments b_k of f2, with quadrature-order doubling until stable.

    Successive orders must agree to 2^(-precision_bits/2) in the sup norm;
    failure to stabilize within the order cap raises, it is never hidden.
    """
    order = sigma.quad_order
    ts, ws = discretize_sigma(sigma, order, precision_bits)
    prev = _moments_f2_at_order(k_max, ts, ws, precision_bits)
    tol = mp.mpf(2) ** (-(precision_bits // 2))
    while order <= 1024:
        order *= 2
        ts, ws = discretize_sigma(sigma, order, precision_bits)
        cur = _moments_f2_at_order(k_max, ts, ws, precision_bits)
        scale = max(mp.mpf(1), max(abs(x) for x in cur))
        delta = max(abs(p - q) for p, q in zip(prev, cur))
        if delta <= tol * scale:
            return cur
        prev = cur
    raise QuadratureError(
        f"sigma quadrature did not stabilize to 2^-{precision_bits // 2} by order 1024"
    )


def moments_f2_from_cauchy(k_max: int, atoms, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Moments of f2 for an explicitly discrete sigma = sum of point masses.

    ``atoms`` is a sequence of (t_j, omega_j) pairs; exact up to rounding,
    used as the closed-form oracle path in tests.
    """
    ts = [mp.mpf(t) for (t, _) in atoms]
    ws = [mp.mpf(w) for (_, w) in atoms]
    return _moments_f2_at_order(k_max, ts, ws, precision_bits)


# --------------------------------------------------------------------------
# the order-condition solve


@dataclass(frozen=True)
class HPSolution:
    """Normalized type-I solution at order n with residual metadata.

    ``residual_order`` is the index of the first Laurent coefficient of the
    combination that fails to vanish at the working precision; the order
    condition demands residual_order >= 2n+2.  ``nullspace_dim`` counts the
    numerically null directions observed (1 for a normal index).
    ``log2_cond`` is log2 of the condition number of the system that was
    solved, and ``method`` names the solve: "lu" for the square system with
    the leading coefficient of Q2 fixed to 1, "svd" for the fallback.
    """

    n: int
    q0: tuple
    q1: tuple
    q2: tuple
    precision_bits: int
    residual_order: int
    residual_max: float
    nullspace_dim: int
    degree_q2: int
    log2_cond: float
    method: str

    def to_json_dict(self) -> dict:
        dps = int(self.precision_bits * 0.30103) + 5
        return {
            "n": self.n,
            "precision_bits": self.precision_bits,
            "residual_order": self.residual_order,
            "residual_max": float(self.residual_max),
            "nullspace_dim": self.nullspace_dim,
            "degree_q2": self.degree_q2,
            "log2_cond": self.log2_cond,
            "method": self.method,
            "q0": [mp.nstr(c, dps) for c in self.q0],
            "q1": [mp.nstr(c, dps) for c in self.q1],
            "q2": [mp.nstr(c, dps) for c in self.q2],
        }

    def save_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def solve_hp(n: int, a, b, precision_bits: int = DEFAULT_PRECISION_BITS) -> HPSolution:
    """Solve the order condition at order n from moment sequences a, b.

    Moments must be supplied at least up to index 3n+1.  The leading
    coefficient of Q2 is fixed to 1 (for F on one side of [-1, 1] the pair
    is a perfect Nikishin system, so Q2 has full degree) and the remaining
    2n+1 coefficients come from an LU solve of the square system.  When the
    LU finds that system singular, or its solution exceeds
    2^(precision_bits/2) (the leading coefficient is numerically zero, as at
    odd n on a symmetric F), the nullspace direction is taken from the SVD
    instead.  If the re-verified Laurent coefficients 1..2n+1 do not vanish
    to 2^(-precision_bits/4), the precision is declared insufficient.
    """
    _check_moments(n, a, b)
    with mp.workprec(precision_bits):
        A, rhs = _square_system(n, a, b)
        try:
            LU, perm = mp.mp.LU_decomp(A)
        except ZeroDivisionError:
            return _solve_hp_svd(n, a, b, precision_bits)
        x = mp.mp.U_solve(LU, mp.mp.L_solve(LU, rhs, perm))
        if max(abs(v) for v in x) > mp.mpf(2) ** (precision_bits // 2):
            return _solve_hp_svd(n, a, b, precision_bits)
        log2_cond = _log2_cond1(A, LU, perm)
        # a condition number this close to the rounding floor leaves a second
        # numerically null direction, as a singular value would in the SVD
        nullspace_dim = 2 if log2_cond > precision_bits - 20 else 1
        p = [x[i] for i in range(n + 1)]
        q = [x[n + 1 + i] for i in range(n)] + [mp.mpf(1)]
        return _normalized_solution(n, a, b, p, q, precision_bits, nullspace_dim, log2_cond, "lu")


def _square_system(n, a, b):
    """The order condition with Q2[n] = 1: unknowns Q1[0..n], Q2[0..n-1]."""
    m = 2 * n + 1
    A = mp.matrix(m, m)
    rhs = mp.matrix(m, 1)
    for r in range(m):
        for i in range(n + 1):
            A[r, i] = a[i + r]
        for i in range(n):
            A[r, n + 1 + i] = b[i + r]
        rhs[r] = -b[n + r]
    return A, rhs


def _check_moments(n, a, b):
    need = 3 * n + 2
    if len(a) < need or len(b) < need:
        raise ValueError(f"order {n} needs moments up to index {3 * n + 1}")


def _solve_hp_svd(n: int, a, b, precision_bits: int = DEFAULT_PRECISION_BITS) -> HPSolution:
    """The order condition solved as the last right-singular vector of the moment matrix.

    The fallback of :func:`solve_hp` and its test oracle.  ``log2_cond`` is
    log2(sigma_max / sigma_min) over the 2n+1 singular values of the
    (2n+1) x (2n+2) moment matrix.
    """
    _check_moments(n, a, b)
    m = 2 * n + 1
    with mp.workprec(precision_bits):
        M = mp.matrix(m, m + 1)
        for r in range(m):
            for i in range(n + 1):
                M[r, i] = a[i + r]
                M[r, n + 1 + i] = b[i + r]
        U, S, V = mp.svd_r(M, full_matrices=True, compute_uv=True)
        sigma_min = S[m - 1]
        sigma_max = S[0]
        log2_cond = float(mp.log(sigma_max / sigma_min, 2)) if sigma_min > 0 else float("inf")
        # singular values this close to the rounding floor are numerically null
        null_floor = sigma_max * mp.mpf(2) ** (-(precision_bits - 20))
        nullspace_dim = 1 + sum(1 for i in range(m) if S[i] < null_floor)
        vec = [V[m, j] for j in range(m + 1)]
        p = vec[: n + 1]
        q = vec[n + 1 :]
        return _normalized_solution(n, a, b, p, q, precision_bits, nullspace_dim, log2_cond, "svd")


def _log2_cond1(A, LU, perm) -> float:
    """log2 of the 1-norm condition number of A from its LU factors.

    ||A^-1||_1 comes from Hager's estimator (SIAM J. Sci. Stat. Comput. 5,
    1984) with Higham's extra test vector (ACM TOMS 14, 1988): a few
    triangular solves with A and A^T, never the inverse itself.
    """
    m = A.rows
    norm_a = max(mp.fsum(abs(A[i, j]) for i in range(m)) for j in range(m))

    def solve(v):
        return mp.mp.U_solve(LU, mp.mp.L_solve(LU, mp.matrix(v), perm))

    x = [mp.mpf(1) / m] * m
    est = mp.mpf(0)
    for _ in range(5):
        y = solve(x)
        est_new = mp.fsum(abs(v) for v in y)
        if est_new <= est:
            break
        est = est_new
        z = _solve_transposed(LU, perm, [1 if v >= 0 else -1 for v in y])
        j = max(range(m), key=lambda i: abs(z[i]))
        if abs(z[j]) <= mp.fsum(zi * xi for zi, xi in zip(z, x)):
            break
        x = [mp.mpf(0)] * m
        x[j] = mp.mpf(1)
    if m > 1:
        alt = [(-1) ** i * (1 + mp.mpf(i) / (m - 1)) for i in range(m)]
        est = max(est, 2 * mp.fsum(abs(v) for v in solve(alt)) / (3 * m))
    return float(mp.log(norm_a * est, 2))


def _solve_transposed(LU, perm, c):
    """Solve A^T x = c given P A = L U in mpmath's packed form (unit L below the diagonal)."""
    m = LU.rows
    w = list(c)
    for i in range(m):  # U^T w = c
        w[i] = (w[i] - mp.fsum(LU[j, i] * w[j] for j in range(i))) / LU[i, i]
    for i in range(m - 1, -1, -1):  # L^T v = w
        w[i] = w[i] - mp.fsum(LU[j, i] * w[j] for j in range(i + 1, m))
    for k in reversed(range(len(perm))):  # x = P^T v
        w[k], w[perm[k]] = w[perm[k]], w[k]
    return w


def _normalized_solution(n, a, b, p, q, precision_bits, nullspace_dim, log2_cond, method):
    """Verify the order condition for (p, q), normalize Q2 and complete Q0."""
    qmax = max(abs(x) for x in q)
    pmax = max(abs(x) for x in p)
    if qmax == 0 and pmax == 0:
        raise PrecisionError("null vector vanished at working precision")
    residuals = []
    for j in range(1, 2 * n + 3):
        s = mp.mpf(0)
        for i in range(n + 1):
            s += p[i] * a[i + j - 1] + q[i] * b[i + j - 1]
        residuals.append(abs(s))
    tol_vanish = mp.mpf(2) ** (-(precision_bits // 4))
    if max(residuals[: 2 * n + 1], default=mp.mpf(0)) > tol_vanish:
        raise PrecisionError(
            f"order condition residual {mp.nstr(max(residuals[:2 * n + 1]), 5)} exceeds "
            f"2^-{precision_bits // 4} at {precision_bits} bits"
        )
    for j, r in enumerate(residuals, start=1):
        if r > tol_vanish:
            residual_order = j
            break
    else:
        residual_order = 2 * n + 3  # capped: all computable coefficients vanish

    deg_tol = qmax * mp.mpf(2) ** (-(precision_bits // 2))
    degree_q2 = max((i for i, x in enumerate(q) if abs(x) > deg_tol), default=-1)
    if degree_q2 < 0:
        raise PrecisionError("Q2 vanished at working precision")
    lead = q[degree_q2]
    p = [x / lead for x in p]
    q = [x / lead for x in q]

    # polynomial part of Q1 f1 + Q2 f2 has degree <= n-1; Q0 cancels it
    q0 = []
    for mdeg in range(n):
        s = mp.mpf(0)
        for i in range(mdeg + 1, n + 1):
            s += p[i] * a[i - mdeg - 1] + q[i] * b[i - mdeg - 1]
        q0.append(-s)
    while q0 and q0[-1] == 0:
        q0.pop()
    if not q0:
        q0 = [mp.mpf(0)]

    resid_norm = []
    for j in range(1, 2 * n + 2):
        s = mp.mpf(0)
        for i in range(n + 1):
            s += p[i] * a[i + j - 1] + q[i] * b[i + j - 1]
        resid_norm.append(abs(s))
    residual_max = max(resid_norm, default=mp.mpf(0))
    if residual_max > tol_vanish:
        raise PrecisionError(
            f"normalized residual {mp.nstr(residual_max, 5)} exceeds 2^-{precision_bits // 4}"
        )

    return HPSolution(
        n=n,
        q0=tuple(q0),
        q1=tuple(p),
        q2=tuple(q),
        precision_bits=precision_bits,
        residual_order=residual_order,
        residual_max=float(residual_max),
        nullspace_dim=nullspace_dim,
        degree_q2=degree_q2,
        log2_cond=log2_cond,
        method=method,
    )


# --------------------------------------------------------------------------
# real zeros of Q2


def _polyval(coeffs_desc, x):
    acc = mp.mpf(0)
    for c in coeffs_desc:
        acc = acc * x + c
    return acc


def zeros_q2(sol: HPSolution, hull=None, *, max_grid_doublings: int = 3):
    """All real zeros of Q2, by sign-change bracketing plus bisection/Newton.

    ``hull`` is the convex hull (lo, hi) of the support of sigma; the search
    window is the hull widened by half its length (or a coefficient-based
    bound when no hull is given).  Zeros found outside the hull are kept and
    flagged with a warning; finding fewer zeros than the degree is a
    precision failure, reported for escalation.
    """
    deg = sol.degree_q2
    with mp.workprec(sol.precision_bits):
        coeffs = list(reversed(sol.q2[: deg + 1]))
        if hull is None:
            bound = 1 + max(abs(c) for c in coeffs)
            lo, hi = -bound, bound
        else:
            width = hull[1] - hull[0]
            lo = mp.mpf(hull[0]) - width / 2
            hi = mp.mpf(hull[1]) + width / 2
        if deg == 0:
            return []

        npts = max(512, 32 * deg)
        roots = []
        prev_count = -1
        for _ in range(max_grid_doublings + 1):
            xs = [lo + (hi - lo) * mp.mpf(i) / npts for i in range(npts + 1)]
            vals = [_polyval(coeffs, x) for x in xs]
            roots = []
            for i in range(npts):
                if vals[i] == 0:
                    roots.append(xs[i])
                elif mp.sign(vals[i]) * mp.sign(vals[i + 1]) < 0:
                    roots.append(_refine_root(coeffs, xs[i], xs[i + 1], vals[i], sol.precision_bits))
            if vals[-1] == 0:
                roots.append(xs[-1])
            if len(roots) >= deg:
                break
            if len(roots) == prev_count:
                # a finer grid found nothing new: missing roots are a
                # precision problem, not a resolution problem
                break
            prev_count = len(roots)
            npts *= 2
        if len(roots) < deg:
            raise PrecisionError(
                f"found {len(roots)} real zeros for degree {deg}; escalation required"
            )
        roots = sorted(roots)
        if hull is not None:
            outside = [r for r in roots if r < hull[0] or r > hull[1]]
            if outside:
                warnings.warn(
                    f"{len(outside)} zero(s) outside the hull {hull}: precision diagnostic",
                    PrecisionDiagnosticWarning,
                )
    return roots


def _refine_root(coeffs, a, b, fa, prec):
    """Safeguarded bisection then Newton inside the bracket [a, b]."""
    dcoeffs = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
    for _ in range(64):
        mid = (a + b) / 2
        fm = _polyval(coeffs, mid)
        if fm == 0:
            return mid
        if mp.sign(fa) * mp.sign(fm) < 0:
            b = mid
        else:
            a, fa = mid, fm
    x = (a + b) / 2
    for _ in range(int(mp.log(prec, 2)) + 3):
        fx = _polyval(coeffs, x)
        dx = _polyval(dcoeffs, x)
        if dx == 0:
            break
        step = fx / dx
        x_new = x - step
        if not (a <= x_new <= b):
            x_new = (a + b) / 2
        if x_new == x:
            break
        x = x_new
    return x


def counting_measure(zeros, n: int) -> DiscreteMeasure:
    """Normalized zero-counting measure: mass 1/n at each zero (as floats)."""
    if not zeros:
        raise ValueError("no zeros to count")
    pos = [float(z) for z in zeros]
    return DiscreteMeasure.atoms(pos, np.full(len(pos), 1.0 / n))


# --------------------------------------------------------------------------
# escalation driver

# An attempt is accepted only when log2 cond + GATE_MARGIN_BITS <= bits:
# below that margin the residual contract and the zero count can both pass
# while the zeros are already wrong in the leading digits.
GATE_MARGIN_BITS = 32


class HPSweep:
    """Work shared by the orders of one run over a fixed sigma and n_list.

    Holds one table of moments a_k, b_k up to index 3 * max(n_list) + 1 per
    precision, each computed once and sliced for every order, and the
    conditioning growth rate ``bits_per_order`` = log2 cond / n of the last
    accepted order, which predicts the starting precision of the next.
    """

    def __init__(self, sigma: MarkovSpec, n_list):
        self.sigma = sigma
        self.k_max = 3 * max(n_list, default=0) + 1
        self.bits_per_order = 0.0
        self._tables = {}

    def moments(self, n: int, bits: int):
        """Moments a_k, b_k for k <= 3n+1 at the given precision."""
        if bits not in self._tables:
            self._tables[bits] = (
                moments_f1(self.k_max, bits),
                moments_f2(self.k_max, self.sigma, bits),
            )
        a, b = self._tables[bits]
        return a[: 3 * n + 2], b[: 3 * n + 2]

    def start_bits(self, n: int, precision_bits: int, max_bits: int) -> int:
        """The smallest rung precision_bits * 2^k predicted to pass the condition gate."""
        bits = precision_bits
        while self.bits_per_order * n + GATE_MARGIN_BITS > bits and 2 * bits <= max_bits:
            bits *= 2
        return bits


def solve_with_escalation(
    n: int,
    sigma: MarkovSpec,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    *,
    max_bits: int = MAX_PRECISION_BITS,
    hull=None,
    sweep: HPSweep | None = None,
):
    """Moments, solve, condition gate and zeros, doubling the precision until all pass.

    An attempt fails when the solve or the zero count raises PrecisionError,
    or when log2 cond + GATE_MARGIN_BITS exceeds its precision.  Attempts
    start at the precision that ``sweep`` predicts from the previous order,
    never below ``precision_bits``.  Pass one ``sweep`` to every order of a
    run to share its moment tables.  Returns (solution, zeros); escalation
    exhaustion raises PrecisionError.
    """
    if sweep is None:
        sweep = HPSweep(sigma, [n])
    elif sweep.sigma is not sigma:
        raise ValueError("sweep was built for a different sigma")
    if hull is None:
        hull = sigma.support.hull
    bits = sweep.start_bits(n, precision_bits, max_bits)
    last_exc = None
    while bits <= max_bits:
        try:
            a, b = sweep.moments(n, bits)
            sol = solve_hp(n, a, b, bits)
            if sol.log2_cond + GATE_MARGIN_BITS > bits:
                raise PrecisionError(
                    f"log2 cond {sol.log2_cond:.1f} + {GATE_MARGIN_BITS} exceeds {bits} bits"
                )
            zeros = zeros_q2(sol, hull=hull)
        except PrecisionError as exc:
            last_exc = exc
            bits *= 2
            continue
        if n > 0:
            sweep.bits_per_order = sol.log2_cond / n
        return sol, zeros
    raise PrecisionError(
        f"escalation exhausted at {max_bits} bits for order {n}: {last_exc}"
    )
