"""Type-I Hermite-Pade polynomials for the pair (f1, f2), in high precision.

The pair is f1(z) = (z^2 - 1)^{-1/2} and f2(z) = the Cauchy transform over
[-1, 1] of h against the arcsine weight, where h is itself the Cauchy
transform of a positive measure sigma on a compact F disjoint from [-1, 1].
For order n the polynomials (Q0, Q1, Q2), deg <= n, not all zero, satisfy

    Q0(z) + Q1(z) f1(z) + Q2(z) f2(z) = O(z^{-(2n+2)}),   z -> infinity.

With the Laurent moments a_k of f1 (Chebyshev moments, known exactly) and
b_k of f2, the order condition is a (2n+1) x (2n+2) homogeneous linear
system in (Q1, Q2); row r reads sum_i Q1[i] a_{r+i} + Q2[i] b_{r+i} = 0.
The solver fixes the leading coefficient of Q2 to 1 and runs one LU solve
of the square system left.  When F lies on one side of [-1, 1], (f1, f2) is
a Nikishin system, and Nikishin systems are perfect (Fidalgo Prieto and
Lopez Lagomasino, Constr. Approx. 34, 2011), so deg Q2 = n and all 2n+1
rows are solved ("lu").  When F = -F, sigma is even, so f1 is odd and f2
even: a_k vanishes at odd k and b_k at even k, and moments_f2 returns
those b_k as exact zeros.  Then (Q0(-z), -Q1(-z), Q2(-z)) solves the
condition too, and the solutions split by parity.  With Q1 even and Q2 odd
only the n+1 even rows remain, a square homogeneous system measured to
have only the zero solution.  With Q1 odd and Q2 even the even rows vanish
identically, deg Q2 = 2 floor(n/2), and with that coefficient fixed to 1
the n odd rows form an n-square system ("lu_parity"; at order 0 no row is
left, and Q2 = 1, Q1 = 0).  Open point: no theorem is cited for the
normality of the folded pair, that is, for that system being nonsingular.
In zeta = z^2 it becomes a pair of Cauchy transforms on [0, 1], one through
a Markov function of the one-sided F^2, and whether its weights meet the
cited theorem's hypotheses is not shown.  So every solution passes the same
checks: the system's 1-norm condition number is estimated from the LU
factors (Hager's estimator), all 2n+1 vanishing Laurent coefficients of the
unfolded condition are re-verified, and a singular LU is a precision
failure.  These systems are severely ill-conditioned: log2 cond grows by
about 13 bits per order on F = [2, 3], and once it nears the working
precision the solution degrades although the residual check may still
pass.  The escalation driver therefore doubles the working precision (up
to a cap) until log2 cond stays GATE_MARGIN_BITS below it and the real-zero
count is full.  The orders of one run form a nonempty, strictly increasing
list of nonnegative integers, and the run starts from an integer precision
in [64, MAX_PRECISION_BITS] (require_n_list and require_precision_bits, the
one checks of them, shared with the CLI, as is require_sigma_density for
the name of sigma's density).
One HPSweep per run carries sigma and the precision ladder: it keeps one
moment table per precision and starts each order at the rung predicted from
the previous order's conditioning growth, capped at MAX_PRECISION_BITS.

All moment arithmetic runs at an elevated working precision and is rounded
to the requested precision only at the end; b_k uses the exact recursion

    c_0(t) = f1(t),   c_k(t) = t c_{k-1}(t) - a_{k-1},
    b_k = - sum_j omega_j c_k(t_j)

over the per-component discretization (t_j, omega_j) of sigma, so the
only approximation in b_k is the quadrature of sigma, which is checked by
doubling its order from QUAD_ORDER_START = 64 up to QUAD_ORDER_MAX = 4096.
Both rules share the order's Chebyshev points: Gauss-Chebyshev for the
arcsine density, Fejer's first rule (explicit cosine-sum weights; L. N.
Trefethen, SIAM Rev. 50, 2008) for the constant one.  The points and the
Fejer cosine table take one cosine and sine per order, not one cosine per
node: successive rotations by the order's angle at 32 extra bits, the
second half of the points their negatives; and the arcsine weight takes one
square root per node, since the factor (u - u_c)(u_d - u) of (t - c)(d - t)
cancels against the Gauss weight in closed form.  Fejer needs about one
doubling more than Gauss-Legendre would, but no Newton solve for its nodes.
The rule is placed in the variable u = sqrt(|t| - 1): a rule affine in t
converges only at the rate set by the branch point of f1 at t = +-1, which
needs order 1024 on F = [1.01, 1.5] at 512 bits, while in u the pole of f1
cancels against dt = 2u du and order 256 suffices.  The moment tables are
those of the same rule in mpf arithmetic at 32 extra bits, bit for bit
(checked at 128 to 1024 bits on one- and two-component F, both densities,
and F near E), except where b_k vanishes exactly (the even b_k of a
symmetric sigma): there both return rounding noise, which moments_f2
replaces by exact zeros.

The real zeros of Q2 come from the Aberth-Ehrlich iteration (O. Aberth,
Math. Comp. 27, 1973; D. A. Bini, Numer. Algorithms 13, 1996), simultaneous
Newton with the correction x_k -= r / (1 - r sum_{j != k} 1/(x_k - x_j)),
r = Q2(x_k)/Q2'(x_k), on integers.  It needs no grid, so zeros clustered
at an end of a long F (10 zeros within [1.5064, 31.37] on F = [1.5, 40])
are found as easily as spread ones.  One start, the Chebyshev points of
the hull, climbs a ladder of working precisions, as multiprecision root
finders do (D. A. Bini and G. Fiorentino, Numer. Algorithms 23, 2000):
from 64 bits plus what Horner's rule cancels over the search window,
doubling, to the solve's scale, where 2-4 sweeps remain instead of 7-67
from the Chebyshev points, on the same zeros bit for bit.  A lower rung
that does not settle hands its iterates up, and one that divides by zero
restarts the next from the Chebyshev points; only the last rung can fail.
The result is certified, not trusted: deg Q2 sign changes of Q2 over the
cells between neighbouring zeros prove deg Q2 distinct real zeros, one per
cell.

One number format runs through the layer, from the sigma nodes to the zeros
of Q2: Python integers in fixed point, each value v held as floor(v * 2^P)
at one scale P, so no result depends on mpmath's global precision.  The
sigma rule and the b_k recursion run at
P = precision_bits + k_max log2 max|F| + 64 and round each b_k to
precision_bits once; the moment tables, the order-condition solve, the
condition estimate, the Laurent sums and the zero search run at
P = precision_bits + 32 (SOLVE_GUARD_BITS).  mpmath.libmp (raw values, no
mp.mpf object) serves only the edges: one cosine, sine and pi per
quadrature order, the rounding of the b_k and of the solution coefficients
to precision_bits, and the coefficients' decimal printing.  The condition
number and the zeros leave as Python floats, the zeros correctly rounded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import comb
from operator import mul

from mpmath.libmp import (
    from_float, from_int, from_man_exp, fzero, mpf_cos_sin, mpf_div, mpf_pi,
    round_nearest as RND, to_fixed, to_float, to_str,
)

from .errors import PrecisionDiagnosticWarning, PrecisionError, QuadratureError
from .kernels import IntervalUnion, is_integer, require_gap_to_e

DEFAULT_PRECISION_BITS = 512
MAX_PRECISION_BITS = 4096
# the sigma quadrature doubles from the start order until the moments
# settle, and gives up after the cap
QUAD_ORDER_START = 64
QUAD_ORDER_MAX = 4096


def require_n_list(n_list) -> list:
    """The one check of a list of orders; returns it as a list."""
    ok = isinstance(n_list, (list, tuple)) and all(is_integer(n) and n >= 0 for n in n_list)
    if not ok or not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("orders must form a nonempty, strictly increasing list of "
                         f"nonnegative integers, got {n_list!r}")
    return list(n_list)


def require_precision_bits(bits) -> int:
    """The one check of a run's starting precision; returns it."""
    if not is_integer(bits) or not 64 <= bits <= MAX_PRECISION_BITS:
        raise ValueError(f"precision must be an integer in [64, {MAX_PRECISION_BITS}] bits, "
                         f"got {bits!r}")
    return bits


def require_sigma_density(name) -> str:
    """The one check of the name of a sigma density; returns it."""
    if name not in ("arcsine", "constant"):
        raise ValueError(f"sigma density must be 'arcsine' or 'constant', got {name!r}")
    return name


# --------------------------------------------------------------------------
# sigma specifications


@dataclass(frozen=True)
class MarkovSpec:
    """A unit measure sigma on F with one of two named densities.

    "arcsine" gives each of the m components of F mass 1/m with density
    1/(m pi sqrt((t - c)(d - t))) on [c, d]; "constant" is the density 1/|F|
    over the whole support.
    """

    support: IntervalUnion
    density: str

    def __post_init__(self):
        require_gap_to_e(self.support)
        require_sigma_density(self.density)

    @property
    def rule(self) -> str:
        """The per-component quadrature on the Chebyshev points.

        "chebyshev" (Gauss-Chebyshev) for the arcsine density, whose
        inverse-square-root endpoint factors the rule's weight absorbs;
        "fejer" (Fejer's first rule) for the constant one, smooth up to the
        endpoints.
        """
        return "chebyshev" if self.density == "arcsine" else "fejer"

    def degree_q2(self, n: int) -> int:
        """The degree of Q2 at order n: n, or 2 floor(n/2) when F = -F (see the module docstring)."""
        return n - n % 2 if self.support.is_symmetric() else n


def _fixed(x: float, P: int) -> int:
    """The float x at P fraction bits, exactly."""
    return to_fixed(from_float(x), P)


def _cosines(order: int, P: int):
    """cos(k pi / (2 order)) for k = 0 .. order, at P.

    One cosine and sine of pi / (2 order) at P + 32 bits; each next value
    rotates the previous one by that angle at those bits and is truncated
    to P.
    """
    Q = P + 32
    c1, s1 = (to_fixed(v, Q) for v in
              mpf_cos_sin(mpf_div(mpf_pi(Q, RND), from_int(2 * order), Q, RND), Q, RND))
    c, s = 1 << Q, 0
    out = [1 << P]
    for _ in range(order):
        c, s = (c * c1 - s * s1) >> Q, (s * c1 + c * s1) >> Q
        out.append(c >> 32)
    return out


def _fejer_weights(order: int, P: int):
    """Fejer's first-rule weights on [-1, 1] for the Chebyshev points x_k = cos(theta_k), at P.

    With N = order and theta_k = (2k - 1) pi / (2N),

        w_k = (2/N) (1 - 2 sum_{j=1}^{N//2} cos(2j theta_k) / (4j^2 - 1)),

    and cos(2j theta_k) = cos(m pi / N) for m = j(2k - 1) mod 2N, read from a
    table of :func:`_cosines`.  The weights are positive, symmetric and exact
    for polynomials of degree N - 1.  The sums run at P plus guard bits for
    their N/2 truncations; x_{N+1-k} = -x_k reads the same table entries, so
    each weight is computed once for a mirrored pair.
    """
    N = order
    G = P + N.bit_length()
    cos = _cosines(N, G)
    half = [cos[2 * m] if 2 * m <= N else -cos[2 * (N - m)] for m in range(N + 1)]
    table = half + half[-2:0:-1]  # cos(m pi / N) for m = 0 .. 2N - 1
    ws = []
    for k in range(1, (N + 1) // 2 + 1):
        r = 2 * k - 1
        s = sum(table[j * r % (2 * N)] // (4 * j * j - 1) for j in range(1, N // 2 + 1))
        ws.append(((2 << G) - 4 * s) // N >> (G - P))
    return ws + ws[N // 2 - 1 :: -1]


def _chebyshev_points(order: int, P: int):
    """The Chebyshev points cos((2j - 1) pi / (2 order)), j = 1 .. order, at P.

    The first ceil(order/2) are the odd entries of :func:`_cosines`, and the
    rest mirror them by negation, x_{order+1-j} = -x_j.
    """
    half = _cosines(order, P)[1::2]
    return half + [-x for x in half[: order // 2][::-1]]


def discretize_sigma(spec: MarkovSpec, order: int, P: int):
    """Per-component nodes, weights and f1 values (t_j, omega_j, f1(t_j)) for sigma, at P.

    Each component is mapped by u = sqrt(|t| - 1), t = +-(1 + u^2),
    dt = 2u du, and the rule is placed on [u_c, u_d].  The pole 1/u of
    f1(t) = +-1/(u sqrt(u^2 + 2)) at the branch point then cancels against
    dt, so f1 no longer limits the rule's convergence; f1 is taken in this
    form, with no t^2 - 1 to cancel near the branch point.  Both rules use
    the order's Chebyshev points, from :func:`_chebyshev_points`.  The
    arcsine density takes Gauss-Chebyshev: since
    (t - c)(d - t) = (u - u_c)(u_d - u)(u + u_c)(u + u_d) on either sign of
    component, its arcsine endpoint factor stays an arcsine factor in u,
    which the rule absorbs, and the weight is
    omega = 2u / (order m sqrt((u + u_c)(u + u_d))), with no t - c to cancel
    near the ends; the factor 1/sqrt(u + u_c) is what still slows the rule as
    F nears [-1, 1].  The constant density takes Fejer's first-rule weights.
    Every value is an integer at P fraction bits; the square roots are
    math.isqrt.
    """
    ts, ws, fs = [], [], []
    one = 1 << P
    points = _chebyshev_points(order, P)
    arcsine = spec.density == "arcsine"
    if arcsine:
        scale = order * spec.support.m
    else:
        fejer = _fejer_weights(order, P)
        length = _fixed(spec.support.total_length, P) << P
    for (c, d) in spec.support.intervals:
        sign = 1 if c > 0 else -1
        uc, ud = (math.isqrt((_fixed(x, P) - one) << P) for x in sorted((abs(c), abs(d))))
        mid, half = (uc + ud) >> 1, (ud - uc) >> 1
        for j, x in enumerate(points):
            u = mid + (half * x >> P)
            uu = u * u
            ts.append(sign * ((uu >> P) + one))
            fs.append(sign * ((1 << 3 * P) // (u * math.isqrt(uu + (2 << 2 * P)))))
            if arcsine:
                ws.append((u << P + 1) // (math.isqrt((u + uc) * (u + ud)) * scale))
            else:
                ws.append((fejer[j] * half * u << 1) // length)
    return ts, ws, fs


# --------------------------------------------------------------------------
# moments


# The order-condition solve and the zero search run on integers at
# P = precision_bits + SOLVE_GUARD_BITS fraction bits, and the moment tables
# are handed to them at that scale.  Every entry of the system is a moment of
# a bounded function against the arcsine measure of [-1, 1] (|a_k| <= 1,
# |b_k| <= 1/dist(E, F)), so one scale serves them all, and the solution
# carries about P - log2 cond correct bits.
SOLVE_GUARD_BITS = 32


def _chebyshev_moments(k_max: int, P: int):
    """a_k = binom(k, k/2) / 2^k at even k, 0 at odd k, k = 0 .. k_max, as floor(a_k 2^P)."""
    return [comb(k, k // 2) << P >> k if k % 2 == 0 else 0 for k in range(k_max + 1)]


def moments_f1(k_max: int, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Laurent moments of f1: a_{2j} = binom(2j, j) / 4^j, odd moments zero.

    Integers at P = precision_bits + SOLVE_GUARD_BITS fraction bits, each
    floor(a_k 2^P) exactly.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    return _chebyshev_moments(k_max, precision_bits + SOLVE_GUARD_BITS)


def _fixed_point_bits(k_max: int, support: IntervalUnion, precision_bits: int) -> int:
    """The fraction bits of the b_k recursion: the precision, the growth of t^k over F, 64 more."""
    tmax = max(abs(x) for iv in support.intervals for x in iv)
    return precision_bits + int(k_max * math.log2(tmax)) + 64


def _moments_f2_at_order(k_max, ts, ws, fs, P):
    """The sums -sum_j omega_j c_k(t_j), k = 0 .. k_max, as integers at 2P fraction bits.

    Nodes, weights and the values c_0(t_j) = f1(t_j) are integers at P.
    """
    a = _chebyshev_moments(k_max, P)
    ck = fs
    sums = []
    for k in range(k_max + 1):
        sums.append(-sum(map(mul, ws, ck)))
        ck = [(t * c >> P) - a[k] for t, c in zip(ts, ck)]
    return sums


def moments_f2(k_max: int, sigma: MarkovSpec, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Laurent moments b_k of f2, with quadrature-order doubling until stable.

    The doubling runs from QUAD_ORDER_START.  Successive orders must agree to
    2^(-precision_bits/2) in the sup norm; failure to stabilize within the
    order cap raises, it is never hidden.  Returns (b, order): the moments
    at the accepted quadrature order, each rounded once to precision_bits
    and then floored to an integer at precision_bits + SOLVE_GUARD_BITS
    fraction bits, as moments_f1 returns a_k, and that order.  When F = -F,
    f2 is even and b_k at even k is returned as an exact zero.
    """
    P = _fixed_point_bits(k_max, sigma.support, precision_bits)
    order = QUAD_ORDER_START
    prev = _moments_f2_at_order(k_max, *discretize_sigma(sigma, order, P), P)
    while order < QUAD_ORDER_MAX:
        order *= 2
        cur = _moments_f2_at_order(k_max, *discretize_sigma(sigma, order, P), P)
        scale = max([1 << 2 * P] + [abs(x) for x in cur])
        if max(abs(p - q) for p, q in zip(prev, cur)) <= scale >> precision_bits // 2:
            Q = precision_bits + SOLVE_GUARD_BITS
            b = [to_fixed(from_man_exp(s, -2 * P, precision_bits, RND), Q) for s in cur]
            if sigma.support.is_symmetric():
                b[::2] = [0] * (k_max // 2 + 1)
            return b, order
        prev = cur
    raise QuadratureError(
        f"sigma quadrature did not stabilize to 2^-{precision_bits // 2} "
        f"by order {QUAD_ORDER_MAX}"
    )


# --------------------------------------------------------------------------
# the order-condition solve


@dataclass(frozen=True)
class HPSolution:
    """Type-I solution at order n, Q2 monic, with residual metadata.

    ``q0``, ``q1`` and ``q2`` hold the coefficients in ascending order as
    raw mpf values at ``precision_bits``, ``q1`` and ``q2`` of length n+1.
    ``residual_max`` is the largest of the Laurent coefficients 1..2n+1 of
    Q1 f1 + Q2 f2, which the order condition makes vanish, and
    ``residual_order`` the index of the first coefficient that does not
    vanish at the working precision: 2n+2, or 2n+3 when coefficient 2n+2
    vanishes too.  ``log2_cond`` is log2 of the
    condition number of the system that was solved, and ``method`` names the
    solve: "lu" for all 2n+1 rows with Q2[n] = 1, or "lu_parity" on F = -F,
    where by parity Q1 is odd, Q2 even of degree 2 floor(n/2), the other
    coefficients are exact zeros and the n odd rows are solved; that this
    folded system is nonsingular is measured, not cited, and the residual
    check of the full condition guards it.  :meth:`to_json_dict` gives these
    fields, ``n``, ``precision_bits`` and ``degree_q2``, and the
    coefficients as decimal strings at the working precision.
    """

    n: int
    q0: tuple
    q1: tuple
    q2: tuple
    precision_bits: int
    residual_order: int
    residual_max: float
    degree_q2: int
    log2_cond: float
    method: str

    def to_json_dict(self) -> dict:
        dps = int(self.precision_bits * 0.30103) + 5
        return {
            "n": self.n,
            "precision_bits": self.precision_bits,
            "residual_order": self.residual_order,
            "residual_max": self.residual_max,
            "degree_q2": self.degree_q2,
            "log2_cond": self.log2_cond,
            "method": self.method,
            "q0": [to_str(c, dps) for c in self.q0],
            "q1": [to_str(c, dps) for c in self.q1],
            "q2": [to_str(c, dps) for c in self.q2],
        }


def solve_hp(n: int, a, b, precision_bits: int = DEFAULT_PRECISION_BITS) -> HPSolution:
    """Solve the order condition at order n from moment sequences a, b.

    Moments are integers at P = precision_bits + SOLVE_GUARD_BITS fraction
    bits, as moments_f1 and moments_f2 return them, supplied at least up to
    index 3n+1.  The solve is folded by parity ("lu_parity", see the module
    docstring) when every even b_k is an exact zero, else it takes all 2n+1
    rows ("lu").  A singular system, or re-verified Laurent coefficients
    1..2n+1 that do not vanish to 2^(-precision_bits/4), raise
    PrecisionError: the precision is insufficient.
    """
    if len(a) < 3 * n + 2 or len(b) < 3 * n + 2:
        raise ValueError(f"order {n} needs moments up to index {3 * n + 1}")
    prec = precision_bits
    P = prec + SOLVE_GUARD_BITS
    # step 2 folds by parity: unknowns Q1[1, 3, ..], Q2[0, 2, .., deg - 2],
    # equations the odd rows; step 1 is the full system
    step = 1 if any(b[::2]) else 2
    deg = n - n % step
    p_idx, q_idx = range(step - 1, n + 1, step), range(0, deg, step)
    rows = range(step - 1, 2 * n + 1, step)
    A = [[a[r + i] for i in p_idx] + [b[r + i] for i in q_idx] for r in rows]
    if A:
        LU = [row[:] for row in A]
        try:
            perm = _lu_decomp(LU, P, prec)
        except ZeroDivisionError:
            raise PrecisionError(
                f"order-condition system of order {n} is singular at {prec} bits") from None
        x = _lu_solve(LU, perm, [-b[r + deg] for r in rows], P)
        log2_cond = _log2_cond1(A, LU, perm, P)
    else:  # order 0 on F = -F: no row is left, and Q2 = 1, Q1 = 0 solve it
        x, log2_cond = [], 0.0
    p, q = [0] * (n + 1), [0] * (n + 1)
    p[step - 1 :: step] = x[: len(p_idx)]
    q[:deg:step] = x[len(p_idx) :]
    q[deg] = 1 << P
    return _verified_solution(n, a, b, p, q, deg, prec, P, log2_cond,
                              "lu_parity" if step == 2 else "lu")


# The square solve, on integers at P fraction bits in lists of rows.


def _lu_decomp(A, P, prec):
    """P A = L U in place, unit L below the diagonal; returns the row swaps.

    mpmath's LU_decomp pivot rule: the largest |entry| over the row sum of
    |entries| in the remaining columns, compared by cross-multiplying, the
    first row kept on a tie.  Raises ZeroDivisionError once a row sum or a
    pivot is at most the 1-norm of A times 2^(1 - prec).
    """
    m = len(A)
    tol = max(sum(abs(row[j]) for row in A) for j in range(m)) >> prec - 1
    perm = []
    for j in range(m - 1):
        best = None
        for k in range(j, m):
            s = sum(map(abs, A[k][j:]))
            if s <= tol:
                raise ZeroDivisionError("matrix is numerically singular")
            v = abs(A[k][j])
            if v and (best is None or v * s_best > v_best * s):
                best, v_best, s_best = k, v, s
        if best is None:
            raise ZeroDivisionError("matrix is numerically singular")
        perm.append(best)
        A[j], A[best] = A[best], A[j]
        pivot = A[j]
        d = pivot[j]
        if abs(d) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        tail = pivot[j + 1 :]
        for row in A[j + 1 :]:
            f = row[j] = (row[j] << P) // d
            row[j + 1 :] = [v - (f * w >> P) for v, w in zip(row[j + 1 :], tail)]
    if abs(A[m - 1][m - 1]) <= tol:
        raise ZeroDivisionError("matrix is numerically singular")
    return perm


def _lu_solve(LU, perm, rhs, P):
    """The solution of A x = rhs given P A = L U: forward, then back substitution."""
    x = list(rhs)
    for k, p in enumerate(perm):
        x[k], x[p] = x[p], x[k]
    m = len(x)
    for i in range(1, m):
        x[i] -= sum(map(mul, LU[i][:i], x[:i])) >> P
    for i in range(m - 1, -1, -1):
        row = LU[i]
        x[i] = ((x[i] << P) - sum(map(mul, row[i + 1 :], x[i + 1 :]))) // row[i]
    return x


def _solve_transposed(LU, perm, c, P):
    """Solve A^T x = c given P A = L U."""
    m = len(LU)
    cols = list(zip(*LU))
    w = list(c)
    for i in range(m):  # U^T w = c
        w[i] = ((w[i] << P) - sum(map(mul, cols[i][:i], w[:i]))) // LU[i][i]
    for i in range(m - 1, -1, -1):  # L^T v = w
        w[i] -= sum(map(mul, cols[i][i + 1 :], w[i + 1 :])) >> P
    for k in reversed(range(len(perm))):  # x = P^T v
        w[k], w[perm[k]] = w[perm[k]], w[k]
    return w


def _log2_cond1(A, LU, perm, P) -> float:
    """log2 of the 1-norm condition number of A from its LU factors.

    ||A^-1||_1 comes from Hager's estimator (SIAM J. Sci. Stat. Comput. 5,
    1984) with Higham's extra test vector (ACM TOMS 14, 1988): a few
    triangular solves with A and A^T, never the inverse itself.
    """
    m = len(A)
    one = 1 << P
    norm_a = max(sum(abs(row[j]) for row in A) for j in range(m))
    x = [one // m] * m
    est = 0
    for _ in range(5):
        y = _lu_solve(LU, perm, x, P)
        est_new = sum(map(abs, y))
        if est_new <= est:
            break
        est = est_new
        z = _solve_transposed(LU, perm, [one if v >= 0 else -one for v in y], P)
        az = list(map(abs, z))
        j = az.index(max(az))
        if az[j] <= sum(map(mul, z, x)) >> P:
            break
        x = [0] * m
        x[j] = one
    if m > 1:
        alt = [(-1) ** i * (one + (i << P) // (m - 1)) for i in range(m)]
        est = max(est, 2 * sum(map(abs, _lu_solve(LU, perm, alt, P))) // (3 * m))
    # log2 of the mantissa in [1, 2), a correctly rounded quotient, plus
    # the exact exponent
    v = norm_a * est
    e = v.bit_length() - 1
    return math.log2(v / (1 << e)) + (e - 2 * P)


def _verified_solution(n, a, b, p, q, degree_q2, precision_bits, P, log2_cond, method):
    """Verify the order condition for (p, q), Q2 monic of degree degree_q2, and complete Q0.

    Moments and coefficients are integers at P; each Laurent coefficient is
    an exact sum of their products, at 2P.
    """
    prec = precision_bits

    def laurent(lo):
        # sum_i p_i a_{i-lo} + q_i b_{i-lo} over i >= max(lo, 0)
        i = max(lo, 0)
        return sum(map(mul, p[i:], a[i - lo :])) + sum(map(mul, q[i:], b[i - lo :]))

    # |coefficient of z^-j| of Q1 f1 + Q2 f2, for j = 1..2n+2
    residuals = [abs(laurent(1 - j)) for j in range(1, 2 * n + 3)]
    largest = max(residuals[: 2 * n + 1])
    residual_max = to_float(from_man_exp(largest, -2 * P), rnd=RND)
    tol_vanish = 1 << 2 * P - prec // 4
    if largest > tol_vanish:
        raise PrecisionError(
            f"order condition residual {residual_max:.5g} exceeds "
            f"2^-{prec // 4} at {prec} bits"
        )
    # capped at 2n+3: all computable coefficients vanish
    residual_order = next((j for j, r in enumerate(residuals, start=1) if r > tol_vanish),
                          2 * n + 3)

    # polynomial part of Q1 f1 + Q2 f2 has degree <= n-1; Q0 cancels it
    q0 = [from_man_exp(-laurent(mdeg + 1), -2 * P, prec, RND) for mdeg in range(n)]
    while q0 and q0[-1] == fzero:
        q0.pop()

    def raw(values):
        return tuple(from_man_exp(v, -P, prec, RND) for v in values)

    return HPSolution(
        n=n,
        q0=tuple(q0) or (fzero,),
        q1=raw(p),
        q2=raw(q),
        precision_bits=precision_bits,
        residual_order=residual_order,
        residual_max=residual_max,
        degree_q2=degree_q2,
        log2_cond=log2_cond,
        method=method,
    )


# --------------------------------------------------------------------------
# real zeros of Q2


def zeros_q2(sol: HPSolution, hull):
    """All real zeros of Q2, by Aberth-Ehrlich iteration and a sign-change certificate.

    ``hull`` is the convex hull (lo, hi) of the support of sigma; the search
    window is the hull widened by half its length.  Q2 is taken once to
    integers at P = precision_bits + SOLVE_GUARD_BITS fraction bits.  The
    iteration starts from the Chebyshev points of the hull and climbs a
    ladder of working precisions.  A rung at r bits runs on the
    coefficients and points floored to r + SOLVE_GUARD_BITS fraction bits
    and sweeps until a move falls below 2^(-r/2) times the hull's
    half-width, then once more.  The first rung has 64 bits plus those that
    Horner's rule cancels over the window,
    log2(max|coefficient| / |leading coefficient|) + deg log2 max|window|.
    Below precision_bits a rung gets ``20 + degree`` sweeps: once it
    settles, its iterates go to the last rung, at precision_bits; if not,
    to a rung of twice its bits (at most precision_bits), and after a
    division by zero that rung starts from the Chebyshev points again.  Q2
    is then evaluated at the window's ends and between neighbouring zeros:
    a sign change in every cell proves degree-many distinct real zeros, one
    per cell.  Fewer sign changes, a last rung that does not settle within
    ``20 + 4 * degree`` sweeps, or a division by zero there is a precision
    failure, reported for escalation.  Zeros found outside the hull are
    kept and flagged with a warning.  Returns the zeros in ascending order
    as correctly rounded Python floats.
    """
    deg = sol.degree_q2
    if deg == 0:
        return []
    bits = sol.precision_bits
    P = bits + SOLVE_GUARD_BITS
    coeffs = [to_fixed(c, P) for c in reversed(sol.q2[: deg + 1])]
    ends = [_fixed(x, P) for x in hull]
    half = _fixed((hull[1] - hull[0]) / 2, P)
    lo, hi = ends[0] - half, ends[1] + half
    cancelled = (max(map(abs, coeffs)).bit_length() - abs(coeffs[0]).bit_length()
                 + deg * math.log2(max(abs(lo), abs(hi)) / (1 << P)))
    rung = min(bits, 64 + max(0, int(cancelled)))
    xs = None
    while True:
        shift = bits - rung
        Q = P - shift
        if xs is None:
            xs = [((lo + hi) >> shift + 1) + ((half >> shift) * c >> Q)
                  for c in _chebyshev_points(deg, Q)]
        else:
            xs = [x << xs_shift - shift for x in xs]
        xs_shift = shift
        # measured on the last rung: at most 4 sweeps up to degree 80
        max_sweeps = 20 + (4 if rung == bits else 1) * deg
        scaled = [c >> shift for c in coeffs]
        settled = False
        try:
            for _ in range(max_sweeps):
                moved = _aberth_sweep(scaled, xs, Q)
                if settled:
                    break
                settled = moved < half >> shift >> rung // 2
            else:
                settled = False
        except ZeroDivisionError:
            if rung == bits:
                raise PrecisionError(
                    f"Aberth iteration for degree {deg} divided by zero") from None
            xs, settled = None, False
        if rung == bits:
            break
        rung = bits if settled else min(2 * rung, bits)
    if not settled:
        raise PrecisionError(
            f"Aberth iteration for degree {deg} did not settle in {max_sweeps} sweeps"
        )
    xs.sort()
    cuts = [lo] + [(x + y) >> 1 for x, y in zip(xs, xs[1:])] + [hi]
    values = [_horner(coeffs, c, P)[0] for c in cuts]
    # cell k = [cuts[k], cuts[k+1]] holds the k-th zero, and a sign change
    # there proves a zero of Q2 in it; a cell counts only when its zero
    # lies in the window, which keeps the counted cells disjoint
    found = sum(1 for k, x in enumerate(xs) if lo < x < hi and values[k] * values[k + 1] < 0)
    if found < deg:
        raise PrecisionError(
            f"found {found} real zeros for degree {deg}; escalation required"
        )
    outside = [x for x in xs if not ends[0] <= x <= ends[1]]
    if outside:
        warnings.warn(
            f"{len(outside)} zero(s) outside the hull {hull}: precision diagnostic",
            PrecisionDiagnosticWarning,
        )
    return [x / (1 << P) for x in xs]


def _horner(coeffs, x, P):
    """(Q(x), Q'(x)) for the coefficients of Q in descending order, all integers at P."""
    q, dq = coeffs[0], 0
    for c in coeffs[1:]:
        dq = q + (x * dq >> P)
        q = c + (x * q >> P)
    return q, dq


def _aberth_sweep(coeffs, xs, P):
    """One Gauss-Seidel sweep of x_k -= r / (1 - r sum_{j != k} 1/(x_k - x_j)), r = Q/Q'.

    Coefficients and points are integers at P, each quotient floored.
    Updates ``xs`` in place and returns the largest move.
    """
    moved = 0
    one = 1 << P
    for k, x in enumerate(xs):
        q, dq = _horner(coeffs, x, P)
        r = (q << P) // dq
        s = sum((one << P) // (x - y) for j, y in enumerate(xs) if j != k)
        step = (r << P) // (one - (r * s >> P))
        xs[k] = x - step
        moved = max(moved, abs(step))
    return moved


# --------------------------------------------------------------------------
# escalation driver

# An attempt is accepted only when log2 cond + GATE_MARGIN_BITS <= bits:
# below that margin the residual contract and the zero count can both pass
# while the zeros are already wrong in the leading digits.
GATE_MARGIN_BITS = 32


class HPSweep:
    """Sigma and the precision ladder of one run, shared by its orders.

    The one carrier of sigma for :func:`solve_with_escalation`.  Holds one
    table of moments a_k, b_k up to index 3 * max(n_list) + 1 per
    precision, each computed once and sliced for every order, and the
    conditioning growth rate ``bits_per_order`` = log2 cond / n of the last
    accepted order, which predicts the starting precision of the next.
    ``quad_orders`` maps each precision to the sigma-quadrature order at
    which its moments b_k were accepted.
    """

    def __init__(self, sigma: MarkovSpec, n_list):
        self.sigma = sigma
        self.k_max = 3 * max(n_list, default=0) + 1
        self.bits_per_order = 0.0
        self.quad_orders = {}
        self._tables = {}

    def moments(self, n: int, bits: int):
        """Moments a_k, b_k for k <= 3n+1 at the given precision."""
        if bits not in self._tables:
            a = moments_f1(self.k_max, bits)
            b, self.quad_orders[bits] = moments_f2(self.k_max, self.sigma, bits)
            self._tables[bits] = (a, b)
        a, b = self._tables[bits]
        return a[: 3 * n + 2], b[: 3 * n + 2]

    def start_bits(self, n: int, precision_bits: int) -> int:
        """The smallest rung precision_bits * 2^k predicted to pass the condition gate.

        Never above MAX_PRECISION_BITS, nor below precision_bits.
        """
        bits = precision_bits
        while self.bits_per_order * n + GATE_MARGIN_BITS > bits and 2 * bits <= MAX_PRECISION_BITS:
            bits *= 2
        return bits


def solve_with_escalation(n: int, sweep: HPSweep, precision_bits: int):
    """Moments, solve, condition gate and zeros for order n, doubling the precision until all pass.

    Sigma and the moment tables come from ``sweep``; pass the run's one sweep
    to every order.  ``precision_bits`` is the run's starting precision,
    checked by :func:`require_precision_bits`.  An attempt fails when the
    solve or the zero count raises PrecisionError, or when
    log2 cond + GATE_MARGIN_BITS exceeds its precision.  Attempts start at
    the rung that the sweep predicts from the previous order and double up
    to MAX_PRECISION_BITS.  Returns (solution, zeros); escalation exhaustion
    raises PrecisionError.
    """
    bits = sweep.start_bits(n, require_precision_bits(precision_bits))
    last_exc = None
    while bits <= MAX_PRECISION_BITS:
        try:
            a, b = sweep.moments(n, bits)
            sol = solve_hp(n, a, b, bits)
            if sol.log2_cond + GATE_MARGIN_BITS > bits:
                raise PrecisionError(
                    f"log2 cond {sol.log2_cond:.1f} + {GATE_MARGIN_BITS} exceeds {bits} bits"
                )
            zeros = zeros_q2(sol, sweep.sigma.support.hull)
        except PrecisionError as exc:
            last_exc = exc
            bits *= 2
            continue
        if n > 0:
            sweep.bits_per_order = sol.log2_cond / n
        return sol, zeros
    raise PrecisionError(
        f"escalation exhausted at {MAX_PRECISION_BITS} bits for order {n}: {last_exc}"
    )
