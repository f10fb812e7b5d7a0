"""High-precision Hermite-Pade tests: moments, order condition, real zeros."""

import dataclasses
import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equilab.errors import PrecisionDiagnosticWarning, PrecisionError, QuadratureError
from equilab import hermite_pade
from equilab.hermite_pade import (
    GATE_MARGIN_BITS,
    QUAD_ORDER_MAX,
    QUAD_ORDER_START,
    SOLVE_GUARD_BITS,
    HPSolution,
    HPSweep,
    MarkovSpec,
    moments_f1,
    moments_f2,
    require_sigma_density,
    solve_hp,
    solve_with_escalation,
    zeros_q2,
    _aberth_sweep,
    _chebyshev_points,
    _fejer_weights,
    _fixed_point_bits,
    _log2_cond1,
    _lu_decomp,
    _moments_f2_at_order,
    discretize_sigma,
)
from equilab.kernels import IntervalUnion
from mpmath.libmp import (
    fone, from_float, from_man_exp, fzero, mpf_mul_int, mpf_shift, round_nearest, to_fixed, to_str,
)

F23 = IntervalUnion([(2.0, 3.0)])
SYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
PREC = 256


def _mpf(values):
    """Raw mpf values as mpf objects, for the oracles written in mpf arithmetic."""
    return [mp.make_mpf(v) for v in values]


def _raw(values):
    return [v._mpf_ for v in values]


def _unfixed(values, P):
    """Integers at P fraction bits as raw mpf values, exactly."""
    return [from_man_exp(v, -P) for v in values]


def _rounded(sums, P, bits):
    """The integer kernel's sums at 2P fraction bits, rounded to bits as moments_f2 rounds them."""
    return [from_man_exp(s, -2 * P, bits, round_nearest) for s in sums]


def _tabled(sums, P, bits):
    """The sums rounded by _rounded and floored at the solve's scale, as moments_f2 returns them."""
    return [to_fixed(x, bits + SOLVE_GUARD_BITS) for x in _rounded(sums, P, bits)]


def _table_mpf(values, bits):
    """A moment table or coefficients, integers at the solve's scale for bits, as mpf objects."""
    return _mpf(_unfixed(values, bits + SOLVE_GUARD_BITS))


def _atoms(ts, ws, P):
    """Nodes, weights and f1 values of point masses (mpf values), as integers at P."""
    with mp.workprec(P + 32):
        ts, ws = [mp.mpf(t) for t in ts], [mp.mpf(w) for w in ws]
        fs = [mp.sign(t) / mp.sqrt(t * t - 1) for t in ts]
        return tuple([to_fixed(v._mpf_, P) for v in values] for values in (ts, ws, fs))


class TestMomentsF1:
    def test_first_values(self):
        assert _unfixed(moments_f1(4, PREC), PREC + SOLVE_GUARD_BITS) == _raw(
            mp.mpf(x) for x in (1, 0, 0.5, 0, 0.375))

    def test_gauss_chebyshev_oracle(self):
        # (1/pi) integral of x^k / sqrt(1-x^2) via the exact N-point rule
        with mp.workprec(PREC):
            N = 64
            nodes = [mp.cos(mp.pi * (2 * j - 1) / (2 * N)) for j in range(1, N + 1)]
            for k in (2, 4, 6):
                quad = mp.fsum(x**k for x in nodes) / N
                assert abs(quad - _table_mpf(moments_f1(k, PREC), PREC)[k]) <= mp.mpf(2) ** (-200)

    def test_exact_where_the_binomial_exceeds_the_precision(self):
        # a_k = floor(binom(k, k/2) 2^(P - k)) at P = 64 + 32, also from
        # k = 68, where the binomial no longer fits 64 bits
        assert comb(68, 34) > 2**64
        P = 64 + SOLVE_GUARD_BITS
        a = moments_f1(121, 64)
        assert a[1::2] == [0] * 61
        for k in range(0, 122, 2):
            assert a[k] == math.floor(Fraction(comb(k, k // 2), 2**k) * 2**P), k

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            moments_f1(-1)


class TestMomentsF2:
    def test_point_mass_oracle(self):
        # h(x) = 1/(x - t0): b_0 = -1/sqrt(t0^2 - 1) for t0 > 1
        with mp.workprec(PREC):
            for t0 in (mp.mpf(2), mp.mpf(3), mp.mpf("1.5")):
                P = PREC + 64
                b = _mpf(_rounded(_moments_f2_at_order(0, *_atoms([t0], [1], P), P), P, PREC))
                oracle = -1 / mp.sqrt(t0 * t0 - 1)
                assert abs(b[0] - oracle) <= abs(oracle) * mp.mpf(2) ** (-(PREC - 16))

    def test_point_mass_negative_side(self):
        with mp.workprec(PREC):
            P = PREC + 64
            b = _rounded(_moments_f2_at_order(0, *_atoms([mp.mpf(-2)], [1], P), P), P, PREC)
            assert abs(mp.make_mpf(b[0]) - 1 / mp.sqrt(3)) <= mp.mpf(2) ** (-(PREC - 16))

    def test_sign_for_right_support(self):
        for density in ("arcsine", "constant"):
            b, _ = moments_f2(2, MarkovSpec(F23, density), PREC)
            assert b[0] < 0

    def test_quadrature_doubling_stable(self):
        sigma = MarkovSpec(F23, "arcsine")
        P = _fixed_point_bits(8, F23, PREC)
        b1 = _mpf(_rounded(_moments_f2_at_order(8, *discretize_sigma(sigma, 64, P), P), P, PREC))
        b2 = _mpf(_rounded(_moments_f2_at_order(8, *discretize_sigma(sigma, 128, P), P), P, PREC))
        with mp.workprec(PREC):
            delta = max(abs(p - q) for p, q in zip(b1, b2))
            assert delta <= mp.mpf(2) ** (-(PREC // 2))

    def test_closed_form_oracle_b0(self):
        # the Cauchy transform of the arcsine measure of [2, 3] is, after the
        # affine rescale y = 2x - 5, h(x) = 2 f1(y) = -2/sqrt(y^2 - 1); so
        # b_0 follows from the exact arcsine-weighted quadrature of h
        b_c, _ = moments_f2(3, MarkovSpec(F23, "arcsine"), PREC)
        with mp.workprec(PREC):
            def h(x):
                y = 2 * x - 5
                return 2 * mp.sign(y) / mp.sqrt(y * y - 1)

            N = 256
            nodes = [mp.cos(mp.pi * (2 * j - 1) / (2 * N)) for j in range(1, N + 1)]
            b0 = mp.fsum(h(x) for x in nodes) / N
            assert abs(_table_mpf(b_c, PREC)[0] - b0) <= mp.mpf(10) ** (-40)

        # b_0 = -integral of f1 against sigma; for the arcsine measure of
        # [c, d] (1 < c < d) that is a complete elliptic integral (Byrd and
        # Friedman 256.00): b_0 = -2 K(m) / (pi sqrt((d-1)(c+1))),
        # m = 2(d-c) / ((d-1)(c+1)); f1 is odd, so b_0 flips sign on -F
        for F in ((2.0, 3.0), (1.01, 1.5), (1.001, 1.5), (-1.5, -1.01)):
            b, _ = moments_f2(0, MarkovSpec(IntervalUnion([F]), "arcsine"), PREC)
            with mp.workprec(PREC):
                c, d = sorted(abs(mp.mpf(x)) for x in F)
                m = 2 * (d - c) / ((d - 1) * (c + 1))
                b0 = -mp.sign(F[0]) * 2 * mp.ellipk(m) / (mp.pi * mp.sqrt((d - 1) * (c + 1)))
                assert abs(_table_mpf(b, PREC)[0] - b0) <= mp.mpf(10) ** (-40)


def _mpf_moments_oracle(k_max, ts, ws, precision_bits):
    """The b_k recursion in mpf arithmetic at precision P: the integer kernel's reference."""
    ts, ws = _mpf(ts), _mpf(ws)
    tmax = max(abs(t) for t in ts)
    pad = int(k_max * mp.log(tmax, 2)) + 64
    with mp.workprec(precision_bits + pad):
        a = [mp.ldexp(comb(k, k // 2), -k) if k % 2 == 0 else mp.mpf(0) for k in range(k_max + 1)]
        ck = [mp.sign(t) / mp.sqrt(t * t - 1) for t in ts]
        b = [mp.mpf(0)] * (k_max + 1)
        for k in range(k_max + 1):
            s = mp.mpf(0)
            for j, t in enumerate(ts):
                s += ws[j] * ck[j]
                ck[j] = t * ck[j] - a[k]
            b[k] = -s
    with mp.workprec(precision_bits):
        return [(+x)._mpf_ for x in b]


class TestIntegerKernel:
    @pytest.mark.parametrize("bits", [128, 512, 1024])
    @pytest.mark.parametrize("support", [F23, IntervalUnion([(1.01, 1.5)]), SYM])
    def test_equals_mpf_recursion(self, support, bits):
        P = _fixed_point_bits(31, support, bits)
        ts, ws, fs = discretize_sigma(MarkovSpec(support, "arcsine"), 64, P)
        fixed = _rounded(_moments_f2_at_order(31, ts, ws, fs, P), P, bits)
        oracle = _mpf_moments_oracle(31, _unfixed(ts, P), _unfixed(ws, P), bits)
        if support is not SYM:
            assert fixed == oracle
            return
        # on a symmetric F the even b_k vanish exactly; both recursions
        # return rounding noise there, which need not agree bit for bit
        assert fixed[1::2] == oracle[1::2]
        with mp.workprec(bits):
            assert max(abs(x) for x in _mpf(fixed[::2] + oracle[::2])) <= mp.mpf(2) ** (-bits)

    @pytest.mark.parametrize("density", ["arcsine", "constant"])
    def test_symmetric_sigma_even_moments_exact_zeros(self, density):
        # F = -F: moments_f2 returns the even b_k as exact zeros and the odd
        # ones as the recursion computes them; a nearly symmetric F keeps
        # every b_k as computed
        def kernel(spec, order):
            P = _fixed_point_bits(31, spec.support, PREC)
            return _tabled(_moments_f2_at_order(31, *discretize_sigma(spec, order, P), P), P, PREC)

        spec = MarkovSpec(SYM, density)
        b, order = moments_f2(31, spec, PREC)
        assert b[::2] == [0] * 16
        assert b[1::2] == kernel(spec, order)[1::2]
        near = MarkovSpec(IntervalUnion([(-3.0, -2.0), (2.0, 3.0 + 1e-13)]), density)
        b_near, order = moments_f2(31, near, PREC)
        assert b_near == kernel(near, order)
        assert 0 not in b_near[::2]

    def test_cauchy_atoms_share_the_kernel(self):
        ts, ws = [mp.mpf(-2), mp.mpf("1.5")], [mp.mpf("0.25"), mp.mpf("0.75")]
        P = PREC + 64
        fixed = _rounded(_moments_f2_at_order(9, *_atoms(ts, ws, P), P), P, PREC)
        assert fixed == _mpf_moments_oracle(9, _raw(ts), _raw(ws), PREC)


class TestSigmaQuadratureConvergence:
    def test_near_branch_point_accepted_by_order_256(self):
        # the substitution u = sqrt(|t| - 1) makes the integrand analytic at
        # t = 1; a rule affine in t needed order 1024 here
        _, order = moments_f2(31, MarkovSpec(IntervalUnion([(1.01, 1.5)]), "arcsine"), 512)
        assert order <= 256

    def test_very_near_branch_point_converges(self):
        # the rule affine in t raised QuadratureError here after order 2048
        _, order = moments_f2(31, MarkovSpec(IntervalUnion([(1.0001, 1.5)]), "arcsine"), 512)
        assert order <= 1024

    def test_unsettled_moments_raise_at_the_cap(self, monkeypatch):
        # moments that change at every order: the doubling must try every
        # order up to the cap and name the cap in its error
        orders = []

        def discretize(spec, order, P):
            orders.append(order)
            return [2 << P] * order, [1 << P] * order, [1 << P] * order

        def unsettled(k_max, ts, ws, fs, P):
            return [len(ts) << 2 * P] * (k_max + 1)

        monkeypatch.setattr(hermite_pade, "discretize_sigma", discretize)
        monkeypatch.setattr(hermite_pade, "_moments_f2_at_order", unsettled)
        with pytest.raises(QuadratureError, match=f"by order {QUAD_ORDER_MAX}$"):
            moments_f2(3, MarkovSpec(F23, "constant"), PREC)
        assert orders[0] == QUAD_ORDER_START
        assert orders[1:] == [2 * o for o in orders[:-1]]
        assert max(orders) == QUAD_ORDER_MAX == 4096


def _gauss_legendre_all_nodes(order, prec):
    """Gauss-Legendre nodes and weights by Newton's method on every node: the Fejer rule's oracle."""
    with mp.workprec(prec + 32):
        xs, ws = [], []
        for seed in np.polynomial.legendre.leggauss(order)[0]:
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
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
    return xs, ws


def _mpf_density(spec, t):
    """The density of sigma at t, in mpf arithmetic at the working precision."""
    if spec.density == "constant":
        return 1 / mp.mpf(spec.support.total_length)
    c, d = next((c, d) for (c, d) in spec.support.intervals if c <= t <= d)
    return 1 / (spec.support.m * mp.pi * mp.sqrt((t - c) * (d - t)))


def _gauss_legendre_sigma(spec, order, prec):
    """discretize_sigma with the Gauss-Legendre rule in u = sqrt(|t| - 1) on each component."""
    xs, gw = _gauss_legendre_all_nodes(order, prec)
    ts, ws = [], []
    with mp.workprec(prec + 32):
        for (c, d) in spec.support.intervals:
            sign = 1 if c > 0 else -1
            uc, ud = sorted(mp.sqrt(abs(mp.mpf(x)) - 1) for x in (c, d))
            mid, half = (uc + ud) / 2, (ud - uc) / 2
            for x, g in zip(xs, gw):
                u = mid + half * x
                t = sign * (1 + u * u)
                ts.append(t._mpf_)
                ws.append((g * half * _mpf_density(spec, t) * 2 * u)._mpf_)
    return ts, ws


def _mpf_chebyshev_points(order, prec):
    """_chebyshev_points in mpf arithmetic: one cos_sin at prec + 32 bits, rotations, mirror."""
    half = []
    with mp.workprec(prec + 32):
        c, s = mp.cos_sin(mp.pi / (2 * order))
        c2, s2 = c * c - s * s, 2 * (c * s)
        for j in range((order + 1) // 2):
            if j:
                c, s = c * c2 - s * s2, s * c2 + c * s2
            with mp.workprec(prec):
                half.append(+c)
        return half + [-x for x in half[: order // 2][::-1]]


def _mpf_fejer_weights(order, prec):
    """Fejer's first-rule weights by their cosine sums in mpf arithmetic at prec."""
    N = order
    with mp.workprec(prec):
        table = [mp.cos(mp.pi * m / N) for m in range(2 * N)]
        return [2 * (1 - 2 * mp.fsum(table[j * (2 * k - 1) % (2 * N)] / (4 * j * j - 1)
                                     for j in range(1, N // 2 + 1))) / N
                for k in range(1, N + 1)]


def _fixed_rule(oracle, bits):
    """A discretize_sigma of integers at P from an mpf rule oracle run at bits + 32.

    The f1 values are sign(t) / sqrt(t^2 - 1) of the oracle's nodes, at P.
    """
    def rule(spec, order, P):
        ts, ws = oracle(spec, order, bits)
        return _atoms(_mpf(ts), _mpf(ws), P)

    return rule


def _mpf_rule_oracle(spec, order, prec):
    """The loop of discretize_sigma in mpf arithmetic at prec + 32, on the rotated Chebyshev points.

    The rule in the mpf format that the integer rule replaced: every node
    and weight an mpf value at prec + 32 bits.
    """
    ts, ws = [], []
    points = _mpf_chebyshev_points(order, prec + 32)
    with mp.workprec(prec + 32):
        if spec.rule == "fejer":
            fejer = _mpf_fejer_weights(order, prec + 32)
        for (c, d) in spec.support.intervals:
            sign = 1 if c > 0 else -1
            uc, ud = sorted(mp.sqrt(abs(mp.mpf(x)) - 1) for x in (c, d))
            mid, half = (uc + ud) / 2, (ud - uc) / 2
            for j, x in enumerate(points):
                u = mid + half * x
                t = sign * (1 + u * u)
                if spec.rule == "fejer":
                    w = fejer[j] * half * _mpf_density(spec, t) * 2 * u
                else:
                    w = 2 * u / (order * spec.support.m * mp.sqrt((u + uc) * (u + ud)))
                ts.append(t._mpf_)
                ws.append(w._mpf_)
    return ts, ws


def _mpf_cosine_rule_oracle(spec, order, prec):
    """The earlier rule in mpf arithmetic: one cosine per node and component, and for
    the arcsine density the weight (pi/order) density(t) sqrt((u - u_c)(u_d - u)) 2u."""
    ts, ws = [], []
    with mp.workprec(prec + 32):
        if spec.rule == "fejer":
            fejer = _mpf_fejer_weights(order, prec + 32)
        for (c, d) in spec.support.intervals:
            sign = 1 if c > 0 else -1
            cm, dm = mp.mpf(c), mp.mpf(d)
            uc, ud = sorted(mp.sqrt(abs(x) - 1) for x in (cm, dm))
            mid, half = (uc + ud) / 2, (ud - uc) / 2
            for j in range(1, order + 1):
                th = mp.pi * (2 * j - 1) / (2 * order)
                u = mid + half * mp.cos(th)
                t = sign * (1 + u * u)
                density = _mpf_density(spec, t)
                if spec.rule == "fejer":
                    w = fejer[j - 1] * half * density * 2 * u
                else:
                    w = (mp.pi / order) * density * mp.sqrt((u - uc) * (ud - u)) * 2 * u
                ts.append(t._mpf_)
                ws.append(w._mpf_)
    return ts, ws


class TestFejerRule:
    @pytest.mark.parametrize("order", [16, 17, 64])
    def test_weights_symmetric_and_positive(self, order):
        ws = _fejer_weights(order, PREC)
        assert len(ws) == order
        assert ws == ws[::-1]
        assert min(ws) > 0
        with mp.workprec(PREC):
            for w, oracle in zip(_mpf(_unfixed(ws, PREC)), _mpf_fejer_weights(order, PREC + 16)):
                assert abs(w - oracle) <= mp.mpf(2) ** (-(PREC - 4))

    def test_nodes_symmetric(self):
        # the shared Chebyshev points sit mirrored about the midpoint of [u_c, u_d]
        ts, _, _ = discretize_sigma(MarkovSpec(F23, "constant"), 8, 128)
        with mp.workprec(128):
            us = [mp.sqrt(abs(t) - 1) for t in _mpf(_unfixed(ts, 128))]
            uc, ud = sorted(mp.sqrt(abs(mp.mpf(x)) - 1) for x in F23.intervals[0])
            assert len(us) == 8
            for a, b in zip(us, us[::-1]):
                assert abs((a + b) - (uc + ud)) <= mp.mpf(2) ** (-100)

    @pytest.mark.parametrize("order", [16, 17, 64])
    def test_polynomial_exactness(self, order):
        ws = _mpf(_unfixed(_fejer_weights(order, PREC), PREC))
        with mp.workprec(PREC):
            xs = [mp.cos(mp.pi * (2 * j - 1) / (2 * order)) for j in range(1, order + 1)]
            assert abs(mp.fsum(ws) - 2) <= mp.mpf(2) ** (-(PREC - 8))
            for deg in range(order):
                exact = mp.mpf(2) / (deg + 1) if deg % 2 == 0 else 0
                quad = mp.fsum(w * x**deg for x, w in zip(xs, ws))
                assert abs(quad - exact) <= mp.mpf(2) ** (-(PREC - 16)), deg

    @pytest.mark.parametrize("F", [(2.0, 3.0), (1.01, 1.5), (-1.5, -1.01)])
    def test_constant_sigma_closed_form(self, F):
        # sigma = dt / (d - c): b_0 = -integral of f1, b_1 = -integral of
        # t f1(t) - 1; on -F, b_k picks up the factor (-1)^(k+1)
        b, _ = moments_f2(1, MarkovSpec(IntervalUnion([F]), "constant"), PREC)
        b = _table_mpf(b, PREC)
        with mp.workprec(PREC):
            c, d = sorted(abs(mp.mpf(x)) for x in F)
            b0 = -(mp.acosh(d) - mp.acosh(c)) / (d - c)
            b1 = -((mp.sqrt(d * d - 1) - d) - (mp.sqrt(c * c - 1) - c)) / (d - c)
            assert abs(b[0] - mp.sign(F[0]) * b0) <= mp.mpf(10) ** (-40)
            assert abs(b[1] - b1) <= mp.mpf(10) ** (-40)

    @pytest.mark.parametrize("F", [(2.0, 3.0), (1.01, 1.5)])
    def test_constant_sigma_agrees_with_gauss_legendre(self, F):
        bits, k_max = 512, 31
        sigma = MarkovSpec(IntervalUnion([F]), "constant")
        b, _ = moments_f2(k_max, sigma, bits)
        ts, ws = _gauss_legendre_sigma(sigma, 128, bits)
        b, oracle = _table_mpf(b, bits), _mpf(_mpf_moments_oracle(k_max, ts, ws, bits))
        with mp.workprec(bits):
            scale = max(mp.mpf(1), max(abs(x) for x in oracle))
            delta = max(abs(p - q) for p, q in zip(b, oracle))
            assert delta <= mp.mpf(2) ** (-(bits // 2)) * scale

    @pytest.mark.parametrize("support", [F23, IntervalUnion([(1.01, 1.5)]), SYM])
    def test_arcsine_rule_unchanged(self, monkeypatch, support):
        # the integer rule's moment tables are the mpf rule's, bit for bit
        _assert_moments_of_the_mpf_rule(monkeypatch, MarkovSpec(support, "arcsine"), 512)

    @pytest.mark.parametrize("support", [F23, IntervalUnion([(-1.5, -1.01)]), SYM])
    def test_fejer_rule_bit_for_bit(self, monkeypatch, support):
        _assert_moments_of_the_mpf_rule(monkeypatch, MarkovSpec(support, "constant"), 256)

    @pytest.mark.parametrize("density", ["arcsine", "constant"])
    @pytest.mark.parametrize("support, bits", [
        (F23, 128), (F23, 1024), (SYM, 128), (SYM, 1024),
        (IntervalUnion([(1.01, 1.5)]), 1024), (IntervalUnion([(1.001, 1.5)]), 128),
        (IntervalUnion([(-1.5, -1.001)]), 512), (IntervalUnion([(-2.0, -1.01), (1.01, 2.0)]), 512),
    ])
    def test_integer_rule_moments_equal_mpf_rule(self, monkeypatch, support, bits, density):
        # 128 to 1024 bits, one and two components, both densities, F near E
        _assert_moments_of_the_mpf_rule(monkeypatch, MarkovSpec(support, density), bits)

    @pytest.mark.parametrize("density", ["arcsine", "constant"])
    @pytest.mark.parametrize("support, bits", [(F23, 128), (F23, 256),
                                               (IntervalUnion([(1.01, 1.5)]), 512), (SYM, 512)])
    def test_moments_unchanged_from_the_cosine_rule(self, monkeypatch, support, bits, density):
        # the rotated points and the one-root arcsine weight move the nodes
        # and weights by rounding only, below the guard bits: moments_f2
        # returns the tables of the one-cosine-per-node rule bit for bit
        sigma, k_max = MarkovSpec(support, density), 3 * 10 + 1
        new = moments_f2(k_max, sigma, bits)
        monkeypatch.setattr(hermite_pade, "discretize_sigma", _fixed_rule(_mpf_cosine_rule_oracle, bits))
        assert new == moments_f2(k_max, sigma, bits)


def _assert_moments_of_the_mpf_rule(monkeypatch, sigma, bits, k_max=3 * 10 + 1):
    """moments_f2 on the integer rule equals moments_f2 on the mpf rule, order and table.

    The even b_k of a symmetric sigma are exact zeros on both sides, set by
    moments_f2; every other entry keeps its bits.
    """
    new = moments_f2(k_max, sigma, bits)
    with monkeypatch.context() as m:
        m.setattr(hermite_pade, "discretize_sigma", _fixed_rule(_mpf_rule_oracle, bits))
        assert new == moments_f2(k_max, sigma, bits)


@pytest.fixture(scope="module")
def moments():
    k = 3 * 6 + 1
    return moments_f1(k, PREC), moments_f2(k, MarkovSpec(F23, "arcsine"), PREC)[0]


@pytest.fixture(scope="module")
def sol5():
    k = 3 * 5 + 1
    a = moments_f1(k, PREC)
    b, _ = moments_f2(k, MarkovSpec(F23, "arcsine"), PREC)
    return solve_hp(5, a, b, PREC)


class TestSolveHP:
    def test_order_zero_closed_form(self, moments):
        a, b = moments
        sol = solve_hp(0, a, b, PREC)
        assert sol.q2 == (fone,)
        assert sol.q0 == (fzero,)
        with mp.workprec(PREC):
            assert abs(mp.make_mpf(sol.q1[0]) + _table_mpf(b, PREC)[0]) <= mp.mpf(2) ** (-200)
        assert sol.residual_order == 2

    def test_residual_contract(self, moments):
        a, b = moments
        for n in (2, 5):
            sol = solve_hp(n, a, b, PREC)
            assert sol.residual_max <= 2.0 ** (-(PREC // 4))
            assert sol.residual_order >= 2 * n + 2
            assert sol.degree_q2 == n

    def test_insufficient_moments(self, moments):
        a, b = moments
        with pytest.raises(ValueError):
            solve_hp(10, a, b, PREC)

    def test_scale_invariance(self, moments):
        a, b = moments
        a3 = [3 * x for x in a]
        b3 = [3 * x for x in b]
        s1 = solve_hp(3, a, b, PREC)
        s3 = solve_hp(3, a3, b3, PREC)
        with mp.workprec(PREC):
            for x, y in zip(_mpf(s1.q1), _mpf(s3.q1)):
                assert abs(x - y) <= mp.mpf(2) ** (-180)
            for x, y in zip(_mpf(s1.q2), _mpf(s3.q2)):
                assert abs(x - y) <= mp.mpf(2) ** (-180)
            for x, y in zip(_mpf(s1.q0), _mpf(s3.q0)):
                assert abs(3 * x - y) <= mp.mpf(2) ** (-180)

    def test_precision_monotonicity(self, moments):
        # once the vanishing threshold resolves the first genuine Laurent
        # coefficient, the verified order stays put under more precision
        k = 3 * 4 + 1
        sig = MarkovSpec(F23, "arcsine")
        orders = []
        for bits in (256, 512, 1024):
            a = moments_f1(k, bits)
            b, _ = moments_f2(k, sig, bits)
            orders.append(solve_hp(4, a, b, bits).residual_order)
        assert orders[0] <= orders[1] <= orders[2]
        assert orders[0] == 2 * 4 + 2

    def test_json_roundtrip(self, moments):
        a, b = moments
        sol = solve_hp(2, a, b, PREC)
        data = json.loads(json.dumps(sol.to_json_dict(), allow_nan=False))
        assert data["n"] == 2
        assert data["degree_q2"] == 2
        assert data["q2"][-1] == "1.0"
        assert data["method"] == "lu"
        assert data["log2_cond"] == sol.log2_cond > 0


def _assert_matches_svd_oracle(sol, a, b):
    q0, q1, q2, degree, _ = _svd_oracle(sol.n, a, b, sol.precision_bits)
    assert sol.degree_q2 == degree
    with mp.workprec(sol.precision_bits):
        for ours, oracle in ((sol.q0, q0), (sol.q1, q1), (sol.q2, q2)):
            for x, y in zip(_mpf(ours), oracle):
                assert abs(x - y) <= mp.mpf(2) ** (-(sol.precision_bits // 4))


class TestSquareSolve:
    @pytest.mark.parametrize("density", ["arcsine", "constant"], ids=lambda d: f"{d}_sigma")
    def test_lu_matches_svd_oracle(self, density):
        k = 3 * 10 + 1
        a = moments_f1(k, PREC)
        b, _ = moments_f2(k, MarkovSpec(F23, density), PREC)
        for n in (2, 5, 10):
            lu = solve_hp(n, a, b, PREC)
            assert (lu.method, lu.degree_q2) == ("lu", n)
            _assert_matches_svd_oracle(lu, a, b)

    def test_singular_system_is_a_precision_failure(self):
        # at 64 bits the n = 8 system on [2, 3] is numerically singular; the
        # SVD null vector there has log2 cond about 70, beyond the precision
        a = moments_f1(3 * 8 + 1, 64)
        b, _ = moments_f2(3 * 8 + 1, MarkovSpec(F23, "arcsine"), 64)
        with pytest.raises(PrecisionError, match="singular"):
            solve_hp(8, a, b, 64)
        assert _svd_oracle(8, a, b, 64)[4] > 64

    def test_condition_estimate_matches_singular_values(self):
        bits = 512
        k = 3 * 20 + 1
        a = moments_f1(k, bits)
        b, _ = moments_f2(k, MarkovSpec(F23, "arcsine"), bits)
        with mp.workprec(bits):
            for n in (5, 10, 20):
                A, _, _ = _square_system_oracle(n, a, b, bits)
                S = mp.svd_r(A, compute_uv=False)
                exact = float(mp.log(S[0] / S[A.rows - 1], 2))
                rows, LU, perm, P = _fixed_lu(A, bits)
                assert abs(_log2_cond1(rows, LU, perm, P) - exact) <= 2.0
                assert abs(solve_hp(n, a, b, bits).log2_cond - exact) <= 2.0

    @pytest.mark.parametrize("density", ["arcsine", "constant"])
    def test_symmetric_support_folds_by_parity(self, density):
        # sigma symmetric about 0: Q1 is odd and Q2 even of degree
        # 2 floor(n/2), from the n odd rows; the coefficients outside that
        # parity are exact zeros, and the unfolded condition holds in full
        k = 3 * 6 + 1
        a = moments_f1(k, PREC)
        b, _ = moments_f2(k, MarkovSpec(SYM, density), PREC)
        for n in range(7):
            sol = solve_hp(n, a, b, PREC)
            assert (sol.method, sol.degree_q2) == ("lu_parity", n - n % 2)
            assert sol.q1[::2] == (fzero,) * (n // 2 + 1)
            assert sol.q2[1::2] == (fzero,) * ((n + 1) // 2)
            assert sol.q2[n - n % 2] == fone
            assert sol.residual_max <= 2.0 ** (-(PREC // 4))
            assert sol.residual_order >= 2 * n + 2
            if n >= 3:
                _assert_matches_svd_oracle(sol, a, b)

    def test_symmetric_orders_zero_and_one_have_no_zeros(self):
        # Q2 = 1 at both orders: order 0 leaves no row to solve, order 1 one
        k = 3 * 1 + 1
        a = moments_f1(k, PREC)
        b, _ = moments_f2(k, MarkovSpec(SYM, "arcsine"), PREC)
        zero, one = solve_hp(0, a, b, PREC), solve_hp(1, a, b, PREC)
        assert (zero.q0, zero.q1, zero.q2, zero.log2_cond) == ((fzero,), (fzero,), (fone,), 0.0)
        assert (one.q2, one.degree_q2) == ((fone, fzero), 0)
        for sol in (zero, one):
            assert zeros_q2(sol, SYM.hull) == []
        for n in (0, 1):
            sol, zeros = solve_with_escalation(n, HPSweep(MarkovSpec(SYM, "arcsine"), [n]), 128)
            assert (sol.precision_bits, zeros) == (128, [])


# The mp.matrix routes that the integer solve replaced, kept as its value
# oracles: the SVD null vector of the full order condition; mp.LU_decomp,
# mp.L_solve and mp.U_solve, the Hager estimate, the transposed solve and the
# Laurent sums in mpf arithmetic.  The zeros of Q2 have mp.polyroots as
# theirs.  The oracles take the moment tables as moments_f1 and moments_f2
# return them, integers at the solve's scale.


def _moment_matrix(n, a, b, bits):
    """The (2n+1) x (2n+2) order-condition matrix on (Q1[0..n], Q2[0..n]), as an mp.matrix."""
    a, b = _table_mpf(a, bits), _table_mpf(b, bits)
    return mp.matrix([a[r : r + n + 1] + b[r : r + n + 1] for r in range(2 * n + 1)])


def _svd_oracle(n, a, b, bits):
    """(Q0, Q1, Q2, deg Q2, log2 cond) from the last right-singular vector of the moment matrix.

    Q2 is made monic at its numerical degree, the last coefficient above
    2^(-bits/2) times the largest; the coefficients are mpf values at bits,
    and log2 cond is log2(sigma_max / sigma_min) over the 2n+1 singular values.
    """
    m = 2 * n + 1
    with mp.workprec(bits):
        _, S, V = mp.svd_r(_moment_matrix(n, a, b, bits), full_matrices=True, compute_uv=True)
        vec = [V[m, j] for j in range(m + 1)]
        tol = max(abs(x) for x in vec[n + 1 :]) * mp.mpf(2) ** (-(bits // 2))
        degree = max(i for i, x in enumerate(vec[n + 1 :]) if abs(x) > tol)
        lead = vec[n + 1 + degree]
        q1, q2 = [x / lead for x in vec[: n + 1]], [x / lead for x in vec[n + 1 :]]
        _, q0 = _laurent_oracle(n, _table_mpf(a, bits), _table_mpf(b, bits), q1, q2)
        return q0, q1, q2, degree, float(mp.log(S[0] / S[m - 1], 2))


def _square_system_oracle(n, a, b, bits):
    """The square system that solve_hp solves, as an mp.matrix, its right-hand side and columns.

    The columns index Q1[0..n] followed by Q2[0..n].  When every even b_k is
    zero the system is the odd rows in Q1 odd and Q2 even with
    Q2[2 floor(n/2)] = 1, else all rows with Q2[n] = 1.
    """
    M = _moment_matrix(n, a, b, bits)
    if not any(b[::2]):
        lead = n + 1 + n - n % 2
        rows = range(1, 2 * n, 2)
        cols = [*range(1, n + 1, 2), *range(n + 1, lead, 2)]
    else:
        lead = 2 * n + 1
        rows, cols = range(2 * n + 1), range(2 * n + 1)
    A = mp.matrix([[M[r, c] for c in cols] for r in rows])
    return A, mp.matrix([-M[r, lead] for r in rows]), list(cols)


def _solve_transposed_oracle(LU, perm, c):
    m = LU.rows
    w = list(c)
    for i in range(m):  # U^T w = c
        w[i] = (w[i] - mp.fsum(LU[j, i] * w[j] for j in range(i))) / LU[i, i]
    for i in range(m - 1, -1, -1):  # L^T v = w
        w[i] = w[i] - mp.fsum(LU[j, i] * w[j] for j in range(i + 1, m))
    for k in reversed(range(len(perm))):  # x = P^T v
        w[k], w[perm[k]] = w[perm[k]], w[k]
    return w


def _log2_cond1_oracle(A, LU, perm):
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
        z = _solve_transposed_oracle(LU, perm, [1 if v >= 0 else -1 for v in y])
        j = max(range(m), key=lambda i: abs(z[i]))
        if abs(z[j]) <= mp.fsum(zi * xi for zi, xi in zip(z, x)):
            break
        x = [mp.mpf(0)] * m
        x[j] = mp.mpf(1)
    if m > 1:
        alt = [(-1) ** i * (1 + mp.mpf(i) / (m - 1)) for i in range(m)]
        est = max(est, 2 * mp.fsum(abs(v) for v in solve(alt)) / (3 * m))
    return float(mp.log(norm_a * est, 2))


def _laurent_oracle(n, a, b, p, q):
    """Residuals 1..2n+2 and Q0 of the pair (p, q), in mpf arithmetic."""
    residuals = []
    for j in range(1, 2 * n + 3):
        s = mp.mpf(0)
        for i in range(n + 1):
            s += p[i] * a[i + j - 1] + q[i] * b[i + j - 1]
        residuals.append(abs(s))
    q0 = []
    for mdeg in range(n):
        s = mp.mpf(0)
        for i in range(mdeg + 1, n + 1):
            s += p[i] * a[i - mdeg - 1] + q[i] * b[i - mdeg - 1]
        q0.append(-s)
    while q0 and q0[-1] == 0:
        q0.pop()
    return residuals, q0 or [mp.mpf(0)]


def _fixed_lu(A, bits):
    """The rows of an mp.matrix as integers at bits + 32, and their factors from _lu_decomp."""
    P = bits + hermite_pade.SOLVE_GUARD_BITS
    rows = [[to_fixed(A[i, j]._mpf_, P) for j in range(A.cols)] for i in range(A.rows)]
    LU = [row[:] for row in rows]
    return rows, LU, _lu_decomp(LU, P, bits), P


F_NEAR = IntervalUnion([(1.01, 1.5)])


class TestRawSolveMatchesMpmath:
    """The integer solve against the mp.matrix route it replaced, by value.

    The pivot order and the singularity test are mpmath's; the solution
    agrees within the bits that the conditioning leaves, bits - log2 cond,
    and so does log2 cond.  The zeros of Q2 are checked by value too:
    zeros_q2 iterates on integers at bits + 32 fraction bits, and its last
    iterates lie within its own stopping tolerance, 2^-(bits/2) times the
    half-width of the hull, of mp.polyroots' roots of the same Q2 at
    bits + 32, started from its float zeros; those zeros are the roots
    rounded to float, bit for bit.  A Q2 solved past its bits is a
    precision failure instead.
    """

    @pytest.mark.parametrize("support, n, bits, singular", [
        pytest.param(F23, 5, 128, False, id="f23-n5-b128"),
        pytest.param(F23, 10, 256, False, id="f23-n10-b256"),
        pytest.param(F23, 20, 512, False, id="f23-n20-b512"),
        pytest.param(F23, 40, 1024, False, id="f23-n40-b1024"),
        pytest.param(F23, 20, 128, True, id="f23-n20-b128"),
        pytest.param(F_NEAR, 5, 1024, False, id="near-n5-b1024"),
        pytest.param(F_NEAR, 10, 128, False, id="near-n10-b128"),
        pytest.param(F_NEAR, 20, 256, False, id="near-n20-b256"),
        pytest.param(SYM, 5, 128, False, id="sym-n5-b128"),
        pytest.param(SYM, 5, 1024, False, id="sym-n5-b1024"),
        pytest.param(SYM, 10, 512, False, id="sym-n10-b512"),
        pytest.param(SYM, 20, 128, False, id="sym-n20-b128"),
    ])
    def test_lu_condition_and_zeros_bit_for_bit(self, monkeypatch, support, n, bits, singular):
        # singular: a system that is numerically singular at this precision;
        # on the symmetric F the system is the folded one
        a = moments_f1(3 * n + 1, bits)
        b, _ = moments_f2(3 * n + 1, MarkovSpec(support, "arcsine"), bits)
        with mp.workprec(bits):
            A, rhs, cols = _square_system_oracle(n, a, b, bits)
            if singular:
                with pytest.raises(ZeroDivisionError):
                    mp.mp.LU_decomp(A)
                with pytest.raises(ZeroDivisionError):
                    _fixed_lu(A, bits)
                with pytest.raises(PrecisionError, match="singular"):
                    solve_hp(n, a, b, bits)
                return
            LU, perm = mp.mp.LU_decomp(A)
            x = mp.mp.U_solve(LU, mp.mp.L_solve(LU, rhs, perm))
            log2_cond = _log2_cond1_oracle(A, LU, perm)
        assert _fixed_lu(A, bits)[2] == perm

        sol = solve_hp(n, a, b, bits)
        assert sol.method == ("lu_parity" if support is SYM else "lu")
        # the estimate's relative error grows like 2^(log2 cond - bits) on
        # either side; sym-n20-b128 solves at log2 cond 136, past its bits
        assert abs(sol.log2_cond - log2_cond) <= 1e-9 + 2.0 ** (log2_cond + 8 - bits)
        with mp.workprec(bits):
            ours = _mpf((sol.q1 + sol.q2)[c] for c in cols)
            scale = max(abs(v) for v in x)
            assert max(abs(u - v) for u, v in zip(ours, x)) <= scale * mp.mpf(2) ** (log2_cond + 12 - bits)
            residuals, q0 = _laurent_oracle(n, _table_mpf(a, bits), _table_mpf(b, bits),
                                            _mpf(sol.q1), _mpf(sol.q2))
            scale = max(abs(v) for v in _mpf(sol.q1 + sol.q2))
            for u, v in zip(_mpf(sol.q0), q0):
                assert abs(u - v) <= scale * mp.mpf(2) ** (16 - bits)
            assert max(residuals[: 2 * n + 1]) <= scale * mp.mpf(2) ** (16 - bits)
        assert sol.residual_max <= 2.0 ** (16 - bits) * float(scale)

        if sol.log2_cond > bits:
            # past its bits Q2 is not resolved, and the iteration does not
            # settle: a precision failure, which escalates
            with pytest.raises(PrecisionError, match="did not settle"):
                zeros_q2(sol, support.hull)
            return
        # the last rung of zeros_q2 iterates on one list, which it sorts in
        # place at the end
        iterates = []
        original = hermite_pade._aberth_sweep

        def recording(coeffs, xs, P):
            iterates[:] = [xs]
            return original(coeffs, xs, P)

        monkeypatch.setattr(hermite_pade, "_aberth_sweep", recording)
        zeros = zeros_q2(sol, support.hull)
        deg = sol.degree_q2
        lo, hi = support.hull
        with mp.workprec(bits + 32):
            # Durand-Kerner from the float zeros, on mpf values of Q2 at bits + 32
            roots = mp.polyroots(list(reversed(_mpf(sol.q2[: deg + 1]))), maxsteps=50,
                                 extraprec=bits, roots_init=zeros)
            roots = sorted(mp.re(r) for r in roots)
            xs = _mpf(_unfixed(iterates[0], bits + SOLVE_GUARD_BITS))
            tol = mp.ldexp(mp.mpf(hi - lo) / 2, -(bits // 2))
            assert len(xs) == deg
            assert max(abs(x - r) for x, r in zip(xs, roots)) <= tol
        assert zeros == [float(r) for r in roots]


class TestLog2Cond1MatchesMpmath:
    """log2 of the condition number against mp.log(x, 2), at any global precision."""

    @pytest.mark.parametrize("global_prec", [12, 53, 2000])
    @pytest.mark.parametrize("bits", [64, 128, 512, 4096])
    def test_bit_for_bit_at_any_global_precision(self, bits, global_prec):
        # diag(x, 1) with x >= 1 has cond_1 = x, and Hager's estimate finds
        # it exactly, so the result is log2(x), for x of full precision in
        # [1, 2^(bits - 4)), below where the LU calls the system singular;
        # the integer route reads no global precision, and its log2 is
        # within a few units in the last place of mp.log(x, 2)
        rng = random.Random(bits)
        saved = mp.mp.prec
        P = bits + hermite_pade.SOLVE_GUARD_BITS
        for _ in range(100):
            man = rng.getrandbits(bits) | 1 << (bits - 1)
            x = from_man_exp(man, rng.randrange(bits - 4) - bits + 1)
            A = [[to_fixed(x, P), 0], [0, 1 << P]]
            LU = [row[:] for row in A]
            perm = _lu_decomp(LU, P, bits)
            with mp.workprec(bits):
                expected = float(mp.log(mp.make_mpf(x), 2))
            mp.mp.prec = global_prec
            try:
                got = _log2_cond1(A, LU, perm, P)
            finally:
                mp.mp.prec = saved
            assert abs(got - expected) <= 1e-15 + 4 * math.ulp(expected), to_str(x, 30)


class TestSweepTables:
    def test_table_does_not_depend_on_the_sweep_history(self):
        # constant sigma on [2, 3]: the 1024-bit table of a sweep that
        # computed the 512-bit one first is the 1024-bit table computed alone
        sigma = MarkovSpec(F23, "constant")
        sweep = HPSweep(sigma, [20])
        sweep.moments(20, 512)
        _, b = sweep.moments(20, 1024)
        assert sweep.quad_orders == {512: 256, 1024: 256}
        assert (b, 256) == moments_f2(sweep.k_max, sigma, 1024)


class TestConditionGate:
    def test_order_ten_never_accepted_at_128_bits(self, monkeypatch):
        # at 128 bits the n = 10 LU solve passes the residual contract and
        # the zero count, but log2 cond is about 131.6: its zeros are wrong
        sigma = MarkovSpec(F23, "arcsine")
        with monkeypatch.context() as m:
            m.setattr(hermite_pade, "MAX_PRECISION_BITS", 128)
            with pytest.raises(PrecisionError, match="log2 cond"):
                solve_with_escalation(10, HPSweep(sigma, [10]), 128)
        sol, zeros = solve_with_escalation(10, HPSweep(sigma, [10]), 128)
        assert sol.precision_bits == 256
        assert sol.log2_cond + GATE_MARGIN_BITS <= sol.precision_bits
        assert len(zeros) == 10

    def test_prediction_and_one_moment_table_per_rung(self, monkeypatch):
        calls = []
        original = hermite_pade.moments_f2

        def counting(k_max, sigma, precision_bits=hermite_pade.DEFAULT_PRECISION_BITS):
            calls.append((k_max, precision_bits))
            return original(k_max, sigma, precision_bits)

        monkeypatch.setattr(hermite_pade, "moments_f2", counting)
        sigma = MarkovSpec(F23, "arcsine")
        n_list = [3, 6, 10]
        sweep = HPSweep(sigma, n_list)
        bits = {}
        for n in n_list:
            sol, zeros = solve_with_escalation(n, sweep, 128)
            assert len(zeros) == n
            bits[n] = sol.precision_bits
        # n = 10 starts at 256 bits from the rate measured at n = 6
        assert bits == {3: 128, 6: 128, 10: 256}
        assert calls == [(31, 128), (31, 256)]
        assert sweep.quad_orders == {128: 128, 256: 128}
        assert sweep.bits_per_order == pytest.approx(sol.log2_cond / 10)


def _solution_with_roots(roots, bits):
    """A synthetic HPSolution whose Q2 is the monic polynomial with these roots."""
    with mp.workprec(bits):
        q = [mp.mpc(1)]  # ascending coefficients, times (x - r) per root
        for r in roots:
            r = mp.mpc(r)
            q = [-r * q[0]] + [q[i - 1] - r * q[i] for i in range(1, len(q))] + [q[-1]]
        q2 = tuple(c.real._mpf_ for c in q)
    deg = len(roots)
    return HPSolution(n=deg, q0=(fzero,), q1=(fzero,) * (deg + 1), q2=q2,
                      precision_bits=bits, residual_order=2 * deg + 2, residual_max=0.0,
                      degree_q2=deg, log2_cond=0.0, method="lu")


class TestZeros:
    def test_clustered_zeros_all_found(self):
        roots = ["2.000001", "2.00001", "2.0001", "2.5", "2.9"]
        # each zero is within 2^-150 of its root, so it rounds to the root's float
        zeros = zeros_q2(_solution_with_roots(roots, 192), hull=(2.0, 3.0))
        assert zeros == [float(r) for r in roots]

    def test_complex_pair_is_a_precision_failure(self):
        sol = _solution_with_roots([2.2, mp.mpc(2.5, 0.1), mp.mpc(2.5, -0.1), 2.8], 192)
        with pytest.raises(PrecisionError):
            zeros_q2(sol, hull=(2.0, 3.0))

    def test_zero_outside_hull_is_kept_and_flagged(self):
        with pytest.warns(PrecisionDiagnosticWarning, match="1 zero"):
            zeros = zeros_q2(_solution_with_roots([2.2, 2.6, 3.3], 192), hull=(2.0, 3.0))
        assert [round(z, 12) for z in zeros] == [2.2, 2.6, 3.3]

    def test_long_f_all_zeros_at_start_precision(self, tmp_path):
        # Q2 on a long F clusters its zeros at the left end, 1.5064 at order 10
        from equilab.cli import run

        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"problem": {"f_intervals": [[1.5, 40.0]]},
                                 "hp": {"n_list": [5, 10], "precision_bits": 512}}))
        out = tmp_path / "o"
        assert run(["verify-prop2", "--config", str(p), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())["reports"][0]
        assert rep["provenance"]["effective_precision_bits"] == {"5": 512, "10": 512}

    def test_order_one_single_zero(self):
        k = 4
        a = moments_f1(k, PREC)
        b, _ = moments_f2(k, MarkovSpec(F23, "arcsine"), PREC)
        sol = solve_hp(1, a, b, PREC)
        zeros = zeros_q2(sol, hull=(2.0, 3.0))
        assert len(zeros) == 1
        assert 2.0 <= zeros[0] <= 3.0

    def test_zero_count_and_hull(self, sol5):
        zeros = zeros_q2(sol5, hull=(2.0, 3.0))
        assert len(zeros) == 5
        assert all(2.0 <= z <= 3.0 for z in zeros)

    def test_zeros_are_roots(self, sol5):
        # the zeros are mpmath's roots of Q2, rounded to floats
        zeros = zeros_q2(sol5, hull=(2.0, 3.0))
        with mp.workprec(PREC):
            roots = mp.polyroots(list(reversed(_mpf(sol5.q2))), maxsteps=100, extraprec=PREC)
        assert zeros == sorted(float(mp.re(r)) for r in roots)

    def test_scale_invariance_of_zeros(self, sol5):
        q2_scaled = tuple(mpf_mul_int(c, 5, PREC, round_nearest) for c in sol5.q2)
        scaled = HPSolution(
            n=sol5.n,
            q0=sol5.q0,
            q1=sol5.q1,
            q2=q2_scaled,
            precision_bits=sol5.precision_bits,
            residual_order=sol5.residual_order,
            residual_max=sol5.residual_max,
            degree_q2=sol5.degree_q2,
            log2_cond=sol5.log2_cond,
            method=sol5.method,
        )
        assert zeros_q2(scaled, hull=(2.0, 3.0)) == zeros_q2(sol5, hull=(2.0, 3.0))


@functools.lru_cache(maxsize=None)
def _arcsine_solution(intervals, n, bits):
    """solve_hp at order n on the arcsine sigma of the intervals, at bits."""
    k = 3 * n + 1
    sigma = MarkovSpec(IntervalUnion(list(intervals)), "arcsine")
    return solve_hp(n, moments_f1(k, bits), moments_f2(k, sigma, bits)[0], bits)


def _zeros_and_sweeps(monkeypatch, sol, hull):
    """zeros_q2 with its Aberth sweeps counted per working scale, in the order the scales were first swept."""
    sweeps = {}
    original = hermite_pade._aberth_sweep

    def counting(coeffs, xs, P):
        sweeps[P] = sweeps.get(P, 0) + 1
        return original(coeffs, xs, P)

    with monkeypatch.context() as m:
        m.setattr(hermite_pade, "_aberth_sweep", counting)
        zeros = zeros_q2(sol, hull)
    return zeros, sweeps


def _full_precision_zeros(sol, hull):
    """Reference zeros of Q2: the Aberth iteration at bits + SOLVE_GUARD_BITS alone.

    It starts from the Chebyshev points of the hull, with no lower rung, and
    stops as the last rung of zeros_q2 does: once a move falls below
    2^(-bits/2) times the hull's half-width, after one more sweep.  The
    iterates leave sorted and rounded to float.
    """
    deg, bits = sol.degree_q2, sol.precision_bits
    P = bits + SOLVE_GUARD_BITS
    coeffs = [to_fixed(c, P) for c in reversed(sol.q2[: deg + 1])]
    lo, hi = (to_fixed(from_float(x), P) for x in hull)
    half = to_fixed(from_float((hull[1] - hull[0]) / 2), P)
    xs = [((lo + hi) >> 1) + (half * c >> P) for c in _chebyshev_points(deg, P)]
    settled = False
    for _ in range(20 + 4 * deg):
        moved = _aberth_sweep(coeffs, xs, P)
        if settled:
            return sorted(x / (1 << P) for x in xs)
        settled = moved < half >> bits // 2
    raise AssertionError("the full-precision iteration did not settle")


PM23 = ((-3.0, -2.0), (2.0, 3.0))


class TestAberthLadder:
    """zeros_q2 climbs a ladder of working precisions and lands on the full-precision zeros."""

    @pytest.mark.parametrize("intervals, n, bits", [
        (((2.0, 3.0),), 5, 512),
        (((2.0, 3.0),), 10, 512),
        (((2.0, 3.0),), 20, 512),
        (((2.0, 3.0),), 40, 1024),
        (((1.01, 1.5),), 10, 512),
        (((1.01, 1.5),), 20, 512),
        (PM23, 10, 512),
        (PM23, 20, 512),
        (((1.5, 40.0),), 10, 512),
        (PM23, 40, 512),
        (((1.5, 40.0),), 20, 512),
        (((1.01, 1.5),), 40, 512),
    ])
    def test_zeros_equal_the_full_precision_iteration(self, monkeypatch, intervals, n, bits):
        # the same zeros bit for bit, with at most 4 sweeps at the full
        # precision; from the Chebyshev points alone that takes 7-41
        sol = _arcsine_solution(intervals, n, bits)
        hull = IntervalUnion(list(intervals)).hull
        zeros, sweeps = _zeros_and_sweeps(monkeypatch, sol, hull)
        assert len(zeros) == sol.degree_q2
        assert zeros == _full_precision_zeros(sol, hull)
        assert 1 <= sweeps[bits + SOLVE_GUARD_BITS] <= 4
        assert min(sweeps) < bits + SOLVE_GUARD_BITS

    def test_scaled_q2_climbs_the_same_rungs(self, monkeypatch, sol5):
        # Q2 times 2^1100, whose values are far beyond float64's range:
        # the first rung is set by the coefficients relative to the leading
        # one, so the scaled Q2 climbs the rungs of Q2 itself
        scaled = dataclasses.replace(sol5, q2=tuple(mpf_shift(c, 1100) for c in sol5.q2))
        zeros, sweeps = _zeros_and_sweeps(monkeypatch, scaled, (2.0, 3.0))
        assert len(zeros) == 5
        assert zeros == _full_precision_zeros(scaled, (2.0, 3.0))
        assert list(sweeps) == list(_zeros_and_sweeps(monkeypatch, sol5, (2.0, 3.0))[1])
        assert 1 <= sweeps[PREC + SOLVE_GUARD_BITS] <= 4

    def test_division_by_zero_below_the_last_rung_restarts_the_next(self, monkeypatch, sol5):
        # a lower rung that divides by zero raises nothing: the next rung,
        # of twice its bits, starts again from the Chebyshev points
        calls = []
        original = hermite_pade._aberth_sweep

        def failing_once(coeffs, xs, P):
            calls.append((P, [x / (1 << P) for x in xs]))
            if len(calls) == 1:
                xs[0] += 1 << P - 3  # a half-done sweep, which the restart drops
                raise ZeroDivisionError
            return original(coeffs, xs, P)

        with monkeypatch.context() as m:
            m.setattr(hermite_pade, "_aberth_sweep", failing_once)
            zeros = zeros_q2(sol5, (2.0, 3.0))
        assert zeros == _full_precision_zeros(sol5, (2.0, 3.0))
        (first, start), (second, restart) = calls[:2]
        assert second - SOLVE_GUARD_BITS == 2 * (first - SOLVE_GUARD_BITS)
        assert second < PREC + SOLVE_GUARD_BITS
        assert restart == start == pytest.approx(
            [2.5 + 0.5 * math.cos((2 * j - 1) * math.pi / 10) for j in range(1, 6)], abs=1e-15)

    def test_unsettled_lower_rung_still_certifies_every_zero(self, monkeypatch):
        # on [1.5, 40] at n = 20 the first rung spends its 20 + deg sweeps
        # without settling; its iterates go up a rung, and no PrecisionError
        # reaches the caller
        sol = _arcsine_solution(((1.5, 40.0),), 20, 512)
        zeros, sweeps = _zeros_and_sweeps(monkeypatch, sol, (1.5, 40.0))
        first = min(sweeps)
        assert first < 512 + SOLVE_GUARD_BITS
        assert sweeps[first] == 20 + sol.degree_q2
        assert len(zeros) == 20
        assert zeros == _full_precision_zeros(sol, (1.5, 40.0))

    @settings(max_examples=60, deadline=None)
    @given(gap=st.floats(1e-3, 2.0), length=st.floats(0.05, 40.0), n=st.integers(1, 12))
    def test_one_sided_f_property(self, gap, length, n):
        # F = [1 + gap, 1 + gap + length] at 256 bits, where the solve
        # passes the condition gate: the ladder certifies the reference zeros
        sol = _arcsine_solution(((1.0 + gap, 1.0 + gap + length),), n, 256)
        assume(sol.log2_cond + GATE_MARGIN_BITS <= 256)
        hull = (1.0 + gap, 1.0 + gap + length)
        zeros = zeros_q2(sol, hull)
        assert len(zeros) == n
        assert zeros == _full_precision_zeros(sol, hull)


class TestConstantDensityPreset:
    def test_hull_containment(self):
        sol, zeros = solve_with_escalation(8, HPSweep(MarkovSpec(F23, "constant"), [8]), PREC)
        assert len(zeros) == 8
        assert all(2.0 <= z <= 3.0 for z in zeros)
        assert sol.degree_q2 == 8


class TestEscalation:
    def test_escalates_to_full_zero_count(self, monkeypatch):
        # at 64 bits even small orders are precision-starved; the driver
        # must climb until the zero count matches the degree
        monkeypatch.setattr(hermite_pade, "MAX_PRECISION_BITS", 1024)
        sol, zeros = solve_with_escalation(4, HPSweep(MarkovSpec(F23, "arcsine"), [4]), 64)
        assert len(zeros) == 4
        assert sol.degree_q2 == 4

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(hermite_pade, "MAX_PRECISION_BITS", 64)
        with pytest.raises(PrecisionError):
            solve_with_escalation(12, HPSweep(MarkovSpec(F23, "arcsine"), [12]), 64)


class TestMarkovSpec:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MarkovSpec(IntervalUnion([(0.5, 2.0)]), "arcsine")

    def test_bad_rule_rejected(self):
        # the density's name selects its rule; require_sigma_density is its one check
        assert [MarkovSpec(F23, d).rule for d in ("arcsine", "constant")] == ["chebyshev", "fejer"]
        for name in ("uniform", "Arcsine", ["arcsine"], None):
            with pytest.raises(ValueError, match="'arcsine' or 'constant'"):
                require_sigma_density(name)
            with pytest.raises(ValueError, match="'arcsine' or 'constant'"):
                MarkovSpec(F23, name)

    def test_preset_masses(self):
        with mp.workprec(PREC):
            for density in ("arcsine", "constant"):
                _, ws, _ = discretize_sigma(MarkovSpec(F23, density), 64, PREC)
                assert abs(mp.fsum(_mpf(_unfixed(ws, PREC))) - 1) <= mp.mpf(2) ** (-100)
            _, ws, _ = discretize_sigma(MarkovSpec(SYM, "arcsine"), 32, PREC)
            assert abs(mp.fsum(_mpf(_unfixed(ws, PREC))) - 1) <= mp.mpf(2) ** (-100)


def test_import_leaves_measures_unloaded():
    # the HP layer hands its zeros on as Python floats; the float layer is
    # the verifiers' to import
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, equilab.hermite_pade; print('equilab.measures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False"
