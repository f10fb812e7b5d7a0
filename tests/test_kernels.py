"""Kernel-level tests: branch conventions, the split kernels, Green function identities."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zhukovskii_inverse
from equilab.kernels import (
    MIN_GAP,
    IntervalUnion,
    green_e_at_infinity,
    green_e_smooth,
    green_single_interval,
    require_gap_to_e,
    scalar_kernel_smooth,
    sheet0_smooth,
    _phi_real,
)
from equilab.measures import make_grid

RNG = np.random.default_rng(20240801)


def scalar_kernel(s, t):
    """The sheet-1 kernel over real s != t outside E, from its live split."""
    return scalar_kernel_smooth(s, t) - 2.0 * np.log(np.abs(np.asarray(s, dtype=float) - t))


def green_e(z, t):
    """g_E(z, t) for real z != t, from its live split."""
    return green_e_smooth(z, t) - np.log(np.abs(np.asarray(z, dtype=float) - t))


def mp_phi(x):
    """Phi at a real double x in mpmath: the upper-half-plane limit on E."""
    x = mp.mpf(float(x))
    if abs(x) <= 1:
        return mp.mpc(x, mp.sqrt(1 - x * x))
    return x + mp.sign(x) * mp.sqrt(x * x - 1)


def random_outside_e(rng, size):
    """Real points outside [-1, 1], both sides, log-spread magnitudes."""
    mag = 10.0 ** rng.uniform(np.log10(1.0 + 1e-6), 3.0, size=size)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return sign * mag


class TestZhukovskiiInverse:
    def test_branch_point(self):
        assert zhukovskii_inverse(1.0) == pytest.approx(1.0)

    def test_rational_point(self):
        # (25/16 - 1)^(1/2) = 3/4, so Phi(5/4) = 2 exactly
        assert zhukovskii_inverse(1.25) == pytest.approx(2.0, abs=1e-15)

    def test_on_e_upper_limit(self):
        val = zhukovskii_inverse(0.0)
        assert val == pytest.approx(1j)
        assert abs(val) == pytest.approx(1.0, abs=1e-15)

    def test_negative_branch(self):
        # branch continuity: Phi(-5/4) = -2
        assert zhukovskii_inverse(-1.25) == pytest.approx(-2.0, abs=1e-14)

    def test_modulus_at_least_one(self):
        z = RNG.standard_normal(10_000) + 1j * RNG.standard_normal(10_000)
        assert np.all(np.abs(zhukovskii_inverse(z)) >= 1.0 - 1e-14)

    def test_modulus_one_on_e(self):
        x = RNG.uniform(-1.0, 1.0, size=10_000)
        assert np.max(np.abs(np.abs(zhukovskii_inverse(x)) - 1.0)) <= 1e-12

    def test_asymptotic_ratio(self):
        for z in (1e3, 1e6, -1e4, 1e5 * 1j):
            assert zhukovskii_inverse(z) / z == pytest.approx(2.0, rel=1e-5)


class TestScalarKernel:
    def test_value_oracle(self):
        with mp.workprec(200):
            oracle = float(mp.log((2 + mp.sqrt(3)) * (3 + 2 * mp.sqrt(2)) - 1))
        assert scalar_kernel(2.0, 3.0) == pytest.approx(oracle, abs=1e-13)
        assert round(scalar_kernel(2.0, 3.0), 4) == 3.0326

    def test_symmetry(self):
        assert scalar_kernel(2.0, 3.0) == scalar_kernel(3.0, 2.0)
        s = random_outside_e(RNG, 200)
        t = random_outside_e(RNG, 200)
        keep = s != t
        np.testing.assert_allclose(
            scalar_kernel(s[keep], t[keep]), scalar_kernel(t[keep], s[keep]), rtol=0, atol=1e-12
        )

    def test_diagonal_divergence(self, kernel_oracles):
        # K(t, t+eps) + 2 log eps converges to the bounded smooth part
        t = 2.5
        for eps in (1e-3, 1e-6, 1e-9):
            val = kernel_oracles(t, t + eps)[1] + 2.0 * np.log(eps)
            assert val == pytest.approx(scalar_kernel_smooth(t, t), abs=1e-2)

    def test_sheet1_form_matches(self, kernel_oracles):
        # the two-sheet kernel on sheet 1 equals the Phi-product form
        z = np.abs(random_outside_e(RNG, 1000)) + 1.0
        t = np.abs(random_outside_e(RNG, 1000)) + 1.0
        keep = np.abs(z - t) > 1e-9
        z, t = z[keep], t[keep]
        lit = kernel_oracles(z[:300], t[:300])[1]
        split = scalar_kernel(z[:300], t[:300])
        assert np.max(np.abs(lit - split)) <= 1e-12


class TestGreenE:
    def test_value_oracle_both_forms(self, kernel_oracles):
        with mp.workprec(200):
            p2 = 2 + mp.sqrt(3)
            p3 = 3 + 2 * mp.sqrt(2)
            oracle = float(mp.log((p2 * p3 - 1) / (p3 - p2)))
        assert green_e(2.0, 3.0) == pytest.approx(oracle, abs=1e-13)
        assert float(kernel_oracles(2.0, 3.0)[0]) == pytest.approx(oracle, abs=1e-13)
        assert round(green_e(2.0, 3.0), 4) == 2.2924

    def test_boundary_vanishing(self):
        assert green_e(1.0 + 1e-12, 3.0) == pytest.approx(0.0, abs=1e-5)
        assert green_e(1.0 + 1e-12, 3.0) > 0.0

    def test_symmetry_and_positivity(self):
        z = random_outside_e(RNG, 500)
        t = random_outside_e(RNG, 500)
        keep = np.abs(z - t) > 1e-9
        g = green_e(z[keep], t[keep])
        assert np.all(g > 0.0)
        np.testing.assert_allclose(g, green_e(t[keep], z[keep]), rtol=0, atol=1e-12)

    def test_smooth_split_reconstructs(self, kernel_oracles):
        z = random_outside_e(RNG, 300)
        t = random_outside_e(RNG, 300)
        keep = np.abs(z - t) > 1e-9
        rec = green_e_smooth(z[keep], t[keep]) - np.log(np.abs(z[keep] - t[keep]))
        assert np.max(np.abs(rec - kernel_oracles(z[keep], t[keep])[0])) <= 1e-12


    def test_mpmath_oracle_on_and_off_e(self):
        # z in E, z in E within 1e-8 of +-1 and z outside E, against the
        # product form in 200-bit complex arithmetic.  On E the smooth part
        # is log|z - t|; off E its error is that of log|1 - Phi(z) Phi(t)|,
        # whose argument cancels when z and t near the same branch point,
        # so there the bound adds the rounding of the product, amplified
        # by |Phi(z) Phi(t)| / |1 - Phi(z) Phi(t)|
        rng = np.random.default_rng(34)
        n = 200
        sign = np.where(rng.random(3 * n) < 0.5, -1.0, 1.0)
        z = sign * np.concatenate([rng.uniform(0.0, 1.0, n), 1.0 - rng.uniform(0.0, 1e-8, n),
                                   1.0 + 10.0 ** rng.uniform(-6.0, 2.0, n)])
        sign = np.where(rng.random(3 * n) < 0.5, -1.0, 1.0)
        t = sign * (1.0 + 10.0 ** rng.uniform(-6.0, 2.0, 3 * n))
        oracle, bound = [], []
        with mp.workprec(200):
            for a, b in zip(z, t):
                p = mp_phi(a) * mp_phi(b)
                oracle.append(float(2 * mp.log(abs(1 - p)) - mp.log(2) - mp.log(abs(p))))
                bound.append(5e-14 + (0.0 if abs(a) <= 1 else float(8e-16 * abs(p) / abs(1 - p))))
        assert np.all(np.abs(green_e_smooth(z, t) - np.array(oracle)) <= bound)
        assert np.all(np.abs(green_e_smooth(z[: 2 * n], t[: 2 * n]) - oracle[: 2 * n]) <= 5e-14)

class TestSheet0Smooth:
    def test_mpmath_oracle(self):
        # log(|Phi(s) - Phi(t)| / |s - t|) - log|Phi(s)|, s and t outside E
        rng = np.random.default_rng(11)
        s = random_outside_e(rng, 300)
        t = random_outside_e(rng, 300)
        keep = np.abs(s - t) > 1e-3
        s, t = s[keep], t[keep]
        with mp.workprec(200):
            oracle = [float(mp.log(abs(mp_phi(a) - mp_phi(b)) / abs(mp.mpf(a) - mp.mpf(b)))
                            - mp.log(abs(mp_phi(a)))) for a, b in zip(s, t)]
        assert np.max(np.abs(sheet0_smooth(s, t) - oracle)) <= 1e-13

    def test_diagonal_is_the_derivative_limit(self):
        # on s == t the quotient is |Phi'(t)| = |Phi(t)| / sqrt(t^2 - 1)
        t = random_outside_e(np.random.default_rng(12), 200)
        with mp.workprec(200):
            oracle = [float(-mp.log(mp.sqrt(mp.mpf(b) ** 2 - 1))) for b in t]
        assert np.max(np.abs(sheet0_smooth(t, t) - oracle)) <= 1e-13

    def test_mpmath_oracle_near_the_diagonal(self):
        # |s - t| from 1e-12 to 1e-3 and s == t, |s| - 1 and |t| - 1 at
        # least 1e-6: the quotient |Phi(s) - Phi(t)| / |s - t| in doubles
        # would lose its digits to the difference of two nearly equal Phi
        rng = np.random.default_rng(14)
        sign = np.where(rng.random(600) < 0.5, -1.0, 1.0)
        t = sign * (1.0 + 10.0 ** rng.uniform(-6.0, 2.0, 600))
        d = np.where(rng.random(600) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-12.0, -3.0, 600)
        d[::6] = 0.0
        s = t + d
        keep = np.abs(s) - 1.0 >= 1e-6
        s, t = s[keep], t[keep]
        with mp.workprec(200):
            oracle = [float(mp.log(abs(mp_phi(a) - mp_phi(b)) / abs(mp.mpf(a) - mp.mpf(b)))
                            - mp.log(abs(mp_phi(a))) if a != b
                            else -mp.log(mp.sqrt(mp.mpf(b) ** 2 - 1))) for a, b in zip(s, t)]
        assert np.max(np.abs(sheet0_smooth(s, t) - oracle)) <= 1e-12


class TestFactorizationIdentity:
    def test_identity(self):
        # |z - t| == |(Phi(z) - Phi(t)) (1 - Phi(z) Phi(t))| / (2 |Phi(z) Phi(t)|)
        z = random_outside_e(RNG, 10_000)
        t = random_outside_e(RNG, 10_000)
        keep = np.abs(z - t) > 1e-12
        z, t = z[keep], t[keep]
        pz = zhukovskii_inverse(z)
        pt = zhukovskii_inverse(t)
        rhs = np.abs((pz - pt) * (1.0 - pz * pt)) / (2.0 * np.abs(pz * pt))
        assert np.max(np.abs(rhs / np.abs(z - t) - 1.0)) <= 1e-12


class TestGreenAtInfinity:
    def test_rational_value(self):
        assert green_e_at_infinity(1.25) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_boundary(self):
        assert green_e_at_infinity(1.0 + 1e-14) == pytest.approx(0.0, abs=1e-6)

    def test_asymptotics(self):
        z = 1e6
        assert abs(green_e_at_infinity(z) - np.log(2.0 * z)) <= 1e-12 * np.log(2.0 * z)

    def test_positive_outside(self):
        z = random_outside_e(RNG, 1000)
        assert np.all(green_e_at_infinity(z) > 0.0)

    def test_exactly_zero_on_e(self):
        # the field of the scalar problem is real: a point of E is moved to
        # the branch point, where Phi is 1
        x = np.concatenate([make_grid(IntervalUnion([(-1.0, 1.0)]), 64, 2.0).nodes,
                            [-1.0, -0.0, 0.0, 1.0]])
        assert np.all(green_e_at_infinity(x) == 0.0)
        assert green_e_at_infinity(0.5) == 0.0

    def test_mpmath_oracle_off_e(self):
        x = random_outside_e(np.random.default_rng(13), 1000)
        with mp.workprec(200):
            oracle = np.array([float(mp.log(abs(mp_phi(a)))) for a in x])
        assert np.max(np.abs(green_e_at_infinity(x) - oracle)) <= 1e-14

    def test_relative_digits_near_the_branch_points(self):
        # |x| - 1 from 1e-12 to 10 on both sides: t * t - 1 would cancel
        # there and lose up to 2.5e-9 of log|Phi| relative
        d = np.geomspace(1e-12, 10.0, 400)
        x = np.concatenate([1.0 + d, -(1.0 + d)])
        with mp.workprec(200):
            phi = [mp_phi(a) for a in x]
            log_oracle = np.array([float(mp.log(abs(p))) for p in phi])
            phi_oracle = np.array([float(p) for p in phi])
        assert np.max(np.abs(green_e_at_infinity(x) / log_oracle - 1.0)) <= 1e-15
        assert np.max(np.abs(_phi_real(x) / phi_oracle - 1.0)) <= 1e-15


class TestIntervalUnion:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalUnion([(2.0, 3.0), (2.5, 4.0)])
        with pytest.raises(ValueError):
            IntervalUnion([(3.0, 2.0)])
        with pytest.raises(ValueError):
            IntervalUnion([])

    def test_gap(self):
        assert IntervalUnion([(2.0, 3.0)]).gap_to_unit_interval() == pytest.approx(1.0)
        assert IntervalUnion([(0.5, 2.0)]).gap_to_unit_interval() < 0

    def test_degenerate_f_rejected(self):
        # the one gap check: an overlap and a gap below MIN_GAP are rejected
        for ivs in ([(0.5, 2.0)], [(1.0 + 0.5 * MIN_GAP, 2.0)], [(-2.0, -1.0)]):
            with pytest.raises(ValueError, match="disjoint"):
                require_gap_to_e(IntervalUnion(ivs))
        require_gap_to_e(IntervalUnion([(1.0 + 2.0 * MIN_GAP, 2.0)]))
        # 1.000001 - 1 rounds below MIN_GAP; the message shows the gap unrounded
        with pytest.raises(ValueError, match=r"got gap 9\.999999999177334e-07$"):
            require_gap_to_e(IntervalUnion([(1.000001, 1.5)]))

    def test_every_entry_point_uses_the_gap_check(self):
        from equilab.equilibrium import solve_reduced, solve_scalar, solve_vector
        from equilab.hermite_pade import MarkovSpec

        near = IntervalUnion([(1.0 + 0.5 * MIN_GAP, 2.0)])
        for call in (solve_scalar, solve_vector, solve_reduced,
                     lambda F: MarkovSpec(F, "arcsine")):
            with pytest.raises(ValueError, match="disjoint"):
                call(near)

    def test_symmetry_detection(self):
        assert IntervalUnion([(-3.0, -2.0), (2.0, 3.0)]).is_symmetric()
        assert not IntervalUnion([(2.0, 3.0)]).is_symmetric()
        # exact: a nearly symmetric F must not fold by parity
        assert not IntervalUnion([(-3.0, -2.0), (2.0, 3.0 + 1e-13)]).is_symmetric()
        assert IntervalUnion([(-3.0, -2.0), (-0.5, 0.5), (2.0, 3.0)]).is_symmetric()

    @given(
        st.floats(min_value=1.1, max_value=50.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_hull_and_length(self, left, width):
        iu = IntervalUnion([(left, left + width)])
        assert iu.hull == (left, left + width)
        assert iu.total_length == pytest.approx(width)


class TestIntervalGreen:
    def test_positive_on_e(self):
        gf = green_single_interval(IntervalUnion([(2.0, 3.0)]))
        x = RNG.uniform(-1.0, 1.0, 200)
        y = RNG.uniform(-1.0, 1.0, 200)
        keep = np.abs(x - y) > 1e-9
        g = gf.smooth(x[keep], y[keep]) - np.log(np.abs(x[keep] - y[keep]))
        assert np.all(g > 0.0)

    def test_split_reconstructs(self, kernel_oracles):
        gf = green_single_interval(IntervalUnion([(2.0, 3.0)]))
        x = RNG.uniform(-1.0, 1.0, 200)
        y = RNG.uniform(-1.0, 1.0, 200)
        keep = np.abs(x - y) > 1e-6
        rec = gf.smooth(x[keep], y[keep]) - np.log(np.abs(x[keep] - y[keep]))
        oracle = kernel_oracles(gf.map_to_unit(x[keep]), gf.map_to_unit(y[keep]))[0]
        assert np.max(np.abs(rec - oracle)) <= 1e-11

    def test_multi_interval_rejected(self):
        with pytest.raises(ValueError):
            green_single_interval(IntervalUnion([(-3.0, -2.0), (2.0, 3.0)]))

