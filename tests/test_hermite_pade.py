"""High-precision Hermite-Pade tests: moments, order condition, real zeros."""

import mpmath as mp
import pytest

from equilab.errors import PrecisionError
from equilab import hermite_pade
from equilab.hermite_pade import (
    GATE_MARGIN_BITS,
    HPSolution,
    HPSweep,
    MarkovSpec,
    arcsine_sigma,
    constant_sigma,
    counting_measure,
    gauss_legendre,
    moments_f1,
    moments_f2,
    moments_f2_from_cauchy,
    solve_hp,
    solve_with_escalation,
    zeros_q2,
    _log2_cond1,
    _moments_f2_at_order,
    _solve_hp_svd,
    _square_system,
    discretize_sigma,
)
from equilab.kernels import IntervalUnion

F23 = IntervalUnion([(2.0, 3.0)])
SYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
PREC = 256


class TestMomentsF1:
    def test_first_values(self):
        a = moments_f1(4, PREC)
        assert a[0] == 1
        assert a[1] == 0
        assert a[2] == mp.mpf(1) / 2
        assert a[3] == 0
        assert a[4] == mp.mpf(3) / 8

    def test_gauss_chebyshev_oracle(self):
        # (1/pi) integral of x^k / sqrt(1-x^2) via the exact N-point rule
        with mp.workprec(PREC):
            N = 64
            nodes = [mp.cos(mp.pi * (2 * j - 1) / (2 * N)) for j in range(1, N + 1)]
            for k in (2, 4, 6):
                quad = mp.fsum(x**k for x in nodes) / N
                assert abs(quad - moments_f1(k, PREC)[k]) <= mp.mpf(2) ** (-200)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            moments_f1(-1)


class TestMomentsF2:
    def test_point_mass_oracle(self):
        # h(x) = 1/(x - t0): b_0 = -1/sqrt(t0^2 - 1) for t0 > 1
        with mp.workprec(PREC):
            for t0 in (mp.mpf(2), mp.mpf(3), mp.mpf("1.5")):
                b = moments_f2_from_cauchy(0, [(t0, mp.mpf(1))], PREC)
                oracle = -1 / mp.sqrt(t0 * t0 - 1)
                assert abs(b[0] - oracle) <= abs(oracle) * mp.mpf(2) ** (-(PREC - 16))

    def test_point_mass_negative_side(self):
        with mp.workprec(PREC):
            b = moments_f2_from_cauchy(0, [(mp.mpf(-2), mp.mpf(1))], PREC)
            assert abs(b[0] - 1 / mp.sqrt(3)) <= mp.mpf(2) ** (-(PREC - 16))

    def test_sign_for_right_support(self):
        for sigma in (arcsine_sigma(F23), constant_sigma(F23)):
            b = moments_f2(2, sigma, PREC)
            assert b[0] < 0

    def test_quadrature_doubling_stable(self):
        sigma = arcsine_sigma(F23)
        ts1, ws1 = discretize_sigma(sigma, 64, PREC)
        ts2, ws2 = discretize_sigma(sigma, 128, PREC)
        b1 = _moments_f2_at_order(8, ts1, ws1, PREC)
        b2 = _moments_f2_at_order(8, ts2, ws2, PREC)
        with mp.workprec(PREC):
            delta = max(abs(p - q) for p, q in zip(b1, b2))
            assert delta <= mp.mpf(2) ** (-(PREC // 2))

    def test_closed_form_oracle_b0(self):
        # the Cauchy transform of the arcsine measure of [2, 3] is, after the
        # affine rescale y = 2x - 5, h(x) = 2 f1(y) = -2/sqrt(y^2 - 1); so
        # b_0 follows from the exact arcsine-weighted quadrature of h
        sigma_c = arcsine_sigma(F23)
        b_c = moments_f2(3, sigma_c, PREC)
        with mp.workprec(PREC):
            def h(x):
                y = 2 * x - 5
                return 2 * mp.sign(y) / mp.sqrt(y * y - 1)

            N = 256
            nodes = [mp.cos(mp.pi * (2 * j - 1) / (2 * N)) for j in range(1, N + 1)]
            b0 = mp.fsum(h(x) for x in nodes) / N
            assert abs(b_c[0] - b0) <= mp.mpf(10) ** (-40)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        xs, ws = gauss_legendre(16, PREC)
        with mp.workprec(PREC):
            q = mp.fsum(w * x * x for x, w in zip(xs, ws))
            assert abs(q - mp.mpf(2) / 3) <= mp.mpf(2) ** (-200)
            assert abs(mp.fsum(ws) - 2) <= mp.mpf(2) ** (-200)

    def test_nodes_symmetric(self):
        xs, _ = gauss_legendre(8, 128)
        with mp.workprec(128):
            assert abs(xs[0] + xs[-1]) <= mp.mpf(2) ** (-100)


@pytest.fixture(scope="module")
def moments():
    k = 3 * 6 + 1
    return moments_f1(k, PREC), moments_f2(k, arcsine_sigma(F23), PREC)


@pytest.fixture(scope="module")
def sol5():
    k = 3 * 5 + 1
    a = moments_f1(k, PREC)
    b = moments_f2(k, arcsine_sigma(F23), PREC)
    return solve_hp(5, a, b, PREC)


class TestSolveHP:
    def test_order_zero_closed_form(self, moments):
        a, b = moments
        sol = solve_hp(0, a, b, PREC)
        with mp.workprec(PREC):
            assert sol.q2 == (mp.mpf(1),)
            assert abs(sol.q1[0] - (-b[0])) <= mp.mpf(2) ** (-200)
            assert sol.q0 == (mp.mpf(0),)
        assert sol.residual_order == 2

    def test_residual_contract(self, moments):
        a, b = moments
        for n in (2, 5):
            sol = solve_hp(n, a, b, PREC)
            assert sol.residual_max <= 2.0 ** (-(PREC // 4))
            assert sol.residual_order >= 2 * n + 2
            assert sol.degree_q2 == n
            assert sol.nullspace_dim == 1

    def test_insufficient_moments(self, moments):
        a, b = moments
        with pytest.raises(ValueError):
            solve_hp(10, a, b, PREC)

    def test_scale_invariance(self, moments):
        a, b = moments
        with mp.workprec(PREC):
            a3 = [3 * x for x in a]
            b3 = [3 * x for x in b]
            s1 = solve_hp(3, a, b, PREC)
            s3 = solve_hp(3, a3, b3, PREC)
            for x, y in zip(s1.q1, s3.q1):
                assert abs(x - y) <= mp.mpf(2) ** (-180)
            for x, y in zip(s1.q2, s3.q2):
                assert abs(x - y) <= mp.mpf(2) ** (-180)
            for x, y in zip(s1.q0, s3.q0):
                assert abs(3 * x - y) <= mp.mpf(2) ** (-180)

    def test_precision_monotonicity(self, moments):
        # once the vanishing threshold resolves the first genuine Laurent
        # coefficient, the verified order stays put under more precision
        k = 3 * 4 + 1
        sig = arcsine_sigma(F23)
        orders = []
        for bits in (256, 512, 1024):
            a = moments_f1(k, bits)
            b = moments_f2(k, sig, bits)
            orders.append(solve_hp(4, a, b, bits).residual_order)
        assert orders[0] <= orders[1] <= orders[2]
        assert orders[0] == 2 * 4 + 2

    def test_json_roundtrip(self, moments, tmp_path):
        a, b = moments
        sol = solve_hp(2, a, b, PREC)
        path = tmp_path / "hp.json"
        sol.save_json(path)
        import json

        data = json.loads(path.read_text())
        assert data["n"] == 2
        assert data["degree_q2"] == 2
        assert data["q2"][-1] == "1.0"
        assert data["method"] == "lu"
        assert data["log2_cond"] == sol.log2_cond > 0


class TestSquareSolve:
    @pytest.mark.parametrize("make_sigma", [arcsine_sigma, constant_sigma])
    def test_lu_matches_svd_oracle(self, make_sigma):
        k = 3 * 10 + 1
        a = moments_f1(k, PREC)
        b = moments_f2(k, make_sigma(F23), PREC)
        for n in (2, 5, 10):
            lu = solve_hp(n, a, b, PREC)
            svd = _solve_hp_svd(n, a, b, PREC)
            assert (lu.method, svd.method) == ("lu", "svd")
            assert lu.degree_q2 == svd.degree_q2 == n
            with mp.workprec(PREC):
                for x, y in zip(lu.q0 + lu.q1 + lu.q2, svd.q0 + svd.q1 + svd.q2):
                    assert abs(x - y) <= mp.mpf(2) ** (-(PREC // 4))

    def test_condition_estimate_matches_singular_values(self):
        bits = 512
        k = 3 * 20 + 1
        a = moments_f1(k, bits)
        b = moments_f2(k, arcsine_sigma(F23), bits)
        with mp.workprec(bits):
            for n in (5, 10, 20):
                A, _ = _square_system(n, a, b)
                S = mp.svd_r(A, compute_uv=False)
                exact = float(mp.log(S[0] / S[A.rows - 1], 2))
                LU, perm = mp.mp.LU_decomp(A)
                assert abs(_log2_cond1(A, LU, perm) - exact) <= 2.0
                assert abs(solve_hp(n, a, b, bits).log2_cond - exact) <= 2.0

    def test_symmetric_support_odd_order_falls_back_to_svd(self):
        # sigma symmetric about 0 makes Q2 of odd order n drop to degree n - 1,
        # so the square system with Q2[n] = 1 has no solution
        k = 3 * 5 + 1
        a = moments_f1(k, PREC)
        b = moments_f2(k, arcsine_sigma(SYM), PREC)
        for n in (3, 5):
            sol = solve_hp(n, a, b, PREC)
            assert sol.method == "svd"
            assert sol.degree_q2 == n - 1
            assert sol.residual_order >= 2 * n + 2
        even = solve_hp(4, a, b, PREC)
        assert (even.method, even.degree_q2) == ("lu", 4)


class TestConditionGate:
    def test_order_ten_never_accepted_at_128_bits(self):
        # at 128 bits the n = 10 LU solve passes the residual contract and
        # the zero count, but log2 cond is about 131.6: its zeros are wrong
        sigma = arcsine_sigma(F23)
        with pytest.raises(PrecisionError, match="log2 cond"):
            solve_with_escalation(10, sigma, 128, max_bits=128)
        sol, zeros = solve_with_escalation(10, sigma, 128)
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
        sigma = arcsine_sigma(F23)
        n_list = [3, 6, 10]
        sweep = HPSweep(sigma, n_list)
        bits = {}
        for n in n_list:
            sol, zeros = solve_with_escalation(n, sigma, 128, sweep=sweep)
            assert len(zeros) == n
            bits[n] = sol.precision_bits
        # n = 10 starts at 256 bits from the rate measured at n = 6
        assert bits == {3: 128, 6: 128, 10: 256}
        assert calls == [(31, 128), (31, 256)]
        assert sweep.bits_per_order == pytest.approx(sol.log2_cond / 10)

    def test_sweep_rejects_other_sigma(self):
        sweep = HPSweep(arcsine_sigma(F23), [2])
        with pytest.raises(ValueError):
            solve_with_escalation(2, constant_sigma(F23), 128, sweep=sweep)


class TestZeros:
    def test_order_one_single_zero(self):
        k = 4
        a = moments_f1(k, PREC)
        b = moments_f2(k, arcsine_sigma(F23), PREC)
        sol = solve_hp(1, a, b, PREC)
        zeros = zeros_q2(sol, hull=(2.0, 3.0))
        assert len(zeros) == 1
        assert 2.0 <= float(zeros[0]) <= 3.0

    def test_zero_count_and_hull(self, sol5):
        zeros = zeros_q2(sol5, hull=(2.0, 3.0))
        assert len(zeros) == 5
        assert all(2.0 <= float(z) <= 3.0 for z in zeros)

    def test_zeros_are_roots(self, sol5):
        zeros = zeros_q2(sol5, hull=(2.0, 3.0))
        with mp.workprec(PREC):
            coeffs = list(reversed(sol5.q2))
            for z in zeros:
                assert abs(mp.polyval(coeffs, z)) <= mp.mpf(2) ** (-(PREC // 3))

    def test_scale_invariance_of_zeros(self, sol5):
        with mp.workprec(PREC):
            q2_scaled = tuple(5 * c for c in sol5.q2)
        scaled = HPSolution(
            n=sol5.n,
            q0=sol5.q0,
            q1=sol5.q1,
            q2=q2_scaled,
            precision_bits=sol5.precision_bits,
            residual_order=sol5.residual_order,
            residual_max=sol5.residual_max,
            nullspace_dim=sol5.nullspace_dim,
            degree_q2=sol5.degree_q2,
            log2_cond=sol5.log2_cond,
            method=sol5.method,
        )
        z1 = zeros_q2(sol5, hull=(2.0, 3.0))
        z2 = zeros_q2(scaled, hull=(2.0, 3.0))
        with mp.workprec(PREC):
            assert max(abs(a - b) for a, b in zip(z1, z2)) <= mp.mpf(2) ** (-100)

    def test_counting_measure_mass(self, sol5):
        zeros = zeros_q2(sol5, hull=(2.0, 3.0))
        chi = counting_measure(zeros, 5)
        assert abs(chi.mass - 1.0) <= 1e-14
        with pytest.raises(ValueError):
            counting_measure([], 5)


class TestConstantDensityPreset:
    def test_hull_containment(self):
        sol, zeros = solve_with_escalation(8, constant_sigma(F23), PREC)
        assert len(zeros) == 8
        assert all(2.0 <= float(z) <= 3.0 for z in zeros)
        assert sol.degree_q2 == 8


class TestEscalation:
    def test_escalates_to_full_zero_count(self):
        # at 64 bits even small orders are precision-starved; the driver
        # must climb until the zero count matches the degree
        sol, zeros = solve_with_escalation(4, arcsine_sigma(F23), 64, max_bits=1024)
        assert len(zeros) == 4
        assert sol.degree_q2 == 4

    def test_exhaustion_raises(self):
        with pytest.raises(PrecisionError):
            solve_with_escalation(12, arcsine_sigma(F23), 64, max_bits=64)


class TestMarkovSpec:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MarkovSpec(IntervalUnion([(0.5, 2.0)]), lambda t: 1.0)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError):
            MarkovSpec(F23, lambda t: 1.0, rule="simpson")

    def test_preset_masses(self):
        with mp.workprec(PREC):
            for spec in (arcsine_sigma(F23), constant_sigma(F23)):
                ts, ws = discretize_sigma(spec, 64, PREC)
                assert abs(mp.fsum(ws) - 1) <= mp.mpf(2) ** (-100)
            sym = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
            ts, ws = discretize_sigma(arcsine_sigma(sym), 32, PREC)
            assert abs(mp.fsum(ws) - 1) <= mp.mpf(2) ** (-100)
