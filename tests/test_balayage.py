"""Balayage tests: Chebyshev measure, closed-form point sweep, numeric sweep."""

import numpy as np
import pytest

from equilab.balayage import (
    balayage_numeric,
    balayage_point_to_e,
    chebyshev_measure,
    reconstruct_e_measure,
)
from equilab.equilibrium import E_INTERVAL, collocate
from equilab.kernels import IntervalUnion, green_e_at_infinity
from equilab.measures import (
    LOG_KERNEL,
    DiscreteMeasure,
    ks_distance,
    log_potential,
    make_grid,
)

F23 = IntervalUnion([(2.0, 3.0)])
FSYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])


def narrow_cell_measure(a, mass=1.0, width=1e-6):
    iv = IntervalUnion([(a - width, a + width)])
    return DiscreteMeasure([a], [mass], [a - width], [a + width], iv)


class TestChebyshevMeasure:
    def test_total_mass_exact(self):
        tau = chebyshev_measure(make_grid(E_INTERVAL, 100, 2.0))
        assert abs(tau.mass - 1.0) <= 1e-14

    def test_half_mass_by_symmetry(self):
        tau = chebyshev_measure(make_grid(E_INTERVAL, 100, 2.0))
        assert tau.weights[tau.nodes <= 0.0].sum() == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_scaling(self):
        # mass of [-1, -1+h] approaches (2/pi) sqrt(h/2) as h -> 0
        for h, rel in ((1e-2, 0.05), (1e-4, 0.005)):
            mass = (np.arcsin(-1.0 + h) + np.pi / 2) / np.pi
            assert mass == pytest.approx((2.0 / np.pi) * np.sqrt(h / 2.0), rel=rel)

    def test_wrong_grid_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_measure(make_grid(F23, 32, 1.0))


class TestPointBalayage:
    def test_mass_one(self):
        grid = make_grid(E_INTERVAL, 1000, 2.0)
        res = balayage_point_to_e(2.0, grid)
        assert abs(res.mass - 1.0) <= 1e-8

    def test_potential_identity(self):
        # U_swept(x) + log|x - a| equals log|Phi(a)| on E
        grid = make_grid(E_INTERVAL, 1000, 2.0)
        a = 2.0
        res = balayage_point_to_e(a, grid)
        x = grid.nodes
        dev = log_potential(res, x) + np.log(np.abs(x - a)) - green_e_at_infinity(a)
        assert np.max(np.abs(dev)) <= 1e-3
        assert green_e_at_infinity(a) == pytest.approx(np.log(2.0 + np.sqrt(3.0)))

    def test_negative_side(self):
        grid = make_grid(E_INTERVAL, 400, 2.0)
        res = balayage_point_to_e(-2.0, grid)
        assert abs(res.mass - 1.0) <= 1e-10
        flipped = balayage_point_to_e(2.0, grid)
        np.testing.assert_allclose(res.weights, flipped.weights[::-1], atol=1e-12)

    def test_far_point_gives_chebyshev(self):
        grid = make_grid(E_INTERVAL, 400, 2.0)
        res = balayage_point_to_e(1e8, grid)
        tau = chebyshev_measure(grid)
        assert np.max(np.abs(res.weights - tau.weights)) <= 1e-6

    def test_inside_rejected(self):
        grid = make_grid(E_INTERVAL, 64, 2.0)
        with pytest.raises(ValueError):
            balayage_point_to_e(0.5, grid)


class TestNumericBalayage:
    def test_against_closed_form(self):
        grid = make_grid(E_INTERVAL, 400, 2.0)
        src = narrow_cell_measure(2.0)
        num = balayage_numeric(src, grid)
        closed = balayage_point_to_e(2.0, grid)
        assert ks_distance(num.measure, closed) <= 1e-3
        assert num.residual_sup <= 1e-9

    def test_potential_identity_invariant(self):
        grid = make_grid(E_INTERVAL, 200, 2.0)
        src = narrow_cell_measure(2.5)
        num = balayage_numeric(src, grid)
        dev = (
            log_potential(num.measure, grid.nodes)
            - log_potential(src, grid.nodes)
            - num.constant
        )
        assert np.max(np.abs(dev)) <= 10 * 1e-10
        # the recorded residual is this recomputation, from the matrix already in hand
        assert num.residual_sup == float(np.max(np.abs(dev)))

    def test_mass_preserved(self):
        grid = make_grid(E_INTERVAL, 200, 2.0)
        src = narrow_cell_measure(3.0, mass=2.5)
        num = balayage_numeric(src, grid)
        assert num.measure.mass == pytest.approx(2.5, abs=1e-10)

    def test_mass_preserved_onto_f(self):
        # the other sweep direction: a measure on E onto a grid over F
        e_grid = make_grid(E_INTERVAL, 100, 2.0)
        tau = chebyshev_measure(e_grid)
        f_grid = make_grid(F23, 100, 2.0)
        res = balayage_numeric(tau, f_grid)
        assert res.measure.mass == pytest.approx(1.0, abs=1e-10)
        assert res.residual_sup <= 1e-9
        assert res.measure.support.intervals == F23.intervals

    def test_supported_on_target_fixed(self):
        # a source on the target set is refused like an overlapping one; the
        # potential matching it would run leaves such a source where it is
        grid = make_grid(E_INTERVAL, 64, 2.0)
        tau = chebyshev_measure(grid)
        with pytest.raises(ValueError, match="disjoint"):
            balayage_numeric(tau, grid)
        (b,), (c,), _ = collocate([grid], [[LOG_KERNEL]], [lambda x: log_potential(tau, x)],
                                  [tau.mass])
        assert abs(c) <= 1e-12
        np.testing.assert_allclose(b, tau.weights, rtol=0, atol=1e-12)

    def test_idempotent(self):
        # sweeping a swept measure again is refused by balayage_numeric and is
        # the identity for the potential matching behind it
        grid = make_grid(E_INTERVAL, 128, 2.0)
        once = balayage_numeric(narrow_cell_measure(2.0), grid).measure
        with pytest.raises(ValueError, match="disjoint"):
            balayage_numeric(once, grid)
        (b,), _, _ = collocate([grid], [[LOG_KERNEL]], [lambda x: log_potential(once, x)],
                               [once.mass])
        twice = DiscreteMeasure.from_weights(grid, b)
        assert ks_distance(once, twice) <= 1e-8

    def test_overlap_rejected(self):
        grid = make_grid(E_INTERVAL, 64, 2.0)
        iv = IntervalUnion([(0.5, 2.0)])
        src = DiscreteMeasure([1.2], [1.0], [0.5], [2.0], iv)
        with pytest.raises(ValueError):
            balayage_numeric(src, grid)

    @pytest.mark.parametrize("case", ["uneven-source", "one-sided-source", "one-sided-target"])
    def test_fold_needs_a_mirror_symmetric_problem(self, case):
        # the folded sweep's solution is even, so it must be the sweep's one
        # solution: an uneven source or a one-sided support is refused
        e_grid = make_grid(E_INTERVAL, 64, 2.0)
        w = chebyshev_measure(e_grid).weights
        even = DiscreteMeasure.from_weights(e_grid, (w + w[::-1]) / 2)
        src, target = {
            "uneven-source": (balayage_point_to_e(2.5, e_grid), make_grid(FSYM, 64, 2.0)),
            "one-sided-source": (narrow_cell_measure(2.0), e_grid),
            "one-sided-target": (even, make_grid(F23, 64, 2.0)),
        }[case]
        with pytest.raises(ValueError, match="mirror-exact"):
            balayage_numeric(src, target, fold=True)
        assert balayage_numeric(even, make_grid(FSYM, 64, 2.0), fold=True).method == \
            "collocation_parity"

    def test_linearity(self):
        grid = make_grid(E_INTERVAL, 128, 2.0)
        mu1 = narrow_cell_measure(2.0)
        mu2 = narrow_cell_measure(4.0)
        joint = DiscreteMeasure(
            [2.0, 4.0], [1.0, 1.0], [2.0 - 1e-6, 4.0 - 1e-6], [2.0 + 1e-6, 4.0 + 1e-6],
            IntervalUnion([(2.0 - 1e-6, 2.0 + 1e-6), (4.0 - 1e-6, 4.0 + 1e-6)]),
        )
        b_joint = balayage_numeric(joint, grid).measure
        b_sum = balayage_numeric(mu1, grid).measure.weights + balayage_numeric(mu2, grid).measure.weights
        half_joint = DiscreteMeasure.from_weights(grid, 0.5 * b_joint.weights)
        half_sum = DiscreteMeasure.from_weights(grid, 0.5 * b_sum)
        assert ks_distance(half_joint, half_sum) <= 1e-8


class TestPotentialShiftIdentity:
    def test_coupled_solution_satisfies_sweep_identity(self):
        # U_2 - U_1 + G_F is one constant everywhere off E and F, not just
        # where the collocation pinned it
        from equilab.equilibrium import GridParams, solve_vector
        from equilab.kernels import green_single_interval

        sol_e, sol_f = solve_vector(F23, GridParams(n=200, grading=2.0))
        gf = green_single_interval(F23)
        t_e = sol_e.measure.nodes
        z_f = sol_f.measure.nodes
        z_off = np.concatenate([np.linspace(1.05, 1.95, 9), np.linspace(3.05, 5.0, 9)])
        w2 = sol_f.constants[0]
        for z in (z_f, z_off):
            u1 = log_potential(sol_e.measure, z)
            u2 = log_potential(sol_f.measure, z)
            g = gf.smooth(z[:, None], t_e[None, :]) - np.log(np.abs(z[:, None] - t_e[None, :]))
            g1f = g @ sol_e.measure.weights
            assert np.max(np.abs(u2 - u1 + g1f - w2)) <= 5e-3


class TestReconstruction:
    def test_mass_exact(self):
        from equilab.equilibrium import GridParams, solve_scalar

        lam = solve_scalar(F23, GridParams(n=100, grading=2.0)).measure
        e_grid = make_grid(E_INTERVAL, 100, 2.0)
        rec = reconstruct_e_measure(lam, e_grid)
        assert abs(rec.mass - 1.0) <= 1e-12

    def test_symmetric_input_symmetric_output(self):
        from equilab.equilibrium import GridParams, solve_scalar

        fsym = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
        lam = solve_scalar(fsym, GridParams(n=80, grading=2.0)).measure
        e_grid = make_grid(E_INTERVAL, 80, 2.0)
        rec = reconstruct_e_measure(lam, e_grid)
        assert np.max(np.abs(rec.weights - rec.weights[::-1])) <= 1e-9

    def test_non_unit_rejected(self):
        e_grid = make_grid(E_INTERVAL, 64, 2.0)
        with pytest.raises(ValueError):
            reconstruct_e_measure(narrow_cell_measure(2.0, mass=2.0), e_grid)
