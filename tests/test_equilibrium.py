"""Equilibrium solver tests: classical oracles, the negative-weight rule, coupled system."""

import numpy as np
import pytest

from equilab import equilibrium
from equilab.equilibrium import (
    E_INTERVAL,
    GridParams,
    assemble_energy_matrix,
    collocate,
    solve_reduced,
    solve_scalar,
    solve_vector,
)
from equilab.errors import DiscretizationError
from equilab.kernels import IntervalUnion, green_e_at_infinity
from equilab.measures import (
    LOG_KERNEL,
    SHEET1_KERNEL,
    DiscreteMeasure,
    SingularKernel,
    kernel_potential,
    ks_distance,
    log_potential,
    make_grid,
    surface_functional,
)

F23 = IntervalUnion([(2.0, 3.0)])
FSYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
GP = GridParams(n=200, grading=2.0)


def arcsine_cells(grid):
    (l, r) = grid.support.intervals[0]
    to_unit = lambda x: (2.0 * x - (l + r)) / (r - l)
    w = (np.arcsin(to_unit(grid.cell_right)) - np.arcsin(to_unit(grid.cell_left))) / np.pi
    return DiscreteMeasure.from_weights(grid, w)


def log_equilibrium(grid, field=None):
    """(measure, constant, residual) of the unit log equilibrium on the grid, in a field."""
    rhs = np.zeros_like if field is None else lambda x: -field(x)
    (u,), (c,), (r,) = collocate([grid], [[LOG_KERNEL]], [rhs], [1.0])
    return DiscreteMeasure.from_weights(grid, u), c, r


class TestClassicalOracle:
    def test_arcsine_on_e(self):
        grid = make_grid(E_INTERVAL, 200, 2.0)
        mu, c, r = log_equilibrium(grid)
        assert c == pytest.approx(np.log(2.0), abs=2e-3)
        assert ks_distance(mu, arcsine_cells(grid)) <= 3e-3
        assert np.min(mu.densities) > 0.0
        assert r <= 1e-12

    def test_capacity_of_shifted_interval(self):
        # affine scaling oracle: capacity of [2,3] is 1/4, constant log 4
        grid = make_grid(F23, 200, 2.0)
        mu, c, _ = log_equilibrium(grid)
        assert c == pytest.approx(np.log(4.0), abs=2e-3)
        assert ks_distance(mu, arcsine_cells(grid)) <= 3e-3

    def test_residual_definition(self):
        # the matrix blocks are the potential evaluator's blocks, so the
        # residual is the potential's distance from the constant at the nodes
        grid = make_grid(F23, 64, 2.0)
        mu, c, r = log_equilibrium(grid)
        vals = kernel_potential(mu, LOG_KERNEL, grid.nodes)
        assert r == float(np.max(np.abs(vals - c)))


class TestScalarProblem:
    def test_solve_collocates_the_verified_kernel_and_field(self, monkeypatch):
        # the scalar solve and its verifiers share one kernel and one field:
        # the kernel is the very SHEET1_KERNEL that surface_functional
        # applies, and the right-hand side is -green_e_at_infinity bit for bit
        calls = []

        def recording(grids, kernels, rhs, masses, fold=False):
            calls.append((grids, kernels, rhs))
            return collocate(grids, kernels, rhs, masses, fold)

        monkeypatch.setattr(equilibrium, "collocate", recording)
        for F in (F23, FSYM):
            solve_scalar(F, GridParams(n=64, grading=2.0))
        assert len(calls) == 2
        for (grid,), ((kernel,),), (rhs,) in calls:
            assert kernel is SHEET1_KERNEL
            assert rhs(grid.nodes).tobytes() == (-green_e_at_infinity(grid.nodes)).tobytes()

    def test_full_support_and_residual(self):
        # the functional is matched at the nodes, so the recorded residual
        # is rounding; between the nodes it measures the discretization
        sol = solve_scalar(F23, GP)
        w_f = sol.constant
        assert sol.min_density > 0.0
        assert sol.residual_sup <= 1e-12 * max(1.0, abs(w_f))
        fine = make_grid(F23, 4 * GP.n, GP.grading)
        res = np.max(np.abs(surface_functional(sol.measure, fine.nodes) - w_f))
        assert res <= 2e-3 * max(1.0, abs(w_f))

    def test_symmetric_f(self):
        sol = solve_scalar(FSYM, GP)
        w = sol.measure.weights
        assert np.max(np.abs(w - w[::-1])) <= 1e-10
        assert sol.min_density > 0.0

    def test_touching_e_rejected(self):
        with pytest.raises(ValueError):
            solve_scalar(IntervalUnion([(1.0 + 1e-9, 2.0)]), GP)

    def test_steep_field_raises_discretization_error(self):
        # a steep field pushes the equilibrium off part of F, so the
        # collocation weights go negative: the grid cannot carry a fully
        # supported measure
        grid = make_grid(F23, 32, 2.0)
        with pytest.raises(DiscretizationError,
                           match=r"collocation weight -\d\.\d{3}e[-+]\d\d at node ") as info:
            log_equilibrium(grid, lambda x: 4.0 * x)
        assert "32 cells per component" in str(info.value)

    def test_grid_convergence(self):
        coarse = solve_scalar(F23, GridParams(n=100, grading=2.0))
        fine = solve_scalar(F23, GridParams(n=200, grading=2.0))
        # the residual off the nodes, on one grid finer than both
        z = make_grid(F23, 800, 2.0).nodes
        res = [np.max(np.abs(surface_functional(s.measure, z) - s.constant)) for s in (coarse, fine)]
        assert res[1] < res[0]
        assert ks_distance(coarse.measure, fine.measure) <= 1.0 / 100


class TestCoupledProblem:
    def test_residuals_and_masses(self):
        sol_e, sol_f = solve_vector(F23, GP)
        assert abs(sol_e.measure.mass - 1.0) <= 1e-10
        assert abs(sol_f.measure.mass - 1.0) <= 1e-10
        assert sol_e.residual_sup <= 1e-3
        assert sol_f.residual_sup <= 1e-3
        assert sol_e.min_density > 0.0
        assert sol_f.min_density > 0.0

    def test_residuals_equal_log_potential_recomputation(self):
        # the collocation blocks depend on the cells only, so they give the
        # potentials of the solved measures bit for bit
        sol_e, sol_f = solve_vector(F23, GP)
        lam_e, lam_f = sol_e.measure, sol_f.measure
        w1, w2 = sol_e.constants
        x, y = lam_e.nodes, lam_f.nodes
        r1 = np.max(np.abs(4.0 * log_potential(lam_e, x) - log_potential(lam_f, x) - w1))
        r2 = np.max(np.abs(-log_potential(lam_e, y) + log_potential(lam_f, y) - w2))
        assert (sol_e.residual_sup, sol_f.residual_sup) == (float(r1), float(r2))

    def test_symmetric_f(self):
        sol_e, _ = solve_vector(FSYM, GP)
        w = sol_e.measure.weights
        assert np.max(np.abs(w - w[::-1])) <= 1e-10

    def test_constants_shared(self):
        sol_e, sol_f = solve_vector(F23, GP)
        assert sol_e.constants[0] == sol_f.constants[1]
        assert sol_e.constants[1] == sol_f.constants[0]

    def test_collocation_sidecars_record_zero_iterations(self):
        for sol in solve_vector(F23, GP):
            sidecar = sol.sidecar_dict()
            assert (sidecar["method"], sidecar["iterations"]) == ("collocation", 0)

    def test_sidecars_describe_the_solved_grid(self):
        # the grid block is read from the grid each solve ran on: an integer
        # grading is recorded as the float the grid was built with
        gp = GridParams(n=40, grading=1)
        for sol, support in zip(solve_vector(F23, gp), (E_INTERVAL, F23)):
            grid = sol.sidecar_dict()["grid"]
            assert grid == {"n_per_component": 40, "grading": 1.0,
                            "support": [list(iv) for iv in support.intervals]}
            assert isinstance(grid["grading"], float)


class TestReducedProblem:
    def test_matches_coupled_first_component(self):
        reduced = solve_reduced(F23, GP)
        sol_e, sol_f = solve_vector(F23, GP)
        assert ks_distance(reduced.measure, sol_e.measure) <= 5e-3
        assert reduced.min_density > 0.0
        # constant consistency: the reduced constant is w1 + w2
        w12 = sol_e.constants[0] + sol_e.constants[1]
        assert abs(reduced.constant - w12) <= 2e-2 * max(1.0, abs(reduced.constant))

    def test_multi_interval_rejected(self):
        with pytest.raises(ValueError):
            solve_reduced(FSYM, GP)


class TestCollocation:
    @pytest.mark.parametrize("fold", [False, True])
    def test_right_hand_sides_called_once_at_the_matched_nodes(self, fold):
        # each right-hand side is evaluated once, at the nodes the solve
        # matches: the representative half of each grid when folded, with
        # the self-mirror middle node of the odd E grid
        grids = [make_grid(E_INTERVAL, 33, 2.0), make_grid(FSYM, 32, 2.0)]
        seen = [[], []]

        def recording(k):
            return lambda x: seen[k].append(x) or np.zeros_like(x)

        kernels = [[SingularKernel(sing_coeff=4.0), SingularKernel(sing_coeff=-1.0)],
                   [SingularKernel(sing_coeff=-1.0), LOG_KERNEL]]
        collocate(grids, kernels, [recording(0), recording(1)], [1.0, 1.0], fold)
        for grid, calls in zip(grids, seen):
            start = grid.size // 2 if fold else 0
            assert len(calls) == 1
            assert calls[0].tobytes() == grid.nodes[start:].tobytes()


class TestAssembly:
    def test_energy_matrix_applies_as_kernel_potential(self):
        # a system matrix's rows are the potential evaluator's rows, bit for bit
        grid = make_grid(F23, 32, 2.0)
        K = assemble_energy_matrix(np.empty((grid.size, grid.size)), grid.nodes, grid,
                                   SHEET1_KERNEL)
        mu = DiscreteMeasure.from_weights(grid, np.linspace(1.0, 2.0, grid.size) / 48.0)
        assert (K @ mu.weights).tobytes() == \
            kernel_potential(mu, SHEET1_KERNEL, grid.nodes).tobytes()
