"""Verification-harness tests at reduced grid scale."""

import json

import numpy as np
import pytest

from equilab.balayage import balayage_numeric, reconstruct_e_measure
from equilab.equilibrium import GridParams, solve_reduced, solve_scalar, solve_vector
from equilab.hermite_pade import HPSweep, MarkovSpec, solve_with_escalation
from equilab import measures
from equilab.kernels import IntervalUnion
from equilab.measures import make_grid, surface_functional
from equilab.verify import (
    Tolerances,
    VerificationReport,
    counting_measure,
    sheet1_comparison,
    verify_charge_slopes,
    verify_equivalence,
    verify_mixed_potential,
    verify_positivity,
    verify_zero_distribution,
)

F23 = IntervalUnion([(2.0, 3.0)])
FSYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
GP = GridParams(n=120, grading=2.0)
TOL = Tolerances().scaled(400 / 120)


@pytest.fixture(scope="module")
def solutions():
    scalar = solve_scalar(F23, GP)
    sol_e, sol_f = solve_vector(F23, GP)
    return scalar, sol_e, sol_f


class TestEquivalence:
    def test_single_interval(self, solutions):
        scalar, sol_e, sol_f = solutions
        rep = verify_equivalence(scalar, (sol_e, sol_f), TOL)
        assert rep.all_passed
        ids = {c.check_id for c in rep.checks}
        assert "equivalence.scalar_min_density" in ids
        assert "equivalence.scalar_residual_fine" in ids
        assert "equivalence.ks_scalar_vs_coupled_f" in ids
        assert "equivalence.ks_scalar_vs_swept_e" in ids
        assert "equivalence.ks_coupled_e_vs_reconstruction" in ids
        assert "equivalence.ks_reduced_vs_coupled_e" in ids
        assert "equivalence.reduced_constant_consistency" in ids

    def test_checks_on_the_solved_grids(self, solutions, monkeypatch):
        # the sweep and the reconstruction use the grids the solves returned;
        # only the 4x-fine residual grid is built here.  The sweep onto F is
        # folded exactly on F = -F; the reconstruction's sweep onto E, fed
        # by the folded scalar solution, never is
        import equilab.balayage as balayage
        import equilab.verify as verify

        def spy(mu, grid, fold=False):
            sweeps.append((grid, fold))
            return balayage_numeric(mu, grid, fold)

        monkeypatch.setattr(verify, "make_grid",
                            lambda *args: built.append(args) or make_grid(*args))
        monkeypatch.setattr(verify, "balayage_numeric", spy)
        monkeypatch.setattr(balayage, "balayage_numeric", spy)
        for F, (scalar, sol_e, sol_f) in [(F23, solutions),
                                          (FSYM, (solve_scalar(FSYM, GP), *solve_vector(FSYM, GP)))]:
            built, sweeps = [], []
            verify_equivalence(scalar, (sol_e, sol_f), TOL)
            assert built == [(F, 4 * GP.n, GP.grading)]
            (onto_f, fold_f), (onto_e, fold_e) = sweeps
            assert onto_f is scalar.grid and fold_f == F.is_symmetric()
            assert onto_e is sol_e.grid and fold_e is False

    def test_symmetric_f(self):
        from equilab.equilibrium import E_INTERVAL

        scalar = solve_scalar(FSYM, GP)
        rep = verify_equivalence(scalar, solve_vector(FSYM, GP), TOL)
        assert rep.all_passed
        by_id = {c.check_id: c for c in rep.checks}
        assert by_id["equivalence.symmetry_e"].status == "pass"
        # the coupled E weights are mirror-exact by construction, so the
        # check measures the reconstruction, which no solve folds
        w = reconstruct_e_measure(scalar.measure, make_grid(E_INTERVAL, GP.n, GP.grading)).weights
        assert by_id["equivalence.symmetry_e"].value == float(np.max(np.abs(w - w[::-1])))
        # reduced route is single-interval only: recorded as skipped
        assert by_id["equivalence.ks_reduced_vs_coupled_e"].status == "skipped"
        assert by_id["equivalence.reduced_constant_consistency"].status == "skipped"

    def test_a_broken_fold_fails_off_the_fold(self, monkeypatch):
        # a fold that drops the mirror column solves the wrong half-size
        # systems; the checks that evaluate or sweep on whole grids see it
        import equilab.equilibrium as equilibrium

        monkeypatch.setattr(equilibrium, "fold_columns", lambda Q, start: Q[:, start:])
        gp = GridParams(n=200, grading=2.0)
        rep = verify_equivalence(solve_scalar(FSYM, gp), solve_vector(FSYM, gp))
        failed = {c.check_id for c in rep.checks if c.status == "fail"}
        assert failed == {"equivalence.scalar_residual_fine",
                          "equivalence.ks_scalar_vs_coupled_f",
                          "equivalence.ks_scalar_vs_swept_e",
                          "equivalence.ks_coupled_e_vs_reconstruction"}

    @pytest.mark.parametrize("n", [63, 64, 200])
    def test_residual_on_half_the_fine_grid_when_mirror_exact(self, monkeypatch, n):
        # an even measure's residual is evaluated on the positive half of the
        # 4x-fine grid; a measure one ulp off even, or a one-sided F, on all
        # of it.  The half-grid sup is the whole-grid one up to rounding
        import dataclasses

        import equilab.verify as verify
        from equilab.measures import DiscreteMeasure

        def spy(mu, z):
            sizes.append(len(z))
            return surface_functional(mu, z)

        monkeypatch.setattr(verify, "surface_functional", spy)
        gp = GridParams(n=n, grading=2.0)
        sym = solve_scalar(FSYM, gp)
        w = sym.measure.weights.copy()
        w[0] = np.nextafter(w[0], 1.0)
        nudged = dataclasses.replace(sym, measure=DiscreteMeasure.from_weights(sym.grid, w))
        coupled = {F: solve_vector(F, gp) for F in (FSYM, F23)}
        for scalar, F, points in [(sym, FSYM, 4 * n), (nudged, FSYM, 8 * n),
                                  (solve_scalar(F23, gp), F23, 4 * n)]:
            sizes = []
            rep = verify_equivalence(scalar, coupled[F], TOL)
            assert sizes == [points]
            fine = make_grid(F, 4 * n, 2.0).nodes
            whole = np.max(np.abs(surface_functional(scalar.measure, fine) - scalar.constant))
            value = {c.check_id: c.value for c in rep.checks}["equivalence.scalar_residual_fine"]
            assert abs(value - whole) <= 1e-14

    def test_cross_route_closure(self, solutions):
        # three routes to the E measure agree pairwise within 2x the KS bound
        from equilab.equilibrium import E_INTERVAL, solve_reduced
        from equilab.measures import ks_distance

        scalar, sol_e, _ = solutions
        reduced = solve_reduced(F23, GP)
        e_grid = make_grid(E_INTERVAL, GP.n, GP.grading)
        recon = reconstruct_e_measure(scalar.measure, e_grid)
        pairs = [
            ks_distance(sol_e.measure, reduced.measure),
            ks_distance(sol_e.measure, recon),
            ks_distance(reduced.measure, recon),
        ]
        assert max(pairs) <= 2 * TOL.ks


class TestMixedPotential:
    def test_single_interval(self, solutions):
        scalar, sol_e, _ = solutions
        rep = verify_mixed_potential(scalar.measure, sol_e.measure, TOL)
        assert rep.all_passed
        by_id = {c.check_id: c for c in rep.checks}
        assert by_id["mixed.affine_identity"].value <= 1e-10

    def test_multi_interval_skips_e_side(self):
        scalar = solve_scalar(FSYM, GP)
        sol_e, _ = solve_vector(FSYM, GP)
        rep = verify_mixed_potential(scalar.measure, sol_e.measure, TOL)
        by_id = {c.check_id: c for c in rep.checks}
        assert by_id["mixed.constancy_on_e"].status == "skipped"
        assert by_id["mixed.constancy_on_f"].status == "pass"
        assert rep.all_passed  # skips do not fail the report

    def test_constancy_on_f_is_measured_between_the_nodes(self):
        # the scalar solve matches the surface functional at the nodes, so
        # there it is constant to rounding; the check reads the shared cell
        # edges and so still sees the discretization (and fails at 64 cells)
        gp = GridParams(n=64, grading=2.0)
        lam = solve_scalar(F23, gp).measure
        pv = surface_functional(lam, lam.nodes)
        assert pv.max() - pv.min() <= 1e-12
        sol_e, _ = solve_vector(F23, gp)
        rep = verify_mixed_potential(lam, sol_e.measure)
        check = {c.check_id: c for c in rep.checks}["mixed.constancy_on_f"]
        assert check.value > 1e-3 and check.status == "fail"

    @pytest.mark.parametrize("support", [F23, FSYM])
    def test_each_cell_average_block_built_once(self, monkeypatch, support):
        # U, the G_E-potential and the surface functional of the scalar
        # measure at the shared edges share their -log blocks; no
        # (points, cells) pair is evaluated twice, and the values keep the
        # bits of the three separate potentials
        gp = GridParams(n=200, grading=2.0)
        lam = solve_scalar(support, gp).measure
        sol_e, _ = solve_vector(support, gp)
        calls = []
        original = measures.neglog_cell_averages

        def spy(z, mu):
            calls.append((np.asarray(z).tobytes(), id(mu)))
            return original(z, mu)

        monkeypatch.setattr(measures, "neglog_cell_averages", spy)
        rep = verify_mixed_potential(lam, sol_e.measure, TOL)
        assert len(calls) == len(set(calls))
        z = lam.cell_right[:-1][lam.cell_right[:-1] == lam.cell_left[1:]]
        v2 = 3.0 * measures.log_potential(lam, z) + sheet1_comparison(lam, z)
        ident = v2 - 2.0 * surface_functional(lam, z)
        by_id = {c.check_id: c for c in rep.checks}
        assert by_id["mixed.affine_identity"].value == float(np.max(np.abs(ident - ident.mean())))
        assert by_id["mixed.constancy_on_f"].value == float(v2.max() - v2.min())


class TestPositivity:
    def test_passes(self, solutions):
        scalar, _, _ = solutions
        rep = verify_positivity(scalar.measure)
        assert rep.all_passed

    def test_deterministic(self, solutions):
        scalar, _, _ = solutions
        a = verify_positivity(scalar.measure)
        b = verify_positivity(scalar.measure)
        assert a.to_json_dict() == b.to_json_dict()


class TestSlopes:
    def test_passes(self, solutions):
        scalar, _, _ = solutions
        rep = verify_charge_slopes(scalar.measure)
        assert rep.all_passed


class TestZeroDistribution:
    def test_small_orders(self):
        sigma = MarkovSpec(F23, "arcsine")
        gp = GridParams(n=100, grading=2.0)
        rep = verify_zero_distribution(
            sigma, [2, 4], solve_scalar(F23, gp), 192, Tolerances(ks_final=0.5)
        )
        assert rep.all_passed
        assert "ks_sequence" in rep.provenance
        assert set(rep.provenance["ks_sequence"]) == {"2", "4"}
        assert rep.provenance["sigma_quad_orders"] == {"192": 128}

    def test_n_list_must_increase(self, solutions):
        scalar, _, _ = solutions
        with pytest.raises(ValueError):
            verify_zero_distribution(MarkovSpec(F23, "arcsine"), [4, 2], scalar, 192)

    def test_counting_measure_mass(self):
        sigma = MarkovSpec(F23, "arcsine")
        _, zeros = solve_with_escalation(5, HPSweep(sigma, [5]), 256)
        chi = counting_measure(zeros)
        assert abs(chi.weights.sum() - 1.0) <= 1e-14
        assert chi.nodes.tolist() == zeros
        assert counting_measure(zeros[:4]).weights.tolist() == [0.25] * 4
        with pytest.raises(ValueError):
            counting_measure([])


def test_reports_echo_the_solved_grid():
    # an integer grading is echoed as the solved grid's float
    gp = GridParams(n=40, grading=1)
    scalar = solve_scalar(F23, gp)
    reports = [
        verify_equivalence(scalar, solve_vector(F23, gp)),
        verify_zero_distribution(MarkovSpec(F23, "arcsine"), [2], scalar, 192),
    ]
    for rep in reports:
        assert json.dumps(rep.provenance["grid"]) == '{"n": 40, "grading": 1.0}', rep.name


def test_reduced_route_on_the_solved_grid(monkeypatch):
    # F and the grid parameters are read from the scalar solve, so the
    # reduced problem gets its 40 cells, not the default 400
    import equilab.verify as verify

    gp = GridParams(n=40, grading=1.5)
    scalar = solve_scalar(F23, gp)
    calls = []
    monkeypatch.setattr(verify, "solve_reduced", lambda F, grid_params:
                        calls.append((F, grid_params)) or solve_reduced(F, grid_params))
    verify_equivalence(scalar, solve_vector(F23, gp))
    assert calls == [(F23, gp)]


class TestReportStructure:
    def test_no_silent_skips(self, solutions):
        scalar = solve_scalar(FSYM, GP)
        sol_e, _ = solve_vector(FSYM, GP)
        rep = verify_mixed_potential(scalar.measure, sol_e.measure, TOL)
        for c in rep.checks:
            assert c.status in ("pass", "fail", "skipped")
            if c.status == "skipped":
                assert c.note

    def test_markdown_rendering(self, solutions):
        scalar, sol_e, _ = solutions
        rep = verify_mixed_potential(scalar.measure, sol_e.measure, TOL)
        md = rep.to_markdown()
        assert "| mixed.affine_identity |" in md
        assert md.startswith("## mixed-potential")

    def test_json_shape(self, solutions):
        scalar, sol_e, _ = solutions
        rep = verify_mixed_potential(scalar.measure, sol_e.measure, TOL)
        d = rep.to_json_dict()
        assert d["name"] == "mixed-potential"
        assert isinstance(d["all_passed"], bool)
        assert all({"check_id", "value", "tolerance", "status", "note"} <= set(c) for c in d["checks"])

    def test_failed_check_recorded(self):
        rep = VerificationReport(name="x")
        rep.add_bound("x.too_big", 1.0, 0.5)
        assert not rep.all_passed
        assert rep.checks[0].status == "fail"
