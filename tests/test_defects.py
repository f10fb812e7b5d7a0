"""Defect injection: which checks fail when one constant of the theorem is wrong.

A ``pass`` is worth only what its check would report on a wrong program.
Each defect rebuilds one solution with :func:`equilab.equilibrium.collocate`
(or replaces the reconstruction) with one constant of the theorem changed,
and the four float-layer verifiers run at their fixed bounds on the result.
Each row asserts the exact set of checks that fail.

The empty rows are the gaps that bounds derived from the measured
discretization error (ROADMAP item 4) must close: at the fixed bounds a 3%
error in the coupling of the vector problem fails one check on [2, 3] and
none on the symmetric F.  A row's set may only grow: no bound may be
loosened to keep a defect unseen, and the list of defects only grows.
"""

import numpy as np
import pytest

import equilab.verify as verify
from equilab.balayage import balayage_numeric, chebyshev_measure
from equilab.equilibrium import (
    E_INTERVAL,
    GridParams,
    collocate,
    collocation_solution,
    solve_scalar,
    solve_vector,
)
from equilab.kernels import IntervalUnion, green_e_at_infinity
from equilab.measures import LOG_KERNEL, SHEET1_KERNEL, DiscreteMeasure, SingularKernel, make_grid

F23 = IntervalUnion([(2.0, 3.0)])
FSYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
GEOMETRIES = {"[2, 3]": (F23, GridParams(n=400)), "±[2, 3]": (FSYM, GridParams(n=200))}


def scalar_solution(F, gp, field=1.0):
    """The scalar solve, its field log|Phi| multiplied by ``field``."""
    grid = make_grid(F, gp.n, gp.grading)
    fold = F.is_symmetric()
    (u,), (c,), (r,) = collocate([grid], [[SHEET1_KERNEL]],
                                 [lambda x: -field * green_e_at_infinity(x)], [1.0], fold)
    return collocation_solution(grid, u, (c,), r, fold)


def coupled_solution(F, gp, ee=4.0, coupling=-1.0):
    """The coupled solve with interaction matrix [[ee, coupling], [coupling, 1]]."""
    grids = [make_grid(E_INTERVAL, gp.n, gp.grading), make_grid(F, gp.n, gp.grading)]
    fold = F.is_symmetric()
    kernels = [[SingularKernel(sing_coeff=ee), SingularKernel(sing_coeff=coupling)],
               [SingularKernel(sing_coeff=coupling), LOG_KERNEL]]
    weights, (w1, w2), residuals = collocate(grids, kernels, [np.zeros_like] * 2, [1.0, 1.0], fold)
    return tuple(collocation_solution(g, u, c, r, fold)
                 for g, u, c, r in zip(grids, weights, [(w1, w2), (w2, w1)], residuals))


def reconstruction_with_2_9_tau(lam, e_grid):
    """(swept F measure + 2.9 tau_E) / 3.9 in place of (swept + 3 tau_E) / 4."""
    swept = balayage_numeric(lam, e_grid).measure
    tau = chebyshev_measure(e_grid)
    return DiscreteMeasure(e_grid, (swept.weights + 2.9 * tau.weights) / 3.9)


# defect -> (scalar keywords, coupled keywords, replaces the reconstruction)
DEFECTS = {
    "none": ({}, {}, False),
    "coupling -1.03": ({}, {"coupling": -1.03}, False),
    "E-E coefficient 3.9": ({}, {"ee": 3.9}, False),
    "scalar field x 1.02": ({"field": 1.02}, {}, False),
    "reconstruction 2.9 tau_E": ({}, {}, True),
}

FIELD_CHECKS = {"equivalence.scalar_residual_fine", "mixed.constancy_on_f"}
EXPECTED = {
    ("[2, 3]", "none"): set(),
    ("[2, 3]", "coupling -1.03"): {"mixed.constancy_on_e"},
    ("[2, 3]", "E-E coefficient 3.9"): {"mixed.constancy_on_e"},
    ("[2, 3]", "scalar field x 1.02"): FIELD_CHECKS,
    ("[2, 3]", "reconstruction 2.9 tau_E"): set(),
    ("±[2, 3]", "none"): set(),
    ("±[2, 3]", "coupling -1.03"): set(),
    ("±[2, 3]", "E-E coefficient 3.9"): set(),
    ("±[2, 3]", "scalar field x 1.02"): FIELD_CHECKS,
    ("±[2, 3]", "reconstruction 2.9 tau_E"): set(),
}


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_builders_reproduce_the_solvers(geometry):
    # without a defect the builders are the solvers, bit for bit, so each
    # row differs from the program by its one constant only
    F, gp = GEOMETRIES[geometry]
    assert np.array_equal(scalar_solution(F, gp).measure.weights, solve_scalar(F, gp).measure.weights)
    for built, solved in zip(coupled_solution(F, gp), solve_vector(F, gp)):
        assert np.array_equal(built.measure.weights, solved.measure.weights)
        assert built.constants == solved.constants


@pytest.mark.parametrize("geometry, defect", sorted(EXPECTED))
def test_failing_checks(monkeypatch, geometry, defect):
    F, gp = GEOMETRIES[geometry]
    scalar_kw, coupled_kw, recon = DEFECTS[defect]
    if recon:
        monkeypatch.setattr(verify, "reconstruct_e_measure", reconstruction_with_2_9_tau)
    scalar = scalar_solution(F, gp, **scalar_kw)
    coupled = coupled_solution(F, gp, **coupled_kw)
    reports = [
        verify.verify_equivalence(scalar, coupled),
        verify.verify_mixed_potential(scalar.measure, coupled[0].measure),
        verify.verify_positivity(scalar.measure),
        verify.verify_charge_slopes(scalar.measure),
    ]
    failed = {c.check_id for rep in reports for c in rep.checks if c.status == "fail"}
    assert failed == EXPECTED[geometry, defect]
