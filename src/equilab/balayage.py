"""Balayage operators onto [-1, 1] and onto general interval unions.

Balayage sweeps a measure out of a domain onto its boundary while raising
the logarithmic potential by a constant on the swept-onto set.  Two routes
are implemented: the closed form for a point mass swept onto E = [-1, 1]
(density sqrt(a^2-1) / (pi |x-a| sqrt(1-x^2)), with exact cell masses from
the arctan antiderivative), and a potential-matching linear solve for
arbitrary discrete sources and targets.  The closed form doubles as the test
oracle for the numeric route.  The numeric sweep is the one-grid case of
:func:`equilab.equilibrium.collocate`, the collocation solve that the coupled
problem also uses; a target grid too coarse for the source (a point within
about 1e-5 of E on 400 cells) gives a negative weight and raises
:class:`~equilab.errors.DiscretizationError`.  A mirror-symmetric sweep (a
symmetric target and a mirror-exact source) may be solved folded, on half
the target grid, as the symmetric scalar and coupled problems are; the
reconstruction's sweep of the scalar measure onto E never folds, so that
it checks the folded solutions on a whole grid.
"""

from __future__ import annotations

import numpy as np

from .kernels import E_LEFT, E_RIGHT, IntervalUnion, is_real
from .measures import LOG_KERNEL, DiscreteMeasure, Grid, log_potential, mirror_exact
from .equilibrium import EquilibriumSolution, collocate, collocation_solution


def _require_e_grid(grid: Grid):
    hull = grid.support.hull
    if grid.support.m != 1 or abs(hull[0] - E_LEFT) > 1e-12 or abs(hull[1] - E_RIGHT) > 1e-12:
        raise ValueError("grid must cover exactly [-1, 1]")


def chebyshev_measure(grid: Grid) -> DiscreteMeasure:
    """Unit arcsine measure dx / (pi sqrt(1-x^2)) with exact cell masses."""
    _require_e_grid(grid)
    w = (np.arcsin(grid.cell_right) - np.arcsin(grid.cell_left)) / np.pi
    return DiscreteMeasure.from_weights(grid, w)


def _point_cdf_from_left(a: float, x):
    """Mass of [-1, x] under the point balayage, a > 1, via the arctan antiderivative."""
    k = np.sqrt((a + 1.0) / (a - 1.0))
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    return 1.0 - 2.0 * np.arctan(k * np.tan(theta / 2.0)) / np.pi


def require_outside_e(a):
    """The one check that a point to sweep lies outside [-1, 1]; returns it as a float."""
    if not is_real(a) or not abs(a) > 1.0 + 1e-9:
        raise ValueError(f"point must be a number outside [-1, 1], got {a!r}")
    return float(a)


def balayage_point_to_e(a: float, grid: Grid) -> DiscreteMeasure:
    """Closed-form balayage of the unit point mass at a onto E = [-1, 1].

    Cell masses are exact; the shift constant is the Green function of E at
    infinity evaluated at a, ``green_e_at_infinity(a)``, so the potential
    identity U_swept = -log|. - a| + log|Phi(a)| holds on E.
    """
    require_outside_e(a)
    _require_e_grid(grid)
    if a > 1.0:
        w = _point_cdf_from_left(a, grid.cell_right) - _point_cdf_from_left(a, grid.cell_left)
    else:
        w = _point_cdf_from_left(-a, -grid.cell_left) - _point_cdf_from_left(-a, -grid.cell_right)
    return DiscreteMeasure.from_weights(grid, w)


def balayage_numeric(mu: DiscreteMeasure, target: Grid, fold: bool = False) -> EquilibriumSolution:
    """Sweep a discrete measure onto the target grid by potential matching.

    Solves for target weights b and a constant c with U_b(x_i) = U_mu(x_i) + c
    at every target node and total mass preserved, by one :func:`collocate`
    call, and returns its solution: the swept measure, c as its constant
    and the residual; a negative weight raises
    :class:`~equilab.errors.DiscretizationError`.  A source that meets the
    target set is rejected.

    With ``fold`` the system is mirror-folded like the symmetric scalar and
    coupled solves (method ``collocation_parity``).  The swept measure is
    unique, so it is even when the problem is; that needs a symmetric
    target and a mirror-exact source (:func:`~equilab.measures.mirror_exact`),
    and anything else raises ``ValueError``.  The source potential is
    evaluated only at the target nodes that the solve matches, the
    representative half when folded.
    """
    if _overlaps(mu.support, target.support):
        raise ValueError("source support must be disjoint from the target")
    if fold and not (target.support.is_symmetric() and mirror_exact(mu)):
        raise ValueError("a folded sweep needs a symmetric target and a mirror-exact source")
    (b,), (c,), (resid,) = collocate([target], [[LOG_KERNEL]], [lambda x: log_potential(mu, x)],
                                     [mu.mass], fold)
    return collocation_solution(target, b, (c,), resid, fold)


def _overlaps(a: IntervalUnion, b: IntervalUnion) -> bool:
    return any(max(l1, l2) <= min(r1, r2) for (l1, r1) in a.intervals for (l2, r2) in b.intervals)


def reconstruct_e_measure(lam: DiscreteMeasure, e_grid: Grid) -> DiscreteMeasure:
    """First coupled measure from the F measure: (balayage onto E + 3 tau_E) / 4."""
    if abs(lam.mass - 1.0) > 1e-8:
        raise ValueError("expects a unit measure on F")
    swept = balayage_numeric(lam, e_grid).measure
    tau = chebyshev_measure(e_grid)
    w = (swept.weights + 3.0 * tau.weights) / 4.0
    return DiscreteMeasure.from_weights(e_grid, w)
