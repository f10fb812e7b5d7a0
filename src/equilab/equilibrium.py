"""Equilibrium solvers.

Three problems are solved here, each as one dense linear system for the
cell weights of fully supported measures of given mass:

- the weighted scalar problem on F with the sheet-1 surface kernel
  log(|1 - Phi(s) Phi(t)| / |s - t|^2), ``measures.SHEET1_KERNEL``, and
  external field log|Phi|, ``kernels.green_e_at_infinity``,
- the coupled two-measure problem on (E, F) with interaction matrix
  [[4, -1], [-1, 1]],
- the reduced one-measure problem on E with kernel
  3 log(1/|x - y|) + g_F(x, y) for a single-interval F.

Each is a potential-matching collocation system on the grid nodes, like
balayage in :mod:`equilab.balayage`, built and solved by :func:`collocate`
alone: the measures sought have full support, so a weight below -1e-12
means the grid is too coarse and raises
:class:`~equilab.errors.DiscretizationError`.  The kernels are
:class:`~equilab.measures.SingularKernel` values, one per block, and every
block of a system matrix is built by
:func:`equilab.measures.kernel_cell_averages`, the row block of the one
potential evaluator, :func:`equilab.measures.kernel_potential`.  So the
recorded residuals measure the linear algebra only; the discretization
error is what the verifiers measure off the nodes.

Each solve returns an :class:`EquilibriumSolution`, which stores the
measure (weights on the solved :class:`~equilab.measures.Grid`), its
constants, residual and method, and reads the grid and minimum density off
the measure.

The verifiers evaluate these same kernels and field; every smooth part is
defined in :mod:`equilab.kernels`, the only module that evaluates Phi.

On a symmetric F (``F.is_symmetric()``, F = -F exactly) the scalar measure
and the coupled pair are unique, hence even, and :func:`solve_scalar` and
:func:`solve_vector` solve for the representative half of each grid only:
cells N // 2 .. N-1, cell N-1-k being the mirror of cell k (``make_grid``
places it there to within one rounding), and the middle cell of an odd N
its own mirror.  Each matrix column gets its mirror column added, each mass
row counts a representative twice (a self-mirror cell once), and the
weights are mirrored back, so the half-size system is exact up to the
grid's one-rounding asymmetry (method ``collocation_parity``).  Each
right-hand side is a function of the nodes, evaluated at the representative
ones only.  The verifiers' sweep of the coupled E measure onto F folds the
same way (``balayage_numeric(..., fold=True)``): its source is mirror-exact
and its solution unique.  No other system folds: the reduced problem and the
sweep of the scalar measure onto E in the reconstruction solve whole grids.
The 4x-fine residual of a mirror-exact scalar measure is evaluated on the
positive half of its grid, with the whole kernel over all cells, so it
still measures the folded solution off the nodes it matched; the mixed
potential, positivity and KS checks evaluate the folded solutions on whole
grids.  That is how the fold is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationError, NonConvergenceError
from .kernels import (
    E_LEFT,
    E_RIGHT,
    IntervalUnion,
    green_e_at_infinity,
    green_single_interval,
    require_gap_to_e,
)
from .measures import (
    LOG_KERNEL,
    SHEET1_KERNEL,
    DiscreteMeasure,
    Grid,
    SingularKernel,
    fold_columns,
    kernel_cell_averages,
    make_grid,
    row_slices,
)

E_INTERVAL = IntervalUnion([(E_LEFT, E_RIGHT)])


@dataclass(frozen=True)
class GridParams:
    n: int = 400
    grading: float = 2.0


def reduced_kernel(F: IntervalUnion) -> SingularKernel:
    """Kernel 3 log(1/|x-y|) + g_F(x, y) on E, single-interval F only."""
    return SingularKernel(sing_coeff=4.0, smooth=green_single_interval(F).smooth)


# --------------------------------------------------------------------------
# assembly


def assemble_energy_matrix(out, z, grid: Grid, kernel: SingularKernel, start=0):
    """Write the kernel's cell averages over ``grid`` at z into ``out``, one row block at a time.

    Each :func:`row_slices` block is one :func:`kernel_cell_averages` call,
    its columns mirror-folded by :func:`fold_columns` when ``start`` > 0,
    and is copied into ``out``, the len(z) x (grid.size - start)
    slice of a system matrix, so the matrix is the only full-size buffer.
    Every entry is computed elementwise, so with ``start`` = 0 the bits are
    those of one kernel_cell_averages call over all of z.
    """
    for rows in row_slices(len(z), grid.size):
        out[rows] = fold_columns(kernel_cell_averages(z[rows], grid, kernel), start)
    return out


# --------------------------------------------------------------------------
# solution container


@dataclass(frozen=True)
class EquilibriumSolution:
    measure: DiscreteMeasure
    constants: tuple
    residual_sup: float
    method: str

    @property
    def grid(self) -> Grid:
        return self.measure.grid

    @property
    def min_density(self) -> float:
        return float(np.min(self.measure.densities))

    @property
    def constant(self) -> float:
        return self.constants[0]

    def sidecar_dict(self) -> dict:
        return {
            "constant": float(self.constants[0]),
            "constants": [float(c) for c in self.constants],
            "residual_sup": float(self.residual_sup),
            "min_density": float(self.min_density),
            "method": self.method,
            # every solve is one dense factorization; the key stays for the file format
            "iterations": 0,
            "grid": {
                "n_per_component": self.grid.n_per_component,
                "grading": self.grid.grading,
                "support": [[l, r] for (l, r) in self.grid.support.intervals],
            },
        }


# --------------------------------------------------------------------------
# dense solves


def _fold_start(grid: Grid, fold: bool) -> int:
    """First representative index of a mirror-folded grid (N // 2), or 0 unfolded."""
    return grid.size // 2 if fold else 0


def _mirror_counts(n, start):
    """Cells each representative weight stands for: 2, or 1 for a self-mirror middle cell."""
    counts = np.ones(n - start)
    counts[n - 2 * start:] = 2.0
    return counts


def _unfold(u, n):
    """Weights on all n cells from the representative ones, cell n-1-k copying cell k."""
    return np.concatenate([u[::-1][: n - len(u)], u])


# --------------------------------------------------------------------------
# collocation


def collocate(grids, kernels, rhs, masses, fold=False):
    """Potential matching on the nodes of several grids, in one dense solve.

    Finds weights u_j on ``grids[j]`` and constants c_i such that, at every
    node x of ``grids[i]``, sum_j U_ij(u_j)(x) - c_i = rhs[i](x), U_ij being
    the potential of the :class:`~equilab.measures.SingularKernel`
    ``kernels[i][j]``, and sum u_i = masses[i].  Each right-hand side is a
    function of an array of nodes, called once with the nodes matched.
    Each block is filled straight into the system matrix by
    :func:`assemble_energy_matrix`; one -1 column per constant and one mass
    row per grid border it.  A singular system
    raises :class:`NonConvergenceError`.  The measures sought have full
    support, so a weight below -1e-12 means a grid is too coarse for the
    problem and raises :class:`DiscretizationError`, naming the weight, its
    node and the cells per component.

    With ``fold`` the problem is taken to be mirror symmetric (every grid,
    kernel and right-hand side invariant under x -> -x): only the
    representative half of each grid's nodes and weights enters, so each
    right-hand side is evaluated there only, the columns are mirror-folded
    and each mass row counts a representative twice, except a self-mirror
    middle cell.

    Returns ``(weights, constants, residuals)``: the weights per grid clipped
    at zero (mirrored back onto the whole grid), the constants, and each
    block row's sup residual.  The blocks depend on the cells only, so the
    residuals are read from the matrix slices times the clipped weights.
    """
    starts = [_fold_start(g, fold) for g in grids]
    edges = np.cumsum([0] + [g.size - s for g, s in zip(grids, starts)])
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    n, m = int(edges[-1]), len(grids)
    rhs = [f(g.nodes[s:]) for f, g, s in zip(rhs, grids, starts)]
    A = np.zeros((n + m, n + m))
    for i, si in enumerate(blocks):
        for j, sj in enumerate(blocks):
            assemble_energy_matrix(A[si, sj], grids[i].nodes[starts[i]:], grids[j],
                                   kernels[i][j], starts[j])
        A[si, n + i] = -1.0
        A[n + i, si] = _mirror_counts(grids[i].size, starts[i])
    try:
        sol = np.linalg.solve(A, np.concatenate([*rhs, masses]))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"collocation system is singular: {exc}") from exc
    k = int(np.argmin(sol[:n]))
    if sol[k] < -1e-12:
        i = int(np.searchsorted(edges, k, side="right")) - 1
        node = float(grids[i].nodes[starts[i] + k - edges[i]])
        raise DiscretizationError(
            f"collocation weight {sol[k]:.3e} at node {node!r} with "
            f"{grids[i].n_per_component} cells per component: the grid is too coarse "
            f"for this problem"
        )
    weights = [np.maximum(sol[s], 0.0) for s in blocks]
    constants = [float(c) for c in sol[n:]]
    residuals = [
        float(np.max(np.abs(sum(A[si, sj] @ u for sj, u in zip(blocks, weights)) - r - c)))
        for si, r, c in zip(blocks, rhs, constants)
    ]
    return [_unfold(u, g.size) for u, g in zip(weights, grids)], constants, residuals


# --------------------------------------------------------------------------
# solvers


def collocation_solution(grid, weights, constants, residual, fold=False):
    """The :class:`EquilibriumSolution` of one grid of a :func:`collocate` result."""
    return EquilibriumSolution(measure=DiscreteMeasure(grid, weights), constants=tuple(constants),
                               residual_sup=residual,
                               method="collocation_parity" if fold else "collocation")


def solve_scalar(F: IntervalUnion, grid_params: GridParams = GridParams()) -> EquilibriumSolution:
    """Weighted equilibrium on F: sheet-1 kernel with external field log|Phi|.

    One :func:`collocate` call: the sheet-1 potential plus the field is
    matched to the constant w_F at the nodes, mirror-folded on F = -F,
    where the kernel and the field are even.  Its constancy on all of F and
    the strictly positive density (full support) are re-measured by the
    verifiers, not assumed.
    """
    require_gap_to_e(F)
    grid = make_grid(F, grid_params.n, grid_params.grading)
    fold = F.is_symmetric()
    (u,), (c,), (r,) = collocate([grid], [[SHEET1_KERNEL]], [lambda x: -green_e_at_infinity(x)],
                                 [1.0], fold)
    return collocation_solution(grid, u, (c,), r, fold)


def solve_reduced(F: IntervalUnion, grid_params: GridParams = GridParams()) -> EquilibriumSolution:
    """One-measure reduction on E: kernel 3 log(1/|x-y|) + g_F(x, y), no field.

    Needs a single-interval F (the Green function is in closed form only
    there); the result should reproduce the first component of the coupled
    problem, and its constant the sum of the two coupled constants.
    """
    require_gap_to_e(F)
    grid = make_grid(E_INTERVAL, grid_params.n, grid_params.grading)
    (u,), (c,), (r,) = collocate([grid], [[reduced_kernel(F)]], [np.zeros_like], [1.0])
    return collocation_solution(grid, u, (c,), r)


def solve_vector(F: IntervalUnion, grid_params: GridParams = GridParams()):
    """Coupled pair problem: 4 U1 - U2 = w1 on E, -U1 + U2 = w2 on F.

    One :func:`collocate` call on the E and F grids, mirror-folded on
    F = -F.

    Returns a pair of :class:`EquilibriumSolution`, for the E and F measures.
    """
    require_gap_to_e(F)
    grids = [make_grid(E_INTERVAL, grid_params.n, grid_params.grading),
             make_grid(F, grid_params.n, grid_params.grading)]
    fold = F.is_symmetric()
    kernels = [[SingularKernel(sing_coeff=4.0), SingularKernel(sing_coeff=-1.0)],
               [SingularKernel(sing_coeff=-1.0), LOG_KERNEL]]
    weights, (w1, w2), residuals = collocate(grids, kernels, [np.zeros_like] * 2, [1.0, 1.0], fold)
    return tuple(collocation_solution(g, u, c, r, fold)
                 for g, u, c, r in zip(grids, weights, [(w1, w2), (w2, w1)], residuals))
