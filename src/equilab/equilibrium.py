"""Equilibrium solvers.

Three problems are solved here, each as one dense linear system for the
cell weights of fully supported measures of given mass:

- the weighted scalar problem on F with the surface kernel
  log(|1 - Phi(s) Phi(t)| / |s - t|^2) and external field log|Phi|,
- the coupled two-measure problem on (E, F) with interaction matrix
  [[4, -1], [-1, 1]],
- the reduced one-measure problem on E with kernel
  3 log(1/|x - y|) + g_F(x, y) for a single-interval F.

The scalar and reduced problems minimize the discretized quadratic energy
w'Kw + 2f'w (cell-averaged diagonal, midpoint off-diagonal) through the
linear saddle system.  The coupled problem, like balayage in
:mod:`equilab.balayage`, is a potential-matching collocation system on the
grid nodes, built and solved by :func:`collocate` alone.  Every one of these
dense systems is solved once by :func:`_solve_bordered`: the measures they
approximate have full support, so a weight below -1e-12 means the grid is
too coarse and raises :class:`~equilab.errors.DiscretizationError`.
The kernels are :class:`~equilab.measures.SingularKernel` values; the
energy matrix evaluates their smooth part at node pairs, and residuals are
re-measured through the one potential evaluator,
:func:`equilab.measures.kernel_potential`, and recorded as observed.

On a symmetric F (``F.is_symmetric()``, F = -F exactly) the scalar measure
and the coupled pair are unique, hence even, and :func:`solve_scalar` and
:func:`solve_vector` solve for the representative half of each grid only:
cells N // 2 .. N-1, cell N-1-k being the mirror of cell k (``make_grid``
places it there to within one rounding), and the middle cell of an odd N
its own mirror.  Each matrix column gets its mirror column added, each mass
row counts a representative twice (a self-mirror cell once), and the
weights are mirrored back, so the half-size system is exact up to the
grid's one-rounding asymmetry (methods ``saddle_parity`` and
``collocation_parity``).  Nothing else folds: the reduced problem, both
balayage sweeps and the reconstruction solve whole grids, and the 4x-fine
residual, mixed potential, positivity and KS checks evaluate the folded
solutions on whole grids, which is how the fold is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationError, NonConvergenceError
from .kernels import (
    E_LEFT,
    E_RIGHT,
    IntervalUnion,
    _phi_real,
    green_single_interval,
    require_gap_to_e,
    scalar_kernel_smooth,
)
from .measures import (
    DiscreteMeasure,
    Grid,
    SingularKernel,
    fill_cell_averages,
    kernel_potential,
    make_grid,
    row_slices,
)

E_INTERVAL = IntervalUnion([(E_LEFT, E_RIGHT)])


@dataclass(frozen=True)
class GridParams:
    n: int = 400
    grading: float = 2.0


def surface_kernel() -> SingularKernel:
    """Kernel of the scalar problem over real points outside E."""
    return SingularKernel(sing_coeff=2.0, smooth=scalar_kernel_smooth)


def surface_field(x):
    """External field log|Phi| on the zero sheet over F."""
    return np.log(np.abs(_phi_real(x)))


def reduced_kernel(F: IntervalUnion) -> SingularKernel:
    """Kernel 3 log(1/|x-y|) + g_F(x, y) on E, single-interval F only."""
    return SingularKernel(sing_coeff=4.0, smooth=green_single_interval(F).smooth)


# --------------------------------------------------------------------------
# assembly


def _kernel_entries(kernel, s, t, out=None, diag=None, offset=0):
    """sing_coeff * -log|s_i - t_j| + smooth(s_i, t_j), written into ``out`` when given.

    ``diag`` replaces -log|s_i - t_(offset+i)|, the zero distances of a
    matrix's diagonal, before the scaling.
    """
    out = np.subtract(s[:, None], t[None, :], out=out)
    np.abs(out, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    np.negative(out, out=out)
    if diag is not None:
        i = np.arange(len(s))
        out[i, offset + i] = diag
    out *= kernel.sing_coeff
    if kernel.smooth is not None:
        out += kernel.smooth(s[:, None], t[None, :])
    return out


def assemble_energy_matrix(grid: Grid, kernel: SingularKernel, out=None, start=0):
    """Galerkin energy matrix: midpoint off-diagonal, exact self-cell diagonal.

    The self-cell double integral of -log|s-t| over a width-h cell is
    h^2 (3/2 - log h).  With ``start`` = N // 2 only the rows and columns
    ``start:`` are kept, and each column k has the mirror column N-1-k
    added (but a self-mirror middle column): the matrix of a kernel
    invariant under (s, t) -> (-s, -t) acting on mirror symmetric weights.
    The entries are written into ``out`` (the square slice of a saddle
    matrix) when given, else into a new array, one :func:`row_slices` block
    at a time; only the smooth part and the mirror columns of a block need
    temporaries.
    """
    x = grid.nodes
    n = len(x)
    K = np.empty((n - start, n - start)) if out is None else out
    diag = 1.5 - np.log(grid.widths)
    for rows in row_slices(n - start, n):
        r = slice(start + rows.start, start + rows.stop)
        Kb = _kernel_entries(kernel, x[r], x[start:], K[rows], diag[r], rows.start)
        if start:
            Kb[:, n - 2 * start:] += _kernel_entries(kernel, x[r], x[:start][::-1])
    return K


# --------------------------------------------------------------------------
# solution container


@dataclass(frozen=True)
class EquilibriumSolution:
    measure: DiscreteMeasure
    constants: tuple
    residual_sup: float
    min_density: float
    method: str

    @property
    def constant(self) -> float:
        return self.constants[0]

    def sidecar_dict(self, grid_params: GridParams) -> dict:
        return {
            "constant": float(self.constants[0]),
            "constants": [float(c) for c in self.constants],
            "residual_sup": float(self.residual_sup),
            "min_density": float(self.min_density),
            "method": self.method,
            # every solve is one dense factorization; the key stays for the file format
            "iterations": 0,
            "grid": {
                "n_per_component": grid_params.n,
                "grading": grid_params.grading,
                "support": [[l, r] for (l, r) in self.measure.support.intervals],
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


def _solve_bordered(A, rhs, grids, starts, kind):
    """Solve a bordered system whose first unknowns are weights on ``grids``, in one dense solve.

    The unknowns of grid i are its weights from index ``starts[i]`` on.  A
    singular system raises :class:`NonConvergenceError`.  A weight below
    -1e-12 means a grid is too coarse for the problem and raises
    :class:`DiscretizationError`, naming the weight, its node and the cells
    per component; ``kind`` (``saddle`` or ``collocation``) starts both
    messages.  Returns the whole solution vector.
    """
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"{kind} system is singular: {exc}") from exc
    edges = np.cumsum([0] + [g.size - s for g, s in zip(grids, starts)])
    k = int(np.argmin(sol[:edges[-1]]))
    if sol[k] < -1e-12:
        i = int(np.searchsorted(edges, k, side="right")) - 1
        node = float(grids[i].nodes[starts[i] + k - edges[i]])
        raise DiscretizationError(
            f"{kind} weight {sol[k]:.3e} at node {node!r} with {grids[i].n_per_component} "
            f"cells per component: the grid is too coarse for this problem"
        )
    return sol


# --------------------------------------------------------------------------
# collocation


def collocate(grids, coeffs, rhs, masses, fold=False):
    """Potential matching on the nodes of several grids, in one dense solve.

    Finds weights u_j on ``grids[j]`` and constants c_i such that, at every
    node of ``grids[i]``, sum_j coeffs[i][j] U(u_j) - c_i = rhs[i], and
    sum u_i = masses[i].  Each block coeffs[i][j] * Q is filled straight into
    the system matrix, Q being the -log cell averages of ``grids[j]`` at the
    nodes of ``grids[i]`` (:func:`fill_cell_averages`); one -1 column per
    constant and one mass row per grid border it, and
    :func:`_solve_bordered` solves it once.

    With ``fold`` the problem is taken to be mirror symmetric (every grid
    and right-hand side invariant under x -> -x): only the representative
    half of each grid's nodes and weights enters, the columns are
    mirror-folded and each mass row counts a representative twice, except
    a self-mirror middle cell.

    Returns ``(weights, constants, residuals)``: the weights per grid clipped
    at zero (mirrored back onto the whole grid), the constants, and each
    block row's sup residual.  The blocks depend on the cells only, so the
    residuals are read from the matrix slices times the clipped weights.
    """
    starts = [_fold_start(g, fold) for g in grids]
    edges = np.cumsum([0] + [g.size - s for g, s in zip(grids, starts)])
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    n, m = int(edges[-1]), len(grids)
    rhs = [r[s:] for r, s in zip(rhs, starts)]
    A = np.zeros((n + m, n + m))
    for i, si in enumerate(blocks):
        for j, sj in enumerate(blocks):
            fill_cell_averages(A[si, sj], grids[i].nodes[starts[i]:], grids[j], coeffs[i][j],
                               starts[j])
        A[si, n + i] = -1.0
        A[n + i, si] = _mirror_counts(grids[i].size, starts[i])
    sol = _solve_bordered(A, np.concatenate([*rhs, masses]), grids, starts, "collocation")
    weights = [np.maximum(sol[s], 0.0) for s in blocks]
    constants = [float(c) for c in sol[n:]]
    residuals = [
        float(np.max(np.abs(sum(A[si, sj] @ u for sj, u in zip(blocks, weights)) - r - c)))
        for si, r, c in zip(blocks, rhs, constants)
    ]
    return [_unfold(u, g.size) for u, g in zip(weights, grids)], constants, residuals


# --------------------------------------------------------------------------
# solvers


def solve_kernel_equilibrium(grid: Grid, kernel: SingularKernel, fieldfn=None,
                             fold=False) -> EquilibriumSolution:
    """Unit-mass minimizer of the discretized energy w'Kw + 2f'w.

    One :func:`_solve_bordered` call on the saddle system
    [K 1; 1' 0] (w, -c) = (-f, 1), so a grid too coarse for a fully
    supported minimizer raises :class:`DiscretizationError`.  With ``fold``
    (a mirror symmetric grid, kernel and field) the system is the one for
    the representative half of the weights, mirror-folded as in
    :func:`collocate` (method ``saddle_parity``).  The returned residual is
    measured through the evaluation-route quadrature at all the grid nodes,
    never through the energy matrix itself.
    """
    f = np.zeros(grid.size) if fieldfn is None else np.asarray(fieldfn(grid.nodes), dtype=float)
    s = _fold_start(grid, fold)
    n = grid.size - s

    A = np.zeros((n + 1, n + 1))
    assemble_energy_matrix(grid, kernel, out=A[:n, :n], start=s)
    A[:n, n] = 1.0
    A[n, :n] = _mirror_counts(grid.size, s)
    sol = _solve_bordered(A, np.concatenate([-f[s:], [1.0]]), [grid], [s], "saddle")
    c = float(-sol[n])

    mu = DiscreteMeasure.from_weights(grid, _unfold(np.maximum(sol[:n], 0.0), grid.size))
    # free the saddle matrix before the residual's row blocks are built
    del A
    pe = kernel_potential(mu, kernel, grid.nodes) + f
    residual_sup = float(np.max(np.abs(pe - c)))
    min_density = float(np.min(mu.densities))
    return EquilibriumSolution(
        measure=mu,
        constants=(float(c),),
        residual_sup=residual_sup,
        min_density=min_density,
        method="saddle_parity" if fold else "saddle",
    )


def solve_scalar(F: IntervalUnion, grid_params: GridParams = GridParams()) -> EquilibriumSolution:
    """Weighted equilibrium on F: surface kernel with external field log|Phi|.

    At the solution the sheet-1 potential plus field is constant on all of F
    and the density stays strictly positive (full support); both facts are
    re-measured and recorded, not assumed.  On F = -F the kernel and the
    field are even, so the system is mirror-folded.
    """
    require_gap_to_e(F)
    grid = make_grid(F, grid_params.n, grid_params.grading)
    return solve_kernel_equilibrium(grid, surface_kernel(), surface_field, F.is_symmetric())


def solve_reduced(F: IntervalUnion, grid_params: GridParams = GridParams()) -> EquilibriumSolution:
    """One-measure reduction on E: kernel 3 log(1/|x-y|) + g_F(x, y), no field.

    Needs a single-interval F (the Green function is in closed form only
    there); the result should reproduce the first component of the coupled
    problem, and its constant the sum of the two coupled constants.
    """
    require_gap_to_e(F)
    if F.m != 1:
        raise ValueError("the reduced problem supports a single-interval F only")
    grid = make_grid(E_INTERVAL, grid_params.n, grid_params.grading)
    return solve_kernel_equilibrium(grid, reduced_kernel(F), None)


def solve_vector(F: IntervalUnion, grid_params: GridParams = GridParams()):
    """Coupled pair problem: 4 U1 - U2 = w1 on E, -U1 + U2 = w2 on F.

    One :func:`collocate` call on the E and F grids, mirror-folded on
    F = -F (method ``collocation_parity``), so the recorded residuals
    measure only the linear-algebra error, and a grid too coarse for F
    raises :class:`DiscretizationError`.

    Returns a pair of :class:`EquilibriumSolution`, for the E and F measures.
    """
    require_gap_to_e(F)
    grids = [make_grid(E_INTERVAL, grid_params.n, grid_params.grading),
             make_grid(F, grid_params.n, grid_params.grading)]
    fold = F.is_symmetric()
    weights, (w1, w2), residuals = collocate(
        grids, [[4.0, -1.0], [-1.0, 1.0]], [np.zeros(g.size) for g in grids], [1.0, 1.0], fold
    )
    method = "collocation_parity" if fold else "collocation"
    sols = []
    for grid, u, constants, r in zip(grids, weights, [(w1, w2), (w2, w1)], residuals):
        mu = DiscreteMeasure.from_weights(grid, u)
        sols.append(EquilibriumSolution(measure=mu, constants=constants, residual_sup=r,
                                        min_density=float(np.min(mu.densities)),
                                        method=method))
    return tuple(sols)
