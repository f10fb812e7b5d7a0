"""Discrete measures on interval unions and their potentials.

A measure is stored as quadrature cells with one node per cell and a
piecewise-constant density (weight / width) on each cell.  Every potential
is one evaluator, :func:`kernel_potential`, with a named
:class:`SingularKernel` smooth(z, t) - c log|z - t|: the smooth part is
evaluated at the nodes (midpoint rule), while the -log|z - t| factor is
integrated in closed form over any cell whose node lies within a few widths
of the evaluation point.  Because the analytic-or-midpoint choice depends
only on (point, cell) and never on the kernel, algebraic identities between
kernels survive discretization exactly; the verification module relies on
that.  Evaluation points are real; a complex z raises TypeError.

The named kernels take their smooth parts from :mod:`equilab.kernels`, the
only module that evaluates Phi.

Every cell has positive width.  Point masses, such as the zero-counting
measure of a polynomial, are :class:`Atoms`, which only :func:`ks_distance`
reads.

The evaluator builds the kernel matrix in row blocks of at most
BLOCK_ENTRIES entries, so its memory does not grow with the number of
points; the dense solver, :func:`equilab.equilibrium.collocate`, fills its
system matrices from the same row blocks.  Both build every block with
:func:`kernel_cell_averages`.  Neither changes a value: the window
decision is the same per (point, cell), every entry is computed
elementwise, and each block row sums the same products in the same order
as one product over all points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    IntervalUnion,
    green_e_at_infinity,
    green_e_smooth,
    is_integer,
    is_real,
    scalar_kernel_smooth,
    sheet0_smooth,
)

# Cells whose node is within this many widths of the evaluation point are
# integrated analytically; farther cells use the midpoint value.
ANALYTIC_WINDOW = 6.0

# Kernel entries per row block of a potential evaluation or a system matrix
# (256 KB of float64).
BLOCK_ENTRIES = 1 << 15

MASS_TOL = 1e-8


# --------------------------------------------------------------------------
# grids


def _grading_map(xi, g):
    """Monotone [0,1] -> [0,1] map clustering toward both ends for g > 1."""
    xi = np.asarray(xi, dtype=float)
    a = xi**g
    b = (1.0 - xi) ** g
    return a / (a + b)


@dataclass(frozen=True)
class Grid:
    """Cell partition of an interval union with one interior node per cell."""

    support: IntervalUnion
    n_per_component: int
    grading: float
    nodes: np.ndarray
    cell_left: np.ndarray
    cell_right: np.ndarray

    @property
    def widths(self):
        return self.cell_right - self.cell_left

    @property
    def size(self) -> int:
        return len(self.nodes)


def require_node_count(n_per_component):
    """The one check of a grid's cell count per component; returns it."""
    if not is_integer(n_per_component) or n_per_component < 8:
        raise ValueError(f"need an integer >= 8 nodes per component, got {n_per_component!r}")
    return n_per_component


def require_grading(grading):
    """The one check of a grid's grading exponent; returns it as a float."""
    if not is_real(grading) or not 1.0 <= grading <= 2.0:
        raise ValueError(f"grading exponent must be a number in [1, 2], got {grading!r}")
    return float(grading)


def make_grid(support: IntervalUnion, n_per_component: int, grading: float = 1.0) -> Grid:
    """Graded grid with ``n_per_component`` cells on each component.

    Grading 1 is uniform; grading up to 2 clusters cells toward the component
    endpoints, resolving the inverse-square-root density blowup there.
    """
    require_node_count(n_per_component)
    require_grading(grading)
    nodes, lefts, rights = [], [], []
    n = int(n_per_component)
    xi_edges = np.arange(n + 1) / n
    xi_mid = (np.arange(n) + 0.5) / n
    for (l, r) in support.intervals:
        edges = l + (r - l) * _grading_map(xi_edges, grading)
        mids = l + (r - l) * _grading_map(xi_mid, grading)
        nodes.append(mids)
        lefts.append(edges[:-1])
        rights.append(edges[1:])
    return Grid(
        support=support,
        n_per_component=n,
        grading=float(grading),
        nodes=np.concatenate(nodes),
        cell_left=np.concatenate(lefts),
        cell_right=np.concatenate(rights),
    )


# --------------------------------------------------------------------------
# discrete measures


@dataclass(frozen=True)
class DiscreteMeasure:
    nodes: np.ndarray
    weights: np.ndarray
    cell_left: np.ndarray
    cell_right: np.ndarray
    support: IntervalUnion

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        cl = np.asarray(self.cell_left, dtype=float)
        cr = np.asarray(self.cell_right, dtype=float)
        if not (len(nodes) == len(weights) == len(cl) == len(cr)):
            raise ValueError("nodes, weights and cells must have equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        weights = np.where(weights < 0, 0.0, weights)
        if not np.all(cr > cl):
            raise ValueError("cells must have positive width")
        if np.any(nodes < cl) or np.any(nodes > cr):
            raise ValueError("each node must lie inside its cell")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cell_left", cl)
        object.__setattr__(self, "cell_right", cr)

    @classmethod
    def from_weights(cls, grid: Grid, weights) -> "DiscreteMeasure":
        return cls(grid.nodes, weights, grid.cell_left, grid.cell_right, grid.support)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def widths(self):
        return self.cell_right - self.cell_left

    @property
    def densities(self):
        return self.weights / self.widths

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("node,weight,cell_left,cell_right\n")
            for x, w, l, r in zip(self.nodes, self.weights, self.cell_left, self.cell_right):
                fh.write(f"{float(x)!r},{float(w)!r},{float(l)!r},{float(r)!r}\n")


def mirror_exact(mu: DiscreteMeasure) -> bool:
    """True when mu is even to the bit: symmetric support and weights equal to their mirror.

    Cell N-1-k of a grid on a symmetric support is the mirror of cell k, so
    such a measure's potentials are even up to the grid's one-rounding
    asymmetry, and a sweep of it onto a symmetric grid may be folded.
    """
    return mu.support.is_symmetric() and np.array_equal(mu.weights, mu.weights[::-1])


# --------------------------------------------------------------------------
# quadrature core


def _T(u):
    # antiderivative piece: integral of -log|z - t| dt over [l, r] is T(z-r) - T(z-l)
    out = np.zeros_like(u)
    nz = u != 0.0
    uu = u[nz]
    out[nz] = uu * (np.log(np.abs(uu)) - 1.0)
    return out


def neglog_cell_averages(z, mu: DiscreteMeasure):
    """Matrix Q[i, j]: average of -log|z_i - t| over cell j of ``mu`` (a measure or a Grid).

    Analytic within ANALYTIC_WINDOW widths of the node (exact for the
    piecewise-constant density, including the cell containing z), midpoint
    beyond.  The points must be real:
    a complex z raises TypeError.  The matrix is built in one buffer;
    callers take it in :func:`row_slices` blocks through
    :func:`kernel_cell_averages`, which bounds that buffer's size.
    """
    z = np.atleast_1d(np.asarray(z))
    if np.iscomplexobj(z):
        raise TypeError("evaluation points must be real, got a complex array")
    z = z.astype(float)
    Q = np.subtract(z[:, None], mu.nodes[None, :])
    np.abs(Q, out=Q)
    h = mu.widths
    near = np.flatnonzero(Q <= ANALYTIC_WINDOW * h)
    zi, cj = np.divmod(near, h.size)
    with np.errstate(divide="ignore"):
        np.log(Q, out=Q)
    np.negative(Q, out=Q)
    Q.flat[near] = (_T(z[zi] - mu.cell_right[cj]) - _T(z[zi] - mu.cell_left[cj])) / h[cj]
    return Q


def row_slices(n_rows, n_cols):
    """Consecutive row slices of an n_rows x n_cols matrix, BLOCK_ENTRIES entries at most.

    Each slice but the last holds a multiple of 8 rows: OpenBLAS's
    single-threaded matrix-vector product sends the last (rows mod 4) rows of
    a product through another kernel, so only then is every row of a blocked
    product summed as in one product over all rows.
    """
    rows = max(8, BLOCK_ENTRIES // max(1, n_cols) // 8 * 8)
    for start in range(0, n_rows, rows):
        yield slice(start, min(start + rows, n_rows))


def fold_columns(Q, start):
    """Q[:, start:] after adding to each of those columns its mirror column, in place.

    Column k of an N-column block mirrors to column N-1-k.  With ``start``
    = N // 2 the view holds the representative half, each column the sum of
    a mirror pair, except the middle column of an odd N, which is its own
    mirror; with ``start`` = 0 nothing is added and the view is all of Q.
    """
    n = Q.shape[1]
    Q[:, n - start:] += Q[:, :start][:, ::-1]
    return Q[:, start:]


# --------------------------------------------------------------------------
# kernels and the one potential evaluator


@dataclass(frozen=True)
class SingularKernel:
    """Kernel smooth(s,t) - sing_coeff * log|s - t| with bounded smooth part."""

    sing_coeff: float
    smooth: object = None          # vectorized (s, t) -> array, or None for zero


LOG_KERNEL = SingularKernel(sing_coeff=1.0)


def kernel_cell_averages(z, cells, kernel: SingularKernel):
    """Matrix of the kernel's averages over the cells of ``cells`` at real z.

    sing_coeff * :func:`neglog_cell_averages` (scaled in place) plus the
    smooth part at the (z, node) pairs.  ``cells`` is a measure or a
    :class:`Grid`: only its nodes and cell edges are read.  This is the one
    row block of every potential and every dense system matrix.
    """
    return _with_kernel(neglog_cell_averages(z, cells), z, cells, kernel)


def _with_kernel(Q, z, cells, kernel: SingularKernel):
    # the -log cell averages Q at z, made the kernel's averages in place
    Q *= kernel.sing_coeff
    if kernel.smooth is not None:
        Q += kernel.smooth(z[:, None], cells.nodes[None, :])
    return Q


def kernel_potential(mu: DiscreteMeasure, kernel: SingularKernel, z):
    """Integral of the kernel against the measure at real z.

    Built one :func:`row_slices` block of :func:`kernel_cell_averages` at a
    time, each applied to the weights.
    """
    out = kernel_potentials(mu, (kernel,), z)[0]
    return float(out[0]) if np.ndim(z) == 0 else out


def kernel_potentials(mu: DiscreteMeasure, kernels, z):
    """:func:`kernel_potential` of each kernel at the same real z, one row per kernel.

    Each row block of -log cell averages is built once and shared by the
    kernels; every value keeps the bits of its own kernel_potential call.
    """
    z = np.atleast_1d(np.asarray(z))
    out = np.empty((len(kernels), len(z)))
    for rows in row_slices(len(z), len(mu.nodes)):
        Q = neglog_cell_averages(z[rows], mu)
        for k, kernel in enumerate(kernels):
            block = Q if k == len(kernels) - 1 else Q.copy()
            out[k, rows] = _with_kernel(block, z[rows], mu, kernel) @ mu.weights
    return out


GREEN_E_KERNEL = SingularKernel(sing_coeff=1.0, smooth=green_e_smooth)
SHEET0_KERNEL = SingularKernel(sing_coeff=1.0, smooth=sheet0_smooth)
SHEET1_KERNEL = SingularKernel(sing_coeff=2.0, smooth=scalar_kernel_smooth)


# --------------------------------------------------------------------------
# potentials


def log_potential(mu: DiscreteMeasure, z):
    """U(z) = integral of log(1/|z - t|) against the measure."""
    return kernel_potential(mu, LOG_KERNEL, z)


def green_potential_e(mu: DiscreteMeasure, z):
    """Green potential of the complement of [-1, 1], supp(mu) outside E.

    Uses the split g_E(z, t) = smooth(z, t) - log|z - t| so that evaluation
    points inside the support (where the Green kernel has its pole) get the
    same closed-form cell treatment as the logarithmic potential.  Boundary
    points z in E are accepted (Phi there has modulus 1 and the potential
    vanishes identically).
    """
    return kernel_potential(mu, GREEN_E_KERNEL, z)


def surface_functional(mu: DiscreteMeasure, z):
    """P(z^(1)) + V(z^(1)): the sheet-1 potential plus external field at real z.

    Equals the cell-integrated scalar kernel integral plus log|Phi(z)|, at
    real z outside E; this is the quantity that is constant on F at
    equilibrium, and :func:`equilab.equilibrium.solve_scalar` matches it at
    the nodes with the same kernel and field.
    """
    return kernel_potential(mu, SHEET1_KERNEL, z) + green_e_at_infinity(z)


# --------------------------------------------------------------------------
# distribution comparison


@dataclass(frozen=True)
class Atoms:
    """Point masses ``weights`` at the ascending ``nodes``, such as a zero-counting measure.

    Only compared with :func:`ks_distance`; no potential integrates it.
    """

    nodes: np.ndarray
    weights: np.ndarray


def ks_distance(a, b) -> float:
    """sup_x |CDF_a(x) - CDF_b(x)| for two unit measures, each a DiscreteMeasure or Atoms.

    Right-continuous convention with cell mass at the node; the supremum over
    the whole line is attained at a node or immediately before one, so both
    one-sided limits are checked at both node sets (duplicates do not change
    a maximum).
    """
    if abs(a.weights.sum() - 1.0) > MASS_TOL or abs(b.weights.sum() - 1.0) > MASS_TOL:
        raise ValueError("ks_distance expects unit measures")
    allx = np.concatenate([a.nodes, b.nodes])
    ca = np.concatenate([[0.0], np.cumsum(a.weights)])
    cb = np.concatenate([[0.0], np.cumsum(b.weights)])
    right = np.abs(
        ca[np.searchsorted(a.nodes, allx, side="right")]
        - cb[np.searchsorted(b.nodes, allx, side="right")]
    )
    left = np.abs(
        ca[np.searchsorted(a.nodes, allx, side="left")]
        - cb[np.searchsorted(b.nodes, allx, side="left")]
    )
    return float(max(right.max(), left.max()))
