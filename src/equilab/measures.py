"""Discrete measures on interval unions and their potentials.

A measure is stored as quadrature cells with one node per cell and a
piecewise-constant density (weight / width) on each cell.  All potential
evaluators share one quadrature convention: the smooth part of a kernel is
evaluated at the nodes (midpoint rule), while every -log|z - t| singular
factor is integrated in closed form over any cell whose node lies within a
few widths of the evaluation point.  Because the analytic-or-midpoint choice
depends only on (point, cell) and never on the kernel, algebraic identities
between kernels survive discretization exactly; the verification module
relies on that.

Zero-width cells are allowed and represent purely atomic measures (zero
counting measures of polynomials); those only support midpoint evaluation
and distribution comparisons.

The near cells are found without a full (point, cell) mask: a sorted
search of the evaluation points over each cell's window yields candidate
rows, and the exact window test runs on those alone.  Evaluators that only
need Q @ w (every potential here and ``equilibrium.kernel_potential``) build
the kernel matrix in row blocks of at most BLOCK_ENTRIES entries, so their
memory does not grow with the number of points; the dense solvers fill their
system matrices through the same row blocks (:func:`fill_cell_averages`).
Neither changes a value: the window decision is the same per (point, cell),
every entry is computed elementwise, and each block row sums the same
products in the same order as one product over all points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    IntervalUnion,
    RSPoint,
    _phi_real,
    is_integer,
    is_real,
    zhukovskii_derivative_abs,
    zhukovskii_inverse,
)

# Cells whose node is within this many widths of the evaluation point are
# integrated analytically; farther cells use the midpoint value.
ANALYTIC_WINDOW = 6.0

# Kernel entries per row block of a potential evaluation (512 KB of float64).
BLOCK_ENTRIES = 1 << 16

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
        if np.any(cr < cl) or np.any(nodes < cl) or np.any(nodes > cr):
            raise ValueError("each node must lie inside its cell")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cell_left", cl)
        object.__setattr__(self, "cell_right", cr)

    @classmethod
    def from_weights(cls, grid: Grid, weights) -> "DiscreteMeasure":
        return cls(grid.nodes, weights, grid.cell_left, grid.cell_right, grid.support)

    @classmethod
    def atoms(cls, positions, weights) -> "DiscreteMeasure":
        """Purely atomic measure; equal positions are merged."""
        pos = np.asarray(positions, dtype=float)
        w = np.asarray(weights, dtype=float)
        order = np.argsort(pos, kind="stable")
        pos, w = pos[order], w[order]
        uniq, inverse = np.unique(pos, return_inverse=True)
        merged = np.zeros(len(uniq))
        np.add.at(merged, inverse, w)
        support = IntervalUnion([(uniq[0] - 0.5, uniq[-1] + 0.5)])
        return cls(uniq, merged, uniq, uniq, support)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def widths(self):
        return self.cell_right - self.cell_left

    @property
    def is_atomic(self) -> bool:
        return bool(np.all(self.widths == 0.0))

    @property
    def densities(self):
        h = self.widths
        with np.errstate(divide="ignore"):
            return np.where(h > 0, self.weights / np.where(h > 0, h, 1.0), np.inf)

    def scaled(self, factor: float) -> "DiscreteMeasure":
        return DiscreteMeasure(
            self.nodes, self.weights * factor, self.cell_left, self.cell_right, self.support
        )

    def cdf(self, x):
        """Right-continuous CDF with each cell's mass assigned at its node."""
        x = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        idx = np.searchsorted(self.nodes, x, side="right")
        out = cum[idx]
        return out if out.shape else float(out)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("node,weight,cell_left,cell_right\n")
            for x, w, l, r in zip(self.nodes, self.weights, self.cell_left, self.cell_right):
                fh.write(f"{float(x)!r},{float(w)!r},{float(l)!r},{float(r)!r}\n")


def measure_from_csv(path) -> DiscreteMeasure:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "node,weight,cell_left,cell_right":
            raise ValueError(f"unexpected CSV header: {header}")
        for line in fh:
            if line.strip():
                rows.append([float(v) for v in line.split(",")])
    arr = np.asarray(rows, dtype=float)
    nodes, weights, cl, cr = arr.T
    support = _support_from_cells(cl, cr)
    return DiscreteMeasure(nodes, weights, cl, cr, support)


def _support_from_cells(cl, cr):
    intervals = []
    start = cl[0]
    for i in range(len(cl) - 1):
        if not np.isclose(cr[i], cl[i + 1], rtol=0.0, atol=1e-9 * max(1.0, abs(cr[i]))):
            intervals.append((start, cr[i]))
            start = cl[i + 1]
    intervals.append((start, cr[-1]))
    if all(r > l for (l, r) in intervals):
        return IntervalUnion(intervals)
    # atomic fallback: synthesize a hull support
    return IntervalUnion([(cl[0] - 0.5, cr[-1] + 0.5)])


# --------------------------------------------------------------------------
# quadrature core


def _T(u):
    # antiderivative piece: integral of -log|z - t| dt over [l, r] is T(z-r) - T(z-l)
    out = np.zeros_like(u)
    nz = u != 0.0
    uu = u[nz]
    out[nz] = uu * (np.log(np.abs(uu)) - 1.0)
    return out


def _near_cells(z, mu: DiscreteMeasure, absD):
    """Index pairs (row, cell) with |z_i - node_j| <= ANALYTIC_WINDOW h_j, h_j > 0.

    ``absD`` holds |z_i - node_j|.  Each cell's candidate rows come from a
    sorted search of z over the cell's window, widened by a relative margin
    far above the rounding of z - node and node +- window; the exact test
    then runs on the candidates only, so the pairs are those of the full mask.
    """
    cells = np.flatnonzero(mu.widths > 0.0)
    reach = ANALYTIC_WINDOW * mu.widths[cells]
    x = mu.nodes[cells]
    margin = 1e-12 * (np.abs(x) + reach)
    order = np.argsort(z, kind="stable")
    zs = z[order]
    lo = np.searchsorted(zs, x - reach - margin, side="left")
    hi = np.searchsorted(zs, x + reach + margin, side="right")
    counts = hi - lo
    cj = np.repeat(cells, counts)
    offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    zi = order[offsets + np.arange(cj.size)]
    keep = absD[zi, cj] <= ANALYTIC_WINDOW * mu.widths[cj]
    return zi[keep], cj[keep]


def neglog_cell_averages(z, mu: DiscreteMeasure):
    """Matrix Q[i, j]: average of -log|z_i - t| over cell j of ``mu`` (a measure or a Grid).

    Analytic within ANALYTIC_WINDOW widths of the node (exact for the
    piecewise-constant density, including the cell containing z), midpoint
    beyond.  Complex or atomic input always takes the midpoint path.  The
    matrix is built in one buffer; callers that need only Q @ w go through
    :func:`_row_blocks`, and callers that keep it through
    :func:`fill_cell_averages`, which both bound that buffer's size.
    """
    z = np.atleast_1d(np.asarray(z))
    if np.iscomplexobj(z) and np.any(z.imag != 0.0):
        D = np.abs(z[:, None] - mu.nodes[None, :])
        if np.any(D == 0.0):
            raise ValueError("evaluation point coincides with a node")
        return -np.log(D)
    z = z.real.astype(float)
    Q = np.subtract(z[:, None], mu.nodes[None, :])
    np.abs(Q, out=Q)
    zi, cj = _near_cells(z, mu, Q)
    with np.errstate(divide="ignore"):
        np.log(Q, out=Q)
    np.negative(Q, out=Q)
    if zi.size:
        h = mu.widths[cj]
        Q[zi, cj] = (_T(z[zi] - mu.cell_right[cj]) - _T(z[zi] - mu.cell_left[cj])) / h
    if np.any(np.isinf(Q)):
        raise ValueError("evaluation point coincides with an atom")
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


def _row_blocks(mu: DiscreteMeasure, z, kernel_block):
    """K(z) @ mu.weights, built one :func:`row_slices` block of kernel entries at a time.

    ``kernel_block(zb, Q)`` returns the kernel matrix of the rows ``zb`` from
    their ``Q = neglog_cell_averages(zb, mu)``.
    """
    z = np.atleast_1d(np.asarray(z))
    out = np.empty(len(z))
    for rows in row_slices(len(z), len(mu.nodes)):
        zb = z[rows]
        out[rows] = kernel_block(zb, neglog_cell_averages(zb, mu)) @ mu.weights
    return out


def fill_cell_averages(out, z, cells, scale=1.0):
    """Write scale * neglog_cell_averages(z, cells) into ``out``, one row block at a time.

    ``cells`` is a :class:`Grid` or a measure: the averages read only its
    nodes and cell edges, never weights.  ``out`` is the
    len(z) x len(cells.nodes) slice of a system matrix, so the matrix is the
    only full-size buffer.  Every entry is computed and scaled elementwise,
    so the bits are those of scale * neglog_cell_averages over all of z.
    """
    for rows in row_slices(len(z), len(cells.nodes)):
        np.multiply(neglog_cell_averages(z[rows], cells), scale, out=out[rows])
    return out


def _scalarize(out, z_in):
    return float(out[0]) if np.ndim(z_in) == 0 else out


# --------------------------------------------------------------------------
# potentials


def log_potential(mu: DiscreteMeasure, z):
    """U(z) = integral of log(1/|z - t|) against the measure."""
    out = _row_blocks(mu, z, lambda zb, Q: Q)
    return _scalarize(out, z)


def green_potential_e(mu: DiscreteMeasure, z):
    """Green potential of the complement of [-1, 1], supp(mu) outside E.

    Uses the split g_E(z, t) = smooth(z, t) - log|z - t| so that evaluation
    points inside the support (where the Green kernel has its pole) get the
    same closed-form cell treatment as the logarithmic potential.  Boundary
    points z in E are accepted (Phi there has modulus 1 and the potential
    vanishes identically).
    """
    pt = _phi_real(mu.nodes)

    def kernel_block(zb, Q):
        pz = zhukovskii_inverse(zb)
        smooth = (
            2.0 * np.log(np.abs(1.0 - pz[:, None] * pt[None, :]))
            - np.log(2.0)
            - np.log(np.abs(pz))[:, None]
            - np.log(np.abs(pt))[None, :]
        )
        return smooth + Q

    out = _row_blocks(mu, np.asarray(z, dtype=float), kernel_block)
    return _scalarize(out, z)


def _rs_potential_real(mu: DiscreteMeasure, z, sheet: int):
    t = mu.nodes
    pt = _phi_real(t)

    def sheet1_block(zb, Q):
        pz = zhukovskii_inverse(zb)
        return np.log(np.abs(1.0 - pz[:, None] * pt[None, :])) + 2.0 * Q

    def sheet0_block(zb, Q):
        pz = zhukovskii_inverse(zb)
        D = zb[:, None] - t[None, :]
        diag = D == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(pz[:, None] - pt[None, :]) / np.abs(D)
        if diag.any():
            zi, cj = np.nonzero(diag)
            ratio[zi, cj] = zhukovskii_derivative_abs(t[cj])
        return np.log(ratio) - np.log(np.abs(pz))[:, None] + Q

    kernel_block = sheet1_block if sheet == 1 else sheet0_block
    return _row_blocks(mu, np.asarray(z, dtype=float), kernel_block)


def rs_potential(mu: DiscreteMeasure, p: RSPoint):
    """Potential of a measure on F lifted to sheet 1, at a surface point.

    Sheet 1 over real z reduces to the scalar kernel route; sheet 0 carries
    the -1 net logarithmic charge (the slope tests pin the -2 / -1 rates).
    """
    z = p.z
    if isinstance(z, complex) and z.imag != 0.0:
        t = mu.nodes
        fp = zhukovskii_inverse(z) if p.sheet == 0 else 1.0 / zhukovskii_inverse(z)
        ft = 1.0 / _phi_real(t)
        ker = np.log(np.abs(1.0 - 1.0 / (fp * ft)) / np.abs(z - t) ** 2)
        return float(ker @ mu.weights)
    out = _rs_potential_real(mu, float(np.real(z)), p.sheet)
    return float(out[0])


def rs_potential_sheet(mu: DiscreteMeasure, z, sheet: int):
    """Vectorized ``rs_potential`` over real projections."""
    out = _rs_potential_real(mu, z, sheet)
    return _scalarize(out, z)


def surface_functional(mu: DiscreteMeasure, z):
    """P(z^(1)) + V(z^(1)): the sheet-1 potential plus external field at real z.

    Equals the cell-integrated scalar kernel integral plus log|Phi(z)|; this
    is the quantity that is constant on F at equilibrium.
    """
    z_in = z
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = _rs_potential_real(mu, z, 1) + np.log(np.abs(zhukovskii_inverse(z)))
    return _scalarize(out, z_in)


# --------------------------------------------------------------------------
# distribution comparison


def ks_distance(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """sup_x |CDF_a(x) - CDF_b(x)| for two unit measures.

    Right-continuous convention with cell mass at the node; the supremum over
    the whole line is attained at a node or immediately before one, so both
    one-sided limits are checked on the merged node set.
    """
    if abs(a.mass - 1.0) > MASS_TOL or abs(b.mass - 1.0) > MASS_TOL:
        raise ValueError("ks_distance expects unit measures")
    allx = np.union1d(a.nodes, b.nodes)
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
