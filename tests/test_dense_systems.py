"""The dense float-layer systems against one-shot builders, and their memory.

``solve_scalar``, ``solve_reduced``, ``solve_vector`` and
``balayage_numeric`` are each one ``collocate`` call, which writes every
entry of its system matrix once, in row blocks, straight into the array
that ``np.linalg.solve`` factors.  The oracles here build the same matrices
from full-size blocks, the -log cell averages scaled and the smooth part
added in one shot, and the matrix handed to LAPACK must equal them bit for
bit, as must the recorded residuals.  On F = -F the scalar and coupled
solves and the folded sweep onto F factor the index-mirror fold of those
matrices (:func:`_mirror_fold`), and solving it must give the weights of
the unfolded system.
"""

import tracemalloc

import numpy as np
import pytest

from equilab.balayage import balayage_numeric, chebyshev_measure
from equilab.equilibrium import (
    E_INTERVAL,
    GridParams,
    assemble_energy_matrix,
    reduced_kernel,
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
    kernel_potential,
    make_grid,
    neglog_cell_averages,
    row_slices,
)

F23 = IntervalUnion([(2.0, 3.0)])
FSYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
SUPPORTS = pytest.mark.parametrize("F", [F23, FSYM], ids=["f23", "sym"])
GP = GridParams(n=200, grading=2.0)


def _kernel_matrix_oracle(z, grid, kernel):
    # sing_coeff * -log cell averages plus the smooth part, all rows at once
    Q = kernel.sing_coeff * neglog_cell_averages(z, grid)
    if kernel.smooth is not None:
        Q = Q + kernel.smooth(z[:, None], grid.nodes[None, :])
    return Q


def _single_grid_oracle(grid, kernel):
    # the bordered matrix of one-grid collocation: the kernel block, the -1
    # column of the constant and the mass row
    n = grid.size
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = _kernel_matrix_oracle(grid.nodes, grid, kernel)
    A[:n, n] = -1.0
    A[n, :n] = 1.0
    return A


def _collocation_oracle(F, gp):
    ge = make_grid(E_INTERVAL, gp.n, gp.grading)
    gf = make_grid(F, gp.n, gp.grading)
    QEE = neglog_cell_averages(ge.nodes, ge)
    QEF = neglog_cell_averages(ge.nodes, gf)
    QFE = neglog_cell_averages(gf.nodes, ge)
    QFF = neglog_cell_averages(gf.nodes, gf)
    nE, nF = ge.size, gf.size
    N = nE + nF + 2
    A = np.zeros((N, N))
    A[:nE, :nE] = 4.0 * QEE
    A[:nE, nE : nE + nF] = -QEF
    A[:nE, nE + nF] = -1.0
    A[nE : nE + nF, :nE] = -QFE
    A[nE : nE + nF, nE : nE + nF] = QFF
    A[nE : nE + nF, nE + nF + 1] = -1.0
    A[nE + nF, :nE] = 1.0
    A[nE + nF + 1, nE : nE + nF] = 1.0
    return A, (QEE, QEF, QFE, QFF)


def _mirror_fold(A, sizes, fold):
    """The index-mirror fold of a bordered matrix whose leading blocks are grids of ``sizes``.

    Per block of N unknowns, rows and columns N // 2 .. N-1 are kept and
    column k gets column N-1-k added unless it is its own mirror; the
    border rows and columns are kept whole, so a mass row of ones becomes
    twos (one on a self-mirror cell).  Without ``fold`` A is returned as is.
    """
    if not fold:
        return A, [0] * len(sizes)
    starts, keep, mirror = [], [], []
    edge = 0
    for N in sizes:
        s = N // 2
        k = np.arange(edge + s, edge + N)
        starts.append(s)
        keep.append(k)
        mirror.append(2 * edge + N - 1 - k)
        edge += N
    keep = np.concatenate(keep + [np.arange(edge, A.shape[0])])
    mirror = np.concatenate(mirror + [np.arange(edge, A.shape[0])])
    folded = A[np.ix_(keep, keep)]
    pair = (mirror != keep) & (keep < edge)
    folded[:, pair] += A[np.ix_(keep, mirror[pair])]
    return folded, starts


def _unfold(u, N):
    return np.concatenate([u[::-1][: N - len(u)], u])


def _assert_bits_equal(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.tobytes() == b.tobytes()


@pytest.fixture()
def solved_matrices(monkeypatch):
    """Every matrix handed to np.linalg.solve during the test, in call order."""
    seen = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        seen.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    return seen


def test_sym_grid_fills_in_ragged_blocks():
    # the F x F block of the folded two-component system at n = 200: 200
    # representative rows of 400 entries before the fold, 80 rows per
    # block, so the oracles below cover the last (ragged) block; on [2, 3]
    # the 200 x 200 block ends in a ragged block too
    assert [s.stop - s.start for s in row_slices(200, 400)] == [80, 80, 40]
    assert [s.stop - s.start for s in row_slices(200, 200)] == [160, 40]


@pytest.mark.parametrize("n", [8, 37, 300])
@pytest.mark.parametrize("kernel", ["log", "surface", "reduced"])
def test_energy_matrix_equals_one_shot(n, kernel):
    support = E_INTERVAL if kernel != "surface" else FSYM
    k = {"log": LOG_KERNEL, "surface": SHEET1_KERNEL, "reduced": reduced_kernel(F23)}[kernel]
    grid = make_grid(support, n, 2.0)
    oracle = _kernel_matrix_oracle(grid.nodes, grid, k)
    # written into the slice of a larger matrix, nothing outside it changes
    A = np.full((grid.size + 1, grid.size + 1), 7.0)
    assemble_energy_matrix(A[: grid.size, : grid.size], grid.nodes, grid, k)
    _assert_bits_equal(A[: grid.size, : grid.size], oracle)
    assert np.all(A[grid.size] == 7.0) and np.all(A[:, grid.size] == 7.0)


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("problem", ["scalar-f23", "scalar-sym", "reduced-f23"])
def test_single_grid_matrix_equals_one_shot(problem, n, solved_matrices):
    # the scalar system, mirror-folded on F = -F, and the reduced one on E
    gp = GridParams(n=n, grading=2.0)
    if problem == "reduced-f23":
        sol, grid, kernel = solve_reduced(F23, gp), make_grid(E_INTERVAL, n, 2.0), reduced_kernel(F23)
        rhs = np.zeros(grid.size)
    else:
        F = FSYM if problem == "scalar-sym" else F23
        sol, grid, kernel = solve_scalar(F, gp), make_grid(F, n, 2.0), SHEET1_KERNEL
        rhs = -green_e_at_infinity(grid.nodes)
    (A,) = solved_matrices
    N = grid.size
    folded, (s,) = _mirror_fold(_single_grid_oracle(grid, kernel), [N],
                                problem == "scalar-sym")
    _assert_bits_equal(A, folded)
    assert sol.method == ("collocation_parity" if s else "collocation")
    x = np.linalg.solve(folded, np.concatenate([rhs[s:], [1.0]]))
    u = np.maximum(x[: N - s], 0.0)
    _assert_bits_equal(sol.measure.weights, _unfold(u, N))
    assert sol.constant == x[-1]
    assert sol.residual_sup == float(np.max(np.abs(folded[: N - s, : N - s] @ u - rhs[s:]
                                                   - x[-1])))


@SUPPORTS
def test_collocation_matrix_and_residuals_equal_one_shot(F, solved_matrices):
    sol_e, sol_f = solve_vector(F, GP)
    (A,) = solved_matrices
    oracle, _ = _collocation_oracle(F, GP)
    nE, nF = sol_e.measure.weights.size, sol_f.measure.weights.size
    folded, (sE, sF) = _mirror_fold(oracle, [nE, nF], F.is_symmetric())
    _assert_bits_equal(A, folded)
    assert sol_e.method == ("collocation_parity" if sE else "collocation")
    ue, uf = sol_e.measure.weights[sE:], sol_f.measure.weights[sF:]
    mE, mF = nE - sE, nF - sF
    E, Fb = slice(0, mE), slice(mE, mE + mF)
    w1, w2 = sol_e.constants
    r1 = float(np.max(np.abs(folded[E, E] @ ue + folded[E, Fb] @ uf - w1)))
    r2 = float(np.max(np.abs(folded[Fb, E] @ ue + folded[Fb, Fb] @ uf - w2)))
    assert (sol_e.residual_sup, sol_f.residual_sup) == (r1, r2)


@SUPPORTS
def test_balayage_matrix_and_residual_equal_one_shot(F, solved_matrices):
    src = chebyshev_measure(make_grid(E_INTERVAL, GP.n, GP.grading))
    target = make_grid(F, GP.n, GP.grading)
    res = balayage_numeric(src, target)
    (A,) = solved_matrices
    n = target.size
    P = neglog_cell_averages(target.nodes, target)
    oracle = np.zeros((n + 1, n + 1))
    oracle[:n, :n] = P
    oracle[:n, n] = -1.0
    oracle[n, :n] = 1.0
    _assert_bits_equal(A, oracle)
    rhs_u = kernel_potential(src, LOG_KERNEL, target.nodes)
    resid = float(np.max(np.abs(P @ res.measure.weights - rhs_u - res.constant)))
    assert res.residual_sup == resid


def _system_bytes_and_call(name, F):
    # at 800 cells per component even the folded systems are large enough
    # that a block's temporaries stay well under a quarter of the matrix
    gp = GridParams(n=800, grading=2.0)
    ge, gf = make_grid(E_INTERVAL, gp.n, gp.grading), make_grid(F, gp.n, gp.grading)
    # on F = -F the scalar and coupled systems and the folded sweep hold the
    # representative half
    half = (lambda g: g.size - g.size // 2) if F.is_symmetric() else (lambda g: g.size)
    if name == "solve_scalar":
        return (half(gf) + 1) ** 2 * 8, lambda: solve_scalar(F, gp)
    if name == "solve_vector":
        return (half(ge) + half(gf) + 2) ** 2 * 8, lambda: solve_vector(F, gp)
    src = chebyshev_measure(ge)
    if name == "balayage_numeric":
        return (gf.size + 1) ** 2 * 8, lambda: balayage_numeric(src, gf)
    # the sweep onto F as verify_equivalence makes it, folded on F = -F, of
    # a mirror-exact source: (a + b) / 2 rounds the same both ways round
    even = DiscreteMeasure(ge, (src.weights + src.weights[::-1]) / 2)
    return (half(gf) + 1) ** 2 * 8, lambda: balayage_numeric(even, gf, F.is_symmetric())


@pytest.mark.parametrize("name", ["solve_scalar", "solve_vector", "balayage_numeric",
                                  "balayage_numeric_fold"])
def test_peak_memory_is_one_system_matrix(name):
    # np.linalg.solve factors a Fortran-order working copy of the matrix that
    # LAPACK's wrapper allocates with malloc, which tracemalloc does not see;
    # the bound is on everything else, so a second full-size array fails it,
    # and on F = -F so does an unfolded system
    for F in (F23, FSYM):
        nbytes, call = _system_bytes_and_call(name, F)
        call()  # one-time imports and caches stay out of the measurement
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * nbytes, f"{name}, F = {F.intervals}: peak {peak}, system {nbytes}"


@pytest.mark.parametrize("n", [63, 64])
def test_folded_solves_satisfy_the_unfolded_systems(n):
    # at odd n the E grid has a self-mirror middle cell, counted once
    gp = GridParams(n=n, grading=2.0)
    grid = make_grid(FSYM, gp.n, gp.grading)
    sol = solve_scalar(FSYM, gp)
    N = grid.size
    A = _single_grid_oracle(grid, SHEET1_KERNEL)
    rhs = np.concatenate([-green_e_at_infinity(grid.nodes), [1.0]])
    x = np.concatenate([sol.measure.weights, [sol.constant]])
    assert np.max(np.abs(A @ x - rhs)) <= 1e-12
    assert np.max(np.abs(x[:N] - np.linalg.solve(A, rhs)[:N])) <= 1e-12

    sol_e, sol_f = solve_vector(FSYM, gp)
    A, _ = _collocation_oracle(FSYM, gp)
    nE = sol_e.measure.weights.size
    rhs = np.concatenate([np.zeros(A.shape[0] - 2), [1.0, 1.0]])
    x = np.concatenate([sol_e.measure.weights, sol_f.measure.weights, sol_e.constants])
    assert nE == n and sol_e.method == "collocation_parity"
    assert np.max(np.abs(A @ x - rhs)) <= 1e-12
    assert np.max(np.abs(x[:-2] - np.linalg.solve(A, rhs)[:-2])) <= 1e-12


@pytest.mark.parametrize("n", [63, 64])
def test_folded_sweep_satisfies_the_unfolded_system(n, solved_matrices):
    # the sweep of the coupled E measure onto F = -F that verify_equivalence
    # makes: its source is mirror-exact, and E has a self-mirror middle cell
    # at odd n
    gp = GridParams(n=n, grading=2.0)
    sol_e, _ = solve_vector(FSYM, gp)
    target = make_grid(FSYM, gp.n, gp.grading)
    res = balayage_numeric(sol_e.measure, target, fold=True)
    _, A = solved_matrices
    N = target.size
    oracle = _single_grid_oracle(target, LOG_KERNEL)
    folded, _ = _mirror_fold(oracle, [N], True)
    _assert_bits_equal(A, folded)
    assert res.method == "collocation_parity"
    rhs = np.concatenate([kernel_potential(sol_e.measure, LOG_KERNEL, target.nodes),
                          [sol_e.measure.mass]])
    x = np.concatenate([res.measure.weights, [res.constant]])
    assert np.max(np.abs(oracle @ x - rhs)) <= 1e-12
    assert np.max(np.abs(x[:N] - np.linalg.solve(oracle, rhs)[:N])) <= 1e-12


@pytest.mark.parametrize(
    "solve, message",
    [(solve_scalar, "collocation weight -1.052e-01 at node 51.51218539325843 with 8 cells"),
     (solve_vector, "collocation weight -1.052e-01 at node 51.51218539325843 with 8 cells")],
)
def test_folded_solves_report_a_coarse_grid_as_unfolded(solve, message):
    # 8 cells on each component of the long F = -F = +-[1.001, 1000]: the
    # folded systems name the same weight and node as the whole ones did
    F = IntervalUnion([(-1000.0, -1.001), (1.001, 1000.0)])
    with pytest.raises(DiscretizationError) as info:
        solve(F, GridParams(n=8, grading=2.0))
    assert message in str(info.value)
