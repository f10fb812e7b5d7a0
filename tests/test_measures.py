"""Grids, discrete measures, potentials, and the KS metric."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilab.kernels import (
    IntervalUnion,
    green_e_smooth,
    scalar_kernel_smooth,
    sheet0_smooth,
)
from equilab.measures import (
    ANALYTIC_WINDOW,
    BLOCK_ENTRIES,
    LOG_KERNEL,
    SHEET0_KERNEL,
    SHEET1_KERNEL,
    Atoms,
    DiscreteMeasure,
    _T,
    green_potential_e,
    kernel_potential,
    ks_distance,
    log_potential,
    make_grid,
    neglog_cell_averages,
    surface_functional,
)

RNG = np.random.default_rng(7)

E = IntervalUnion([(-1.0, 1.0)])
F23 = IntervalUnion([(2.0, 3.0)])


def arcsine_cells(grid):
    """Exact arcsine cell masses on a grid over an arbitrary interval."""
    (l, r) = grid.support.intervals[0]
    to_unit = lambda x: (2.0 * x - (l + r)) / (r - l)
    w = (np.arcsin(to_unit(grid.cell_right)) - np.arcsin(to_unit(grid.cell_left))) / np.pi
    return DiscreteMeasure.from_weights(grid, w)


class TestMakeGrid:
    def test_uniform(self):
        g = make_grid(F23, 10, 1.0)
        np.testing.assert_allclose(g.widths, 0.1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g.nodes, 2.05 + 0.1 * np.arange(10), atol=1e-15)

    def test_graded_symmetric(self):
        g = make_grid(F23, 10, 2.0)
        np.testing.assert_allclose(g.widths, g.widths[::-1], atol=1e-15)
        assert g.widths[0] == min(g.widths)
        assert g.widths[0] < g.widths[4]

    def test_two_components(self):
        sym = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
        g = make_grid(sym, 12, 1.5)
        assert g.size == 24
        # cells tile each component exactly
        assert g.cell_left[0] == -3.0 and g.cell_right[11] == -2.0
        assert g.cell_left[12] == 2.0 and g.cell_right[23] == 3.0
        np.testing.assert_allclose(g.cell_right[:11], g.cell_left[1:12], atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_grid(F23, 4, 1.0)
        with pytest.raises(ValueError):
            make_grid(F23, 16, 3.0)

    def test_nodes_interior(self):
        g = make_grid(F23, 33, 1.7)
        assert np.all(g.nodes > g.cell_left) and np.all(g.nodes < g.cell_right)


class TestDiscreteMeasure:
    def test_mass(self):
        g = make_grid(F23, 16, 1.0)
        mu = DiscreteMeasure.from_weights(g, np.full(16, 1.0 / 16))
        assert mu.mass == pytest.approx(1.0, abs=1e-14)

    def test_invariants(self):
        g = make_grid(F23, 16, 1.0)
        with pytest.raises(ValueError):
            DiscreteMeasure(g.nodes[::-1], np.ones(16), g.cell_left, g.cell_right, F23)
        with pytest.raises(ValueError):
            DiscreteMeasure.from_weights(g, np.full(16, -1.0))

    def test_tiny_negative_clamped(self):
        g = make_grid(F23, 16, 1.0)
        w = np.full(16, 1.0 / 16)
        w[3] = -1e-14
        mu = DiscreteMeasure.from_weights(g, w)
        assert mu.weights[3] == 0.0

    def test_zero_width_cell_rejected(self):
        g = make_grid(F23, 16, 1.0)
        right = g.cell_right.copy()
        right[5] = g.cell_left[5] = g.nodes[5]
        with pytest.raises(ValueError, match="positive width"):
            DiscreteMeasure(g.nodes, np.full(16, 1.0 / 16), g.cell_left, right, F23)


class TestLogPotential:
    def test_point_mass_limit(self):
        eps = 1e-8
        mu = DiscreteMeasure([3.0], [1.0], [3.0 - eps], [3.0 + eps],
                             IntervalUnion([(3.0 - eps, 3.0 + eps)]))
        assert log_potential(mu, 0.0) == pytest.approx(-np.log(3.0), abs=1e-12)

    def test_chebyshev_constant(self):
        # classical: the arcsine potential equals log 2 everywhere on [-1, 1];
        # refined-grid oracle pins the quadrature error down with n
        for n, tol in ((500, 2e-3), (2000, 5e-4)):
            g = make_grid(E, n, 2.0)
            tau = arcsine_cells(g)
            x = np.linspace(-0.95, 0.95, 41)
            err = np.max(np.abs(log_potential(tau, x) - np.log(2.0)))
            assert err <= tol

    def test_far_asymptotics(self):
        g = make_grid(F23, 64, 1.0)
        mu = DiscreteMeasure.from_weights(g, np.full(64, 1.0 / 64))
        assert log_potential(mu, 1e6) == pytest.approx(-np.log(1e6), abs=1e-5)

    def test_refinement_second_order(self):
        # graded grid resolves the endpoint blowup; measured decay is 4.00x
        # per doubling with n^2 |U_n - U_2n| ~ 0.0027
        z = 0.5
        errs = []
        for n in (50, 100, 200):
            g = make_grid(F23, n, 2.0)
            errs.append(log_potential(arcsine_cells(g), z))
        d1 = abs(errs[0] - errs[1])
        d2 = abs(errs[1] - errs[2])
        assert d2 <= d1 / 3.0
        assert d1 <= 0.01 / 50**2


class TestRSPotential:
    def test_slopes(self):
        g = make_grid(F23, 200, 2.0)
        mu = arcsine_cells(g)
        zs = np.geomspace(1e3, 1e6, 25)
        s0 = np.polyfit(np.log(zs), kernel_potential(mu, SHEET0_KERNEL, zs), 1)[0]
        s1 = np.polyfit(np.log(zs), kernel_potential(mu, SHEET1_KERNEL, zs), 1)[0]
        assert s0 == pytest.approx(-2.0, abs=1e-3)
        assert s1 == pytest.approx(-1.0, abs=1e-3)

    def test_surface_functional_consistency(self):
        g = make_grid(F23, 80, 2.0)
        mu = arcsine_cells(g)
        z = 2.5
        expected = kernel_potential(mu, SHEET1_KERNEL, z) + np.log(abs(2.5 + np.sqrt(2.5**2 - 1)))
        assert surface_functional(mu, z) == pytest.approx(expected, abs=1e-13)


def _neglog_oracle(z, mu):
    """Full-mask reference for ``neglog_cell_averages``: every (point, cell)
    pair is tested against the analytic window in one z x M boolean mask."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    D = z[:, None] - mu.nodes[None, :]
    h = mu.widths
    with np.errstate(divide="ignore"):
        Q = -np.log(np.abs(D))
    near = np.abs(D) <= ANALYTIC_WINDOW * h[None, :]
    if near.any():
        zi, cj = np.nonzero(near)
        vals = _T(z[zi] - mu.cell_right[cj]) - _T(z[zi] - mu.cell_left[cj])
        Q[zi, cj] = vals / h[cj]
    return Q


def _full_matrix_potentials(mu, z):
    """Each blocked evaluator's reference: its kernel matrix over all of z at once.

    The smooth parts are the single definitions in ``equilab.kernels``, each
    checked against mpmath in ``tests/test_kernels.py``; here they are
    evaluated on the whole z x cells matrix in one call.
    """
    Q = _neglog_oracle(z, mu)
    zz, t, w = z[:, None], mu.nodes[None, :], mu.weights
    return {
        "log": Q @ w,
        "green_e": (green_e_smooth(zz, t) + Q) @ w,
        "sheet0": (sheet0_smooth(zz, t) + Q) @ w,
        "sheet1": (scalar_kernel_smooth(zz, t) + 2.0 * Q) @ w,
        "kernel_log": (LOG_KERNEL.sing_coeff * Q) @ w,
    }


def _blocked_potentials(mu, z):
    return {
        "log": log_potential(mu, z),
        "green_e": green_potential_e(mu, z),
        "sheet0": kernel_potential(mu, SHEET0_KERNEL, z),
        "sheet1": kernel_potential(mu, SHEET1_KERNEL, z),
        "kernel_log": kernel_potential(mu, LOG_KERNEL, z),
    }


NEAR_EDGE = IntervalUnion([(1.01, 1.5)])
LONG_F = IntervalUnion([(1.5, 40.0)])
FSYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])


@st.composite
def _window_cases(draw):
    """A graded grid measure on 1-3 components and points where the window
    test can tip: nodes, cell edges, each window end and one ulp either side
    of it, and far away."""
    m = draw(st.integers(min_value=1, max_value=3))
    steps = st.floats(min_value=0.01, max_value=20.0)
    edges = draw(st.floats(min_value=-30.0, max_value=30.0)) + np.cumsum(
        draw(st.lists(steps, min_size=2 * m, max_size=2 * m)))
    support = IntervalUnion(list(zip(edges[::2], edges[1::2])))
    g = make_grid(support, draw(st.integers(min_value=8, max_value=64)),
                  draw(st.floats(min_value=1.0, max_value=2.0)))
    mu = DiscreteMeasure.from_weights(g, np.full(g.size, 1.0 / g.size))
    reach = ANALYTIC_WINDOW * g.widths
    ends = np.concatenate([g.nodes - reach, g.nodes + reach])
    z = np.concatenate([g.nodes, g.cell_left, g.cell_right, ends, np.nextafter(ends, -np.inf),
                        np.nextafter(ends, np.inf), [-1e6, 0.0, 1e6]])
    return mu, z


class TestBandedWindow:
    """The analytic window and the row blocks against the full-matrix oracle."""

    @given(_window_cases())
    @settings(max_examples=60, deadline=None)
    def test_window_equals_full_mask(self, case):
        mu, z = case
        np.testing.assert_array_equal(neglog_cell_averages(z, mu), _neglog_oracle(z, mu))

    @pytest.mark.parametrize(
        "support, n, grading",
        [(F23, 40, 2.0), (FSYM, 40, 2.0), (NEAR_EDGE, 40, 2.0), (LONG_F, 8, 1.0)],
        ids=["f23", "sym", "near-edge", "long"],
    )
    def test_banded_equals_full_mask(self, support, n, grading):
        g = make_grid(support, n, grading)
        mu = DiscreteMeasure.from_weights(g, np.full(g.size, 1.0 / g.size))
        fine = make_grid(support, 4 * n, grading).nodes
        hi, lo = g.nodes + ANALYTIC_WINDOW * g.widths, g.nodes - ANALYTIC_WINDOW * g.widths
        # on the long F, |z - node| still rounds into the window one ulp
        # beyond the rounded window ends: the test compares |z - node| with
        # the window, never z with node +- window
        cases = {
            "unsorted": RNG.permutation(np.concatenate([fine, RNG.uniform(-4.0, 4.0, 50)])),
            "cell_edges": np.concatenate([g.cell_left, g.cell_right]),
            "window_edges": np.concatenate([hi, lo]),
            "window_edges_ulp": np.concatenate([np.nextafter(hi, np.inf),
                                                np.nextafter(lo, -np.inf)]),
            "nodes_repeated": np.repeat(g.nodes[::7], 3),
            "far": np.array([-1e6, 0.0, 1e6]),
        }
        for name, z in cases.items():
            np.testing.assert_array_equal(neglog_cell_averages(z, mu), _neglog_oracle(z, mu),
                                          err_msg=name)

    def test_complex_z_raises(self):
        # the evaluation points are real; a complex z, even on the real axis,
        # is refused instead of losing its imaginary part
        mu = arcsine_cells(make_grid(F23, 16, 1.0))
        evaluators = [
            neglog_cell_averages,
            lambda z, mu: log_potential(mu, z),
            lambda z, mu: green_potential_e(mu, z),
            lambda z, mu: kernel_potential(mu, SHEET0_KERNEL, z),
            lambda z, mu: surface_functional(mu, z),
        ]
        for z in (np.array([complex(mu.nodes[3]), 1.0j]), np.array([2.5 + 0.0j]), 4.0 + 2.0j):
            for f in evaluators:
                with pytest.raises(TypeError, match="must be real"):
                    f(z, mu)

    @pytest.mark.parametrize("support, n", [(NEAR_EDGE, 100), (FSYM, 200)],
                             ids=["near-edge", "sym"])
    @pytest.mark.parametrize("rows", [13, 1038, 4039])
    def test_blocked_potentials_equal_full_matrix(self, support, n, rows):
        g = make_grid(support, n, 2.0)
        w = RNG.random(g.size)
        mu = DiscreteMeasure.from_weights(g, w / w.sum())
        pool = np.concatenate([
            make_grid(support, 8 * n, 2.0).nodes,
            g.nodes,
            g.cell_left,
            np.geomspace(1.001, 1e6, 200) * np.sign(RNG.uniform(-1.0, 1.0, 200)),
        ])
        z = RNG.permutation(np.resize(RNG.permutation(pool), rows))
        block_rows = BLOCK_ENTRIES // g.size // 8 * 8
        assert rows % block_rows != 0
        full = _full_matrix_potentials(mu, z)
        blocked = _blocked_potentials(mu, z)
        for name in full:
            np.testing.assert_array_equal(blocked[name], full[name], err_msg=name)

    def test_peak_memory_below_quarter_matrix(self):
        g = make_grid(F23, 800, 2.0)
        mu = arcsine_cells(g)
        z = make_grid(F23, 3200, 2.0).nodes
        bound = len(z) * g.size * 8 / 4
        evaluators = {
            "surface_functional": lambda: surface_functional(mu, z),
            "log_potential": lambda: log_potential(mu, z),
            "green_potential_e": lambda: green_potential_e(mu, z),
            "kernel_potential_sheet0": lambda: kernel_potential(mu, SHEET0_KERNEL, z),
            "kernel_potential": lambda: kernel_potential(mu, SHEET1_KERNEL, z),
        }
        peaks = {}
        for name, evaluate in evaluators.items():
            tracemalloc.start()
            try:
                evaluate()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[name] < bound, f"{name}: peak {peaks[name]} bytes, bound {bound:.0f}"
        # the kernel is scaled and its smooth part added inside the row
        # block of -log averages; only the smooth part needs a second block
        ratio = peaks["kernel_potential"] / peaks["log_potential"]
        assert ratio <= 2.75, f"kernel_potential peaks at {ratio:.2f} x log_potential"


class TestKSDistance:
    def test_identical(self):
        g = make_grid(F23, 32, 1.0)
        mu = arcsine_cells(g)
        assert ks_distance(mu, mu) == 0.0

    def test_disjoint_atoms(self):
        a = Atoms(np.array([2.0]), np.array([1.0]))
        b = Atoms(np.array([3.0]), np.array([1.0]))
        assert ks_distance(a, b) == pytest.approx(1.0)

    def test_mass_validation(self):
        a = Atoms(np.array([2.0]), np.array([1.0]))
        b = Atoms(np.array([3.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            ks_distance(a, b)

    def test_refinement_decay(self):
        # same continuous measure at n and 2n on the graded grid: measured
        # n * KS stays at 0.637, so KS <= 1/n with margin, and decreasing
        vals = []
        for n in (50, 100, 200):
            g1 = make_grid(F23, n, 2.0)
            g2 = make_grid(F23, 2 * n, 2.0)
            vals.append(ks_distance(arcsine_cells(g1), arcsine_cells(g2)))
        assert vals[0] <= 1.0 / 50
        assert vals[0] > vals[1] > vals[2]

    def test_symmetry(self):
        g = make_grid(F23, 40, 1.0)
        a = arcsine_cells(g)
        b = DiscreteMeasure.from_weights(g, np.full(40, 1.0 / 40))
        assert ks_distance(a, b) == ks_distance(b, a)


class TestCSV:
    def test_roundtrip(self, tmp_path):
        g = make_grid(F23, 24, 1.8)
        mu = arcsine_cells(g)
        p = tmp_path / "m.csv"
        mu.to_csv(p)
        back = np.loadtxt(p, delimiter=",", skiprows=1)
        for col, values in enumerate((mu.nodes, mu.weights, mu.cell_left, mu.cell_right)):
            np.testing.assert_array_equal(back[:, col], values)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "m.csv"
        arcsine_cells(make_grid(F23, 8, 1.0)).to_csv(p)
        assert p.read_text().splitlines()[0] == "node,weight,cell_left,cell_right"


@given(st.integers(min_value=8, max_value=64), st.floats(min_value=1.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_grid_tiles_support(n, grading):
    g = make_grid(F23, n, grading)
    assert g.cell_left[0] == 2.0
    assert g.cell_right[-1] == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(g.cell_right[:-1], g.cell_left[1:], atol=1e-12)
    assert np.all(g.widths > 0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=40))
@settings(max_examples=40, deadline=None)
def test_mass_conservation(ws):
    ws = np.asarray(ws)
    g = make_grid(F23, len(ws), 1.0)
    mu = DiscreteMeasure.from_weights(g, ws)
    assert abs(mu.mass - ws.sum()) <= 1e-12 * max(1.0, ws.sum())
    assert abs(DiscreteMeasure.from_weights(g, 0.5 * ws).mass - 0.5 * ws.sum()) <= 1e-12
