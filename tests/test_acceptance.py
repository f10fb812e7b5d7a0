"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines with runtimes.  The expensive n = 400 solves are shared
through module fixtures; every tolerance below is fixed, nothing is
calibrated at run time.
"""

import json
import os
import time

import mpmath as mp
import numpy as np
import pytest

from conftest import zhukovskii_inverse
from equilab.balayage import balayage_numeric, balayage_point_to_e, reconstruct_e_measure
from equilab.cli import run as cli_run
from equilab.equilibrium import (
    E_INTERVAL,
    GridParams,
    collocate,
    solve_reduced,
    solve_scalar,
    solve_vector,
)
from equilab.hermite_pade import MarkovSpec, moments_f1, moments_f2, solve_hp
from equilab.kernels import (
    IntervalUnion,
    green_e_smooth,
    scalar_kernel_smooth,
)
from equilab.measures import (
    LOG_KERNEL,
    SHEET0_KERNEL,
    SHEET1_KERNEL,
    DiscreteMeasure,
    Grid,
    kernel_potential,
    ks_distance,
    make_grid,
    surface_functional,
)
from equilab.verify import sheet1_comparison, verify_zero_distribution

F23 = IntervalUnion([(2.0, 3.0)])
FSYM = IntervalUnion([(-3.0, -2.0), (2.0, 3.0)])
GP400 = GridParams(n=400, grading=2.0)


def report(num, ok, elapsed, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s)  {detail}")


@pytest.fixture(scope="module")
def scalar23():
    return solve_scalar(F23, GP400)


@pytest.fixture(scope="module")
def scalar_sym():
    return solve_scalar(FSYM, GP400)


@pytest.fixture(scope="module")
def coupled23():
    return solve_vector(F23, GP400)


@pytest.fixture(scope="module")
def coupled_sym():
    return solve_vector(FSYM, GP400)


def test_criterion_1_kernel_identities(kernel_oracles):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    def outside(size):
        mag = 10.0 ** rng.uniform(np.log10(1.0 + 1e-6), 3.0, size=size)
        return np.where(rng.random(size) < 0.5, -1.0, 1.0) * mag

    z, t = outside(10_000), outside(10_000)
    keep = np.abs(z - t) > 1e-9
    z, t = z[keep], t[keep]

    # the live split forms against the literal closed forms
    green_split = green_e_smooth(z, t) - np.log(np.abs(z - t))
    d_green = float(np.max(np.abs(green_split - kernel_oracles(z, t)[0])))

    pz, pt = zhukovskii_inverse(z), zhukovskii_inverse(t)
    factor = np.abs((pz - pt) * (1.0 - pz * pt)) / (2.0 * np.abs(pz * pt))
    d_fact = float(np.max(np.abs(factor / np.abs(z - t) - 1.0)))

    zs, ts = np.abs(z[:1000]) + 1.0, np.abs(t[:1000]) + 1.0
    keep2 = np.abs(zs - ts) > 1e-9
    zs, ts = zs[keep2], ts[keep2]
    sheet_split = scalar_kernel_smooth(zs, ts) - 2.0 * np.log(np.abs(zs - ts))
    d_sheet = float(np.max(np.abs(kernel_oracles(zs, ts)[1] - sheet_split)))

    elapsed = time.perf_counter() - t0
    ok = d_green <= 1e-12 and d_fact <= 1e-12 and d_sheet <= 1e-12 and elapsed < 10.0
    report(1, ok, elapsed, f"green forms {d_green:.2e}, factorization {d_fact:.2e}, "
                           f"sheet kernels {d_sheet:.2e}")
    assert d_green <= 1e-12
    assert d_fact <= 1e-12
    assert d_sheet <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_classical_oracle():
    t0 = time.perf_counter()
    grid = make_grid(E_INTERVAL, 400, 2.0)
    (u,), (c,), _ = collocate([grid], [[LOG_KERNEL]], [np.zeros_like], [1.0])
    arcs = DiscreteMeasure(
        grid, (np.arcsin(grid.cell_right) - np.arcsin(grid.cell_left)) / np.pi
    )
    ks = ks_distance(DiscreteMeasure(grid, u), arcs)
    dc = abs(c - np.log(2.0))
    elapsed = time.perf_counter() - t0
    ok = ks <= 3e-3 and dc <= 1e-3 and elapsed < 30.0
    report(2, ok, elapsed, f"KS vs arcsine {ks:.2e} (<=3e-3), |c - log 2| {dc:.2e} (<=1e-3)")
    assert ks <= 3e-3
    assert dc <= 1e-3
    assert elapsed < 30.0


def test_criterion_3_equality_on_all_of_f(scalar23, scalar_sym):
    t0 = time.perf_counter()
    results = []
    for F, sol in ((F23, scalar23), (FSYM, scalar_sym)):
        w_f = sol.constant
        fine = make_grid(F, 4 * 400, 2.0)
        res = float(np.max(np.abs(surface_functional(sol.measure, fine.nodes) - w_f)))
        results.append((sol.min_density, res, 1e-3 * max(1.0, abs(w_f))))
    elapsed = time.perf_counter() - t0
    ok = all(md > 0 and r <= tol for md, r, tol in results) and elapsed < 120.0
    report(3, ok, elapsed,
           "; ".join(f"min_density {md:.2e}, fine residual {r:.2e} (<= {tol:.2e})"
                     for md, r, tol in results))
    for md, r, tol in results:
        assert md > 0.0
        assert r <= tol
    assert elapsed < 120.0


def test_criterion_4_equivalence(scalar23, scalar_sym, coupled23, coupled_sym):
    t0 = time.perf_counter()
    vals = {}
    for tag, F, scalar, coupled in (
        ("f23", F23, scalar23, coupled23),
        ("sym", FSYM, scalar_sym, coupled_sym),
    ):
        sol_e, sol_f = coupled
        lam = scalar.measure
        vals[f"{tag}: lam vs coupled_f"] = ks_distance(lam, sol_f.measure)
        swept = balayage_numeric(sol_e.measure, make_grid(F, 400, 2.0))
        vals[f"{tag}: lam vs swept_e"] = ks_distance(lam, swept.measure)
        e_grid = make_grid(E_INTERVAL, 400, 2.0)
        recon = reconstruct_e_measure(lam, e_grid)
        vals[f"{tag}: coupled_e vs reconstruction"] = ks_distance(sol_e.measure, recon)
    reduced = solve_reduced(F23, GP400)
    vals["f23: reduced vs coupled_e"] = ks_distance(reduced.measure, coupled23[0].measure)
    elapsed = time.perf_counter() - t0
    worst = max(vals.values())
    ok = worst <= 5e-3 and elapsed < 300.0
    report(4, ok, elapsed, f"worst KS {worst:.2e} (<= 5e-3) over {len(vals)} routes")
    for name, v in vals.items():
        assert v <= 5e-3, name
    assert elapsed < 300.0


def test_criterion_5_balayage_oracle():
    t0 = time.perf_counter()
    grid = make_grid(E_INTERVAL, 400, 2.0)
    a = 2.0
    closed = balayage_point_to_e(a, grid)
    width = 1e-6
    cell = Grid(IntervalUnion([(a - width, a + width)]), 1, 1.0, [a], [a - width], [a + width])
    src = DiscreteMeasure(cell, [1.0])
    numeric = balayage_numeric(src, grid)
    ks = ks_distance(numeric.measure, closed)
    ident = float(np.max(np.abs(
        kernel_potential(numeric.measure, LOG_KERNEL, grid.nodes)
        + np.log(np.abs(grid.nodes - a))
        - np.log(2.0 + np.sqrt(3.0))
    )))
    elapsed = time.perf_counter() - t0
    ok = ks <= 1e-3 and ident <= 1e-3
    report(5, ok, elapsed, f"KS vs closed form {ks:.2e} (<=1e-3), "
                           f"potential identity {ident:.2e} (<=1e-3)")
    assert ks <= 1e-3
    assert ident <= 1e-3


def test_criterion_6_sheet1_positivity(scalar23):
    t0 = time.perf_counter()
    lam = scalar23.measure
    rng = np.random.default_rng(20240801)
    mag = 10.0 ** rng.uniform(np.log10(1.01), 2.0, size=1000)
    z = np.where(rng.random(1000) < 0.5, -1.0, 1.0) * mag
    vmin = float(np.min(sheet1_comparison(lam, z)))
    near = float(sheet1_comparison(lam, 1.0 + 1e-6))
    zs = np.geomspace(1e4, 1e6, 25)
    slope = float(np.polyfit(np.log(zs), sheet1_comparison(lam, zs), 1)[0])
    far = float(sheet1_comparison(lam, 1e6))
    elapsed = time.perf_counter() - t0
    ok = vmin > 0 and near <= 1e-2 and abs(slope - 3.0) <= 0.15 and far >= 3 * np.log(1e6)
    report(6, ok, elapsed, f"min v {vmin:.3f} (>0), v(1+1e-6) {near:.2e} (<=1e-2), "
                           f"slope {slope:.4f} (3 within 5%)")
    assert vmin > 0.0
    assert near <= 1e-2
    assert abs(slope - 3.0) <= 3.0 * 0.05
    assert far >= 3.0 * np.log(1e6)


def test_criterion_7_charge_slopes(scalar23):
    t0 = time.perf_counter()
    lam = scalar23.measure
    zs = np.geomspace(1e3, 1e6, 25)
    s0 = float(np.polyfit(np.log(zs), kernel_potential(lam, SHEET0_KERNEL, zs), 1)[0])
    s1 = float(np.polyfit(np.log(zs), kernel_potential(lam, SHEET1_KERNEL, zs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(s0 + 2.0) <= 1e-3 and abs(s1 + 1.0) <= 1e-3
    report(7, ok, elapsed, f"sheet-0 slope {s0:.6f} (-2 within 1e-3), "
                           f"sheet-1 slope {s1:.6f} (-1 within 1e-3)")
    assert abs(s0 + 2.0) <= 1e-3
    assert abs(s1 + 1.0) <= 1e-3


@pytest.fixture(scope="module")
def zero_distribution_report(scalar23):
    """The report and the wall time of its verifier call."""
    t0 = time.perf_counter()
    rep = verify_zero_distribution(
        MarkovSpec(F23, "arcsine"), [5, 10, 20, 40], scalar23, 512
    )
    return rep, time.perf_counter() - t0


def test_criterion_8_zero_distribution(zero_distribution_report):
    t0 = time.perf_counter()
    rep, elapsed = zero_distribution_report
    ks_seq = [rep.provenance["ks_sequence"][str(n)] for n in (5, 10, 20, 40)]
    ok = rep.all_passed and elapsed < 600.0
    report(8, ok, elapsed,
           f"KS sequence {['%.4f' % v for v in ks_seq]}, final <= 0.08, "
           f"precisions {rep.provenance['effective_precision_bits']}")
    failed = [c.check_id for c in rep.checks if c.status == "fail"]
    assert not failed, failed
    assert elapsed < 600.0
    assert time.perf_counter() - t0 < 600.0


@pytest.fixture(scope="module")
def hp_batch():
    bits = 512
    k = 3 * 40 + 1
    a = moments_f1(k, bits)
    b, _ = moments_f2(k, MarkovSpec(F23, "arcsine"), bits)
    return {n: solve_hp(n, a, b, bits) for n in (5, 10, 20, 40)}


def test_criterion_9_residual_contract(hp_batch):
    t0 = time.perf_counter()
    worst = {}
    for n, sol in hp_batch.items():
        bound = 2.0 ** (-(sol.precision_bits // 4))
        worst[n] = (sol.residual_max, bound, sol.residual_order)
    elapsed = time.perf_counter() - t0
    ok = all(r <= b and order >= 2 * n + 2 for n, (r, b, order) in worst.items())
    report(9, ok, elapsed,
           "; ".join(f"n={n}: residual {r:.1e} <= {b:.1e}, order {o} >= {2 * n + 2}"
                     for n, (r, b, o) in worst.items()))
    for n, (r, b, order) in worst.items():
        assert r <= b
        assert order >= 2 * n + 2


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "problem": {"f_intervals": [[2.0, 3.0]], "sigma": "arcsine"},
        "grids": {"n_per_component": 400, "grading": 2.0},
        "hp": {"n_list": [5, 10], "precision_bits": 128},
        "positivity_samples": 300,
        "seed": 11,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_run(["verify-all", "--config", str(p), "--out", str(out1)])
    code2 = cli_run(["verify-all", "--config", str(p), "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    names = []
    for base, _, files in os.walk(out1):
        names += [os.path.relpath(os.path.join(base, f), out1) for f in files]
    mismatches = []
    for name in sorted(names):
        if name in ("manifest.json", "timings.json"):
            continue  # wall-clock lives only here
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            mismatches.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report(10, ok, elapsed, "byte-identical reports"
           if ok else f"mismatches: {mismatches}")
    assert not mismatches
