"""Verification harness: every claim re-measured by an independent route.

Each verifier returns a :class:`VerificationReport` listing every configured
check with its measured value, tolerance and status; skipped checks are
recorded as skipped with a reason, never silently dropped.  Reports carry a
full configuration echo and probe only fixed points; they hold no
wall-clock data (the command line times each verifier call), so the
serialized reports stay byte-stable across runs.

Verifiers take solved measures and solve nothing themselves, except the
reduced one-measure problem, which only the equivalence suite uses; each run
solves the scalar and coupled problems once and hands the solutions to every
verifier.

Checks implemented:

- equivalence: the scalar solution on F against the coupled pair on (E, F),
  through distribution distances, the balayage routes in both directions,
  the reconstruction (swept measure + 3 tau_E)/4, and for single-interval F
  the reduced one-measure route with its constant consistency.
- mixed potential: the mixed Green-logarithmic potential
  3 U + G_E + 3 g_E(., infinity) is constant on F (measured between the
  nodes, where the scalar solve does not match it), is pointwise an affine
  image of the sheet-1 surface functional (pure algebra at quadrature
  level), and its E-side counterpart 3 U_1 + G_F is constant on E.
- positivity: the sheet-1 comparison function (Green potential of the
  complement of E plus 3 log|Phi|) is positive off the branch curve,
  vanishes at the curve, and diverges like 3 log|z|.
- zero distribution: real zeros of Q2 stay in the hull of F, have full
  count, and their normalized counting measures approach the scalar
  equilibrium measure in KS distance along increasing orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .balayage import balayage_numeric, reconstruct_e_measure
from .equilibrium import EquilibriumSolution, GridParams, reduced_kernel, solve_reduced
from .errors import EquilabError
from .hermite_pade import HPSweep, MarkovSpec, require_n_list, solve_with_escalation
from .kernels import green_e_at_infinity
from .measures import (
    GREEN_E_KERNEL,
    LOG_KERNEL,
    SHEET0_KERNEL,
    SHEET1_KERNEL,
    Atoms,
    DiscreteMeasure,
    green_potential_e,
    kernel_potential,
    kernel_potentials,
    ks_distance,
    log_potential,
    make_grid,
    mirror_exact,
    surface_functional,
)


# --------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    value: float
    tolerance: float
    status: str  # "pass" | "fail" | "skipped"
    note: str = ""


@dataclass
class VerificationReport:
    name: str
    checks: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add(self, check_id, value, tolerance, ok, note=""):
        self.checks.append(
            CheckResult(
                check_id=check_id,
                value=float(value),
                tolerance=float(tolerance),
                status="pass" if ok else "fail",
                note=note,
            )
        )

    def add_bound(self, check_id, value, tolerance, note=""):
        self.add(check_id, value, tolerance, float(value) <= float(tolerance), note)

    def skip(self, check_id, reason):
        self.checks.append(
            CheckResult(check_id=check_id, value=float("nan"), tolerance=float("nan"),
                        status="skipped", note=reason)
        )

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "check_id": c.check_id,
                    "value": None if np.isnan(c.value) else float(c.value),
                    "tolerance": None if np.isnan(c.tolerance) else float(c.tolerance),
                    "status": c.status,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "provenance": self.provenance,
        }

    def to_markdown(self) -> str:
        lines = [
            f"## {self.name}",
            "",
            "| check | value | tolerance | status |",
            "|---|---|---|---|",
        ]
        for c in self.checks:
            val = "" if np.isnan(c.value) else f"{c.value:.6g}"
            tol = "" if np.isnan(c.tolerance) else f"{c.tolerance:.6g}"
            note = f" ({c.note})" if c.note else ""
            lines.append(f"| {c.check_id} | {val} | {tol} | {c.status}{note} |")
        lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class Tolerances:
    """Distribution and residual tolerances, calibrated at F = [2, 3] and 400 nodes.

    The underlying identities are exact; these bounds encode discretization
    error only.  The command line multiplies them by the config's
    ``tolerance_scale`` through :meth:`scaled`, and by nothing else: they
    are not refitted to the grid size or the geometry.
    """

    ks: float = 5e-3
    residual_rel: float = 1e-3
    constancy: float = 1e-2
    identity: float = 1e-10
    constant_agreement: float = 2e-2
    ks_final: float = 0.08  # KS distance of the highest order's zero-counting measure

    def scaled(self, factor: float) -> "Tolerances":
        """Every discretization bound times ``factor``; the quadrature identity stays."""
        return Tolerances(
            ks=self.ks * factor,
            residual_rel=self.residual_rel * factor,
            constancy=self.constancy * factor,
            identity=self.identity,
            constant_agreement=self.constant_agreement * factor,
            ks_final=self.ks_final * factor,
        )


# --------------------------------------------------------------------------
# equivalence of the scalar and coupled problems


def verify_equivalence(
    scalar: EquilibriumSolution,
    coupled: tuple,
    tolerances: Tolerances = Tolerances(),
) -> VerificationReport:
    """Scalar-versus-coupled equivalence suite on the F of the scalar solve.

    ``scalar`` is ``solve_scalar(F, grid_params)`` and ``coupled`` the pair
    ``solve_vector(F, grid_params)``; F and the grid parameters are read off
    the scalar solve's grid, which the balayage sweeps onto and the report
    echoes.  The reconstruction lies on the coupled solve's E grid, the
    reduced problem is solved with the same grid parameters, and the
    residual is measured on a grid 4x finer than the scalar one.

    On F = -F with a mirror-exact scalar measure
    (:func:`~equilab.measures.mirror_exact`, as the folded solve returns)
    the sheet-1 potential and the field are even, so the residual is
    evaluated on the positive half of the fine grid only, with the whole
    kernel over all cells; any other measure is evaluated on the whole fine
    grid.  The sweep of the coupled E measure onto F is folded on F = -F;
    every other check reads whole grids, so the folded solves are still
    measured off the fold.
    """
    F = scalar.grid.support
    grid_params = GridParams(scalar.grid.n_per_component, scalar.grid.grading)
    rep = VerificationReport(
        name="equivalence",
        provenance={
            "F": [[l, r] for (l, r) in F.intervals],
            "grid": {"n": grid_params.n, "grading": grid_params.grading},
            "tolerances": {"ks": tolerances.ks, "residual_rel": tolerances.residual_rel},
        },
    )
    sol_e, sol_f = coupled
    lam = scalar.measure
    w_f = scalar.constant

    rep.add("equivalence.scalar_min_density", scalar.min_density, 0.0,
            scalar.min_density > 0.0, "full support: strictly positive density")

    fine = make_grid(F, 4 * grid_params.n, grid_params.grading)
    # an even measure's surface functional is even: its positive half holds
    # the sup up to the grid's one-rounding asymmetry
    z = fine.nodes[fine.size // 2:] if mirror_exact(lam) else fine.nodes
    res_fine = float(np.max(np.abs(surface_functional(lam, z) - w_f)))
    rep.add_bound("equivalence.scalar_residual_fine", res_fine,
                  tolerances.residual_rel * max(1.0, abs(w_f)),
                  "sup of |P + V - w_F| on a 4x finer grid")

    rep.add_bound("equivalence.ks_scalar_vs_coupled_f", ks_distance(lam, sol_f.measure),
                  tolerances.ks)

    swept_f = balayage_numeric(sol_e.measure, scalar.grid, F.is_symmetric())
    rep.add_bound("equivalence.ks_scalar_vs_swept_e", ks_distance(lam, swept_f.measure),
                  tolerances.ks, "F measure vs balayage of the E measure onto F")

    recon = reconstruct_e_measure(lam, sol_e.grid)
    rep.add_bound("equivalence.ks_coupled_e_vs_reconstruction",
                  ks_distance(sol_e.measure, recon), tolerances.ks,
                  "E measure vs (swept F measure + 3 tau_E)/4")

    if F.m == 1:
        reduced = solve_reduced(F, grid_params)
        rep.add_bound("equivalence.ks_reduced_vs_coupled_e",
                      ks_distance(reduced.measure, sol_e.measure), tolerances.ks)
        w_e = reduced.constant
        w12 = sol_e.constants[0] + sol_e.constants[1]
        rep.add_bound("equivalence.reduced_constant_consistency", abs(w_e - w12),
                      tolerances.constant_agreement * max(1.0, abs(w_e)),
                      "reduced constant vs w1 + w2 from the coupled solve")
    else:
        rep.skip("equivalence.ks_reduced_vs_coupled_e",
                 "reduced route needs a single-interval F")
        rep.skip("equivalence.reduced_constant_consistency",
                 "reduced route needs a single-interval F")

    if F.is_symmetric():
        # the coupled E weights are mirrored from half a grid by construction;
        # the reconstruction is the E-side measure that no solve folds
        sym = float(np.max(np.abs(recon.weights - recon.weights[::-1])))
        rep.add_bound("equivalence.symmetry_e", sym, 1e-10,
                      "reconstruction (swept F measure + 3 tau_E)/4 invariant under x -> -x "
                      "for symmetric F")

    rep.provenance["constants"] = {
        "w_F": w_f,
        "w1": sol_e.constants[0],
        "w2": sol_f.constants[0],
    }
    return rep


# --------------------------------------------------------------------------
# mixed Green-logarithmic potential


def verify_mixed_potential(
    lam: DiscreteMeasure,
    lam_e: DiscreteMeasure,
    tolerances: Tolerances = Tolerances(),
) -> VerificationReport:
    """Constancy chain of the mixed potential 3U + G_E + 3 g_E(., infinity).

    ``lam`` is the unit equilibrium measure on F (scalar route), ``lam_e``
    the first coupled measure on E.  The F-side potentials are evaluated at
    the cell edges that two cells of F share: the scalar solve matches the
    surface functional at the nodes, so a constancy measured there would
    read rounding only, while between the nodes it measures the
    discretization.
    """
    rep = VerificationReport(
        name="mixed-potential",
        provenance={
            "F": [[l, r] for (l, r) in lam.support.intervals],
            "n_f": len(lam.nodes),
            "n_e": len(lam_e.nodes),
        },
    )
    z = lam.cell_right[:-1][lam.cell_right[:-1] == lam.cell_left[1:]]
    # U, the G_E-potential and the sheet-1 kernel integral of lam at z share
    # one -log block per row block; the sums below are those of
    # sheet1_comparison and surface_functional
    u, g, s = kernel_potentials(lam, (LOG_KERNEL, GREEN_E_KERNEL, SHEET1_KERNEL), z)
    g_inf = green_e_at_infinity(z)
    v2 = 3.0 * u + (g + 3.0 * g_inf)
    pv = s + g_inf
    ident = v2 - 2.0 * pv
    rep.add_bound("mixed.affine_identity", float(np.max(np.abs(ident - ident.mean()))),
                  tolerances.identity,
                  "mixed potential minus twice the surface functional is constant "
                  "pointwise at quadrature level")
    rep.add_bound("mixed.constancy_on_f", float(v2.max() - v2.min()), tolerances.constancy,
                  "sup - inf of the mixed potential over the shared cell edges of F")

    if lam.support.m == 1:
        # 3 U_1 + G_F is the reduced problem's potential
        x = lam_e.nodes
        v42 = kernel_potential(lam_e, reduced_kernel(lam.support), x) + sheet1_comparison(lam, x)
        rep.add_bound("mixed.constancy_on_e", float(v42.max() - v42.min()),
                      tolerances.constancy,
                      "3 U_1 + G_F constant on E (Green terms vanish there)")
        # swapping U_2 for U_1 on F raises the plateau by 3x the second
        # coupled constant, so the F-side constant exceeds the E-side by 3 w2
        w2 = float(np.mean(u - log_potential(lam_e, z)))
        rep.add_bound("mixed.constant_agreement",
                      float(abs(v2.mean() - 3.0 * w2 - v42.mean())),
                      tolerances.constant_agreement,
                      "F-side constant minus 3 w2 equals the E-side constant")
        rep.provenance["constants"] = {"mixed_on_f": float(v2.mean()),
                                       "mixed_on_e": float(v42.mean()),
                                       "w2_estimate": w2}
    else:
        rep.skip("mixed.constancy_on_e", "E-side chain needs a single-interval F")
        rep.skip("mixed.constant_agreement", "E-side chain needs a single-interval F")

    return rep


# --------------------------------------------------------------------------
# sheet-1 positivity


def sheet1_comparison(lam: DiscreteMeasure, z):
    """v(z^(1)) = G_E-potential of lam at z plus 3 log|Phi(z)|, at real z.

    Positive off the branch curve, zero on it (both terms vanish on E),
    divergent like 3 log|z|.
    """
    return green_potential_e(lam, z) + 3.0 * green_e_at_infinity(z)


def verify_positivity(lam: DiscreteMeasure) -> VerificationReport:
    """Positivity and growth of the sheet-1 comparison function."""
    # fixed sample points: |z| log-spaced on [1.01, 100], on both sides of E
    mag = np.geomspace(1.01, 100.0, 500)
    z = np.concatenate([-mag[::-1], mag])
    rep = VerificationReport(
        name="positivity",
        provenance={"samples": int(z.size), "abs_z": [float(mag[0]), float(mag[-1])],
                    "F": [[l, r] for (l, r) in lam.support.intervals]},
    )
    vals = sheet1_comparison(lam, z)
    rep.add("positivity.min_over_samples", float(vals.min()), 0.0, bool(vals.min() > 0.0),
            "strictly positive at every sheet-1 sample")

    near = float(sheet1_comparison(lam, 1.0 + 1e-6))
    rep.add_bound("positivity.boundary_vanishing", near, 1e-2,
                  "value at z = 1 + 1e-6")

    zs = np.geomspace(1e4, 1e6, 25)
    slope = float(np.polyfit(np.log(zs), sheet1_comparison(lam, zs), 1)[0])
    rep.add_bound("positivity.log_slope", abs(slope - 3.0), 3.0 * 0.05,
                  "growth rate against log|z| fitted over z in [1e4, 1e6]")

    far = float(sheet1_comparison(lam, 1e6))
    rep.add("positivity.far_lower_bound", far, 3.0 * float(np.log(1e6)),
            far >= 3.0 * np.log(1e6), "value at 1e6 at least 3 log(1e6)")

    return rep


# --------------------------------------------------------------------------
# slopes of the surface potential (net charge seen from infinity)


def verify_charge_slopes(lam: DiscreteMeasure) -> VerificationReport:
    """Fitted growth rates of the surface potential on the two sheets."""
    rep = VerificationReport(
        name="charge-slopes",
        provenance={"F": [[l, r] for (l, r) in lam.support.intervals]},
    )
    zs = np.geomspace(1e3, 1e6, 25)
    s0 = float(np.polyfit(np.log(zs), kernel_potential(lam, SHEET0_KERNEL, zs), 1)[0])
    s1 = float(np.polyfit(np.log(zs), kernel_potential(lam, SHEET1_KERNEL, zs), 1)[0])
    rep.add_bound("slopes.sheet0", abs(s0 + 2.0), 1e-3, "sheet-0 rate is -2")
    rep.add_bound("slopes.sheet1", abs(s1 + 1.0), 1e-3, "sheet-1 rate is -1")
    return rep


# --------------------------------------------------------------------------
# zero distribution of Q2


def counting_measure(zeros) -> Atoms:
    """Normalized zero-counting measure: mass 1/len(zeros) at each of the ascending zeros."""
    if not zeros:
        raise ValueError("no zeros to count")
    return Atoms(np.asarray(zeros, dtype=float), np.full(len(zeros), 1.0 / len(zeros)))


def verify_zero_distribution(
    sigma: MarkovSpec,
    n_list,
    scalar: EquilibriumSolution,
    precision_bits: int,
    tolerances: Tolerances = Tolerances(),
) -> VerificationReport:
    """Hull containment, degree, and KS decay of normalized zero counting measures.

    The comparison measure is ``scalar``, the scalar equilibrium solution on
    the support of sigma, whose grid the report echoes.  The 10% non-increase band
    on the KS sequence is an artifact policy for desk scale, flagged as such
    in the provenance, not a claim about rates.
    """
    n_list = require_n_list(n_list)
    rep = VerificationReport(
        name="zero-distribution",
        provenance={
            "F": [[l, r] for (l, r) in sigma.support.intervals],
            "rule": sigma.rule,
            "n_list": n_list,
            "precision_bits": precision_bits,
            "grid": {"n": scalar.grid.n_per_component, "grading": scalar.grid.grading},
            "ks_band_policy": "non-increase within 10% per step; desk-scale policy",
        },
    )
    hull = sigma.support.hull
    sweep = HPSweep(sigma, n_list)
    ks_seq = {}
    precisions = {}
    for n in n_list:
        try:
            sol, zeros = solve_with_escalation(n, sweep, precision_bits)
        except EquilabError as exc:
            rep.add(f"zeros.order_{n}", float("nan"), 0.0, False, f"failure: {exc}")
            continue
        precisions[n] = sol.precision_bits
        excursion = max(0.0, hull[0] - min(zeros), max(zeros) - hull[1]) if zeros else 0.0
        rep.add_bound(f"zeros.hull_containment_n{n}", excursion, 1e-9,
                      f"max excursion outside [{hull[0]}, {hull[1]}]")
        degree = sigma.degree_q2(n)
        rep.add(f"zeros.degree_n{n}", sol.degree_q2, degree, sol.degree_q2 == degree,
                "degree of Q2 equals the order" if degree == n
                else "degree of Q2 is 2 floor(n/2) on a symmetric F")
        rep.add(f"zeros.count_n{n}", len(zeros), degree, len(zeros) == degree,
                "real zero count equals the degree")
        if sol.degree_q2 != degree:
            rep.add(f"zeros.order_{n}", float("nan"), 0.0, False,
                    f"failure: degree of Q2 is {sol.degree_q2}, not {degree}; no KS distance")
            continue
        if zeros:  # Q2 of degree 0 has no zeros to count
            ks_seq[n] = ks_distance(counting_measure(zeros), scalar.measure)

    positive = [n for n in n_list if sigma.degree_q2(n) > 0]
    if positive and len(ks_seq) == len(positive):
        ratios = [ks_seq[b] / ks_seq[a] for a, b in zip(positive, positive[1:])]
        worst = max(ratios) if ratios else 0.0
        rep.add_bound("zeros.ks_non_increasing", worst, 1.0 + 0.10,
                      "max step ratio of the KS sequence")
        rep.add_bound("zeros.ks_final", ks_seq[positive[-1]], tolerances.ks_final)
    else:
        reason = ("incomplete KS sequence after failures" if positive
                  else "no order where Q2 has positive degree, so no zeros to count")
        rep.skip("zeros.ks_non_increasing", reason)
        rep.skip("zeros.ks_final", reason)

    rep.provenance["ks_sequence"] = {str(n): float(v) for n, v in ks_seq.items()}
    rep.provenance["effective_precision_bits"] = {str(n): p for n, p in precisions.items()}
    rep.provenance["sigma_quad_orders"] = {str(b): o for b, o in sweep.quad_orders.items()}
    return rep
