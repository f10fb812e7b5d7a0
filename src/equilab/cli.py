"""Command-line entry point.

One command per process; configuration comes from a JSON file or a bundled
preset, with individual flags overriding config keys.  Every run writes its
artifacts under the output directory plus a manifest with content hashes.
Serialized reports carry no wall-clock data (timings go to a sidecar and the
only timestamp lives in the manifest), so reruns with the same config are
byte-identical.

The verify commands solve the scalar problem (and, for ``verify-theorem1``
and ``verify-all``, the coupled problem) once per run and hand the solutions
to every verifier and to the ``measures/`` writer.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 on
configuration or solver errors (a solver error in any command, a verify
command included, ends the run with exit 2 and no report).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from functools import partial

from .errors import ConfigError, EquilabError

PRESETS = {
    "f23-arcsine": {
        "problem": {"f_intervals": [[2.0, 3.0]], "sigma": "arcsine"},
        "grids": {"n_per_component": 400, "grading": 2.0},
        "hp": {"n_list": [5, 10, 20, 40], "precision_bits": 512},
        "balayage": {"point": 2.0},
        "tolerance_scale": 1.0,
        "positivity_samples": 1000,
        "seed": 20240801,
    },
    "f23-constant": {
        "problem": {"f_intervals": [[2.0, 3.0]], "sigma": "constant"},
        "grids": {"n_per_component": 400, "grading": 2.0},
        "hp": {"n_list": [5, 10, 20, 40], "precision_bits": 512},
        "balayage": {"point": 2.0},
        "tolerance_scale": 1.0,
        "positivity_samples": 1000,
        "seed": 20240801,
    },
    "sym-arcsine": {
        "problem": {"f_intervals": [[-3.0, -2.0], [2.0, 3.0]], "sigma": "arcsine"},
        "grids": {"n_per_component": 400, "grading": 2.0},
        "hp": {"n_list": [5, 10, 20, 40], "precision_bits": 512},
        "balayage": {"point": 2.0},
        "tolerance_scale": 1.0,
        "positivity_samples": 1000,
        "seed": 20240801,
    },
}

DEFAULT_PRESET = "f23-arcsine"


# --------------------------------------------------------------------------
# configuration


def load_config(args) -> dict:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        preset = args.preset or DEFAULT_PRESET
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        cfg = json.loads(json.dumps(PRESETS[preset]))
    if args.nodes is not None:
        cfg.setdefault("grids", {})["n_per_component"] = args.nodes
    if args.precision_bits is not None:
        cfg.setdefault("hp", {})["precision_bits"] = args.precision_bits
    if args.tolerance_scale is not None:
        cfg["tolerance_scale"] = args.tolerance_scale
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg["threads"] = args.threads
    return cfg


def validate_config(cfg: dict):
    """Collects every violated invariant and reports them together."""
    problems = []
    ivs = cfg.get("problem", {}).get("f_intervals")
    if not ivs:
        problems.append("problem.f_intervals missing or empty")
    else:
        try:
            from .kernels import IntervalUnion, require_gap_to_e

            require_gap_to_e(IntervalUnion(ivs))
        except (ValueError, TypeError) as exc:
            problems.append(f"problem.f_intervals invalid: {exc}")
    sigma = cfg.get("problem", {}).get("sigma", "arcsine")
    if sigma not in ("arcsine", "constant"):
        problems.append(f"problem.sigma must be 'arcsine' or 'constant', got {sigma!r}")
    n = cfg.get("grids", {}).get("n_per_component", 400)
    if not isinstance(n, int) or n < 8:
        problems.append("grids.n_per_component must be an integer >= 8")
    grading = cfg.get("grids", {}).get("grading", 2.0)
    if not 1.0 <= float(grading) <= 2.0:
        problems.append("grids.grading must lie in [1, 2]")
    n_list = cfg.get("hp", {}).get("n_list", [5, 10, 20, 40])
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or any(k < 0 for k in n_list):
        problems.append("hp.n_list must be nonnegative and strictly increasing")
    bits = cfg.get("hp", {}).get("precision_bits", 512)
    if not isinstance(bits, int) or bits < 64:
        problems.append("hp.precision_bits must be an integer >= 64")
    scale = cfg.get("tolerance_scale", 1.0)
    if not float(scale) > 0:
        problems.append("tolerance_scale must be positive")
    if problems:
        raise ConfigError(problems)


def _build_objects(cfg):
    from .equilibrium import GridParams
    from .hermite_pade import arcsine_sigma, constant_sigma
    from .kernels import IntervalUnion
    from .verify import Tolerances

    F = IntervalUnion(cfg["problem"]["f_intervals"])
    gp = GridParams(
        n=cfg.get("grids", {}).get("n_per_component", 400),
        grading=float(cfg.get("grids", {}).get("grading", 2.0)),
    )
    scale = float(cfg.get("tolerance_scale", 1.0))
    base = Tolerances()
    tol = Tolerances(
        ks=base.ks * scale,
        residual_rel=base.residual_rel * scale,
        constancy=base.constancy * scale,
        identity=base.identity,
        constant_agreement=base.constant_agreement * scale,
    )
    kind = cfg.get("problem", {}).get("sigma", "arcsine")
    sigma = arcsine_sigma(F) if kind == "arcsine" else constant_sigma(F)
    return F, gp, tol, sigma


# --------------------------------------------------------------------------
# artifact helpers


class OutputDir:
    def __init__(self, root):
        self.root = root
        self.files = []
        os.makedirs(root, exist_ok=True)

    def path(self, rel):
        p = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        if rel not in self.files:
            self.files.append(rel)
        return p

    def write_json(self, rel, payload):
        with open(self.path(rel), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")

    def write_text(self, rel, text):
        with open(self.path(rel), "w", encoding="utf-8") as fh:
            fh.write(text)

    def finalize(self, command, cfg):
        entries = []
        for rel in sorted(self.files):
            p = os.path.join(self.root, rel)
            digest = hashlib.sha256(open(p, "rb").read()).hexdigest()
            entries.append({"path": rel, "sha256": digest, "bytes": os.path.getsize(p)})
        manifest = {
            "command": command,
            "config": cfg,
            "outputs": entries,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        with open(os.path.join(self.root, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_solution(out, prefix, sol, grid):
    sol.measure.to_csv(out.path(f"{prefix}.csv"))
    out.write_json(f"{prefix}.json", sol.sidecar_dict(grid))


def _write_report(out, rep, stem):
    out.write_json(f"{stem}.report.json", rep.to_json_dict())
    out.write_text(f"{stem}.report.md", rep.to_markdown())
    return rep.all_passed


def _write_timings(out, reports, solve_timings):
    payload = {rep.name: {k: float(v) for k, v in rep.timings.items()} for rep in reports}
    payload["solve"] = solve_timings
    with open(os.path.join(out.root, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# command implementations


def _cmd_solve_scalar(cfg, out):
    from .equilibrium import solve_scalar
    from .measures import make_grid

    F, gp, _, _ = _build_objects(cfg)
    sol = solve_scalar(F, gp)
    _write_solution(out, "scalar_f", sol, make_grid(F, gp.n, gp.grading))
    print(
        f"[solve-scalar] constant={sol.constant:.6f} residual_sup={sol.residual_sup:.3e} "
        f"min_density={sol.min_density:.3e} ({sol.method})"
    )
    return 0


def _cmd_solve_vector(cfg, out):
    from .equilibrium import E_INTERVAL, solve_vector
    from .measures import make_grid

    F, gp, _, _ = _build_objects(cfg)
    sol_e, sol_f = solve_vector(F, gp)
    _write_solution(out, "coupled_e", sol_e, make_grid(E_INTERVAL, gp.n, gp.grading))
    _write_solution(out, "coupled_f", sol_f, make_grid(F, gp.n, gp.grading))
    print(
        f"[solve-vector] w1={sol_e.constants[0]:.6f} w2={sol_e.constants[1]:.6f} "
        f"residuals=({sol_e.residual_sup:.3e}, {sol_f.residual_sup:.3e})"
    )
    return 0


def _cmd_solve_p6(cfg, out):
    from .equilibrium import E_INTERVAL, solve_reduced
    from .measures import make_grid

    F, gp, _, _ = _build_objects(cfg)
    sol = solve_reduced(F, gp)
    _write_solution(out, "reduced_e", sol, make_grid(E_INTERVAL, gp.n, gp.grading))
    print(
        f"[solve-p6] constant={sol.constant:.6f} residual_sup={sol.residual_sup:.3e} "
        f"min_density={sol.min_density:.3e}"
    )
    return 0


def _cmd_balayage(cfg, out):
    import numpy as np

    from .balayage import balayage_numeric, balayage_point_to_e
    from .equilibrium import E_INTERVAL
    from .kernels import green_e_at_infinity
    from .measures import DiscreteMeasure, ks_distance, log_potential, make_grid

    _, gp, _, _ = _build_objects(cfg)
    a = float(cfg.get("balayage", {}).get("point", 2.0))
    if abs(a) <= 1.0 + 1e-9:
        raise ConfigError(f"balayage.point must lie outside [-1, 1], got {a}")
    from .kernels import IntervalUnion

    grid = make_grid(E_INTERVAL, gp.n, gp.grading)
    closed = balayage_point_to_e(a, grid)
    # a single narrow cell centered at the point stands in for the delta mass
    half = min(abs(a) - 1.0, 0.5) / 1000.0
    src = DiscreteMeasure(
        [a], [1.0], [a - half], [a + half], IntervalUnion([(a - half, a + half)])
    )
    numeric = balayage_numeric(src, grid)
    ks = ks_distance(closed.measure, numeric.measure)
    ident = float(
        np.max(
            np.abs(
                log_potential(numeric.measure, grid.nodes)
                - log_potential(src, grid.nodes)
                - numeric.shift_constant
            )
        )
    )
    closed.measure.to_csv(out.path("balayage_closed.csv"))
    numeric.measure.to_csv(out.path("balayage_numeric.csv"))
    out.write_json(
        "balayage.json",
        {
            "point": a,
            "shift_constant_closed": closed.shift_constant,
            "shift_constant_numeric": numeric.shift_constant,
            "green_at_infinity": float(green_e_at_infinity(a)),
            "ks_closed_vs_numeric": ks,
            "potential_identity_sup": ident,
            "numeric_residual_sup": numeric.residual_sup,
        },
    )
    print(f"[balayage] a={a} ks={ks:.3e} shift={numeric.shift_constant:.6f}")
    return 0


def _cmd_hp(cfg, out):
    from .hermite_pade import HPSweep, solve_with_escalation

    _, _, _, sigma = _build_objects(cfg)
    n_list = cfg.get("hp", {}).get("n_list", [5, 10, 20, 40])
    bits = cfg.get("hp", {}).get("precision_bits", 512)
    sweep = HPSweep(sigma, n_list)
    summary = []
    for n in n_list:
        sol, zeros = solve_with_escalation(n, sigma, bits, sweep=sweep)
        sol.save_json(out.path(f"hp_n{n}.json"))
        with open(out.path(f"hp_zeros_n{n}.csv"), "w", encoding="utf-8") as fh:
            fh.write("index,zero\n")
            for i, z in enumerate(zeros):
                fh.write(f"{i},{float(z)!r}\n")
        summary.append(
            {
                "n": n,
                "precision_bits": sol.precision_bits,
                "residual_order": sol.residual_order,
                "degree_q2": sol.degree_q2,
                "zero_count": len(zeros),
            }
        )
    out.write_json("hp_summary.json", {"orders": summary})
    line = ", ".join(f"n={s['n']}:{s['zero_count']} zeros" for s in summary)
    print(f"[hp] {line}")
    return 0


def _cmd_verify(cfg, out, which):
    from .equilibrium import E_INTERVAL, solve_scalar, solve_vector
    from .measures import make_grid
    from .verify import (
        verify_charge_slopes,
        verify_equivalence,
        verify_mixed_potential,
        verify_positivity,
        verify_zero_distribution,
    )

    F, gp, tol, sigma = _build_objects(cfg)
    t0 = time.perf_counter()
    scalar = solve_scalar(F, gp)
    solve_timings = {"scalar": time.perf_counter() - t0}
    coupled = None
    if which in ("theorem1", "all"):
        t0 = time.perf_counter()
        coupled = solve_vector(F, gp)
        solve_timings["coupled"] = time.perf_counter() - t0

    reports = []
    if coupled is not None:
        reports.append(verify_equivalence(F, scalar, coupled, gp, tol))
    if which == "all":
        reports.append(verify_mixed_potential(scalar.measure, coupled[0].measure, tol))
        reports.append(
            verify_positivity(
                scalar.measure,
                samples=int(cfg.get("positivity_samples", 1000)),
                seed=int(cfg.get("seed", 20240801)),
            )
        )
        reports.append(verify_charge_slopes(scalar.measure))
    if which in ("prop2", "all"):
        scale = float(cfg.get("tolerance_scale", 1.0))
        reports.append(
            verify_zero_distribution(
                sigma,
                cfg.get("hp", {}).get("n_list", [5, 10, 20, 40]),
                scalar.measure,
                gp,
                cfg.get("hp", {}).get("precision_bits", 512),
                ks_final=0.08 * scale,
            )
        )

    ok = True
    combined_md = []
    for rep in reports:
        ok = _write_report(out, rep, rep.name) and ok
        combined_md.append(rep.to_markdown())
    out.write_json("report.json", {"reports": [r.to_json_dict() for r in reports]})
    out.write_text("report.md", "\n".join(combined_md))
    # plot-ready CSVs: the solved measures and the KS sequence
    if coupled is not None:
        f_grid = make_grid(F, gp.n, gp.grading)
        _write_solution(out, "measures/scalar_f", scalar, f_grid)
        _write_solution(out, "measures/coupled_e", coupled[0],
                        make_grid(E_INTERVAL, gp.n, gp.grading))
        _write_solution(out, "measures/coupled_f", coupled[1], f_grid)
    for rep in reports:
        seq = rep.provenance.get("ks_sequence")
        if seq:
            lines = ["n,ks"]
            lines += [f"{n},{float(v)!r}" for n, v in sorted(seq.items(), key=lambda kv: int(kv[0]))]
            out.write_text("prop2_ks.csv", "\n".join(lines) + "\n")
    _write_timings(out, reports, solve_timings)
    n_checks = sum(len(r.checks) for r in reports)
    n_pass = sum(1 for r in reports for c in r.checks if c.status == "pass")
    n_skip = sum(1 for r in reports for c in r.checks if c.status == "skipped")
    print(
        f"[verify-{which}] {n_pass}/{n_checks} checks passed"
        + (f" ({n_skip} skipped)" if n_skip else "")
        + f"; reports under {out.root}"
    )
    return 0 if ok else 1


HANDLERS = {
    "solve-scalar": _cmd_solve_scalar,
    "solve-vector": _cmd_solve_vector,
    "solve-p6": _cmd_solve_p6,
    "balayage": _cmd_balayage,
    "hp": _cmd_hp,
    "verify-theorem1": partial(_cmd_verify, which="theorem1"),
    "verify-prop2": partial(_cmd_verify, which="prop2"),
    "verify-all": partial(_cmd_verify, which="all"),
}

COMMANDS = tuple(HANDLERS)


# --------------------------------------------------------------------------
# entry point


def build_parser():
    ap = argparse.ArgumentParser(
        prog="equilab",
        description="equilibrium measures, balayage, and type-I Hermite-Pade zero distributions",
    )
    ap.add_argument("command", choices=COMMANDS, help="command to run")
    ap.add_argument("--config", help="path to a JSON config file")
    ap.add_argument("--preset", help=f"bundled preset ({', '.join(sorted(PRESETS))})")
    ap.add_argument("--out", default="out", help="output directory (default: ./out)")
    ap.add_argument("--threads", type=int, default=1, choices=[1],
                    help="BLAS thread count, 1 only (the reference mode, default): pins "
                         "OMP/OPENBLAS/MKL/NUMEXPR_NUM_THREADS to 1 where not already set; "
                         "the pin takes effect only if numpy is not loaded yet, so a fresh "
                         "equilab process gets it but an in-process cli.run does not, and "
                         "a *_NUM_THREADS value already in the environment wins")
    ap.add_argument("--precision-bits", type=int, dest="precision_bits")
    ap.add_argument("--nodes", type=int, help="override grids.n_per_component")
    ap.add_argument("--tolerance-scale", type=float, dest="tolerance_scale")
    ap.add_argument("--seed", type=int)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the contract
        return int(exc.code or 0)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        try:
            cfg = load_config(args)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        validate_config(cfg)
        out = OutputDir(args.out)
        code = HANDLERS[args.command](cfg, out)
    except ConfigError as exc:
        print("configuration invalid:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except (EquilabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.finalize(args.command, cfg)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
