"""Command-line entry point.

One command per process; configuration comes from a JSON file or a bundled
preset, with individual flags overriding config keys.  ``validate_config`` is
the only reader of the config tree: it fills missing keys from ``DEFAULTS``,
checks every key it reads, types included, ignores the others, and returns
the run's objects as one :class:`RunConfig` for the command handlers.  A
value that the library also needs (the gap of F to E, the grid, the orders,
the balayage point) is checked by the library's own function and reported
under its config key.

Every run writes its artifacts under the output directory plus a manifest
with content hashes and the BLAS thread settings of the run.  Serialized
reports carry no wall-clock data (timings go to a sidecar and the only
timestamp lives in the manifest), so reruns with the same config are
byte-identical.  The verify commands solve the
scalar problem (and, for ``verify-theorem1`` and ``verify-all``, the coupled
problem) once per run and hand the solutions to every verifier and to the
``measures/`` writer.

A run's peak memory is its largest dense solve: the matrix plus the copy that
``np.linalg.solve`` factors.  So when both problems are solved, the coupled
system (n_E + n_F + 2 unknowns, against n_F + 1 for the scalar one) goes
first, while the process holds the least, and ``hashlib`` is imported in
``OutputDir.finalize``, the only code that hashes, so that the OpenSSL
library it maps (about 3.6 MiB) comes after the last solve.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 on
configuration or solver errors (an invalid config ends the run before any
solve, listing every violation; a solver error ends it without a report).
The package modules, and numpy with them, are imported inside the functions
that use them, so that ``run`` pins the BLAS threads before numpy loads.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from datetime import datetime, timezone
from functools import partial
from typing import NamedTuple

from .errors import ConfigError, EquilabError

DEFAULTS = {
    "problem": {"sigma": "arcsine"},
    "grids": {"n_per_component": 400, "grading": 2.0},
    "hp": {"n_list": [5, 10, 20, 40], "precision_bits": 512},
    "balayage": {"point": 2.0},
}


def _preset(f_intervals, sigma):
    return {**copy.deepcopy(DEFAULTS), "problem": {"f_intervals": f_intervals, "sigma": sigma}}


PRESETS = {
    "f23-arcsine": _preset([[2.0, 3.0]], "arcsine"),
    "f23-constant": _preset([[2.0, 3.0]], "constant"),
    "sym-arcsine": _preset([[-3.0, -2.0], [2.0, 3.0]], "arcsine"),
}

DEFAULT_PRESET = "f23-arcsine"

# the BLAS thread variables that ``run`` pins to 1 where unset
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


# --------------------------------------------------------------------------
# configuration


def load_config(args) -> dict:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            return cfg  # validate_config reports it
    else:
        preset = args.preset or DEFAULT_PRESET
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        cfg = copy.deepcopy(PRESETS[preset])
    overrides = {
        "grids.n_per_component": args.nodes,
        "hp.precision_bits": args.precision_bits,
    }
    for key, value in overrides.items():
        if value is None:
            continue
        section, leaf = key.split(".")
        node = cfg.setdefault(section, {})
        if isinstance(node, dict):  # validate_config reports a section that is not
            node[leaf] = value
    return cfg


class RunConfig(NamedTuple):
    """The objects of one run, read from a checked config."""

    F: object                   # IntervalUnion
    grid: object                # GridParams
    sigma: object               # MarkovSpec
    n_list: list
    precision_bits: int
    balayage_point: float


def _parsers():
    """Config key -> function that checks the value and returns what the run uses."""
    from .balayage import require_outside_e
    from .hermite_pade import require_n_list, require_precision_bits, require_sigma_density
    from .kernels import IntervalUnion, require_gap_to_e
    from .measures import require_grading, require_node_count

    return {
        "problem.f_intervals": lambda ivs: require_gap_to_e(IntervalUnion(ivs)),
        "problem.sigma": require_sigma_density,
        "grids.n_per_component": require_node_count,
        "grids.grading": require_grading,
        "hp.n_list": require_n_list,
        "hp.precision_bits": require_precision_bits,
        "balayage.point": require_outside_e,
    }


def validate_config(cfg: dict) -> RunConfig:
    """Reads and checks every key, filling missing ones from DEFAULTS.

    Keys it does not read are ignored, so configs that still carry retired
    keys run unchanged.  Collects every violated invariant into one
    ConfigError; otherwise returns the run's objects.
    """
    from .equilibrium import GridParams
    from .hermite_pade import MarkovSpec

    if not isinstance(cfg, dict):
        raise ConfigError(f"the config must be a JSON object, got {type(cfg).__name__}")
    problems = [f"{name} must be an object, got {cfg[name]!r}" for name in DEFAULTS
                if not isinstance(cfg.get(name, {}), dict)]
    values = {}
    for key, parse in _parsers().items():
        section, leaf = key.split(".")
        node = cfg.get(section, {})
        if not isinstance(node, dict):
            continue
        value = node.get(leaf, DEFAULTS[section].get(leaf))
        if value is None:
            problems.append(f"{key}: missing")
            continue
        try:
            values[key] = parse(value)
        except (TypeError, ValueError) as exc:
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigError(problems)

    F = values["problem.f_intervals"]
    return RunConfig(
        F=F,
        grid=GridParams(n=values["grids.n_per_component"], grading=values["grids.grading"]),
        sigma=MarkovSpec(F, values["problem.sigma"]),
        n_list=values["hp.n_list"],
        precision_bits=values["hp.precision_bits"],
        balayage_point=values["balayage.point"],
    )


# --------------------------------------------------------------------------
# artifact helpers


class OutputDir:
    def __init__(self, root):
        self.root = root
        self.files = []

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

    def finalize(self, command, cfg, blas_threads):
        import hashlib  # maps libcrypto; every solve is done by now

        entries = []
        for rel in sorted(self.files):
            p = os.path.join(self.root, rel)
            with open(p, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append({"path": rel, "sha256": digest, "bytes": os.path.getsize(p)})
        manifest = {
            "command": command,
            "config": cfg,
            "outputs": entries,
            "blas_threads": blas_threads,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        with open(os.path.join(self.root, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_solution(out, prefix, sol):
    sol.measure.to_csv(out.path(f"{prefix}.csv"))
    out.write_json(f"{prefix}.json", sol.sidecar_dict())


def _write_report(out, rep, stem):
    out.write_json(f"{stem}.report.json", rep.to_json_dict())
    out.write_text(f"{stem}.report.md", rep.to_markdown())
    return rep.all_passed


def _write_timings(out, timings):
    with open(os.path.join(out.root, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(timings, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# command implementations


def _cmd_solve_scalar(rc: RunConfig, out):
    from .equilibrium import solve_scalar

    sol = solve_scalar(rc.F, rc.grid)
    _write_solution(out, "scalar_f", sol)
    print(
        f"[solve-scalar] constant={sol.constant:.6f} residual_sup={sol.residual_sup:.3e} "
        f"min_density={sol.min_density:.3e} ({sol.method})"
    )
    return 0


def _cmd_solve_vector(rc: RunConfig, out):
    from .equilibrium import solve_vector

    sol_e, sol_f = solve_vector(rc.F, rc.grid)
    _write_solution(out, "coupled_e", sol_e)
    _write_solution(out, "coupled_f", sol_f)
    print(
        f"[solve-vector] w1={sol_e.constants[0]:.6f} w2={sol_e.constants[1]:.6f} "
        f"residuals=({sol_e.residual_sup:.3e}, {sol_f.residual_sup:.3e})"
    )
    return 0


def _cmd_solve_p6(rc: RunConfig, out):
    from .equilibrium import solve_reduced

    sol = solve_reduced(rc.F, rc.grid)
    _write_solution(out, "reduced_e", sol)
    print(
        f"[solve-p6] constant={sol.constant:.6f} residual_sup={sol.residual_sup:.3e} "
        f"min_density={sol.min_density:.3e}"
    )
    return 0


def _cmd_balayage(rc: RunConfig, out):
    from .balayage import balayage_numeric, balayage_point_to_e
    from .equilibrium import E_INTERVAL
    from .kernels import IntervalUnion, green_e_at_infinity
    from .measures import DiscreteMeasure, Grid, ks_distance, make_grid
    from .verify import TOLERANCES

    a = rc.balayage_point
    grid = make_grid(E_INTERVAL, rc.grid.n, rc.grid.grading)
    closed = balayage_point_to_e(a, grid)
    # the closed form's shift constant
    shift = float(green_e_at_infinity(a))
    # a single narrow cell centered at the point stands in for the delta mass
    half = min(abs(a) - 1.0, 0.5) / 1000.0
    cell = Grid(IntervalUnion([(a - half, a + half)]), 1, 1.0, [a], [a - half], [a + half])
    src = DiscreteMeasure(cell, [1.0])
    numeric = balayage_numeric(src, grid)
    ks = ks_distance(closed, numeric.measure)
    # the closed form is exact, so the distance is the sweep's discretization error
    passed = ks <= TOLERANCES.ks
    closed.to_csv(out.path("balayage_closed.csv"))
    numeric.measure.to_csv(out.path("balayage_numeric.csv"))
    out.write_json(
        "balayage.json",
        {
            "point": a,
            "shift_constant_closed": shift,
            "shift_constant_numeric": numeric.constant,
            "green_at_infinity": shift,
            "ks_closed_vs_numeric": ks,
            "ks_tolerance": TOLERANCES.ks,
            # the sweep's residual is this identity on the grid nodes, bit for bit
            "potential_identity_sup": numeric.residual_sup,
        },
    )
    print(f"[balayage] a={a} ks={ks:.3e} (tolerance {TOLERANCES.ks:.3e}, "
          f"{'pass' if passed else 'fail'}) shift={numeric.constant:.6f}")
    return 0 if passed else 1


def _cmd_hp(rc: RunConfig, out):
    from .hermite_pade import HPSweep, solve_with_escalation

    sweep = HPSweep(rc.sigma, rc.n_list)
    # every order is solved before anything is written, so that a solver
    # error leaves no output behind
    solved = [(n, *solve_with_escalation(n, sweep, rc.precision_bits)) for n in rc.n_list]
    summary = []
    for n, sol, zeros in solved:
        out.write_json(f"hp_n{n}.json", sol.to_json_dict())
        with open(out.path(f"hp_zeros_n{n}.csv"), "w", encoding="utf-8") as fh:
            fh.write("index,zero\n")
            for i, z in enumerate(zeros):
                fh.write(f"{i},{z!r}\n")
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


def _cmd_verify(rc: RunConfig, out, which):
    from .equilibrium import solve_scalar, solve_vector
    from .verify import (
        verify_charge_slopes,
        verify_equivalence,
        verify_mixed_potential,
        verify_positivity,
        verify_zero_distribution,
    )

    # the coupled system, the larger of the two, is solved first (see the
    # module docstring)
    solve_timings, coupled = {}, None
    if which in ("theorem1", "all"):
        t0 = time.perf_counter()
        coupled = solve_vector(rc.F, rc.grid)
        solve_timings["coupled"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    scalar = solve_scalar(rc.F, rc.grid)
    solve_timings["scalar"] = time.perf_counter() - t0

    # wall-clock time goes to timings.json only, never into a report
    reports, timings = [], {"solve": solve_timings}

    def timed(verifier, *args):
        t0 = time.perf_counter()
        rep = verifier(*args)
        timings[rep.name] = {"total": time.perf_counter() - t0}
        reports.append(rep)

    if coupled is not None:
        timed(verify_equivalence, scalar, coupled)
    if which == "all":
        timed(verify_mixed_potential, scalar.measure, coupled[0].measure)
        timed(verify_positivity, scalar.measure)
        timed(verify_charge_slopes, scalar.measure)
    if which in ("prop2", "all"):
        timed(verify_zero_distribution, rc.sigma, rc.n_list, scalar, rc.precision_bits)

    ok = True
    combined_md = []
    for rep in reports:
        ok = _write_report(out, rep, rep.name) and ok
        combined_md.append(rep.to_markdown())
    out.write_json("report.json", {"reports": [r.to_json_dict() for r in reports]})
    out.write_text("report.md", "\n".join(combined_md))
    # plot-ready CSVs: the solved measures and the KS sequence
    if coupled is not None:
        _write_solution(out, "measures/scalar_f", scalar)
        _write_solution(out, "measures/coupled_e", coupled[0])
        _write_solution(out, "measures/coupled_f", coupled[1])
    for rep in reports:
        seq = rep.provenance.get("ks_sequence")
        if seq:
            lines = ["n,ks"]
            lines += [f"{n},{float(v)!r}" for n, v in sorted(seq.items(), key=lambda kv: int(kv[0]))]
            out.write_text("prop2_ks.csv", "\n".join(lines) + "\n")
    _write_timings(out, timings)
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
    ap.add_argument("--precision-bits", type=int, dest="precision_bits")
    ap.add_argument("--nodes", type=int, help="override grids.n_per_component")
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the contract
        return int(exc.code or 0)
    # numpy reads the thread variables when it loads; in a process that loaded
    # it first the pin does nothing, and threaded BLAS can change report bytes
    blas_threads = {"numpy_preloaded": "numpy" in sys.modules}
    for var in THREAD_VARS:
        blas_threads[var] = os.environ.setdefault(var, "1")
    try:
        try:
            cfg = load_config(args)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        rc = validate_config(cfg)
        out = OutputDir(args.out)
        code = HANDLERS[args.command](rc, out)
    except ConfigError as exc:
        print("configuration invalid:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except (EquilabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.finalize(args.command, cfg, blas_threads)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
