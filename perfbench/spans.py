"""Span recorder for the traced benchmark run, and the per-layer summary.

The recorder times calls into the public functions of each ``equilab``
module from outside the program: every function in ``TRACED`` is replaced by
a timing wrapper in every ``equilab`` module namespace that holds it, so
calls made through a name imported elsewhere (``verify.solve_scalar``,
``balayage.neglog_cell_averages``) and calls inside the defining module are
both seen.  Spans stay in memory and are written out once, after the run.

``kernels`` gets no spans: its functions are vectorized numpy calls inside
every other layer, and timing them from outside would cost more than they
do.  Their time shows up in their callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "cli": ("run",),
    "verify": (
        "verify_equivalence",
        "verify_mixed_potential",
        "verify_positivity",
        "verify_charge_slopes",
        "verify_zero_distribution",
    ),
    "equilibrium": ("solve_scalar", "solve_vector", "solve_reduced", "assemble_energy_matrix"),
    "balayage": ("balayage_numeric", "reconstruct_e_measure"),
    "measures": ("neglog_cell_averages", "ks_distance"),
    "hermite_pade": (
        "solve_with_escalation",
        "moments_f1",
        "moments_f2",
        "discretize_sigma",
        "solve_hp",
        "zeros_q2",
    ),
}

# Layers whose spans together make up the float (double-precision) layer.
FLOAT_MODULES = ("equilibrium", "measures", "balayage")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _bits(index):
    def describe(args, kwargs, result):
        from equilab.hermite_pade import DEFAULT_PRECISION_BITS

        return {"bits": int(_arg(args, kwargs, index, "precision_bits", DEFAULT_PRECISION_BITS))}

    return describe


def _solve_key(args, kwargs, result):
    from equilab.equilibrium import GridParams

    F = args[0]
    gp = _arg(args, kwargs, 1, "grid_params", GridParams())
    attrs = {"key": [list(map(list, F.intervals)), gp.n, gp.grading]}
    if result is not None:
        sol = result[0] if isinstance(result, tuple) else result
        attrs["method"] = sol.method
    return attrs


def _cell_entries(args, kwargs, result):
    import numpy as np

    return {"entries": int(np.size(args[0])) * len(args[1].nodes)}


def _quad(args, kwargs, result):
    return {"order": int(args[1]), "nodes": int(args[1]) * args[0].support.m}


def _zeros_bits(args, kwargs, result):
    return {"bits": int(args[0].precision_bits)}


DESCRIBE = {
    "hermite_pade.solve_with_escalation": _bits(2),
    "hermite_pade.moments_f1": _bits(1),
    "hermite_pade.moments_f2": _bits(2),
    "hermite_pade.solve_hp": _bits(3),
    "hermite_pade.zeros_q2": _zeros_bits,
    "hermite_pade.discretize_sigma": _quad,
    "equilibrium.solve_scalar": _solve_key,
    "equilibrium.solve_vector": _solve_key,
    "equilibrium.solve_reduced": _solve_key,
    "measures.neglog_cell_averages": _cell_entries,
}


class Recorder:
    """Collects nested spans of one run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, describe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["exc"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if describe is not None:
                    span.update(describe(args, kwargs, result))

        return wrapper

    def install(self):
        """Rebind every traced function in every loaded ``equilab`` module."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "equilab" or name.startswith("equilab."))]
        for modname, names in TRACED.items():
            module = sys.modules[f"equilab.{modname}"]
            for fname in names:
                original = getattr(module, fname)
                name = f"{modname}.{fname}"
                wrapped = self.wrap(name, original, DESCRIBE.get(name))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapped)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


# --------------------------------------------------------------------------
# summary (runs in the benchmark parent, which never imports equilab)


def _duration(span):
    return span["end"] - span["start"]


def reconstruct_attempts(spans):
    """Insert one ``hermite_pade.attempt`` span per escalation attempt.

    Inside ``solve_with_escalation`` every attempt calls the moment, solve
    and zero routines at one precision, so the direct children are grouped
    by their ``bits``; an attempt failed when one of them exited with a
    PrecisionError.  The children are re-parented under their attempt.
    """
    spans = [dict(s) for s in spans]
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for parent in [s for s in spans if s["name"] == "hermite_pade.solve_with_escalation"]:
        groups = []
        for child in sorted(children.get(parent["id"], []), key=lambda s: s["start"]):
            if groups and groups[-1][0]["bits"] == child.get("bits"):
                groups[-1].append(child)
            else:
                groups.append([child])
        for group in groups:
            attempt = {
                "id": len(spans),
                "name": "hermite_pade.attempt",
                "parent": parent["id"],
                "run": parent["run"],
                "start": group[0]["start"],
                "end": group[-1]["end"],
                "bits": group[0].get("bits"),
                "failed": any(c.get("exc") == "PrecisionError" for c in group),
            }
            spans.append(attempt)
            for c in group:
                c["parent"] = attempt["id"]
    return spans


def self_times(spans):
    """Span duration minus the part its direct children cover (one thread, so they do not overlap)."""
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + _duration(s)
    return {s["id"]: _duration(s) - covered.get(s["id"], 0.0) for s in spans}


def covered(spans, modules):
    """Wall time covered by the union of the spans of the given modules."""
    by_id = {s["id"]: s for s in spans}

    def in_modules(s):
        return s["name"].split(".")[0] in modules

    total = 0.0
    for s in spans:
        if not in_modules(s):
            continue
        p = s["parent"]
        while p is not None and not in_modules(by_id[p]):
            p = by_id[p]["parent"]
        if p is None:
            total += _duration(s)
    return total


def table(spans):
    """Per span name: calls, inclusive seconds, self seconds."""
    own = self_times(spans)
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += _duration(s)
        row[2] += own[s["id"]]
    return rows


def layer_metrics(raw_spans, report, manifest):
    """The benchmark's per-layer metrics from one traced run's spans and outputs."""
    spans = reconstruct_attempts(raw_spans)
    rows = table(spans)

    def calls(name):
        return rows.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return rows.get(name, [0, 0.0, 0.0])[1]

    attempts = [s for s in spans if s["name"] == "hermite_pade.attempt"]
    failed = [s for s in attempts if s["failed"]]
    quad = [s for s in spans if s["name"] == "hermite_pade.discretize_sigma"]
    solves = [s for s in spans if s["name"] in
              ("equilibrium.solve_scalar", "equilibrium.solve_vector", "equilibrium.solve_reduced")]
    distinct = {json.dumps([s["name"], s["key"]]) for s in solves}
    cells = [s for s in spans if s["name"] == "measures.neglog_cell_averages"]
    entries = sum(s["entries"] for s in cells)
    m = {
        "hermite_pade.solve_hp.calls": calls("hermite_pade.solve_hp"),
        "hermite_pade.solve_hp.s": secs("hermite_pade.solve_hp"),
        "hermite_pade.zeros_q2.s": secs("hermite_pade.zeros_q2"),
        "hermite_pade.attempts": len(attempts),
        "hermite_pade.attempts_failed": len(failed),
        # 0 when no attempt was made
        "hermite_pade.attempt_yield": (len(attempts) - len(failed)) / len(attempts) if attempts else 0.0,
        "hermite_pade.failed_attempt_s": sum(_duration(s) for s in failed),
        "hermite_pade.bits_max": max((s["bits"] for s in attempts), default=0),
        "hermite_pade.moments_f2.calls": calls("hermite_pade.moments_f2"),
        "hermite_pade.moments_f2.s": secs("hermite_pade.moments_f2"),
        "hermite_pade.quad_orders": len(quad),
        "hermite_pade.quad_nodes": sum(s["nodes"] for s in quad),
        "hermite_pade.covered_s": covered(spans, ("hermite_pade",)),
        "equilibrium.solve_scalar.calls": calls("equilibrium.solve_scalar"),
        "equilibrium.solve_scalar.s": secs("equilibrium.solve_scalar"),
        "equilibrium.solve_vector.calls": calls("equilibrium.solve_vector"),
        "equilibrium.solve_vector.s": secs("equilibrium.solve_vector"),
        "equilibrium.solve_reduced.calls": calls("equilibrium.solve_reduced"),
        "equilibrium.solve_reduced.s": secs("equilibrium.solve_reduced"),
        "equilibrium.assemble_energy_matrix.s": secs("equilibrium.assemble_energy_matrix"),
        # 0 when nothing was solved
        "equilibrium.solve_yield": len(distinct) / len(solves) if solves else 0.0,
        "equilibrium.fallback_count": sum(1 for s in solves if s.get("method") == "projected"),
        "measures.neglog_cell_averages.calls": len(cells),
        "measures.neglog_cell_averages.s": secs("measures.neglog_cell_averages"),
        "measures.neglog_cell_averages.entries": entries,
        "measures.neglog_cell_averages.computed_bytes": 8 * entries,
        "measures.ks_distance.s": secs("measures.ks_distance"),
        "balayage.balayage_numeric.calls": calls("balayage.balayage_numeric"),
        "balayage.balayage_numeric.s": secs("balayage.balayage_numeric"),
        "balayage.reconstruct_e_measure.s": secs("balayage.reconstruct_e_measure"),
        "float_layer.covered_s": covered(spans, FLOAT_MODULES),
        "verify.verify_equivalence.s": secs("verify.verify_equivalence"),
        "verify.verify_mixed_potential.s": secs("verify.verify_mixed_potential"),
        "verify.verify_positivity.s": secs("verify.verify_positivity"),
        "verify.verify_charge_slopes.s": secs("verify.verify_charge_slopes"),
        "verify.verify_zero_distribution.s": secs("verify.verify_zero_distribution"),
        "verify.checks": sum(len(r["checks"]) for r in report["reports"]),
        "cli.self_s": rows.get("cli.run", [0, 0.0, 0.0])[2],
        "cli.bytes_written": sum(e["bytes"] for e in manifest["outputs"]),
    }
    return m, rows
