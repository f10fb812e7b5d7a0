"""equilab benchmark: verify wall time, memory, verdicts and accuracy per workload.

Run from the repository root:

    python3 perfbench/run.py --workload hp-escalate --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Load is a closed loop with one client: one run process at a time, each a
fresh interpreter (perfbench/child.py) making one ``equilab.cli.run`` call
with OPENBLAS/OMP/MKL threads pinned to 1 in its environment, the
documented ``--threads 1`` reference mode.  A run measures for ``--seconds``
seconds (at least three run processes) after a few set-up-only processes,
and reports medians.  ``--seed`` goes into the config's ``seed`` key.

Every run's outputs are checked (exit code 0 or 1, exactly the workload's
expected check ids, report.json byte-identical across the runs of one seed,
a full real-zero count at every HP order, w_F within 1% of the pinned
reference).  With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` traced and untraced runs alternate and
it carries the per-layer metrics.  ``attempted`` and ``failed`` count run
processes; a failed run counts all of its expected checks as failed in
``pass_frac``.  Outputs and a full record of each invocation go to
.perfbench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import layer_metrics  # noqa: E402
from workloads import load_workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 12
MIN_RUNS = 3
DEADLINE_S = 165.0
WF_REL_TOL = 1e-2



class Child:
    """One run process and what the benchmark learned from it."""

    def __init__(self, out, mode):
        self.out = out
        self.mode = mode
        self.result = {}
        self.wall_s = 0.0
        self.failure = None  # reason the run failed, None when it passed
        self.checks = []     # (check_id, status, value) from report.json
        self.report_bytes = None
        self.w_f = None


def spawn(name, seed, out, mode, deadline):
    os.makedirs(out)
    child = Child(out, mode)
    env = dict(os.environ, PYTHONPATH=SRC, **PINS)
    t0 = time.monotonic()
    with open(os.path.join(out, "stdout.log"), "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), repr(t0), name, str(seed), out, mode],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    child.wall_s = time.monotonic() - t0
    try:
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            child.result = json.load(fh)
    except (OSError, json.JSONDecodeError):
        child.failure = f"run process ended with {code} and no result (see {out}/stdout.log)"
    return child


def check_output(child, workload, reference_bytes):
    """Sets ``child.failure`` when the run's outputs break the benchmark's contract."""
    if child.failure:
        return
    code = child.result.get("exit_code")
    if code not in (0, 1):
        child.failure = f"exit code {code} {child.result.get('error', '')}".strip()
        return
    try:
        with open(os.path.join(child.out, "cli", "report.json"), "rb") as fh:
            child.report_bytes = fh.read()
        reports = json.loads(child.report_bytes)["reports"]
    except (OSError, ValueError, KeyError) as exc:
        child.failure = f"report.json unreadable: {exc}"
        return
    child.checks = [(c["check_id"], c["status"], c["value"]) for r in reports for c in r["checks"]]
    ids = [c[0] for c in child.checks]
    if ids != workload["expected_checks"]:
        child.failure = f"check ids differ from the expected list: {ids}"
        return
    if reference_bytes is not None and child.report_bytes != reference_bytes:
        child.failure = "report.json differs from the first run of this seed"
        return
    for check_id, _, value in child.checks:
        if check_id.startswith("zeros.count_n") and value != int(check_id[len("zeros.count_n"):]):
            child.failure = f"{check_id} reports {value} real zeros"
            return
    equiv = [r for r in reports if r["name"] == "equivalence"]
    ref = workload["wF_ref"]["value"]
    try:
        child.w_f = float(equiv[0]["provenance"]["constants"]["w_F"])
    except (IndexError, KeyError, TypeError, ValueError):
        child.failure = "equivalence report carries no constants.w_F"
        return
    if not abs(child.w_f - ref) <= WF_REL_TOL * abs(ref):
        child.failure = f"w_F = {child.w_f!r} is not within {WF_REL_TOL:g} of the reference {ref!r}"


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def bench(name, workload, seed, seconds, trace):
    """Runs one workload for ``seconds``; returns (result line, record)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)

    # the first process warms the file cache and the bytecode cache
    probes = [spawn(name, seed, os.path.join(work, f"setup{i}"), "setup", deadline)
              for i in range(SETUP_PROBES + 1)]
    failed_probes = [p.failure for p in probes if p.failure]
    if failed_probes:
        raise RuntimeError(f"set-up failed: {failed_probes[0]}")

    modes = ["run", "trace"] if trace else ["run"]
    minimum = 2 * len(modes) if trace else MIN_RUNS
    runs = []
    reference_bytes = None
    t_loop = time.monotonic()
    while True:
        mode = modes[len(runs) % len(modes)]
        same = [c.wall_s for c in runs if c.mode == mode]
        estimate = statistics.median(same) if same else 0.0
        now = time.monotonic()
        if now + estimate > deadline:
            break
        if len(runs) >= minimum and now - t_loop + estimate > seconds:
            break
        child = spawn(name, seed, os.path.join(work, f"run{len(runs):02d}-{mode}"), mode, deadline)
        check_output(child, workload, reference_bytes)
        if child.failure is None and reference_bytes is None:
            reference_bytes = child.report_bytes
        runs.append(child)

    n_checks = len(workload["expected_checks"])
    failed_checks = sum(
        n_checks if c.failure else sum(1 for _, status, _ in c.checks if status == "fail")
        for c in runs
    )
    plain = [c for c in runs if c.mode == "run" and "run_s" in c.result]
    traced = [c for c in runs if c.mode == "trace" and "run_s" in c.result and not c.failure]
    w_fs = [c.w_f for c in runs if c.w_f is not None]
    if not plain or not w_fs or (trace and not traced):
        raise RuntimeError("no run produced the metrics; see " + work)

    def median(children, key):
        return statistics.median(c.result[key] for c in children)

    setups = [c.result["setup_s"] for c in probes[1:] + runs if "setup_s" in c.result]
    e2e = {
        "setup_s": statistics.median(setups),
        "run_s": median(plain, "run_s"),
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "pass_frac": 1.0 - failed_checks / (n_checks * len(runs)),
        "wF_err": statistics.median(abs(w - workload["wF_ref"]["value"]) for w in w_fs),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, 1 run process at a time",
        "env": dict(probes[0].result["env"], nproc=os.cpu_count(), git_commit=git_commit()),
        "samples": {
            "setup_s": setups,
            "run_s": [c.result["run_s"] for c in plain],
            "peak_rss_mb": [c.result["peak_rss_mb"] for c in plain],
        },
        "failures": [{"run": os.path.basename(c.out), "reason": c.failure} for c in runs if c.failure],
        "checks_failed": failed_checks,
        "checks_attempted": n_checks * len(runs),
        "end_to_end": e2e,
    }
    if trace:
        per_run = []
        for c in traced:
            with open(os.path.join(c.out, "spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            with open(os.path.join(c.out, "cli", "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            per_run.append(layer_metrics(spans, json.loads(c.report_bytes), manifest))
        layers = {k: statistics.median(m[k] for m, _ in per_run) for k in per_run[0][0]}
        layers["trace.overhead_s"] = median(traced, "run_s") - e2e["run_s"]
        record["per_layer"] = layers
        record["span_table"] = per_run[-1][1]
        record["samples"]["traced_run_s"] = [c.result["run_s"] for c in traced]
        metrics = layers
    else:
        metrics = e2e
    units = metric_units(trace)
    line = {
        "correct": all(c.failure is None for c in runs),
        "attempted": len(runs),
        "failed": sum(1 for c in runs if c.failure),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=line), fh, indent=2)
    return line, record


def metric_units(trace):
    """Metric name to unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]}


def print_record(record, line):
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{line['attempted']} runs, {line['failed']} failed  ({record['load']})")
    print(f"   env {json.dumps(record['env'], sort_keys=True)}")
    for f in record["failures"]:
        print(f"   FAILED {f['run']}: {f['reason']}")
    print(f"   checks failed {record['checks_failed']} of {record['checks_attempted']} "
          f"(fail_frac {record['checks_failed'] / record['checks_attempted']:.4f})")
    units = metric_units(trace=0)
    print(f"   {'metric':<14}{'median':>14}  {'unit':<9}{'min':>12}{'max':>12}   n")
    for k, v in record["end_to_end"].items():
        s = record["samples"].get(k, [v])
        print(f"   {k:<14}{v:>14.6g}  {units[k]:<9}{min(s):>12.6g}{max(s):>12.6g}{len(s):>4}")
    if "per_layer" in record:
        run_s = record["end_to_end"]["run_s"]
        print(f"   spans of the last traced run: {'calls':>7}{'incl s':>10}{'self s':>10}")
        for name, (calls, incl, own) in sorted(record["span_table"].items()):
            print(f"   {name:<38}{calls:>7}{incl:>10.4f}{own:>10.4f}")
        print("   per-layer metrics (medians over traced runs):")
        for k, v in record["per_layer"].items():
            share = f"  ({v / run_s:.1%} of run_s)" if k.endswith((".s", "_s")) else ""
            print(f"   {k:<46}{v:>14.6g}{share}")


def main(argv=None):
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "equilab", "cli.py")):
        print(f"no equilab sources under {SRC}; run from the repository root", file=sys.stderr)
        return 1
    if args.workload == "all":
        jobs = [(name, t) for name in workloads for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    lines = {}
    for name, trace in jobs:
        try:
            line, record = bench(name, workloads[name], args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_record(record, line)
        lines[(name, trace)] = line
    if len(jobs) == 1:
        print(json.dumps(lines[jobs[0]]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{n}.{k}": v for (n, _), x in lines.items() for k, v in x["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
