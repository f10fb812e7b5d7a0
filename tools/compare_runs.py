"""Compare the outputs of two source trees, file by file, on the reference runs.

    python3 tools/compare_runs.py OLD_TREE NEW_TREE [--work DIR] [--expect FILE]

Each tree is a checkout of this repository (a directory holding ``src/``).
Both trees run the same commands, each in a fresh interpreter with
``PYTHONPATH=<tree>/src`` and one BLAS thread:

- ``verify-all`` and ``hp`` on each bundled preset;
- each workload of ``perfbench/workloads.json`` (its own command on its
  config, seed 1);
- the two runs of the CI workflow that the cases above miss:
  ``verify-theorem1`` on ``sym-arcsine`` at 63 cells (the mirror fold at
  odd n, exit 1) and ``hp`` on the long ``F = [1.5, 40]`` at orders 10
  and 20.

Every output file other than ``manifest.json`` and ``timings.json`` must be
byte-identical between the trees, and every exit code equal, unless the
``--expect`` file declares the difference.  That file holds one line per
intended difference, ``case<TAB>file-or-exit<TAB>reason``: the case label as
printed below (``verify-all_sym-arcsine``), the output file's path relative
to the run's output directory or the word ``exit`` for its exit code, and
why it changes; blank lines and lines starting with ``#`` are ignored.  The
script prints each difference, marking the declared ones, with the first
differing line of each side for a file both trees wrote (every output is
JSON, CSV or Markdown text).  It exits 1 if there is an undeclared
difference or a declared one that did not occur (a stale declaration),
else 0.  It also prints each run's peak RSS and CPU time on both trees
(the child's ``ru_maxrss`` from ``os.wait4``, in MiB, as ``perfbench``
reports ``peak_rss_mb``, and its ``ru_utime + ru_stime`` in seconds), and
for each differing ``report.json`` the checks whose id or status moved, or
``statuses unchanged``, and the largest absolute change of a check value
with its check id; these are information only and never change the exit
status.
Outputs go to ``--work`` (a new temporary directory by default).

Build both trees of a comparison the same way, for example both with
``git worktree add`` or both extracted by ``git archive``: the peak RSS of
the same commit has read about 0.3% higher from a ``cp -r`` copy of a tree
than from a ``git archive`` extraction of it, an offset that a comparison
of two differently made trees reports as the change's cost.  The same
holds for ``perfbench/run.py``'s ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSTABLE = {"manifest.json", "timings.json"}
# the long-F config of the CI workflow's hp step
LONG_F = {"problem": {"f_intervals": [[1.5, 40.0]]}, "hp": {"n_list": [10, 20]}}


def cases(new_tree, work):
    """(label, argv) for every run; the workload configs are written to ``work``."""
    sys.path[:0] = [os.path.join(new_tree, "src"), os.path.join(ROOT, "perfbench")]
    from equilab.cli import PRESETS
    from workloads import load_workloads, workload_config

    for preset in sorted(PRESETS):
        for command in ("verify-all", "hp"):
            yield f"{command}_{preset}", [command, "--preset", preset]
    for name, workload in sorted(load_workloads().items()):
        path = os.path.join(work, f"{name}.config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workload_config(workload, 1), fh, indent=2, sort_keys=True)
        yield f"{workload['command']}_{name}", [workload["command"], "--config", path]
    yield "verify-theorem1_sym-arcsine_n63", ["verify-theorem1", "--preset", "sym-arcsine",
                                              "--nodes", "63"]
    path = os.path.join(work, "long-f.config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(LONG_F, fh, indent=2, sort_keys=True)
    yield "hp_long-f", ["hp", "--config", path]


def read_expected(path):
    """{(case, file or "exit"): reason} from a declaration file; None reads as empty."""
    expected = {}
    if path is None:
        return expected
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3 or not all(f.strip() for f in fields):
                raise SystemExit(f"{path}:{number}: expected case<TAB>file-or-exit<TAB>reason")
            expected[(fields[0], fields[1])] = fields[2]
    return expected


def run(tree, argv, out):
    """(exit code, standard error, peak RSS in MiB, CPU seconds) of one run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **PINS)
    proc = subprocess.Popen([sys.executable, "-m", "equilab.cli", *argv, "--out", out],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, err, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def differing_files(a, b):
    """Relative paths under a or b that are missing on one side or differ in bytes."""
    files = set()
    for top in (a, b):
        for dirpath, _, names in os.walk(top):
            files.update(os.path.relpath(os.path.join(dirpath, n), top) for n in names)
    return sorted(f for f in files if os.path.basename(f) not in UNSTABLE and not (
        os.path.isfile(os.path.join(a, f)) and os.path.isfile(os.path.join(b, f))
        and filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)))


def first_difference(a, b):
    """(line number, old line, new line) of the first line where two text files differ.

    A side that ends first reads as "<end of file>".
    """
    with open(a, encoding="utf-8", errors="replace") as fa, \
            open(b, encoding="utf-8", errors="replace") as fb:
        old, new = fa.read().splitlines(), fb.read().splitlines()
    end = ["<end of file>"]
    for number, (x, y) in enumerate(zip(old + end, new + end), start=1):
        if x != y:
            return number, x, y
    return None


def report_checks(path):
    """{check id: (status, value)} of a combined ``report.json``, in report order."""
    with open(path, encoding="utf-8") as fh:
        return {c["check_id"]: (c["status"], c["value"]) for rep in json.load(fh)["reports"]
                for c in rep["checks"]}


def moved_checks(old, new):
    """Lines naming each check whose id or status moved between two :func:`report_checks`."""
    absent = ("absent", None)
    return [f"{cid}: {old.get(cid, absent)[0]} -> {new.get(cid, absent)[0]}"
            for cid in {**old, **new} if old.get(cid, absent)[0] != new.get(cid, absent)[0]
            ] or ["statuses unchanged"]


def largest_value_change(old, new):
    """The largest absolute change of a check value between two :func:`report_checks`, with its id.

    Skipped checks (no value) and checks on one side only are left out;
    "none" when no value moved.
    """
    changes = [(abs(new[cid][1] - old[cid][1]), cid) for cid in old if cid in new
               and old[cid][1] is not None and new[cid][1] is not None]
    size, cid = max(changes, default=(0.0, None))
    return f"{size:.3g} ({cid})" if size > 0.0 else "none"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_tree")
    ap.add_argument("new_tree")
    ap.add_argument("--work", help="output directory (default: a new temporary directory)")
    ap.add_argument("--expect", help="file declaring the intended differences, one per line")
    args = ap.parse_args(argv)
    expected = read_expected(args.expect)
    work = args.work or tempfile.mkdtemp(prefix="compare_runs_")
    os.makedirs(work, exist_ok=True)
    problems = 0
    seen = set()
    for label, cmd in cases(os.path.abspath(args.new_tree), work):
        outs, codes, rss, cpu = [], [], [], []
        for side, tree in (("old", args.old_tree), ("new", args.new_tree)):
            out = os.path.join(work, side, label)
            code, err, peak, seconds = run(os.path.abspath(tree), cmd, out)
            outs.append(out)
            codes.append(code)
            rss.append(peak)
            cpu.append(seconds)
            if code not in (0, 1):
                print(f"{label}: {side} exited {code}: {err.strip()}")
        diffs = differing_files(*outs)
        items = diffs + (["exit"] if codes[0] != codes[1] else [])
        declared = [item for item in items if (label, item) in expected]
        seen.update((label, item) for item in declared)
        problems += len(items) - len(declared)
        status = ("same" if not items else "DIFFERENT" if len(declared) < len(items)
                  else "different as declared")
        print(f"{label}: exit {codes[0]} / {codes[1]}, {status}, "
              f"peak RSS {rss[0]:.1f} / {rss[1]:.1f} MiB, CPU {cpu[0]:.2f} / {cpu[1]:.2f} s",
              flush=True)
        for f in items:
            reason = expected.get((label, f))
            print(f"  differs: {f}" + (f" (declared: {reason})" if reason else ""))
            paths = [os.path.join(out, f) for out in outs]
            if all(os.path.isfile(path) for path in paths):
                first = first_difference(*paths)
                if first is not None:
                    number, x, y = first
                    print(f"    line {number} old: {x}")
                    print(f"    line {number} new: {y}")
                if os.path.basename(f) == "report.json":
                    checks = [report_checks(path) for path in paths]
                    for line in moved_checks(*checks):
                        print(f"    checks: {line}")
                    print(f"    largest value change: {largest_value_change(*checks)}")
    stale = sorted(set(expected) - seen)
    for label, item in stale:
        print(f"declared but not different: {label}\t{item}")
    problems += len(stale)
    print(f"{problems} undeclared or stale difference(s), {len(seen)} declared; outputs in {work}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
