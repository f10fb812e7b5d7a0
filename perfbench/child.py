"""One benchmark run process: set up, then one ``equilab.cli.run`` call.

    python3 perfbench/child.py SPAWN_TIME WORKLOAD SEED OUT_DIR MODE

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
interpreter (the clock is shared by all processes), so ``setup_s`` runs from
process start until numpy, mpmath and every ``equilab`` module are imported
and the workload config is loaded and validated.  MODE is ``setup`` (stop
there), ``run`` or ``trace`` (the run with the span recorder installed).
The thread pins come from the parent through the environment, so they are
in place before numpy loads.  The result goes to OUT_DIR/result.json, the
spans of a traced run to OUT_DIR/spans.json.
"""

import sys
import time


def _blas(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def main():
    spawn, name, seed, out, mode = sys.argv[1:6]

    import json
    import os
    import resource

    import mpmath
    import numpy

    import equilab.balayage  # noqa: F401
    import equilab.cli as cli
    import equilab.equilibrium  # noqa: F401
    import equilab.errors  # noqa: F401
    import equilab.hermite_pade  # noqa: F401
    import equilab.kernels  # noqa: F401
    import equilab.measures  # noqa: F401
    import equilab.verify  # noqa: F401
    from workloads import load_workloads, workload_config

    workload = load_workloads()[name]
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(workload_config(workload, int(seed)), fh, indent=2, sort_keys=True)
    argv = [workload["command"], "--config", cfg_path, "--out", os.path.join(out, "cli")]
    cli.validate_config(cli.load_config(cli.build_parser().parse_args(argv)))
    result = {"setup_s": time.monotonic() - float(spawn)}
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas(numpy),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }

    if mode != "setup":
        recorder = None
        if mode == "trace":
            from spans import Recorder

            recorder = Recorder(run_id=os.path.basename(out))
            recorder.install()
        t0 = time.perf_counter()
        try:
            result["exit_code"] = cli.run(argv)
        except Exception as exc:  # reported as a failed run, never hidden
            result["exit_code"] = None
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["run_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            recorder.write(os.path.join(out, "spans.json"))

    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
