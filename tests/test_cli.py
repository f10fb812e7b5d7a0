"""CLI tests: exit codes, artifacts, manifests, idempotence."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings

import mpmath as mp
import pytest

import equilab.equilibrium as equilibrium
import equilab.verify as verify
from equilab.cli import run
from equilab.errors import NonConvergenceError, PrecisionError

SMALL_CFG = {
    "problem": {"f_intervals": [[2.0, 3.0]], "sigma": "arcsine"},
    "grids": {"n_per_component": 100, "grading": 2.0},
    "hp": {"n_list": [2, 4], "precision_bits": 192},
    "balayage": {"point": 2.0},
    "tolerance_scale": 4.0,
}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_CFG))
    return str(p)


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_seed_flag_is_gone(tmp_path, cfg_path, capsys):
    # the positivity check samples fixed points, so no flag picks them
    out = tmp_path / "o"
    assert run(["verify-all", "--config", cfg_path, "--seed", "1", "--out", str(out)]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_lists_violations(tmp_path, capsys):
    bad = dict(SMALL_CFG)
    bad["problem"] = {"f_intervals": [[0.5, 2.0]], "sigma": "arcsine"}
    bad["grids"] = {"n_per_component": 4, "grading": 2.0}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code = run(["verify-theorem1", "--config", str(p), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "disjoint" in captured.err
    assert "n_per_component" in captured.err
    # no partial outputs for rejected configs
    assert not (tmp_path / "o").exists() or not os.listdir(tmp_path / "o")


@pytest.mark.parametrize(
    "key, value",
    [
        ("hp.n_list", 5),
        ("hp.n_list", [2, "4"]),
        ("hp.n_list", [2.0, 4.0]),
        ("hp.n_list", []),
        ("problem", [1]),
        ("grids", "fine"),
        ("problem.sigma", ["arcsine"]),
        ("problem.sigma", "uniform"),
        ("grids.grading", "2"),
        ("hp.precision_bits", 256.0),
        ("hp.precision_bits", 8192),
        ("tolerance_scale", float("inf")),
        ("balayage.point", 0.5),
    ],
)
def test_malformed_config_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, key, value):
    cfg = json.loads(json.dumps(SMALL_CFG))
    section, _, leaf = key.rpartition(".")
    (cfg[section] if section else cfg)[leaf] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the config was checked")

    monkeypatch.setattr(equilibrium, "solve_scalar", no_solve)
    out = tmp_path / "o"
    assert run(["verify-all", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration invalid:" in err
    assert f"  - {key}" in err
    assert not out.exists() or not os.listdir(out)


def test_config_not_an_object_exits_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text("[1]")
    assert run(["verify-all", "--nodes", "64", "--config", str(p),
                "--out", str(tmp_path / "o")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert run(["solve-scalar", "--config", str(tmp_path / "nope.json")]) == 2


def test_solve_scalar_artifacts(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["solve-scalar", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "scalar_f.csv").exists()
    sidecar = json.loads((out / "scalar_f.json").read_text())
    assert {"constant", "residual_sup", "min_density", "iterations", "grid"} <= set(sidecar)
    assert (sidecar["method"], sidecar["iterations"]) == ("collocation", 0)
    assert sidecar["grid"]["n_per_component"] == 100
    summary = capsys.readouterr().out
    assert "[solve-scalar]" in summary


def test_manifest_hashes(cfg_path, tmp_path):
    out = tmp_path / "out"
    run(["solve-vector", "--config", cfg_path, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve-vector"
    assert manifest["outputs"]
    for entry in manifest["outputs"]:
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


def test_manifest_records_blas_threads(cfg_path, tmp_path, monkeypatch):
    # report.json bytes can depend on the BLAS thread count, so the manifest
    # records the thread variables and whether numpy loaded before the pin
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    monkeypatch.setenv("NUMEXPR_NUM_THREADS", "1")
    monkeypatch.delenv("NUMEXPR_NUM_THREADS")
    out = tmp_path / "in_process"
    assert run(["solve-scalar", "--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == {
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "3",
        "NUMEXPR_NUM_THREADS": "1",
        "numpy_preloaded": True,
    }
    # a fresh process pins every variable before numpy loads
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = tmp_path / "fresh"
    argv = ["solve-scalar", "--config", cfg_path, "--out", str(out)]
    subprocess.run([sys.executable, "-m", "equilab.cli", *argv], env=env, check=True,
                   capture_output=True, timeout=120)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == {
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "numpy_preloaded": False,
    }


def test_hp_order_zero_closed_form(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["hp"] = {"n_list": [0], "precision_bits": 192}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["hp", "--config", str(p), "--out", str(out)]) == 0
    data = json.loads((out / "hp_n0.json").read_text())
    assert data["q2"] == ["1.0"]
    assert data["residual_order"] == 2
    # q1 must match the independently recomputed first moment of f2
    from equilab.hermite_pade import SOLVE_GUARD_BITS, MarkovSpec, moments_f2
    from equilab.kernels import IntervalUnion
    from mpmath.libmp import from_man_exp

    b, _ = moments_f2(0, MarkovSpec(IntervalUnion([(2.0, 3.0)]), "arcsine"), 192)
    b0 = mp.make_mpf(from_man_exp(b[0], -(192 + SOLVE_GUARD_BITS)))
    with mp.workprec(192):
        assert abs(mp.mpf(data["q1"][0]) + b0) <= mp.mpf(10) ** (-40)


def test_hp_solver_error_writes_nothing(tmp_path, cfg_path, monkeypatch, capsys):
    # every order is solved before the first file is written, so an order
    # that fails after an accepted one leaves no output directory
    from equilab import hermite_pade

    original = hermite_pade.solve_with_escalation

    def exhausted_at_4(n, sweep, precision_bits):
        if n == 4:
            raise PrecisionError("escalation exhausted at 4096 bits for order 4")
        return original(n, sweep, precision_bits)

    monkeypatch.setattr(hermite_pade, "solve_with_escalation", exhausted_at_4)
    out = tmp_path / "o"
    assert run(["hp", "--config", cfg_path, "--out", str(out)]) == 2
    assert "escalation exhausted" in capsys.readouterr().err
    assert not out.exists()


def test_hp_zeros_pinned(tmp_path):
    # the mpmath arithmetic is deterministic: a refactor of the HP layer must
    # reproduce these zero files byte for byte
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": {"f_intervals": [[2.0, 3.0]], "sigma": "arcsine"},
                             "hp": {"n_list": [2, 4], "precision_bits": 192}}))
    out = tmp_path / "o"
    assert run(["hp", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "hp_zeros_n2.csv").read_bytes() == (
        b"index,zero\n0,2.0886872957542506\n1,2.76526256968427\n"
    )
    assert (out / "hp_zeros_n4.csv").read_bytes() == (
        b"index,zero\n0,2.023110301934652\n1,2.2106727272242783\n"
        b"2,2.572180023012383\n3,2.9377498514116276\n"
    )


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_hp_parity_solutions_pinned(tmp_path):
    # on a symmetric F both orders run the parity-folded LU solve, and Q2
    # has degree 4 at both; coefficients and zeros must match byte for byte
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": {"f_intervals": [[-3.0, -2.0], [2.0, 3.0]]},
                             "hp": {"n_list": [4, 5], "precision_bits": 256}}))
    out = tmp_path / "o"
    assert run(["hp", "--config", str(p), "--out", str(out)]) == 0
    methods = [json.loads((out / f"hp_n{n}.json").read_text())["method"] for n in (4, 5)]
    assert methods == ["lu_parity", "lu_parity"]
    for name in ("hp_n4.json", "hp_n5.json", "hp_zeros_n4.csv", "hp_zeros_n5.csv"):
        with open(os.path.join(DATA, f"hp_sym-arcsine_n4-5_b256.{name}"), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def _assert_escalated_lu_solutions_pinned(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": {"f_intervals": [[2.0, 3.0]]},
                             "hp": {"n_list": [10, 20], "precision_bits": 128}}))
    out = tmp_path / "o"
    assert run(["hp", "--config", str(p), "--out", str(out)]) == 0
    for name in ("hp_n10.json", "hp_n20.json", "hp_zeros_n10.csv", "hp_zeros_n20.csv",
                 "hp_summary.json"):
        with open(os.path.join(DATA, f"hp_f23-arcsine_n10-20_b128.{name}"), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def test_hp_escalated_lu_solutions_pinned(tmp_path):
    # on F = [2, 3] order 10 fails the condition gate at 128 bits and is
    # accepted at 256, and order 20 starts at 512: a 41 x 41 LU solve, whose
    # coefficients and zeros must match the files written by the mp.matrix
    # solve byte for byte
    _assert_escalated_lu_solutions_pinned(tmp_path)


@pytest.mark.parametrize("global_prec", [12, 2000])
def test_hp_output_ignores_global_precision(tmp_path, global_prec):
    # every HP operation runs at its own precision, so a caller's setting of
    # mpmath's global precision must not move a bit of the output
    saved = mp.mp.prec
    mp.mp.prec = global_prec
    try:
        _assert_escalated_lu_solutions_pinned(tmp_path)
    finally:
        mp.mp.prec = saved


def test_verify_all_leaves_numpy_ma_unloaded(tmp_path, cfg_path):
    # numpy.ma costs a run about 17 ms to import, and numpy.random (with the
    # secrets and hmac modules it pulls in) 14-18 ms and 6.5 MiB; no command
    # needs either
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    unloaded = ["numpy.ma", "numpy.random", "secrets", "hmac"]
    code = ("import sys; from equilab.cli import run; "
            f"rc = run(['verify-all', '--config', {cfg_path!r}, '--out', {str(tmp_path / 'o')!r}]); "
            f"print(rc, [m for m in {unloaded!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_equilab_modules_leave_hashlib_unloaded():
    # hashlib maps about 3.6 MiB of OpenSSL; only the manifest needs it, and
    # importing it after the last dense solve keeps it out of the peak
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules = ["balayage", "cli", "equilibrium", "errors", "hermite_pade", "kernels",
               "measures", "verify"]
    code = ("import sys; "
            + "; ".join(f"import equilab.{m}" for m in modules)
            + "; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def test_run_closes_every_file_it_opens(tmp_path):
    # an unclosed file warns only when it is collected, hence gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        out = tmp_path / "o"
        assert run(["verify-theorem1", "--preset", "f23-arcsine", "--nodes", "16",
                    "--out", str(out)]) in (0, 1)
        gc.collect()
    leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaked == []


@pytest.mark.parametrize("preset", ["sym-arcsine", "f23-arcsine"])
def test_verify_theorem1_report_pinned(tmp_path, preset):
    # the float layer's counterpart of test_hp_zeros_pinned: with one BLAS
    # thread (tests/conftest.py) a change to the potentials, the solvers or
    # balayage must reproduce report.json byte for byte; f23-arcsine runs
    # the reduced route, sym-arcsine the two-component grid
    out = tmp_path / "o"
    assert run(["verify-theorem1", "--preset", preset, "--nodes", "64", "--out", str(out)]) == 1
    with open(os.path.join(DATA, f"verify_theorem1_{preset}_n64.report.json"), "rb") as fh:
        assert (out / "report.json").read_bytes() == fh.read()


def test_verify_theorem1_pinned_on_multi_block_systems(tmp_path):
    # at 200 nodes per component the dense systems of the two-component F
    # are filled in several row blocks, the last one ragged; the report and
    # the sidecars, whose coupled residuals sit at rounding level, must
    # match files written by the one-shot matrix builders (the scalar ones
    # rewritten since for Phi's digits at the branch points)
    out = tmp_path / "o"
    argv = ["verify-theorem1", "--preset", "sym-arcsine", "--nodes", "200", "--out", str(out)]
    assert run(argv) == 0
    stem = os.path.join(DATA, "verify_theorem1_sym-arcsine_n200")
    pinned = {"report.json": f"{stem}.report.json"}
    for name in ("scalar_f", "coupled_e", "coupled_f"):
        pinned[f"measures/{name}.json"] = f"{stem}.{name}.json"
    for rel, path in pinned.items():
        with open(path, "rb") as fh:
            assert (out / rel).read_bytes() == fh.read(), rel


def test_verify_prop2_constant_sigma_pinned(tmp_path):
    # written by the Gauss-Legendre rule that Fejer's first rule replaced
    # (its KS distances since re-measured against the collocation scalar
    # solve, and against Phi's digits at the branch points): the moments agree to 2^-256, so every value of the report must
    # stay the same; only the rule's name and its accepted quadrature orders
    # may change.  Both sides go through one serializer, which writes each
    # float as the shortest decimal that reads back to it.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": {"f_intervals": [[2.0, 3.0]], "sigma": "constant"},
                             "hp": {"n_list": [5, 10, 20]}}))
    out = tmp_path / "o"
    assert run(["verify-prop2", "--config", str(p), "--out", str(out)]) == 0
    with open(os.path.join(DATA, "verify_prop2_f23-constant_n5-10-20.report.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = json.loads((out / "report.json").read_text())
    for doc in (pinned, got):
        (rep,) = doc["reports"]
        del rep["provenance"]["sigma_quad_orders"], rep["provenance"]["rule"]
    assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(pinned, indent=2, sort_keys=True)


def test_verify_all_potential_reports_pinned(tmp_path):
    # mixed-potential, positivity and charge-slopes read every potential
    # evaluator (logarithmic, Green of E, both sheets, the surface functional
    # and a named kernel); at 64 nodes three discretization bounds fail, so
    # the run exits 1, and report.json must match byte for byte
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": {"f_intervals": [[2.0, 3.0]]},
                             "grids": {"n_per_component": 64},
                             "hp": {"n_list": [2, 4], "precision_bits": 128}}))
    out = tmp_path / "o"
    assert run(["verify-all", "--config", str(p), "--out", str(out)]) == 1
    with open(os.path.join(DATA, "verify_all_f23-arcsine_n64.report.json"), "rb") as fh:
        assert (out / "report.json").read_bytes() == fh.read()


@pytest.mark.parametrize("n_list, ks_status", [([0, 2, 4], "pass"), ([0], "skipped")])
def test_verify_order_zero(tmp_path, n_list, ks_status):
    # order 0 has no zeros: it is checked for degree and count, and the KS
    # sequence runs over the positive orders only
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["hp"]["n_list"] = n_list
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["verify-prop2", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    checks = {c["check_id"]: c for c in rep["checks"]}
    assert checks["zeros.hull_containment_n0"]["value"] == 0.0
    for cid in ("zeros.hull_containment_n0", "zeros.degree_n0", "zeros.count_n0"):
        assert checks[cid]["status"] == "pass"
    assert set(rep["provenance"]["ks_sequence"]) == {str(n) for n in n_list if n > 0}
    for cid in ("zeros.ks_non_increasing", "zeros.ks_final"):
        assert checks[cid]["status"] == ks_status
        assert checks[cid]["note"] or ks_status == "pass"


def _walk_files(root):
    out = []
    for base, _, files in os.walk(root):
        for f in files:
            out.append(os.path.relpath(os.path.join(base, f), root))
    return sorted(out)


def test_verify_all_idempotent(cfg_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["verify-all", "--config", cfg_path, "--out", str(out1)]) == 0
    assert run(["verify-all", "--config", cfg_path, "--out", str(out2)]) == 0
    names1 = _walk_files(out1)
    assert names1 == _walk_files(out2)
    assert "measures/scalar_f.csv" in names1
    assert "prop2_ks.csv" in names1
    for name in names1:
        if name in ("manifest.json", "timings.json"):
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_threads_other_than_1_exits_2(cfg_path, tmp_path, capsys):
    # there is no thread flag: the run always pins one BLAS thread, and any
    # --threads, 1 included, is an unknown argument
    for value in ("2", "1"):
        assert run(["solve-scalar", "--threads", value, "--config", cfg_path,
                    "--out", str(tmp_path / "o")]) == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, coupled",
    [("verify-theorem1", 1), ("verify-prop2", 0), ("verify-all", 1)],
)
def test_each_problem_solved_once(cfg_path, tmp_path, monkeypatch, command, coupled):
    calls = {}

    def spy(name):
        original = getattr(equilibrium, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(equilibrium, name, counted)

    for name in ("solve_scalar", "solve_vector"):
        spy(name)
    assert run([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
    assert calls.get("solve_scalar", 0) == 1
    assert calls.get("solve_vector", 0) == coupled
    timings = json.loads((tmp_path / "o" / "timings.json").read_text())
    assert set(timings["solve"]) == ({"scalar", "coupled"} if coupled else {"scalar"})


@pytest.mark.parametrize("command", ["verify-theorem1", "verify-all"])
def test_solver_error_exits_2(cfg_path, tmp_path, monkeypatch, capsys, command):
    def fail(*args, **kwargs):
        raise NonConvergenceError("collocation system is singular")

    monkeypatch.setattr(equilibrium, "solve_vector", fail)
    assert run([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


def test_check_failure_exits_1(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["tolerance_scale"] = 1e-9
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = run(["verify-theorem1", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1


def test_failed_order_exits_1_with_report(tmp_path, monkeypatch):
    # an order whose escalation is exhausted is a failed check, not an
    # error, and the KS sequence it leaves incomplete is skipped
    original = verify.solve_with_escalation

    def exhausted_at_3(n, sweep, precision_bits):
        if n == 3:
            raise PrecisionError("escalation exhausted at 4096 bits for order 3")
        return original(n, sweep, precision_bits)

    monkeypatch.setattr(verify, "solve_with_escalation", exhausted_at_3)
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["hp"] = {"n_list": [3, 4], "precision_bits": 128}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["verify-prop2", "--config", str(p), "--out", str(out)]) == 1
    checks = {c["check_id"]: c for c in
              json.loads((out / "report.json").read_text())["reports"][0]["checks"]}
    assert checks["zeros.order_3"]["status"] == "fail"
    assert checks["zeros.order_3"]["value"] is None
    assert checks["zeros.degree_n4"]["status"] == "pass"
    assert checks["zeros.ks_final"]["status"] == "skipped"


@pytest.mark.parametrize("n_list", [[0, 2, 4], [1, 2, 4]])
def test_symmetric_f_orders_without_zeros(tmp_path, n_list):
    # on F = -F, Q2 has degree 2 floor(n/2): orders 0 and 1 have no zeros
    # and no KS distance, and the KS sequence runs over the other orders
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["problem"] = {"f_intervals": [[-3.0, -2.0], [2.0, 3.0]], "sigma": "arcsine"}
    cfg["hp"] = {"n_list": n_list, "precision_bits": 128}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["verify-prop2", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["reports"][0]
    checks = {c["check_id"]: c for c in rep["checks"]}
    low = n_list[0]
    assert (checks[f"zeros.degree_n{low}"]["value"], checks[f"zeros.count_n{low}"]["value"]) == (0, 0)
    assert set(rep["provenance"]["ks_sequence"]) == {"2", "4"}
    assert checks["zeros.ks_non_increasing"]["status"] == "pass"


def test_preset_with_overrides(tmp_path):
    out = tmp_path / "o"
    code = run(
        [
            "solve-p6",
            "--preset",
            "f23-arcsine",
            "--nodes",
            "64",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    sidecar = json.loads((out / "reduced_e.json").read_text())
    assert sidecar["grid"]["n_per_component"] == 64


def test_unknown_preset_exits_2():
    assert run(["solve-scalar", "--preset", "nope"]) == 2


def test_balayage_command(cfg_path, tmp_path):
    out = tmp_path / "o"
    assert run(["balayage", "--config", cfg_path, "--out", str(out)]) == 0
    data = json.loads((out / "balayage.json").read_text())
    assert data["ks_closed_vs_numeric"] <= 5e-3
    assert data["potential_identity_sup"] <= 1e-8
    # the bound is the run's KS tolerance, 5e-3 times the config's scale of 4
    assert data["ks_tolerance"] == 2e-2


def test_balayage_pinned(tmp_path):
    # the closed-form sweep, the numeric sweep and their comparison, byte for byte
    out = tmp_path / "o"
    assert run(["balayage", "--preset", "f23-arcsine", "--nodes", "64", "--out", str(out)]) == 0
    for name in ("balayage.json", "balayage_closed.csv", "balayage_numeric.csv"):
        with open(os.path.join(DATA, f"balayage_f23-arcsine_n64.{name}"), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def test_balayage_unresolved_peak_exits_1(tmp_path):
    # the 400-cell E grid cannot resolve the closed form's peak of width
    # about 1e-5: the sweep solves, but its KS distance misses the bound
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": {"f_intervals": [[2.0, 3.0]]},
                             "balayage": {"point": 1.00001}}))
    out = tmp_path / "o"
    assert run(["balayage", "--config", str(p), "--out", str(out)]) == 1
    data = json.loads((out / "balayage.json").read_text())
    assert data["ks_tolerance"] == 5e-3
    assert data["ks_closed_vs_numeric"] > 10 * data["ks_tolerance"]


LONG_F_8_CELLS = {"problem": {"f_intervals": [[1.001, 1000.0]]},
                  "grids": {"n_per_component": 8, "grading": 2.0}}
NEAR_E_POINT = {"problem": {"f_intervals": [[2.0, 3.0]]}, "balayage": {"point": 1.0000001}}


@pytest.mark.parametrize(
    "command, cfg, fragments",
    [
        # 8 cells on the long F = [1.001, 1000] give a negative weight in
        # the scalar problem and in the coupled one
        pytest.param("solve-scalar", LONG_F_8_CELLS,
                     ["collocation weight -6.596e-02 at node 51.51218539325843",
                      "8 cells per component"],
                     id="solve-scalar"),
        pytest.param("solve-vector", LONG_F_8_CELLS,
                     ["collocation weight -6.592e-02 at node 51.51", "8 cells per component"],
                     id="solve-vector"),
        # the coupled problem, the larger system, is solved first to keep
        # the peak memory low, so the run ends there
        pytest.param("verify-theorem1", LONG_F_8_CELLS,
                     ["collocation weight -6.592e-02 at node 51.51", "8 cells per component"],
                     id="verify-theorem1"),
        # the 400-cell E grid cannot resolve the sweep of a point 1e-7 outside E
        pytest.param("balayage", NEAR_E_POINT,
                     ["collocation weight -7.704e-02 at node 0.99997", "400 cells per component"],
                     id="balayage"),
    ],
)
def test_coarse_collocation_grid_exits_2(tmp_path, capsys, command, cfg, fragments):
    # a collocation system with a negative weight ends the run
    # with the weight, its node and the cells per component, and writes
    # nothing
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run([command, "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for fragment in fragments:
        assert fragment in err
    assert not out.exists()
