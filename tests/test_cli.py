"""CLI tests: exit codes, artifacts, manifests, idempotence."""

import hashlib
import json
import os

import mpmath as mp
import pytest

from equilab.cli import run

SMALL_CFG = {
    "problem": {"f_intervals": [[2.0, 3.0]], "sigma": "arcsine"},
    "grids": {"n_per_component": 100, "grading": 2.0},
    "hp": {"n_list": [2, 4], "precision_bits": 192},
    "balayage": {"point": 2.0},
    "tolerance_scale": 4.0,
    "positivity_samples": 200,
    "seed": 11,
}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_CFG))
    return str(p)


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2


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


def test_missing_config_exits_2(tmp_path):
    assert run(["solve-scalar", "--config", str(tmp_path / "nope.json")]) == 2


def test_solve_scalar_artifacts(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["solve-scalar", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "scalar_f.csv").exists()
    sidecar = json.loads((out / "scalar_f.json").read_text())
    assert {"constant", "residual_sup", "min_density", "grid"} <= set(sidecar)
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
    from equilab.hermite_pade import arcsine_sigma, moments_f2
    from equilab.kernels import IntervalUnion

    b = moments_f2(0, arcsine_sigma(IntervalUnion([(2.0, 3.0)])), 192)
    with mp.workprec(192):
        assert abs(mp.mpf(data["q1"][0]) - (-b[0])) <= mp.mpf(10) ** (-40)


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


def test_check_failure_exits_1(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["tolerance_scale"] = 1e-9
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = run(["verify-theorem1", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize(
    "problem, hp, failed_order",
    [
        # symmetric F: Q2 of odd order has degree n - 1, so no unit counting measure
        ({"f_intervals": [[-3.0, -2.0], [2.0, 3.0]], "sigma": "arcsine"},
         {"n_list": [3, 4], "precision_bits": 128}, "zeros.order_3"),
        # a starting precision above the escalation cap: no attempt at all
        (SMALL_CFG["problem"], {"n_list": [2], "precision_bits": 8192}, "zeros.order_2"),
    ],
)
def test_failed_order_exits_1_with_report(tmp_path, problem, hp, failed_order):
    cfg = json.loads(json.dumps(SMALL_CFG))
    cfg["problem"], cfg["hp"] = problem, hp
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["verify-prop2", "--config", str(p), "--out", str(out)]) == 1
    checks = {c["check_id"]: c for c in
              json.loads((out / "report.json").read_text())["reports"][0]["checks"]}
    assert checks[failed_order]["status"] == "fail"
    assert checks[failed_order]["value"] is None
    assert checks["zeros.ks_final"]["status"] == "skipped"


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
