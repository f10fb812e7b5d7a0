"""The program against the benchmark harness under perfbench/, which must not change.

The harness calls into equilab by name: its span recorder rebinds the
functions listed in ``spans.TRACED`` and reads some of their arguments by
position, and each run process builds its workload's config through the
CLI's preset table, parser, loader and validator.  These tests fail when a
change to the program would break the harness.
"""

import importlib
import importlib.util
import inspect
import json
import os

import pytest

from equilab import cli
from equilab.equilibrium import GridParams
from equilab.hermite_pade import DEFAULT_PRECISION_BITS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
WORKLOADS = workloads.load_workloads()

# positional arguments that the span describers in spans.py read
POSITIONS = {
    "hermite_pade.solve_with_escalation": {2: "precision_bits"},
    "hermite_pade.moments_f1": {1: "precision_bits"},
    "hermite_pade.moments_f2": {2: "precision_bits"},
    "hermite_pade.solve_hp": {3: "precision_bits"},
    "hermite_pade.discretize_sigma": {0: "spec", 1: "order"},
    "hermite_pade.zeros_q2": {0: "sol"},
    "equilibrium.solve_scalar": {0: "F", 1: "grid_params"},
    "equilibrium.solve_vector": {0: "F", 1: "grid_params"},
    "equilibrium.solve_reduced": {0: "F", 1: "grid_params"},
    "measures.neglog_cell_averages": {0: "z", 1: "mu"},
}


def test_traced_functions_exist():
    for modname, names in spans.TRACED.items():
        module = importlib.import_module(f"equilab.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"


def test_described_arguments_keep_their_positions():
    assert set(POSITIONS) == set(spans.DESCRIBE)
    for qualname, positions in POSITIONS.items():
        modname, name = qualname.split(".")
        params = list(inspect.signature(getattr(importlib.import_module(f"equilab.{modname}"),
                                                name)).parameters)
        for index, param in positions.items():
            assert params[index] == param, qualname
    # the describers fall back to these defaults
    assert isinstance(GridParams(), GridParams)
    assert isinstance(DEFAULT_PRECISION_BITS, int)


def test_cli_entry_points_exist():
    for name in ("build_parser", "load_config", "validate_config"):
        assert callable(getattr(cli, name))
    for workload in WORKLOADS.values():
        assert workload["preset"] in cli.PRESETS
        assert workload["command"] in cli.COMMANDS


def test_presets_are_separate_dicts():
    assert cli.PRESETS["f23-arcsine"] == {
        "problem": {"f_intervals": [[2.0, 3.0]], "sigma": "arcsine"},
        "grids": {"n_per_component": 400, "grading": 2.0},
        "hp": {"n_list": [5, 10, 20, 40], "precision_bits": 512},
        "balayage": {"point": 2.0},
        "tolerance_scale": 1.0,
    }
    a, b = cli.PRESETS["f23-arcsine"], cli.PRESETS["sym-arcsine"]
    assert a["grids"] is not b["grids"] and a["hp"]["n_list"] is not b["hp"]["n_list"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_validates(tmp_path, name):
    workload = WORKLOADS[name]
    cfg = workloads.workload_config(workload, 1)
    # the benchmark still writes a seed, which the run ignores
    assert cfg["seed"] == 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    argv = [workload["command"], "--config", str(path), "--out", str(tmp_path / "cli")]
    rc = cli.validate_config(cli.load_config(cli.build_parser().parse_args(argv)))
    assert "seed" not in rc._fields
