"""Workload definitions shared by the benchmark's run, child and reference scripts.

A workload is a CLI command plus a bundled preset with config overrides;
perfbench/workloads.json holds them together with the check ids each run's
report.json must contain and the pinned reference w_F*.
"""

from __future__ import annotations

import copy
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PATH = os.path.join(HERE, "workloads.json")


def load_workloads() -> dict:
    with open(WORKLOADS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def _merge(base: dict, over: dict) -> dict:
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _merge(base[key], val)
        else:
            base[key] = copy.deepcopy(val)
    return base


def workload_config(workload: dict, seed: int) -> dict:
    """The config tree for one run: the preset, the overrides, then the seed."""
    from equilab.cli import PRESETS

    cfg = _merge(copy.deepcopy(PRESETS[workload["preset"]]), workload["overrides"])
    cfg["seed"] = seed
    return cfg
