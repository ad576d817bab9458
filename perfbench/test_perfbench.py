"""Fast tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.run import run_sub  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    PaperApps,
    ReplayDrf,
    ReplayVdceChurn,
)
from repro.simcore.engine import Environment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(name: str):
    return {
        "paper_apps": lambda: PaperApps(apps=4, subworkloads=1, solver_n=40,
                                        layers=2, width=2),
        "replay_drf": lambda: ReplayDrf(arrivals=400, subworkloads=1,
                                        tenants=10),
        "replay_vdce_churn": lambda: ReplayVdceChurn(jobs=40,
                                                     subworkloads=1),
    }[name]()


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_passes_checks_and_repeats(name):
    workload = tiny(name)
    sub_seed = workload.sub_seeds(3)[0]
    first = run_sub(workload, 0, sub_seed).result
    second = run_sub(workload, 0, sub_seed).result
    assert first.problems == []
    assert first.failed == 0
    assert first.attempted > 0
    assert first.makespans and first.waits
    assert first.digest == second.digest


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers.MOVES)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_emits_every_per_layer_metric(name):
    workload = tiny(name)
    recorder = layers.SpanRecorder(keep=1000)
    original_run = Environment.__dict__["run"]
    sub_seed = workload.sub_seeds(3)[0]
    with layers.installed(recorder):
        traced = run_sub(workload, 0, sub_seed, recorder).result
    assert Environment.__dict__["run"] is original_run
    counts = dict(traced.counts, sim_s=traced.sim_s)
    metrics = layers.layer_metrics(recorder, counts, overhead_pct=0.0)
    for metric in SPEC["per_layer"]:
        assert metric["name"] in metrics, metric["name"]
    assert recorder.spans and recorder.self_s["simcore"] > 0
    for layer in workload.bypassed:
        busy = {k: v for k, v in metrics.items()
                if k.startswith(layer + ".") and v}
        assert busy == {}, f"{name} should bypass {layer}"
    untraced = run_sub(workload, 0, sub_seed).result
    assert untraced.digest == traced.digest


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + [
            "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
