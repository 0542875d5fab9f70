"""The benchmark's own tests (not part of the tier-1 suite).

::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_pass_checks_every_simulation(workload: str, seed: int) -> None:
    sims = build(workload, seed, smoke=True)
    passes = [run.run_pass(sims), run.run_pass(sims)]
    assert all(r.ok for p in passes for r in p)
    assert not run.check_fingerprints(passes)
    assert run.check_fingerprints(passes, reference=[["other", 1, 1]])
    metrics = run.end_to_end(passes)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(value > 0 for value in metrics.values())


def test_tracer_is_schedule_neutral_and_restores_the_code() -> None:
    from repro.sim.kernel import CalendarSimulator, Simulator

    originals = (Simulator.schedule, CalendarSimulator.run, Simulator.schedule_at)
    sims = build("lossy", 3, smoke=True) + build("table1", 3, smoke=True)
    untraced = run.run_pass(sims)
    with LayerTracer() as tracer:
        traced = [run.run_sim(sim, tracer) for sim in sims]
    assert (Simulator.schedule, CalendarSimulator.run, Simulator.schedule_at) == originals
    assert [r.fingerprint for r in traced] == [r.fingerprint for r in untraced]
    assert [r.counters for r in traced] == [r.counters for r in untraced]
    assert sum(r.transport["retransmits"] for r in traced) > 0
    wall = run._total(traced, "wall_s")
    metrics = run.per_layer(traced, tracer, wall, run._total(untraced, "wall_s"))
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    attributed = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    assert 0 < attributed <= wall
    assert metrics["sim.events"][0] == run._total(untraced, "events")
    assert metrics["apps.resumes"][0] > 0 and metrics["sim.schedule_calls"][0] > 0


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_are_importable_repro_packages(layer: str) -> None:
    package = importlib.import_module(f"repro.{layer}")
    assert hasattr(package, "__path__") and package.__all__


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
