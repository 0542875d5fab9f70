"""Machine-readable benchmark artifact (``BENCH_obs.json``).

A tiny harness that runs scaled-down Figure 5 and Figure 4 (capacity)
configurations and writes one JSON document with simulated runtimes,
key protocol counters, and the observability profiler's cluster-time
attribution per run — so regressions in either *performance* (simulated
time drifting) or *behaviour* (fault/disk counts drifting) are visible
to tooling without parsing ASCII tables.  CI's ``obs-smoke`` job uploads
the file as a workflow artifact.

::

    python -m repro.exps.bench --out BENCH_obs.json

The workloads are deliberately small (a few seconds of wall clock): the
artifact is a tripwire, not a calibration.  Determinism makes the
numbers exact — two checkouts producing different values differ in
behaviour, not in measurement noise.

Wall-clock performance is measured by ``perfbench/run.py`` on the
paper's own workloads; :func:`host_metadata` is shared with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any

from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.pde3d import Pde3dApp
from repro.config import ClusterConfig
from repro.exps.presets import PAGE_BYTES
from repro.metrics.speedup import run_app
from repro.obs import CATEGORIES, Observability

__all__ = ["run_bench", "host_metadata", "main"]

#: Counters worth tracking run-over-run (behavioural tripwires).
KEY_COUNTERS = (
    "read_faults",
    "write_faults",
    "read_fault_ns",
    "write_fault_ns",
    "invalidations_sent",
    "faults_forwarded",
    "page_copies_sent",
    "page_transfers_sent",
    "disk_reads",
    "disk_writes",
    "evictions",
)


def host_metadata() -> dict[str, Any]:
    """What machine produced a wall-clock number (recorded per artifact).

    Simulated events are portable; events per wall second are not — a
    wall-clock record only means something next to the host that
    measured it.
    Best-effort on non-Linux: absent facts are reported as ``None``
    rather than guessed.
    """
    cpu_model: str | None = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu_model = platform.processor() or None
    governor: str | None = None
    try:
        with open(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            encoding="utf-8",
        ) as fh:
            governor = fh.read().strip()
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        # "performance" pins the clock; anything else ("powersave",
        # "schedutil", None=unknown) means wall numbers wander with load.
        "cpufreq_governor": governor,
        "platform": platform.platform(),
    }


def _capacity_config(m: int) -> ClusterConfig:
    # The Figure 4 regime at bench scale (see presets.pde_capacity).
    vector_pages = (m**3 * 8 + PAGE_BYTES - 1) // PAGE_BYTES
    return ClusterConfig().with_memory(
        frames=int(1.8 * vector_pages), replacement="random"
    )


def _bench_cases() -> list[tuple[str, Any, int, ClusterConfig | None]]:
    """(name, factory, nprocs, config) — small but representative."""
    return [
        ("dotprod_p1", lambda p: DotProductApp(p, n=32768), 1, None),
        ("dotprod_p2", lambda p: DotProductApp(p, n=32768), 2, None),
        ("jacobi_p1", lambda p: JacobiApp(p, n=128, iters=6), 1, None),
        ("jacobi_p2", lambda p: JacobiApp(p, n=128, iters=6), 2, None),
        ("pde_capacity_p1", lambda p: Pde3dApp(p, m=14, iters=4), 1, _capacity_config(14)),
        ("pde_capacity_p2", lambda p: Pde3dApp(p, m=14, iters=4), 2, _capacity_config(14)),
    ]


def _timeline_bench(nodes: int = 64, window_ms: int = 20, sample_every: int = 64) -> dict[str, Any]:
    """Windowed-telemetry section: one sampled ≥64-node switched run.

    The fig5-class scale point observed with a simulated-time timeline:
    per-window cluster profile attribution, busiest links, and the SLO
    report whose ``saturation_onset_window`` is the artifact's headline —
    the first 20 ms window where the run stops meeting its latency or
    link-occupancy targets.  Every value is deterministic (sampling is a
    pure hash of span ids), so drift here is behaviour change.
    """
    from repro.config import MILLISECOND
    from repro.exps.presets import scale_fig5
    from repro.exps.parallel import APP_REGISTRY
    from repro.exps.scale import DEFAULT_SLOS
    from repro.obs.slo import evaluate, parse_slo

    app, app_args, config = scale_fig5(nodes, "switched")
    ctor = APP_REGISTRY[app]
    obs = Observability(
        timeline_window_ns=window_ms * MILLISECOND,
        sample_every=sample_every,
    )
    res = run_app(
        lambda p: ctor(p, **app_args), nodes, config=config, check=True, obs=obs
    )
    tl = obs.timeline
    assert tl is not None
    per_node = obs.window_breakdowns(nodes, res.time_ns)
    nwin = tl.nwindows(res.time_ns)
    profile = [
        {cat: sum(
            windows[w].get(cat, 0)
            for windows in per_node.values() if w < len(windows)
        ) for cat in CATEGORIES}
        for w in range(nwin)
    ]
    report = evaluate(
        tl, res.time_ns, [parse_slo(text) for text in DEFAULT_SLOS]
    )
    return {
        "case": f"fig5/n{nodes}/switched",
        "nodes": nodes,
        "fabric": "switched",
        "time_ns": res.time_ns,
        "events": res.events_executed,
        "window_ns": tl.window_ns,
        "windows": nwin,
        "sample_every": sample_every,
        "spans_recorded": len(obs.spans),
        "spans_dropped": obs.spans.dropped,
        "profile_ns_per_window": profile,
        "busiest_links": [
            {"link": name, "busy_ns": busy, "peak_window_utilisation": round(peak, 4)}
            for name, busy, peak in tl.busiest_links(res.time_ns, limit=4)
        ],
        "slo": report.summary(),
    }


def run_bench() -> dict[str, Any]:
    runs: dict[str, Any] = {}
    for name, factory, nprocs, config in _bench_cases():
        obs = Observability()
        res = run_app(factory, nprocs, config=config, obs=obs)
        cluster = Observability.cluster_breakdown(obs.breakdown(nprocs, res.time_ns))
        runs[name] = {
            "nprocs": nprocs,
            "time_ns": res.time_ns,
            "counters": {k: res.counters[k] for k in KEY_COUNTERS},
            "profile_ns": {cat: cluster[cat] for cat in CATEGORIES},
            "spans": len(obs.spans),
        }
    # Simulated times are deterministic; derived ratios are free to add.
    doc = {
        "schema": "repro.bench/1",
        "runs": runs,
        "speedups": {
            "dotprod": runs["dotprod_p1"]["time_ns"] / runs["dotprod_p2"]["time_ns"],
            "jacobi": runs["jacobi_p1"]["time_ns"] / runs["jacobi_p2"]["time_ns"],
            "pde_capacity": (
                runs["pde_capacity_p1"]["time_ns"] / runs["pde_capacity_p2"]["time_ns"]
            ),
        },
        "timeline": _timeline_bench(),
    }
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exps.bench", description=__doc__
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args(argv)
    doc = run_bench()
    out = args.out or "BENCH_obs.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, run in doc["runs"].items():
        print(f"{name}: {run['time_ns'] / 1e6:.1f} ms simulated")
    for app, speedup in doc["speedups"].items():
        print(f"speedup {app} p1->p2: {speedup:.2f}x")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
