#!/usr/bin/env python3
"""Paper-workload benchmark: host and simulated clocks, split by layer.

::

    python3 perfbench/run.py --workload fig5 --seed 0 --seconds 20 --trace 0

Runs one workload of ``workloads.WORKLOADS`` serially in this process
with the default configuration, repeating the whole workload until
``--seconds`` have passed, and checks every simulation's answer against
the app's numpy golden (``app.check``).  It prints every metric by name
and unit and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count simulations; a simulation fails if it
raises, deadlocks, exhausts transport retries or fails its check.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

- ``wall_s``: host seconds to run the workload's simulations (median
  over repetitions; set-up and output checks excluded);
- ``events_per_s``: simulated events per host second;
- ``setup_s``: import (median over fresh interpreters) plus input
  generation and ``Ivy(config)`` construction, before the first event;
- ``peak_rss_mb``: peak resident memory of this process;
- ``sim_s``: simulated seconds summed over the workload's simulations;
- ``speedup_p8``: simulated T(1)/T(8), geometric mean over curves.

``--trace 1`` runs the workload once untraced and once under
``layers.LayerTracer`` and reports the per-layer metrics: self time and
calls per layer, plus the simulator's own counters.  The traced run must
reproduce the untraced run's ``(events, time_ns)`` for every simulation.

Every run also writes its fingerprints (per-simulation events and
simulated ns), metrics and host to ``perfbench/out/``.  At seed 0 the
fingerprints must equal ``perfbench/fingerprints.json``, so a change
meant only to speed up the simulator can show that it left every
simulated result as it was.  A change that means to alter the simulated
machine refreshes that file from the ``fingerprints`` of
``perfbench/out/<workload>-seed0-trace0.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "fingerprints.json"
OUT = HERE / "out"

#: Fresh interpreters timed for the import share of ``setup_s``.
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import repro.api.ivy, repro.exps.parallel, repro.exps.presets\n"
    "print(time.perf_counter() - start)\n"
)

#: Thread-count knobs of the BLAS builds numpy may load; set before import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_s": "s",
    "speedup_p8": "ratio",
}


@dataclass
class SimResult:
    """What one simulation left behind (plain numbers only)."""

    label: str
    nprocs: int
    curve: str
    ok: bool = False
    setup_s: float = 0.0
    wall_s: float = 0.0
    events: int = 0
    time_ns: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    fabric: dict[str, int] = field(default_factory=dict)
    transport: dict[str, int] = field(default_factory=dict)
    #: Disk transfers per PDE iteration (Table 1 sims only).
    disk_series: list[int] | None = None
    #: Layer totals accrued while the simulation ran (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def fingerprint(self) -> list[Any]:
        return [self.label, self.events, self.time_ns] if self.ok else [self.label, None, None]


def run_sim(sim: Any, tracer: Any = None) -> SimResult:
    from repro.api.ivy import Ivy
    from repro.metrics.collect import EpochLog

    out = SimResult(sim.label, sim.nprocs, sim.curve)
    try:
        start = perf_counter()
        app = sim.make_app()
        ivy = Ivy(sim.config)
        log = None
        if sim.epoch_log:
            log = EpochLog([node.counters for node in ivy.cluster.nodes])
            app.epoch_log = log
        before = tracer.totals() if tracer else {}
        ready = perf_counter()
        result = ivy.run(app.main)
        out.wall_s = perf_counter() - ready
        if tracer:
            out.layers = {k: v - before[k] for k, v in tracer.totals().items()}
        out.setup_s = ready - start
        app.check(result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        print(f"simulation {sim.label} failed", file=sys.stderr)
        return out
    out.ok = True
    out.events = ivy.cluster.sim.events_executed
    out.time_ns = ivy.time_ns
    out.counters = ivy.cluster.total_counters().snapshot()
    out.fabric = ivy.cluster.fabric.stats.snapshot()
    for node in ivy.cluster.nodes:
        stats = node.transport.stats
        for name in type(stats).__slots__:
            out.transport[name] = out.transport.get(name, 0) + getattr(stats, name)
    if log is not None:
        reads, writes = log.series("disk_reads"), log.series("disk_writes")
        out.disk_series = [r + w for (_, r), (_, w) in zip(reads, writes)][: app.iters]
    return out


def run_pass(sims: list[Any]) -> list[SimResult]:
    gc.collect()
    return [run_sim(sim) for sim in sims]


def _total(results: list[SimResult], attr: str) -> float:
    return sum(getattr(r, attr) for r in results)


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in values) / len(values)) if values else 0.0


def speedup_p8(results: list[SimResult]) -> float:
    """Simulated T(1)/T(8), geometric mean over curves; a point drawn
    several times (random replacement, loss) enters as its geometric mean."""
    times: dict[str, dict[int, list[int]]] = {}
    for r in results:
        if r.ok:
            times.setdefault(r.curve, {}).setdefault(r.nprocs, []).append(r.time_ns)
    return _geomean([
        _geomean(t[1]) / _geomean(t[8]) for t in times.values() if 1 in t and 8 in t
    ])


def import_seconds() -> list[float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def end_to_end(passes: list[list[SimResult]]) -> dict[str, float]:
    first = passes[0]
    walls = [_total(p, "wall_s") for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(_total(p, "events") / w for p, w in zip(passes, walls)),
        "setup_s": statistics.median(import_seconds())
        + statistics.median(_total(p, "setup_s") for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_s": _total(first, "time_ns") / 1e9,
        "speedup_p8": speedup_p8(first),
    }


def _merged(results: list[SimResult], source: str) -> Counter[str]:
    """One of the per-simulation count dicts, summed over ``results``."""
    return sum((Counter(getattr(r, source)) for r in results), Counter())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def table1_decay(results: list[SimResult]) -> float:
    """p=2 over p=1 disk transfers in the sixth iteration (paper: 14/1604)."""
    series = {r.nprocs: r.disk_series for r in results if r.disk_series}
    if 1 not in series or 2 not in series or len(series[1]) < 6 or len(series[2]) < 6:
        return 0.0
    return _ratio(series[2][5], series[1][5])


def per_layer(
    traced: list[SimResult], tracer: Any, traced_wall: float, untraced_wall: float
) -> dict[str, tuple[float, str]]:
    from layers import LAYERS

    c, t, f = (_merged(traced, source) for source in ("counters", "transport", "fabric"))
    span = _merged(traced, "layers")
    faults = c["read_faults"] + c["write_faults"]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (span[f"{layer}.self_s"], "s")
    for layer in ("machine", "net", "svm", "proc", "sync", "alloc"):
        out[f"{layer}.calls"] = (span[f"{layer}.calls"], "count")
    out.update({
        "apps.resumes": (span["apps.resumes"], "count"),
        "apps.tsp_nodes_expanded": (c["tsp_nodes_expanded"], "count"),
        "machine.evictions": (c["evictions"], "count"),
        "machine.disk_reads": (c["disk_reads"], "count"),
        "machine.disk_writes": (c["disk_writes"], "count"),
        "machine.table1_decay": (table1_decay(traced), "ratio"),
        "sim.events": (_total(traced, "events"), "count"),
        "sim.schedule_calls": (span["sim.schedule_calls"], "count"),
        "sim.pending_peak": (tracer.pending_peak, "count"),
        "net.messages": (f["messages"], "count"),
        "net.bytes_sent": (f["bytes_sent"], "bytes"),
        "net.medium_busy_ns": (f["busy_ns"], "ns"),
        "net.requests_sent": (t["requests_sent"], "count"),
        "net.retransmits": (t["retransmits"], "count"),
        "net.duplicates_dropped": (t["duplicates_dropped"], "count"),
        "net.retransmit_ratio": (_ratio(t["retransmits"], t["requests_sent"]), "ratio"),
        "svm.read_faults": (c["read_faults"], "count"),
        "svm.write_faults": (c["write_faults"], "count"),
        "svm.read_fault_ns": (c["read_fault_ns"], "ns"),
        "svm.write_fault_ns": (c["write_fault_ns"], "ns"),
        "svm.invalidations_sent": (c["invalidations_sent"], "count"),
        "svm.faults_forwarded": (c["faults_forwarded"], "count"),
        "svm.forward_ratio": (_ratio(c["faults_forwarded"], faults), "ratio"),
        "svm.page_transfers": (c["page_transfers_sent"], "count"),
        "proc.context_switches": (c["context_switches"], "count"),
        "proc.migrations": (c["migrations_accepted"], "count"),
        "trace.overhead": (_ratio(traced_wall, untraced_wall), "ratio"),
        "trace.unattributed_s": (
            traced_wall - sum(span[f"{layer}.self_s"] for layer in LAYERS), "s"
        ),
    })
    return out


def fidelity_lines(results: list[SimResult]) -> list[str]:
    from workloads import PAPER_TABLE1

    lines = ["Table 1 disk transfers per iteration (model vs paper, 50^3 PDE):"]
    series = {r.nprocs: r.disk_series for r in results if r.disk_series}
    for p, model in sorted(series.items()):
        lines.append(f"  p={p} model: {' '.join(map(str, model))}")
        lines.append(f"  p={p} paper: {' '.join(map(str, PAPER_TABLE1[p]))}")
    if 1 in series:
        model_thrash = statistics.mean(series[1][1:])
        paper_thrash = statistics.mean(PAPER_TABLE1[1][1:])
        lines.append(
            f"  The model matches the shape (p=1 thrashes every iteration, p=2 decays"
            f" towards zero) but is not calibrated in absolute terms: p=1 pages"
            f" {model_thrash:.0f} per iteration after the first, the paper {paper_thrash:.0f}."
        )
    return lines


def check_fingerprints(
    passes: list[list[SimResult]], reference: list[Any] | None = None
) -> list[str]:
    """Reasons the passes' simulated results are not what they must be:
    every pass (traced or not) must repeat the first, which must equal
    ``reference`` when one is given."""
    problems = []
    prints = [[r.fingerprint for r in p] for p in passes]
    if any(fp != prints[0] for fp in prints[1:]):
        problems.append("repeated passes of one workload simulated different schedules")
    if reference is not None and reference != prints[0]:
        problems.append(f"fingerprints differ from {REFERENCE.name}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # The simulator is single-threaded.  A multi-threaded BLAS under
    # numpy's matrix products only spins on the second core, and on a
    # shared two-core host that made repeated passes differ by up to 75%.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import LayerTracer
    from repro.exps.bench import host_metadata
    from workloads import DEFAULT_SEED, WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    sims = build(args.workload, args.seed)

    passes: list[list[SimResult]] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(sims))
        if args.trace or perf_counter() - start >= args.seconds:
            break
    metrics: dict[str, tuple[float, str]]
    if args.trace:
        untraced_wall = _total(passes[0], "wall_s")
        gc.collect()
        with LayerTracer() as tracer:
            traced = [run_sim(sim, tracer) for sim in sims]
        passes.append(traced)
        metrics = per_layer(traced, tracer, _total(traced, "wall_s"), untraced_wall)
    else:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(passes).items()
        }

    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    problems = check_fingerprints(passes, reference)
    attempted = sum(len(p) for p in passes)
    failed = sum(not r.ok for p in passes for r in p)
    for problem in problems:
        print(problem, file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {len(sims)} simulations x "
          f"{len(passes)} passes, {'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_share = {failed / attempted:.6g} share ({failed} of {attempted})")
    if any(r.disk_series for r in passes[0]):
        print("\n".join(fidelity_lines(passes[0])))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_metadata(),
        "pass_wall_s": [_total(p, "wall_s") for p in passes],
        "fingerprints": [r.fingerprint for r in passes[0]],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
