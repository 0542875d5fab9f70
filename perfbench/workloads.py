"""The benchmark's workloads: the paper's experiments as lists of simulations.

Each workload is a list of :class:`Sim` specs built from a seed.  Seed 0
reproduces the ``repro.exps.presets`` inputs exactly; seed ``s`` offsets
every application's data seed and ``ClusterConfig.seed`` (random page
replacement, frame loss) by ``s``, so the problem sizes, processor
counts and configurations never change with the seed — only the data.
TSP is the exception: a new random instance can cost several times more
search than another (on a shared 2-core host, seeds 0-5 moved fig5 from 2.6 to
6.8 host seconds), which would drown every other signal.  It keeps the
preset's instance, with cities 1..n-1 renumbered by a seed-drawn
permutation: the same tours and optimum, a different search order.

Why these four (each stresses a different part of the stack):

- ``fig5``: the Figure 5 quick suite, six apps x p in {1, 2, 4, 8} on
  the lossless ring.  The paper's headline and the app-heavy mix; event
  queues stay short.
- ``table1``: the Figure 4 / Table 1 capacity PDE at the paper's 50^3
  size, frames at 1.8 of one vector, random replacement.  The only
  workload where ``repro.machine`` (eviction, paging disk) dominates.
- ``scale``: the fig4-class PDE at 256 nodes on the switched fabric.
  Large event queues full of parked retransmit timers; ``repro.sim``
  and ``repro.net`` dominate and memory use is highest.  The preset's
  own p=1 and p=8 points ride along so that ``speedup_p8`` is defined.
- ``lossy``: the six fig5 apps at p=8 on the ring with 5% frame loss,
  each over ``LOSSY_DRAWS`` loss draws, plus their p=1 runs (one node
  sends nothing over the ring, so loss cannot touch them) as the
  speedup base.  The only workload that fires retransmit timers and the
  duplicate/reply cache.

``lossy`` is not listed in ``BENCHMARK.json``: on some seeds (about one
run in ten) a jacobi p=8 draw fails with ``ProtocolError('node N would
forward page-P fault back to its origin O')`` from
``repro.svm.dynamic.DynamicDistributedProtocol.forward_target``, a
defect of the simulator under frame loss, and a benchmark workload must
not fail.  It stays here, with its check unchanged, so that the defect
can be reproduced (``run.py --workload lossy --seed 404894478`` reports
``correct: false``) and the workload gated again once it is fixed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.config import ClusterConfig
from repro.exps.parallel import APP_REGISTRY
from repro.exps.presets import PAGE_BYTES, fig5_procs, fig5_specs, scale_fig4

__all__ = ["Sim", "WORKLOADS", "build", "DEFAULT_SEED", "PAPER_TABLE1"]

#: The seed whose inputs are exactly the presets'.
DEFAULT_SEED = 0

#: Table 1 of the paper: disk page transfers per PDE iteration (50^3).
PAPER_TABLE1 = {
    1: (699, 2264, 1702, 1502, 1586, 1604),
    2: (1452, 928, 781, 91, 54, 14),
}

#: Frame loss rate of the ``lossy`` workload.
LOSS_RATE = 0.05

#: Loss draws (cluster seeds) per app at p=8 on ``lossy``.  Which frames
#: are lost moves one draw's simulated time by several percent; with one
#: draw, ``speedup_p8`` spread 9% across seeds, with two 8.6%.
LOSSY_DRAWS = 4

#: Replacement draws of the small p=1/p=8 pair on ``scale``; one draw's
#: T(1)/T(8) moves by +-15% with the random-replacement seed.
SCALE_SPEEDUP_DRAWS = 8

#: Small inputs for the benchmark's own tests: the same code path at a
#: fraction of the cost.
SMOKE_APP_ARGS: dict[str, dict[str, int]] = {
    "jacobi": {"n": 32, "iters": 2},
    "pde3d": {"m": 8, "iters": 2},
    "tsp": {"ncities": 6},
    "matmul": {"n": 16},
    "dotprod": {"n": 1024},
    "sort": {"nrecords": 256},
}


@dataclass(frozen=True)
class Sim:
    """One simulation of a workload."""

    #: Speedup curve this simulation belongs to (an app, or the workload).
    curve: str
    nprocs: int
    app: str
    app_args: dict[str, Any] = field(default_factory=dict)
    config: ClusterConfig = field(default_factory=ClusterConfig)
    #: Record per-iteration counter deltas (the Table 1 disk series).
    epoch_log: bool = False
    #: Seed of the TSP city renumbering (0: the instance as generated).
    relabel: int = 0
    #: Which of several random draws (cluster seeds) of one point this is.
    replica: int = 0

    @property
    def label(self) -> str:
        draw = f"#{self.replica}" if self.replica else ""
        return f"{self.curve}@p{self.nprocs}{draw}"

    def make_app(self) -> Any:
        app = APP_REGISTRY[self.app](self.nprocs, **self.app_args)
        if self.relabel:
            rng = np.random.default_rng(self.relabel)
            perm = np.concatenate(([0], 1 + rng.permutation(app.n - 1)))
            app.w = app.w[np.ix_(perm, perm)]
        return app


def _seeded(app: str, kwargs: dict[str, Any], seed: int) -> dict[str, Any]:
    """``kwargs`` with the app's data seed offset by ``seed``."""
    if app == "tsp":
        return kwargs
    base = kwargs.get("seed")
    if base is None:
        base = inspect.signature(APP_REGISTRY[app]).parameters["seed"].default
    return {**kwargs, "seed": base + seed}


def _cluster(
    config: ClusterConfig, nodes: int, seed: int, replica: int = 0, replicas: int = 1
) -> ClusterConfig:
    """``config`` on ``nodes`` nodes; draw ``replica`` of ``replicas`` per seed."""
    return config.replace(nodes=nodes, seed=config.seed + replicas * seed + replica)


def _suite(
    seed: int,
    procs: tuple[int, ...],
    config: ClusterConfig,
    smoke: bool,
    replicas: dict[int, int] | None = None,
) -> list[Sim]:
    sims = []
    for name, (app, kwargs) in fig5_specs().items():
        args = _seeded(app, {**kwargs, **SMOKE_APP_ARGS[app]} if smoke else kwargs, seed)
        relabel = seed if app == "tsp" else 0
        for p in procs:
            draws = (replicas or {}).get(p, 1)
            for j in range(draws):
                sims.append(Sim(
                    name, p, app, args, _cluster(config, p, seed, j, draws),
                    relabel=relabel, replica=j,
                ))
    return sims


def fig5(seed: int, smoke: bool = False) -> list[Sim]:
    return _suite(seed, fig5_procs(), ClusterConfig(), smoke)


def table1(seed: int, smoke: bool = False) -> list[Sim]:
    # The paper's 50^3 problem (presets.pde_capacity stops at 24^3).
    m = 8 if smoke else 50
    vector_pages = (m**3 * 8 + PAGE_BYTES - 1) // PAGE_BYTES
    config = ClusterConfig().with_memory(
        frames=int(1.8 * vector_pages), replacement="random"
    )
    args = _seeded("pde3d", {"m": m, "iters": 6}, seed)
    return [
        Sim("3-D PDE capacity", p, "pde3d", args, _cluster(config, p, seed), epoch_log=p <= 2)
        for p in (1, 2, 4, 8)
    ]


def scale(seed: int, smoke: bool = False) -> list[Sim]:
    big = 16 if smoke else 256
    sims = []
    for p, draws in ((1, SCALE_SPEEDUP_DRAWS), (8, SCALE_SPEEDUP_DRAWS), (big, 1)):
        app, kwargs, config = scale_fig4(p, "switched")
        curve = "fig4-class switched" if p != big else f"fig4-class switched n{big}"
        for j in range(draws):
            sims.append(Sim(
                curve, p, app, _seeded(app, kwargs, seed),
                _cluster(config, p, seed, j, draws), replica=j,
            ))
    return sims


def lossy(seed: int, smoke: bool = False) -> list[Sim]:
    config = ClusterConfig().with_ring(loss_rate=LOSS_RATE)
    return _suite(seed, (1, 8), config, smoke, replicas={8: LOSSY_DRAWS})


WORKLOADS: dict[str, Callable[..., list[Sim]]] = {
    "fig5": fig5,
    "table1": table1,
    "scale": scale,
    "lossy": lossy,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Sim]:
    """The simulations of ``workload`` for ``seed`` (any int; taken mod 2**32)."""
    return WORKLOADS[workload](seed % 2**32, smoke=smoke)
