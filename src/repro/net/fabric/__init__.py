"""Pluggable network fabric: the transmission-medium abstraction.

Everything above the medium — the reliable transport, the remote-
operation layer, the coherence protocols — speaks to the network
through the :class:`Fabric` interface: ``attach`` a delivery callback
per station, ``send`` a :class:`repro.net.packet.Message`, read
aggregate :class:`FabricStats`.  What the medium *is* is a backend
choice (``ClusterConfig.fabric.backend``):

- ``"ring"`` — :class:`repro.net.ring.TokenRing`, the Apollo Domain
  12 Mbit/s shared medium of the paper.  One frame in flight at a time;
  broadcast is free snooping.  The default, and the backend every
  committed golden schedule assumes.
- ``"switched"`` — :class:`repro.net.fabric.switched.SwitchedFabric`,
  a switched point-to-point interconnect: per-station full-duplex
  links into a crossbar, concurrent transmission on disjoint links,
  per-port FIFO queueing, and broadcast as an explicit multicast tree.

The contract every backend must honour (and the transport relies on):

- delivery is by simulator events only — ``send`` returns immediately
  and never calls a receiver synchronously;
- when a :class:`~repro.sim.kernel.Scheduler` is installed, every
  delivery event is stamped with
  :func:`repro.net.packet.delivery_label` so the schedule explorer can
  order same-tick deliveries (the label grammar is backend-agnostic:
  ``parse_delivery_label`` works identically on both fabrics);
- the :attr:`Fabric.drop_policy` hook is consulted once per
  ``(msg, target)`` delivery attempt, in deterministic target order,
  *before* any random loss draw — the explorer's delay-injection
  strategy numbers attempts through it;
- all arithmetic is integer nanoseconds: a fabric is a pure function
  of its inputs, never of the host (the determinism lint covers this
  package).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.net.packet import Message, delivery_label
from repro.net.pool import PagePool
from repro.obs import NULL_OBS, Observability
from repro.sim.kernel import Simulator
from repro.sim.trace import NULL_TRACE, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.config import ClusterConfig
    from repro.sim.rng import RngStreams

__all__ = [
    "FABRIC_BACKENDS",
    "Fabric",
    "FabricStats",
    "LinkStats",
    "make_fabric",
]


class LinkStats:
    """Per-link medium accounting: one row of a fabric's utilisation map.

    ``busy_ns`` is how long the link carried bits, ``messages`` how many
    transmissions it carried, and ``peak_backlog_ns`` the furthest ahead
    of the sender's "now" the link was ever booked — the FIFO queueing
    depth expressed in time (0 on an uncontended link).
    """

    __slots__ = ("busy_ns", "messages", "peak_backlog_ns")

    def __init__(self) -> None:
        self.busy_ns = 0
        self.messages = 0
        self.peak_backlog_ns = 0

    def utilisation(self, total_ns: int) -> float:
        """Fraction of ``total_ns`` this link spent carrying bits."""
        return self.busy_ns / total_ns if total_ns > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LinkStats busy={self.busy_ns}ns msgs={self.messages} "
            f"backlog<= {self.peak_backlog_ns}ns>"
        )


class FabricStats(Protocol):
    """What every medium's statistics object must expose.

    The flat counters keep the historical ``RingStats`` names so
    existing consumers (ablation tables, ``RunResult.ring_stats``) work
    on any backend; :meth:`links` is the generalisation — the shared
    ring is a single link named ``"medium"``, the switched fabric one
    egress (``tx[i]``) and one ingress (``rx[i]``) link per station.
    """

    messages: int
    broadcasts: int
    bytes_sent: int
    lost_frames: int

    def snapshot(self) -> dict[str, int]:
        """Flat counter dict (stable keys per backend)."""
        ...  # pragma: no cover - protocol

    def links(self) -> dict[str, LinkStats]:
        """Per-link utilisation/queueing map, keyed by link name."""
        ...  # pragma: no cover - protocol


class Fabric:
    """Base class for transmission media connecting ``nnodes`` stations.

    Subclasses implement :meth:`send` (and set :attr:`stats`); station
    attachment, delivery dispatch and the explorer's deterministic drop
    hook are shared here so the transport — and the schedule explorer —
    see identical behaviour on every backend.
    """

    #: Backend name (the ``ClusterConfig.fabric.backend`` key).
    name = "?"

    def __init__(
        self,
        sim: Simulator,
        nnodes: int,
        trace: TraceRecorder = NULL_TRACE,
        obs: Observability = NULL_OBS,
    ) -> None:
        if nnodes < 1:
            raise ValueError(f"{type(self).__name__} needs at least one station")
        self.sim = sim
        self.nnodes = nnodes
        self.trace = trace
        self.obs = obs
        #: ``enabled`` is fixed at construction; caching the truth value
        #: saves a __bool__ dispatch on every send.
        self._obs_on = bool(obs)
        #: Windowed per-link busy accounting (None unless a timeline is
        #: configured); backends report each booked transmission to it.
        #: Purely observational: the booking times are computed first,
        #: identically, whether or not anyone records them.
        self._timeline = obs.timeline if self._obs_on else None
        self.stats: FabricStats
        #: Page-snapshot buffers shared by every coherence server on this
        #: fabric; bounds the memory the transports' reply caches pin
        #: (see repro.net.pool).
        self.pages = PagePool()
        self._receivers: dict[int, Callable[[Message], None]] = {}
        #: Deterministic drop hook for the schedule explorer's delay-
        #: injection strategy: consulted once per (msg, target) delivery
        #: attempt *before* any random loss draw; returning True drops
        #: the frame (the transport's retransmission protocol recovers
        #: it, creating the delayed/reordered delivery being explored).
        self.drop_policy: Callable[[Message, int], bool] | None = None

    # ------------------------------------------------------------------

    def attach(self, node_id: int, receiver: Callable[[Message], None]) -> None:
        """Register the delivery callback for a station."""
        if not 0 <= node_id < self.nnodes:
            raise ValueError(f"station {node_id} out of range")
        if node_id in self._receivers:
            raise ValueError(f"station {node_id} already attached")
        self._receivers[node_id] = receiver

    def send(self, msg: Message) -> None:
        """Queue ``msg`` for transmission; delivery is scheduled events.

        Returns immediately (the sending *software* cost is charged by
        the transport layer, not here — the medium only models wire
        time)."""
        raise NotImplementedError

    def occupancy_ns(self, nbytes: int) -> int:
        """Medium time one message of ``nbytes`` occupies one link for."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def _schedule_delivery(self, arrival: int, target: int, msg: Message) -> None:
        """Schedule ``msg``'s delivery at ``target`` for absolute time
        ``arrival``, labelled for the explorer when one is installed."""
        sim = self.sim
        if sim.scheduler is not None:
            # Labels matter only to an installed Scheduler; building one
            # per delivery is measurable on the hot path, so skip it on
            # uncontrolled runs.
            sim.schedule_at_nocancel(
                arrival, self._deliver, target, msg,
                label=delivery_label(target, msg),
            )
        else:
            sim.schedule_at_nocancel(arrival, self._deliver, target, msg)

    def _deliver(self, target: int, msg: Message) -> None:
        receiver = self._receivers.get(target)
        if receiver is None:
            raise RuntimeError(f"no receiver attached at station {target}")
        receiver(msg)


#: Known backend names -> human summary (the registry ``make_fabric``
#: dispatches on; the summaries feed error messages and docs).
FABRIC_BACKENDS: dict[str, str] = {
    "ring": "shared-medium token ring (the paper's Apollo Domain hardware)",
    "switched": "switched point-to-point crossbar with multicast-tree broadcast",
}


def make_fabric(
    sim: Simulator,
    config: "ClusterConfig",
    rngs: "RngStreams",
    trace: TraceRecorder = NULL_TRACE,
    obs: Observability = NULL_OBS,
) -> Fabric:
    """Instantiate the configured network backend for one cluster.

    An unknown ``config.fabric.backend`` raises a structured
    :class:`repro.config.ConfigError` carrying the known names and, for
    near-misses, the exact name the caller probably meant.  So does a
    loss rate set on the medium the backend does not read: each backend
    has exactly one loss knob (``ring.loss_rate`` on the ring,
    ``fabric.loss_rate`` on the switched fabric).  A loss rate outside
    ``[0, 1)`` is rejected the same way: a negative one would silently
    run lossless, and 1 would lose every frame until the retransmit
    budget ran out.
    """
    from repro.config import ConfigError

    for medium in ("ring", "fabric"):
        rate = getattr(config, medium).loss_rate
        if not 0.0 <= rate < 1.0:
            raise ConfigError(
                f"{medium}.loss_rate", rate, ("[0, 1)",),
                message=f"{medium}.loss_rate={rate!r} is out of range; "
                "a loss rate must be in [0, 1)",
            )
    backend = config.fabric.backend
    ignored, read = ("fabric", "ring") if backend == "ring" else ("ring", "fabric")
    loss = getattr(config, ignored).loss_rate
    if loss and backend in FABRIC_BACKENDS:
        raise ConfigError(
            f"{ignored}.loss_rate", loss, (f"{read}.loss_rate",),
            suggestion=f"{read}.loss_rate",
            message=f"{ignored}.loss_rate={loss!r} is ignored by the {backend!r} "
            f"backend, whose loss knob is {read}.loss_rate",
        )
    if backend == "ring":
        from repro.net.ring import TokenRing

        # The rng stream name predates the fabric abstraction; keeping
        # it preserves every committed golden schedule bit-for-bit.
        return TokenRing(
            sim, config.ring, config.nodes, rngs.stream("ring"), trace, obs=obs
        )
    if backend == "switched":
        from repro.net.fabric.switched import SwitchedFabric

        rng: "np.random.Generator | None" = (
            rngs.stream("fabric") if config.fabric.loss_rate > 0.0 else None
        )
        return SwitchedFabric(
            sim, config.fabric, config.nodes, rng, trace, obs=obs
        )

    import difflib

    known = tuple(sorted(FABRIC_BACKENDS))
    close = difflib.get_close_matches(str(backend), known, n=1, cutoff=0.6)
    raise ConfigError(
        "fabric.backend", backend, known, suggestion=close[0] if close else None
    )
