"""The fabric abstraction: backend registry, switched medium model,
per-link stats, and ring/switched behavioural parity at the interface."""

import numpy as np
import pytest

from repro.config import ClusterConfig, ConfigError, FabricConfig
from repro.net.fabric import FABRIC_BACKENDS, Fabric, LinkStats, make_fabric
from repro.net.fabric.switched import SwitchedFabric
from repro.net.packet import BROADCAST, Message
from repro.net.ring import TokenRing
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams


def msg(src, dst, nbytes=100, op="ping"):
    return Message(
        src=src, dst=dst, kind="req", op=op, origin=src, msg_id=1,
        payload=None, nbytes=nbytes,
    )


def make_switched(nnodes=4, **cfg):
    sim = Simulator()
    config = FabricConfig(backend="switched", **cfg)
    fabric = SwitchedFabric(sim, config, nnodes)
    inboxes = {n: [] for n in range(nnodes)}
    arrivals = {n: [] for n in range(nnodes)}
    for n in range(nnodes):
        def receive(m, n=n):
            inboxes[n].append(m)
            arrivals[n].append(sim.now)
        fabric.attach(n, receive)
    return sim, fabric, inboxes, arrivals


# ----------------------------------------------------------------------
# backend registry


def _mk(config):
    return make_fabric(Simulator(), config, RngStreams(config.seed))


def test_make_fabric_dispatches_on_backend_name():
    assert isinstance(_mk(ClusterConfig(nodes=3)), TokenRing)
    assert isinstance(
        _mk(ClusterConfig(nodes=3).with_fabric(backend="switched")),
        SwitchedFabric,
    )


def test_backends_carry_their_registry_name():
    for backend in FABRIC_BACKENDS:
        fabric = _mk(ClusterConfig(nodes=2).with_fabric(backend=backend))
        assert fabric.name == backend
        assert isinstance(fabric, Fabric)


def test_unknown_backend_raises_structured_config_error():
    config = ClusterConfig(nodes=2).with_fabric(backend="switchd")
    with pytest.raises(ConfigError) as excinfo:
        _mk(config)
    err = excinfo.value
    assert err.field == "fabric.backend"
    assert err.value == "switchd"
    assert err.known == ("ring", "switched")
    assert err.suggestion == "switched"
    assert "did you mean 'switched'?" in str(err)


def test_unrelated_backend_name_gets_no_suggestion():
    with pytest.raises(ConfigError) as excinfo:
        _mk(ClusterConfig(nodes=2).with_fabric(backend="carrier-pigeon"))
    assert excinfo.value.suggestion is None
    assert "did you mean" not in str(excinfo.value)


def test_cluster_raises_config_error_for_unknown_backend():
    from repro.api.cluster import Cluster

    with pytest.raises(ConfigError):
        Cluster(ClusterConfig(nodes=2).with_fabric(backend="rnig"))


@pytest.mark.parametrize(
    "backend, ignored, read",
    [("ring", "fabric.loss_rate", "ring.loss_rate"),
     ("switched", "ring.loss_rate", "fabric.loss_rate")],
)
def test_loss_knob_the_backend_ignores_is_a_config_error(backend, ignored, read):
    from repro.api.cluster import Cluster

    config = ClusterConfig(nodes=4).with_fabric(backend=backend)
    wrong = (
        config.with_fabric(loss_rate=0.3) if ignored.startswith("fabric")
        else config.with_ring(loss_rate=0.3)
    )
    with pytest.raises(ConfigError) as excinfo:
        Cluster(wrong)
    err = excinfo.value
    assert (err.field, err.value, err.known) == (ignored, 0.3, (read,))
    assert read in str(err)
    # The knob the backend does read is accepted.
    right = (
        config.with_ring(loss_rate=0.3) if read.startswith("ring")
        else config.with_fabric(loss_rate=0.3)
    )
    assert Cluster(right).fabric.name == backend


@pytest.mark.parametrize("rate", [-0.5, 1.0])
@pytest.mark.parametrize("medium", ["ring", "fabric"])
@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_loss_rate_outside_unit_interval_is_a_config_error(backend, medium, rate):
    """Neither knob may leave [0, 1), on either backend: -0.5 used to run
    lossless and 1.0 to fail only after the retransmit budget ran out."""
    from repro.api.cluster import Cluster

    config = ClusterConfig(nodes=2).with_fabric(backend=backend)
    config = (
        config.with_ring(loss_rate=rate) if medium == "ring"
        else config.with_fabric(loss_rate=rate)
    )
    with pytest.raises(ConfigError) as excinfo:
        Cluster(config)
    err = excinfo.value
    field = f"{medium}.loss_rate"
    assert (err.field, err.value, err.known) == (field, rate, ("[0, 1)",))
    assert field in str(err) and "[0, 1)" in str(err)


# ----------------------------------------------------------------------
# switched medium model: timing


def test_switched_occupancy_includes_overhead_and_wire_time():
    _, fabric, _, _ = make_switched(
        link_bandwidth_bps=100_000_000, link_overhead=30_000
    )
    # 1250 bytes -> 1250*8 bits / 100 Mbit/s = 100 microseconds of wire.
    assert fabric.occupancy_ns(1250) == 30_000 + 100_000


def test_switched_unicast_hop_timing():
    sim, fabric, _, arrivals = make_switched(
        switch_latency=10_000, delivery_latency=20_000
    )
    occ = fabric.occupancy_ns(100)
    fabric.send(msg(0, 1))
    sim.run()
    # egress occupancy + crossbar + ingress occupancy + receiver DMA.
    assert arrivals[1] == [2 * occ + 10_000 + 20_000]


def test_disjoint_pairs_transmit_concurrently():
    sim, fabric, _, arrivals = make_switched(nnodes=4)
    fabric.send(msg(0, 1))
    fabric.send(msg(2, 3))
    sim.run()
    # Unlike the shared ring, the second pair does not queue behind the
    # first: both deliveries land at the identical time.
    assert arrivals[1] == arrivals[3]


def test_same_source_sends_queue_fifo_on_the_egress_port():
    sim, fabric, _, arrivals = make_switched(nnodes=4)
    occ = fabric.occupancy_ns(100)
    fabric.send(msg(0, 1))
    fabric.send(msg(0, 2))
    sim.run()
    assert arrivals[2][0] - arrivals[1][0] == occ


def test_same_destination_sends_queue_fifo_on_the_ingress_port():
    sim, fabric, _, arrivals = make_switched(nnodes=4)
    occ = fabric.occupancy_ns(100)
    fabric.send(msg(0, 2))
    fabric.send(msg(1, 2))
    sim.run()
    assert len(arrivals[2]) == 2
    assert arrivals[2][1] - arrivals[2][0] == occ


def test_switched_self_send_and_out_of_range_rejected():
    _, fabric, _, _ = make_switched()
    with pytest.raises(ValueError):
        fabric.send(msg(1, 1))
    with pytest.raises(ValueError):
        fabric.send(msg(0, 9))


# ----------------------------------------------------------------------
# broadcast as a multicast tree


def test_broadcast_reaches_every_other_station_exactly_once():
    sim, fabric, inboxes, _ = make_switched(nnodes=8, multicast_fanout=2)
    fabric.send(msg(3, BROADCAST))
    sim.run()
    assert [len(inboxes[n]) for n in range(8)] == [1, 1, 1, 0, 1, 1, 1, 1]
    assert fabric.stats.broadcasts == 1


def test_multicast_tree_counts_relay_transmissions():
    sim, fabric, _, _ = make_switched(nnodes=8, multicast_fanout=2)
    fabric.send(msg(0, BROADCAST, nbytes=1000))
    sim.run()
    # 7 targets, fan-out 2: the source feeds 2, relays feed the other 5.
    assert fabric.stats.relays == 5
    # Every tree edge carries the full message — real fan-out cost.
    assert fabric.stats.bytes_sent == 7 * 1000


def test_multicast_relay_hops_arrive_later_than_root_fed_targets():
    sim, fabric, _, arrivals = make_switched(
        nnodes=8, multicast_fanout=2, relay_cost=40_000
    )
    fabric.send(msg(0, BROADCAST))
    sim.run()
    root_fed = max(arrivals[1][0], arrivals[2][0])   # tree positions 0, 1
    relay_fed = min(arrivals[n][0] for n in (3, 4, 5, 6, 7))
    assert relay_fed > root_fed


def test_broadcast_cost_scales_with_fanout():
    def total_time(k):
        sim, fabric, _, _ = make_switched(nnodes=16, multicast_fanout=k)
        fabric.send(msg(0, BROADCAST))
        return sim.run()

    # A wider tree is shallower: later leaves arrive sooner.
    assert total_time(8) < total_time(2)


# ----------------------------------------------------------------------
# loss and the explorer's drop hook


def test_switched_loss_drops_frames_deterministically():
    sim = Simulator()
    fabric = SwitchedFabric(
        sim, FabricConfig(backend="switched", loss_rate=1.0), 2,
        rng=np.random.default_rng(0),
    )
    got = []
    fabric.attach(0, got.append)
    fabric.attach(1, got.append)
    fabric.send(msg(0, 1))
    sim.run()
    assert got == []
    assert fabric.stats.lost_frames == 1


@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_drop_policy_attempt_numbering_is_identical_across_backends(backend):
    """The explorer's delay-injection strategy numbers (msg, target)
    attempts through drop_policy; both media must present the same
    deterministic sequence for a broadcast."""
    fabric = _mk(ClusterConfig(nodes=5).with_fabric(backend=backend))
    sim = fabric.sim
    for n in range(5):
        fabric.attach(n, lambda m: None)
    seen = []
    fabric.drop_policy = lambda m, target: (seen.append(target), False)[1]
    fabric.send(msg(1, BROADCAST))
    sim.run()
    assert seen == [0, 2, 3, 4]


def test_forced_drop_suppresses_only_that_target():
    sim, fabric, inboxes, _ = make_switched(nnodes=4, multicast_fanout=2)
    fabric.drop_policy = lambda m, target: target == 2
    fabric.send(msg(0, BROADCAST))
    sim.run()
    assert [len(inboxes[n]) for n in range(4)] == [0, 1, 0, 1]
    assert fabric.stats.lost_frames == 1


def test_forced_drop_does_not_change_other_targets_timing():
    """A lost frame must not perturb surviving deliveries (loss is drawn
    after all tree bookkeeping) — otherwise drop exploration would
    explore timings no real loss pattern produces."""
    sim1, fabric1, _, arrivals1 = make_switched(nnodes=8, multicast_fanout=2)
    fabric1.send(msg(0, BROADCAST))
    sim1.run()
    sim2, fabric2, _, arrivals2 = make_switched(nnodes=8, multicast_fanout=2)
    fabric2.drop_policy = lambda m, target: target == 1
    fabric2.send(msg(0, BROADCAST))
    sim2.run()
    for n in range(2, 8):
        assert arrivals1[n] == arrivals2[n]


# ----------------------------------------------------------------------
# FabricStats: per-link view on both backends


def test_ring_stats_expose_a_single_medium_link():
    sim = Simulator()
    ring = _mk(ClusterConfig(nodes=3))
    for n in range(3):
        ring.attach(n, lambda m: None)
    ring.send(msg(0, 1, nbytes=500))
    ring.send(msg(1, 2, nbytes=500))
    ring.sim.run()
    links = ring.stats.links()
    assert set(links) == {"medium"}
    assert links["medium"].messages == 2
    assert links["medium"].busy_ns == ring.stats.busy_ns
    # The second send queued behind the first: backlog was observed.
    assert links["medium"].peak_backlog_ns > 0


def test_switched_stats_expose_per_port_links():
    sim, fabric, _, _ = make_switched(nnodes=3)
    fabric.send(msg(0, 1))
    fabric.send(msg(0, 2))
    sim.run()
    links = fabric.stats.links()
    assert set(links) == {f"tx[{n}]" for n in range(3)} | {
        f"rx[{n}]" for n in range(3)
    }
    assert links["tx[0]"].messages == 2
    assert links["rx[1]"].messages == 1
    assert links["tx[1]"].messages == 0
    # The second send queued on node 0's egress port only.
    assert links["tx[0]"].peak_backlog_ns > 0
    assert links["rx[1]"].peak_backlog_ns == 0


def test_link_stats_utilisation():
    link = LinkStats()
    link.busy_ns = 250
    assert link.utilisation(1000) == 0.25
    assert link.utilisation(0) == 0.0


def test_format_fabric_stats_renders_both_backends():
    from repro.metrics.report import format_fabric_stats

    ring = _mk(ClusterConfig(nodes=2))
    ring.attach(0, lambda m: None)
    ring.attach(1, lambda m: None)
    ring.send(msg(0, 1))
    ring.sim.run()
    text = format_fabric_stats(ring.stats, ring.sim.now)
    assert "medium" in text and "messages=1" in text

    sim, fabric, _, _ = make_switched(nnodes=40)
    fabric.send(msg(0, 1))
    sim.run()
    text = format_fabric_stats(fabric.stats, sim.now, limit=4)
    assert "tx[0]" in text
    # 80 ports, 4 rows: the rest is summarised, not silently dropped.
    assert "(+76 more links)" in text


# ----------------------------------------------------------------------
# interface basics shared through the base class


def test_attach_validation_is_shared():
    _, fabric, _, _ = make_switched()
    with pytest.raises(ValueError):
        fabric.attach(0, lambda m: None)  # already attached
    with pytest.raises(ValueError):
        fabric.attach(9, lambda m: None)  # out of range


def test_fabric_base_requires_a_station():
    with pytest.raises(ValueError):
        SwitchedFabric(Simulator(), FabricConfig(backend="switched"), 0)
