"""Unit/property tests for application building blocks: partitioning,
record codecs, bounds, and golden references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.common import partition
from repro.apps.pde3d import stencil_sweep
from repro.apps.sort import RECORD_BYTES, MergeSplitSortApp, _dtype
from repro.api.ivy import Ivy
from repro.apps import tsp
from repro.apps.tsp import (
    BoundTable,
    TspApp,
    _pack_entry,
    _unpack_entry,
    held_karp,
    mst_weight,
    tree_size,
)
from repro.config import ClusterConfig
from repro.exps.fig6 import ideal_speedup


@settings(max_examples=200)
@given(
    n=st.integers(min_value=0, max_value=1000),
    parts=st.integers(min_value=1, max_value=16),
)
def test_partition_covers_range_disjointly(n, parts):
    slices = partition(n, parts)
    assert len(slices) == parts
    cursor = 0
    for lo, hi in slices:
        assert lo == cursor
        assert hi >= lo
        cursor = hi
    assert cursor == n
    sizes = [hi - lo for lo, hi in slices]
    assert max(sizes) - min(sizes) <= 1  # near-equal


def test_partition_rejects_zero_parts():
    with pytest.raises(ValueError):
        partition(10, 0)


def test_stencil_sweep_zero_boundary():
    m = 5
    b = np.zeros((m, m, m))
    u = np.ones((m, m, m))
    out = stencil_sweep(u, b)
    # An interior point has 6 neighbours of 1.0 -> 1.0; a corner has 3.
    assert out[2, 2, 2] == pytest.approx(1.0)
    assert out[0, 0, 0] == pytest.approx(0.5)


@settings(max_examples=100)
@given(
    cost=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    depth=st.integers(min_value=1, max_value=16),
    visited=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_tsp_entry_codec_roundtrip(cost, depth, visited):
    path = list(range(depth))
    raw = _pack_entry(cost, depth, visited, bytes(path))
    assert len(raw) == 8 + 8 + 8 + 16
    out_cost, out_depth, out_visited, out_path = _unpack_entry(
        np.frombuffer(raw, dtype=np.uint8)
    )
    assert out_cost == cost
    assert out_depth == depth
    assert out_visited == visited
    assert out_path == path


def test_mst_weight_known_graph():
    w = np.array(
        [
            [0.0, 1.0, 4.0],
            [1.0, 0.0, 2.0],
            [4.0, 2.0, 0.0],
        ]
    )
    assert mst_weight(w, [0, 1, 2]) == pytest.approx(3.0)  # edges 1 + 2
    assert mst_weight(w, [0]) == 0.0
    assert mst_weight(w, []) == 0.0


def test_tsp_bound_is_admissible_everywhere():
    """The 1-tree (MST) bound must never exceed the true optimal
    completion — otherwise branch-and-bound could prune the optimum."""
    app = TspApp(1, ncities=7)
    optimal = app.golden()
    # Root bound: MST over all cities <= optimal tour.
    assert mst_weight(app.w, list(range(7))) <= optimal + 1e-9


@pytest.mark.parametrize("n", [8, 12])
def test_bound_table_is_bit_exact_for_every_key(n):
    """Every ``(visited, nxt)`` pair (a superset of those the search
    asks about) gets exactly the float ``mst_weight`` gives for the node
    list the search used to build, on the miss and on the hit, and the
    arithmetic tree size is that list's length.  12 cities puts ``nxt``
    past 3 bits of the key."""
    w = TspApp(1, ncities=n, metric="random").w.tolist()
    table = BoundTable(w)
    pairs = 0
    for others in range(1 << (n - 1)):
        visited = 1 | (others << 1)  # every tour starts at city 0
        for nxt in range(1, n):
            if visited & (1 << nxt):
                continue
            tree_nodes = [0, nxt] + [
                c for c in range(n) if not visited & (1 << c) and c != nxt
            ]
            expected = mst_weight(w, tree_nodes)
            key = (visited << 4) | nxt
            assert key not in table
            assert table[key] == expected
            assert table[key] == expected
            assert tree_size(n, visited) == len(tree_nodes)
            pairs += 1
    assert pairs == len(table) == (n - 1) * 2 ** (n - 2)  # nxt, the rest in/out


@pytest.mark.parametrize("nprocs", [1, 4])
def test_bound_table_lives_for_one_run(nprocs, monkeypatch):
    """Running one app object twice repeats the run exactly, and the
    second run computes every bound afresh: no table outlives a run."""
    misses = []

    class CountingTable(BoundTable):
        def __missing__(self, key):
            misses[-1] += 1
            return super().__missing__(key)

    monkeypatch.setattr(tsp, "BoundTable", CountingTable)
    app = TspApp(nprocs, ncities=8)
    runs = []
    for _ in range(2):
        misses.append(0)
        ivy = Ivy(ClusterConfig(nodes=nprocs))
        app.check(ivy.run(app.main))
        expanded = ivy.cluster.total_counters()["tsp_nodes_expanded"]
        runs.append((ivy.cluster.sim.events_executed, ivy.time_ns, expanded))
    assert runs[0] == runs[1]
    assert misses[0] == misses[1] > 0


def test_held_karp_small_instances():
    # Triangle: the only tour is the triangle itself.
    w = np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]], dtype=float)
    assert held_karp(w) == pytest.approx(9.0)
    # Square with cheap perimeter.
    w = np.full((4, 4), 10.0)
    np.fill_diagonal(w, 0.0)
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        w[a, b] = w[b, a] = 1.0
    assert held_karp(w) == pytest.approx(4.0)


def test_sort_record_dtype_is_64_bytes():
    assert _dtype.itemsize == RECORD_BYTES
    app = MergeSplitSortApp(2, nrecords=64)
    assert app.records.nbytes == 64 * RECORD_BYTES
    # Keys survive the uint8 view round-trip used by the SVM path.
    raw = app.records.view(np.uint8)
    back = np.ascontiguousarray(raw).view(_dtype)
    assert np.array_equal(back["key"], app.records["key"])


def test_sort_rounds_records_up_to_block_multiple():
    app = MergeSplitSortApp(3, nrecords=100)
    assert app.nrecords % (2 * 3) == 0
    assert app.nrecords >= 100


def test_fig6_ideal_speedup_is_sublinear_and_monotone_in_n():
    for p in (2, 4, 8):
        assert 1.0 < ideal_speedup(4096, p) < p
    # More records help (the internal-sort log factor grows).
    assert ideal_speedup(65536, 8) > ideal_speedup(1024, 8)
