"""Unit tests for the physical frame pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.ivy import Ivy
from repro.config import ClusterConfig, ConfigError
from repro.machine.memory import FramePressure, PhysicalMemory


def test_install_and_read_back():
    mem = PhysicalMemory(page_size=64, frames=4)
    data = np.arange(64, dtype=np.uint8)
    mem.install(5, data)
    assert 5 in mem
    assert np.array_equal(mem.data(5), data)


def test_install_zero_fills_by_default():
    mem = PhysicalMemory(page_size=32, frames=None)
    frame = mem.install(0)
    assert np.all(frame == 0)


def test_capacity_enforced():
    mem = PhysicalMemory(page_size=16, frames=2)
    mem.install(0)
    mem.install(1)
    assert mem.full
    with pytest.raises(FramePressure):
        mem.install(2)
    # Reinstall of a resident page is fine even when full.
    mem.install(1, np.ones(16, dtype=np.uint8))


def test_lru_victim_is_least_recently_used():
    mem = PhysicalMemory(page_size=16, frames=3)
    mem.install(10)
    mem.install(11)
    mem.install(12)
    mem.touch(10)  # 11 is now the coldest
    assert mem.lru_victim() == 11


def test_pinning_excludes_from_eviction():
    mem = PhysicalMemory(page_size=16, frames=2)
    mem.install(0)
    mem.install(1)
    mem.pin(0)
    # 0 is older but pinned.
    assert mem.lru_victim() == 1
    mem.pin(1)
    with pytest.raises(FramePressure):
        mem.lru_victim()
    mem.unpin(0)
    assert mem.lru_victim() == 0


def test_nested_pins():
    mem = PhysicalMemory(page_size=16, frames=None)
    mem.install(3)
    mem.pin(3)
    mem.pin(3)
    mem.unpin(3)
    assert mem.pinned(3)
    mem.unpin(3)
    assert not mem.pinned(3)
    with pytest.raises(RuntimeError):
        mem.unpin(3)


def test_drop_rejects_pinned_pages():
    mem = PhysicalMemory(page_size=16, frames=None)
    mem.install(1)
    mem.pin(1)
    with pytest.raises(RuntimeError):
        mem.drop(1)
    mem.unpin(1)
    mem.drop(1)
    assert 1 not in mem


def test_drop_clears_recency_and_reinstall_starts_hot():
    # Evicting a page must leave no recency residue: after a reinstall
    # the page re-enters as the *hottest* frame, never inheriting the
    # stale position (or stamp, pre-O(1)-LRU) it held before the drop.
    mem = PhysicalMemory(page_size=16, frames=3)
    mem.install(0)
    mem.install(1)
    mem.install(2)
    mem.drop(0)  # 0 was the coldest
    assert 0 not in mem._recency
    mem.install(0)  # back in, now the hottest
    assert mem.lru_victim() == 1
    assert list(mem._recency) == [1, 2, 0]


def test_touch_of_non_resident_page_is_rejected():
    # Touching a dropped page used to silently resurrect a recency entry
    # for a frame that no longer exists; now it asserts.
    mem = PhysicalMemory(page_size=16, frames=3)
    mem.install(7)
    mem.drop(7)
    with pytest.raises(AssertionError):
        mem.touch(7)


def test_data_of_missing_page_raises():
    mem = PhysicalMemory(page_size=16, frames=None)
    with pytest.raises(KeyError):
        mem.data(99)


def test_wrong_size_install_rejected():
    mem = PhysicalMemory(page_size=16, frames=None)
    with pytest.raises(ValueError):
        mem.install(0, np.zeros(8, dtype=np.uint8))


def test_tiny_capacity_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(page_size=16, frames=1)


@pytest.mark.parametrize("frames", [0, 1, -3])
def test_too_few_frames_is_a_config_error(frames):
    with pytest.raises(ConfigError) as excinfo:
        Ivy(ClusterConfig().with_memory(frames=frames))
    err = excinfo.value
    assert (err.field, err.value) == ("memory.frames", frames)
    assert isinstance(err, ValueError)


def test_random_replacement_requires_an_rng():
    # It used to fall back to strict LRU silently.
    with pytest.raises(ValueError, match="rng"):
        PhysicalMemory(page_size=16, frames=4, replacement="random")


class _ScanVictim(PhysicalMemory):
    """The pre-index random victim: list and sort every candidate."""

    def lru_victim(self, skip=None):
        candidates = [
            page
            for page in self._frames
            if not self._pins.get(page, 0) and (skip is None or page not in skip)
        ]
        if not candidates:
            raise FramePressure("all resident pages are pinned")
        candidates.sort()
        return int(candidates[self._rng.integers(len(candidates))])


_PAGES = st.integers(0, 11)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), _PAGES),
        st.tuples(st.just("drop"), _PAGES),
        st.tuples(st.just("pin"), _PAGES),
        st.tuples(st.just("unpin"), _PAGES),
        st.tuples(st.just("victim"), st.frozensets(_PAGES, max_size=4)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(2, 8), ops=_OPS)
def test_indexed_random_victim_matches_the_sorted_scan(seed, frames, ops):
    fast = PhysicalMemory(
        16, frames, replacement="random", rng=np.random.default_rng(seed)
    )
    slow = _ScanVictim(
        16, frames, replacement="random", rng=np.random.default_rng(seed)
    )
    for op, arg in ops:
        if op == "victim":
            # Vetoes, like pins, may name pages that are not resident.
            got = []
            for mem in (fast, slow):
                try:
                    got.append(mem.lru_victim(set(arg)))
                except FramePressure:
                    got.append(FramePressure)
            assert got[0] == got[1]
        elif op == "install":
            if arg in fast or not fast.full:
                fast.install(arg)
                slow.install(arg)
        elif op == "drop":
            if not fast.pinned(arg):
                fast.drop(arg)
                slow.drop(arg)
        elif op == "pin":
            fast.pin(arg)
            slow.pin(arg)
        elif fast.pinned(arg):
            fast.unpin(arg)
            slow.unpin(arg)
        assert fast._sorted == sorted(fast._frames)
    assert fast.resident_pages() == slow.resident_pages()


@pytest.mark.parametrize("policy, suggestion", [("fifo", None), ("randm", "random")])
def test_unknown_replacement_policy_is_a_config_error(policy, suggestion):
    from repro.api.cluster import Cluster

    with pytest.raises(ConfigError) as excinfo:
        Cluster(ClusterConfig(nodes=2).with_memory(frames=8, replacement=policy))
    err = excinfo.value
    assert (err.field, err.value, err.known) == (
        "memory.replacement", policy, ("lru", "random")
    )
    assert err.suggestion == suggestion
    assert isinstance(err, ValueError)  # callers catching ValueError still do
