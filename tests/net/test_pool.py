"""Unit tests for the page-snapshot pool, and the memory bound it buys."""

import numpy as np

from repro.api.ivy import Ivy
from repro.apps.jacobi import JacobiApp
from repro.config import ClusterConfig
from repro.net.pool import PagePool


def test_page_pool_copies_and_reuses_by_size():
    pool = PagePool()
    frame = np.arange(64, dtype=np.uint8)
    snap = pool.copy_of(frame)
    assert snap is not frame and bytes(snap) == bytes(frame)
    frame[:] = 0
    assert snap[1] == 1  # a real copy, not a view
    pool.give(snap)
    other = np.full(64, 7, dtype=np.uint8)
    again = pool.copy_of(other)
    assert again is snap  # recycled buffer of the matching size
    assert bytes(again) == bytes(other)
    assert pool.copy_of(np.zeros(128, dtype=np.uint8)).nbytes == 128
    assert (pool.allocated, pool.reused) == (2, 1)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_reply_caches_share_pooled_page_buffers():
    """The reply cache keeps every served value for the whole run; the
    pool is what stops each cached page reply pinning its own snapshot.
    Without it the distinct buffers would number the cached page replies."""
    app = JacobiApp(8, n=256, iters=12)
    ivy = Ivy(ClusterConfig(nodes=8))
    app.check(ivy.run(app.main))
    buffers = {}
    page_replies = 0
    for node in ivy.cluster.nodes:
        for cached in node.transport._reply_cache.values():
            if cached[0] != "done":
                continue
            found = list(_arrays(cached[1]))
            page_replies += bool(found)
            buffers.update((id(buf), buf) for buf in found)
    pages = ivy.cluster.fabric.pages
    assert 0 < len(buffers) <= pages.allocated
    assert page_replies >= 50 * pages.allocated
