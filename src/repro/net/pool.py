"""Page-snapshot buffer pool: what bounds the reply caches' memory.

Every page transfer ships a snapshot of the owner's frame: the server
copies the frame into a page-sized ``uint8`` buffer at serve time (a
zero-copy view would be unsafe, because the owner may write the frame
while the reply is in flight).  The transport's reply cache
(``Transport._reply_cache``) then keeps the served *value* of every
request for the whole run, so a duplicate request can be answered
without re-executing it.  Without a pool every cached page reply pins
its own snapshot: on ``scale``'s 256-node fig4-class run that is 17,581
page snapshots (137 MiB of page data) among 31,745 cache entries.

The pool lets those cached values share recycled buffers instead: the
*unicast requester* gives each buffer back once ``memory.install`` has
copied its bytes into the local frame (or once it is proven stale), and
the next snapshot reuses it.  The same run then holds 118 buffers, and
dropping the pool raises its peak RSS by about a fifth.  A reply-cache
resend may ship a recycled buffer, but only to an origin whose request
already completed; the transport drops that duplicate before anything
reads the payload.  Multicast payloads (the update policy's page
pushes) are shared by every receiver of one frame and are therefore
*never* pooled: no single point could give them back.

The pool is deterministic by construction: it holds no clock and no
randomness, and reuse order is a pure function of the (deterministic)
schedule.  The ``repro.sim``/``repro.net`` determinism lint covers this
module; nothing here may key anything on ``id()``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PagePool"]


class PagePool:
    """Free-list of page-sized ``uint8`` snapshot buffers, one per fabric.

    Buffers are keyed by length — one cluster has one page size, but the
    pool does not need to assume it.
    """

    __slots__ = ("_free", "allocated", "reused")

    def __init__(self) -> None:
        self._free: dict[int, list[np.ndarray]] = {}
        self.allocated = 0
        self.reused = 0

    def copy_of(self, frame: np.ndarray) -> np.ndarray:
        """A snapshot of ``frame`` in a pooled buffer (contents copied)."""
        stack = self._free.get(frame.nbytes)
        if stack:
            buf = stack.pop()
            buf[:] = frame
            self.reused += 1
            return buf
        self.allocated += 1
        return frame.copy()

    def give(self, buf: np.ndarray) -> None:
        """Return a buffer whose contents are dead (installed or stale).

        Callers must give each buffer back at most once, from exactly
        one place — the unicast requester that consumed it.
        """
        self._free.setdefault(buf.nbytes, []).append(buf)
