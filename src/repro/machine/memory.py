"""Per-node physical page frames with approximate-LRU tracking.

A node's local memory is "a large cache of the shared virtual memory
address space" (the paper, Section "Shared Virtual Memory").  This class
is the frame pool backing that cache: bounded capacity, recency
tracking, and pinning (pages may not be evicted while a coherence
operation or an atomic synchronisation primitive is mid-flight).

Recency is an ordered dict used as an intrusive LRU list — a touch is an
O(1) move-to-back, a victim scan walks from the coldest end — replacing
the unbounded integer-stamp clock whose ``lru_victim`` rescanned every
frame.  Because the old stamps were unique and monotonic, min-stamp
order and touch order are the same total order: the victim choice (and
therefore the event schedule) is bit-for-bit unchanged.

Frames hold real bytes as ``numpy.uint8`` arrays; typed views are taken
by the shared address space, never copies (guide rule: views not copies).
"""

from __future__ import annotations

import difflib
from collections import OrderedDict

import numpy as np

from repro.config import ConfigError

__all__ = ["PhysicalMemory", "FramePressure"]

#: The legal ``memory.replacement`` values.
REPLACEMENT_POLICIES = ("lru", "random")


class FramePressure(RuntimeError):
    """No frame can be freed: every resident page is pinned."""


class PhysicalMemory:
    """A bounded pool of page frames keyed by shared-space page number."""

    def __init__(
        self,
        page_size: int,
        frames: int | None,
        replacement: str = "lru",
        rng: np.random.Generator | None = None,
    ) -> None:
        if frames is not None and frames < 2:
            raise ValueError("a node needs at least 2 page frames")
        if replacement not in REPLACEMENT_POLICIES:
            close = difflib.get_close_matches(
                str(replacement), REPLACEMENT_POLICIES, n=1, cutoff=0.6
            )
            raise ConfigError(
                "memory.replacement", replacement, REPLACEMENT_POLICIES,
                suggestion=close[0] if close else None,
            )
        self.page_size = page_size
        self.capacity = frames
        self.replacement = replacement
        self._rng = rng
        self._frames: dict[int, np.ndarray] = {}
        self._pins: dict[int, int] = {}
        #: Resident pages in recency order: coldest first, hottest last.
        #: Invariant: exactly the keys of ``_frames``.
        self._recency: OrderedDict[int, None] = OrderedDict()

    # ------------------------------------------------------------------

    def __contains__(self, page: int) -> bool:
        return page in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._frames) >= self.capacity

    def resident_pages(self) -> list[int]:
        return list(self._frames)

    def raw_frames(self) -> dict[int, np.ndarray]:
        """The live page->frame mapping, for data-plane fast paths.

        Read-only use; every access that would have gone through
        :meth:`data` must pair the lookup with a :meth:`raw_recency`
        ``move_to_end`` so the LRU order (and therefore the eviction
        schedule) stays bit-for-bit what :meth:`data` produces.
        """
        return self._frames

    def raw_recency(self) -> OrderedDict[int, None]:
        """The live recency order backing :meth:`raw_frames` fast paths."""
        return self._recency

    # ------------------------------------------------------------------

    def data(self, page: int) -> np.ndarray:
        """The frame contents of a resident page (a live view)."""
        frame = self._frames.get(page)
        if frame is None:
            raise KeyError(f"page {page} not resident")
        self._recency.move_to_end(page)
        return frame

    def touch(self, page: int) -> None:
        """Record a reference for LRU purposes (resident pages only —
        touching a non-resident page would resurrect a stale recency
        entry that later corrupts the victim order)."""
        assert page in self._frames, f"touch of non-resident page {page}"
        self._recency.move_to_end(page)

    def install(self, page: int, data: np.ndarray | None = None) -> np.ndarray:
        """Place ``page`` into a frame (caller must have ensured room).

        ``data`` is copied into the frame; None zero-fills.  Returns the
        frame array.
        """
        frame = self._frames.get(page)
        if frame is None:
            if self.full:
                raise FramePressure(f"no free frame for page {page}")
            # Zero-fill only when no contents follow — the copy below
            # overwrites every byte anyway.
            frame = (
                np.zeros(self.page_size, dtype=np.uint8)
                if data is None
                else np.empty(self.page_size, dtype=np.uint8)
            )
            self._frames[page] = frame
        if data is not None:
            if len(data) != self.page_size:
                raise ValueError(
                    f"page data is {len(data)} bytes, expected {self.page_size}"
                )
            frame[:] = data
        self._recency[page] = None
        self._recency.move_to_end(page)
        return frame

    def drop(self, page: int) -> None:
        """Release the frame of ``page`` (must be unpinned)."""
        if self._pins.get(page, 0):
            raise RuntimeError(f"dropping pinned page {page}")
        self._frames.pop(page, None)
        self._recency.pop(page, None)
        # A dropped page must leave no recency residue: a stale entry
        # would make a later reinstall inherit the old position.
        assert page not in self._recency and page not in self._frames

    # ------------------------------------------------------------------
    # pinning

    def pin(self, page: int) -> None:
        self._pins[page] = self._pins.get(page, 0) + 1

    def unpin(self, page: int) -> None:
        count = self._pins.get(page, 0)
        if count <= 0:
            raise RuntimeError(f"unpin of unpinned page {page}")
        if count == 1:
            del self._pins[page]
        else:
            self._pins[page] = count - 1

    def pinned(self, page: int) -> bool:
        return self._pins.get(page, 0) > 0

    # ------------------------------------------------------------------

    def lru_victim(self, skip: set[int] | None = None) -> int:
        """Pick an eviction victim per the configured replacement policy
        (strict LRU, or the random choice Aegis's sampled-use-bit clock
        degenerates to under cyclic sweeps).  Pinned and ``skip``-ped
        pages are never chosen; raises :class:`FramePressure` when no
        candidate exists."""
        if self.replacement == "random" and self._rng is not None:
            candidates = [
                page
                for page in self._frames
                if not self._pins.get(page, 0)
                and (skip is None or page not in skip)
            ]
            if not candidates:
                raise FramePressure("all resident pages are pinned")
            candidates.sort()  # determinism: dict order is insertion order
            return int(candidates[self._rng.integers(len(candidates))])
        pins = self._pins
        for page in self._recency:  # coldest first
            if pins.get(page, 0):
                continue
            if skip is not None and page in skip:
                continue
            return page
        raise FramePressure("all resident pages are pinned")
