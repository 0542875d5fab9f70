"""Event queue and simulated clock: the simulator's one event kernel.

The simulator is a classic discrete-event loop over a binary heap of
``(time, seq, callback, args)`` entries.  ``seq`` is a global monotonic
counter so that events scheduled at the same tick fire in scheduling
order — this is what makes every run bit-for-bit reproducible.  (A
calendar-queue timer lane was tried as an alternative kernel; on the
paper workloads of ``perfbench/`` it was within noise of this heap, so
it was removed.)

Two wall-clock fast paths ride on that invariant without changing it:

* **Same-tick FIFO lane.**  A ``schedule(0, ...)`` call made while no
  :class:`Scheduler` is installed lands in a deque instead of the heap.
  Because ``seq`` is globally monotonic, everything already queued for
  the current tick has a *smaller* seq than a freshly scheduled delay-0
  event, so draining the deque in FIFO order — merged against the heap
  front by ``(time, seq)`` — fires events in exactly the order the
  heap-only loop would.  The deque is always empty by the time the
  clock advances, and :meth:`_run_controlled` flushes it back into the
  heap so the schedule explorer sees one uniform queue.
* **``schedule_nocancel``.**  Most events are never cancelled; the
  nocancel variants skip the per-event :class:`CancelHandle` allocation
  by sharing one immortal handle.  (Slotted event records were measured
  *slower* than plain tuples under ``heapq`` — tuple comparison is C,
  ``__lt__`` dispatch is not — so heap entries stay 6-tuples.)

Same-tick ordering is also the *only* nondeterminism a distributed
schedule has in this model, which makes it a controlled choice point:
installing a :class:`Scheduler` on :attr:`Simulator.scheduler` lets a
model checker (`repro.analysis.explore`) pick which of several events
tied at one tick fires first.  With no scheduler installed the loop is
untouched — seq order, bit-for-bit identical to the historical behavior.

Global deadlock is *detectable*: if the heap drains while registered
tasks are still blocked, :meth:`Simulator.run` raises
:class:`DeadlockError` listing the stuck tasks.  The coherence-protocol
stress tests rely on this to turn distributed deadlocks into loud,
shrinkable failures instead of hangs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "Simulator",
    "CalendarSimulator",
    "DeadlockError",
    "CancelHandle",
    "PendingEvent",
    "Scheduler",
]


class DeadlockError(RuntimeError):
    """The event queue drained while tasks were still blocked."""

    def __init__(self, blocked: Iterable[Any]) -> None:
        self.blocked = list(blocked)
        names = ", ".join(str(t) for t in self.blocked) or "<unknown>"
        super().__init__(f"simulation deadlock: event queue empty with blocked tasks: {names}")


class CancelHandle:
    """Handle returned by :meth:`Simulator.schedule`; lets the caller
    cancel a pending event (used by retransmission timers)."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


#: Shared handle for events nobody can cancel (``schedule_nocancel``).
#: One allocation for the lifetime of the process instead of one per event.
_NEVER_CANCELLED = CancelHandle()


class PendingEvent:
    """One live event offered to a :class:`Scheduler` at a choice point.

    ``seq`` is the event's global sequence number (the default tiebreak:
    the event with the lowest ``seq`` is what an uncontrolled run would
    fire).  ``label`` is the scheduling annotation supplied at
    :meth:`Simulator.schedule` time — e.g. ``deliver:n1:p0:...`` for a
    message delivery — which is what lets an explorer decide whether two
    choices commute.
    """

    __slots__ = ("seq", "label")

    def __init__(self, seq: int, label: str | None) -> None:
        self.seq = seq
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PendingEvent(seq={self.seq}, label={self.label!r})"


class Scheduler:
    """Same-tick ordering policy, consulted only when installed.

    :meth:`choose` is called whenever two or more live events are ready
    at the same tick; it returns the index (into ``events``, which is
    sorted by ``seq``) of the event to fire next.  The remaining events
    stay queued at the same tick with their original sequence numbers,
    so the scheduler is consulted again — with whatever new same-tick
    events the fired one scheduled — until the tick drains.  Returning 0
    everywhere reproduces the default seq order exactly.
    """

    def choose(self, now: int, events: Sequence[PendingEvent]) -> int:
        raise NotImplementedError


class Simulator:
    """A deterministic discrete-event simulator with an integer clock."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[
            tuple[int, int, CancelHandle, Callable[..., None], tuple[Any, ...], str | None]
        ] = []
        #: Delay-0 events scheduled while no Scheduler is installed; always
        #: drained before the clock advances (see module docstring).  Same
        #: 6-tuple layout as the heap so entries can be folded back in.
        self._fifo: deque[
            tuple[int, int, CancelHandle, Callable[..., None], tuple[Any, ...], str | None]
        ] = deque()
        self._seq: int = 0
        #: Number of events executed so far (profiling / regression metric).
        self.events_executed: int = 0
        #: Tasks that must be runnable or finished for the sim to be "done";
        #: registered by drivers so deadlock detection knows who is stuck.
        self._watched: list[Any] = []
        #: First unhandled exception raised by a task, re-raised by run().
        self._failure: BaseException | None = None
        #: Same-tick ordering policy.  None (the default) keeps the
        #: historical seq order on the untouched fast path; the schedule
        #: explorer installs one to turn ties into choice points.
        self.scheduler: Scheduler | None = None

    def clock(self) -> Callable[[], int]:
        """A zero-argument callable reading the current simulated time.

        Observability layers (trace recorders, span tracers) bind this
        rather than holding the simulator, so they can stamp records
        without any ability to perturb the schedule.
        """
        return lambda: self.now

    # ------------------------------------------------------------------
    # scheduling

    def schedule(
        self, delay: int, fn: Callable[..., None], *args: Any, label: str | None = None
    ) -> CancelHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ticks from now.

        ``delay`` must be non-negative.  Returns a :class:`CancelHandle`.
        ``label`` annotates the event for a :class:`Scheduler` (unused —
        and free — when no scheduler is installed).
        """
        handle = CancelHandle()
        self._seq += 1
        if delay == 0 and self.scheduler is None:
            self._fifo.append((self.now, self._seq, handle, fn, args, label))
        elif delay < 0:
            raise ValueError(f"negative delay {delay}")
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, handle, fn, args, label))
        return handle

    def schedule_nocancel(
        self, delay: int, fn: Callable[..., None], *args: Any, label: str | None = None
    ) -> None:
        """:meth:`schedule` without the per-event handle allocation.

        For the ~90% of events nobody ever cancels (deliveries, wakeups,
        dispatches).  Fires in exactly the position :meth:`schedule`
        would have used — same seq, same ordering — but returns nothing.
        """
        self._seq += 1
        if delay == 0 and self.scheduler is None:
            self._fifo.append((self.now, self._seq, _NEVER_CANCELLED, fn, args, label))
        elif delay < 0:
            raise ValueError(f"negative delay {delay}")
        else:
            heapq.heappush(
                self._heap, (self.now + delay, self._seq, _NEVER_CANCELLED, fn, args, label)
            )

    def schedule_at(
        self, when: int, fn: Callable[..., None], *args: Any, label: str | None = None
    ) -> CancelHandle:
        """Schedule ``fn(*args)`` at absolute time ``when`` (>= now)."""
        return self.schedule(when - self.now, fn, *args, label=label)

    def schedule_at_nocancel(
        self, when: int, fn: Callable[..., None], *args: Any, label: str | None = None
    ) -> None:
        """:meth:`schedule_at` without the per-event handle allocation."""
        self.schedule_nocancel(when - self.now, fn, *args, label=label)

    # ------------------------------------------------------------------
    # deadlock bookkeeping

    def watch(self, task: Any) -> None:
        """Register a task for deadlock detection.

        Watched objects must expose ``is_blocked`` (bool).
        """
        self._watched.append(task)

    def report_failure(self, exc: BaseException) -> None:
        """Record a fatal task failure; :meth:`run` re-raises it promptly."""
        if self._failure is None:
            self._failure = exc

    # ------------------------------------------------------------------
    # execution

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains (or ``until`` / ``max_events``).

        Returns the simulated time at which execution stopped.  Raises
        :class:`DeadlockError` if the queue drains with blocked tasks, and
        re-raises the first unhandled task exception.
        """
        if self.scheduler is not None:
            return self._run_controlled(self.scheduler, until, max_events)
        heap = self._heap
        fifo = self._fifo
        heappop = heapq.heappop
        budget = max_events if max_events is not None else -1
        while True:
            if self._failure is not None:
                exc, self._failure = self._failure, None
                raise exc
            # Skip cancelled tombstones at both queue fronts before peeking.
            while heap and heap[0][2].cancelled:
                heappop(heap)
            while fifo and fifo[0][2].cancelled:
                fifo.popleft()
            # Pick the next live event by (time, seq) across both lanes.
            # FIFO entries are all at the current tick; a heap entry beats
            # them only if it is also at the current tick with a lower seq.
            if fifo:
                if heap and heap[0][0] == self.now and heap[0][1] < fifo[0][1]:
                    use_fifo = False
                    when = heap[0][0]
                else:
                    use_fifo = True
                    when = self.now
            elif heap:
                use_fifo = False
                when = heap[0][0]
            else:
                break
            if until is not None and when > until:
                # Stop the clock at `until`; pending events stay queued.
                # Fold the FIFO lane into the heap: entries carry their
                # true (time, seq), and `now` is about to move away from
                # the tick the lane's fast merge assumes.
                while fifo:
                    heapq.heappush(heap, fifo.popleft())
                self.now = until
                return until
            if use_fifo:
                _when, _seq, _handle, fn, args, _label = fifo.popleft()
                self.now = when
            else:
                when, _seq, _handle, fn, args, _label = heappop(heap)
                self.now = when
            self.events_executed += 1
            fn(*args)
            if budget > 0:
                budget -= 1
                if budget == 0:
                    return self.now
        if self._failure is not None:
            exc, self._failure = self._failure, None
            raise exc
        blocked = [t for t in self._watched if getattr(t, "is_blocked", False)]
        if blocked and until is None:
            raise DeadlockError(blocked)
        return self.now

    def _run_controlled(
        self, scheduler: Scheduler, until: int | None, max_events: int | None
    ) -> int:
        """The run loop with same-tick ordering delegated to ``scheduler``.

        Mirrors :meth:`run` exactly except that when several live events
        share the front tick, the scheduler picks which fires; the rest
        are re-queued with their original sequence numbers.  Cancellation
        still wins against a same-tick fire: tombstones are filtered both
        while gathering the tick's batch and again after re-queueing (a
        chosen event that cancels a sibling prevents it from running).
        """
        heap = self._heap
        # Events scheduled before the scheduler was installed may sit in
        # the delay-0 FIFO lane; fold them into the heap (original seqs)
        # so the explorer sees one uniform queue.  While a scheduler is
        # installed, `schedule` never adds to the FIFO.
        fifo = self._fifo
        while fifo:
            heapq.heappush(heap, fifo.popleft())
        budget = max_events
        while heap:
            if self._failure is not None:
                exc, self._failure = self._failure, None
                raise exc
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            batch = []
            while heap and heap[0][0] == when:
                entry = heapq.heappop(heap)
                if not entry[2].cancelled:
                    batch.append(entry)
            if not batch:
                continue
            if len(batch) == 1:
                index = 0
            else:
                index = scheduler.choose(
                    when, [PendingEvent(e[1], e[5]) for e in batch]
                )
                if not 0 <= index < len(batch):
                    raise IndexError(
                        f"scheduler chose {index} of {len(batch)} events at t={when}"
                    )
            chosen = batch[index]
            for pos, entry in enumerate(batch):
                if pos != index:
                    heapq.heappush(heap, entry)
            _when, _seq, _handle, fn, args, _label = chosen
            self.now = when
            self.events_executed += 1
            fn(*args)
            if budget is not None:
                budget -= 1
                if budget <= 0:
                    return self.now
        if self._failure is not None:
            exc, self._failure = self._failure, None
            raise exc
        blocked = [t for t in self._watched if getattr(t, "is_blocked", False)]
        if blocked and until is None:
            raise DeadlockError(blocked)
        return self.now

    def pending(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._heap) + len(self._fifo)


class CalendarSimulator(Simulator):
    """Former name of the calendar-queue kernel, now plain :class:`Simulator`.

    The calendar kernel did not beat the heap on any paper workload and
    was removed; the name survives for external code that imports it.
    It stays a distinct (memberless) subclass rather than an alias so
    that code patching ``Simulator`` and ``CalendarSimulator`` methods
    side by side never patches the same function twice.
    """
