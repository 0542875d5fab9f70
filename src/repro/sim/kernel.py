"""Event queue and simulated clock: the simulator's one event kernel.

The simulator is a classic discrete-event loop over one binary heap.
Each heap entry is a 5-element list ``[time, seq, fn, args, label]``.
``seq`` is a global monotonic counter, so events scheduled for the same
tick fire in scheduling order (and heap comparisons never reach ``fn``);
this is what makes every run bit-for-bit reproducible.  ``label`` is an
annotation read only by an installed :class:`Scheduler`.

:meth:`Simulator.schedule` returns the entry itself, and that entry is
the event's cancellation handle.  :meth:`Simulator.cancel` sets its
callback slot to ``None`` and drops its args: the entry becomes a
*tombstone* that holds nothing it carried but stays queued until it
reaches the heap front, where the run loop discards it unfired.
Cancelling an event that already fired, or cancelling twice, does
nothing.

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

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, NoReturn, Sequence

__all__ = [
    "Simulator",
    "CalendarSimulator",
    "DeadlockError",
    "Event",
    "PendingEvent",
    "Scheduler",
]

#: A queued event, ``[time, seq, fn, args, label]``; also its cancel handle.
#: ``fn is None`` marks a cancelled event (a tombstone).
Event = list[Any]


class DeadlockError(RuntimeError):
    """The event queue drained while tasks were still blocked."""

    def __init__(self, blocked: Iterable[Any]) -> None:
        self.blocked = list(blocked)
        names = ", ".join(str(t) for t in self.blocked) or "<unknown>"
        super().__init__(f"simulation deadlock: event queue empty with blocked tasks: {names}")


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
        self._heap: list[Event] = []
        self._seq: int = 0
        #: Number of events executed so far (profiling / regression metric).
        self.events_executed: int = 0
        #: Tasks that must be runnable or finished for the sim to be "done";
        #: registered by drivers so deadlock detection knows who is stuck.
        self._watched: list[Any] = []
        #: First unhandled exception raised by a task, re-raised by run().
        self._failure: BaseException | None = None
        #: Same-tick ordering policy.  None (the default) keeps the
        #: historical seq order; the schedule explorer installs one to
        #: turn ties into choice points.
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
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ticks from now.

        ``delay`` must be non-negative.  Returns the queued :data:`Event`,
        which :meth:`cancel` accepts.  ``label`` annotates the event for
        a :class:`Scheduler` (unused when no scheduler is installed).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        event = [self.now + delay, self._seq, fn, args, label]
        heappush(self._heap, event)
        return event

    def schedule_at(
        self, when: int, fn: Callable[..., None], *args: Any, label: str | None = None
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``when`` (>= now)."""
        return self.schedule(when - self.now, fn, *args, label=label)

    def cancel(self, event: Event) -> None:
        """Stop ``event`` from firing; it stays queued as a tombstone.

        Its args are dropped at once, so a cancelled far-future timer pins
        nothing.  A no-op for an event that already fired or was cancelled.
        """
        event[2] = None
        event[3] = ()

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

        Returns the simulated time at which execution stopped.  ``until``
        may not lie before :attr:`now` and ``max_events`` must be at least
        1 (both raise :class:`ValueError`).  Raises :class:`DeadlockError`
        if the queue drains with blocked tasks, and re-raises the first
        unhandled task exception.
        """
        if until is not None and until < self.now:
            raise ValueError(f"run(until={until}) would move the clock back from {self.now}")
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be at least 1, got {max_events}")
        if self.scheduler is not None:
            return self._run_controlled(self.scheduler, until, max_events)
        heap = self._heap
        budget = -1 if max_events is None else max_events
        while heap:
            if self._failure is not None:
                self._raise_failure()
            event = heap[0]
            fn = event[2]
            if fn is None:
                heappop(heap)
                continue
            when = event[0]
            if until is not None and when > until:
                # Stop the clock at `until`; pending events stay queued.
                self.now = until
                return until
            heappop(heap)
            self.now = when
            self.events_executed += 1
            fn(*event[3])
            budget -= 1
            if budget == 0:
                return self.now
        return self._drained(until)

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
        budget = max_events
        while heap:
            if self._failure is not None:
                self._raise_failure()
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            batch = []
            while heap and heap[0][0] == when:
                event = heappop(heap)
                if event[2] is not None:
                    batch.append(event)
            if not batch:
                continue
            if len(batch) == 1:
                index = 0
            else:
                index = scheduler.choose(
                    when, [PendingEvent(e[1], e[4]) for e in batch]
                )
                if not 0 <= index < len(batch):
                    raise IndexError(
                        f"scheduler chose {index} of {len(batch)} events at t={when}"
                    )
            chosen = batch[index]
            for pos, event in enumerate(batch):
                if pos != index:
                    heappush(heap, event)
            self.now = when
            self.events_executed += 1
            chosen[2](*chosen[3])
            if budget is not None:
                budget -= 1
                if budget == 0:
                    return self.now
        return self._drained(until)

    def _raise_failure(self) -> NoReturn:
        """Re-raise the first task failure (see :meth:`report_failure`)."""
        exc, self._failure = self._failure, None
        assert exc is not None
        raise exc

    def _drained(self, until: int | None) -> int:
        """End of a run whose queue emptied: surface failure or deadlock."""
        if self._failure is not None:
            self._raise_failure()
        blocked = [t for t in self._watched if getattr(t, "is_blocked", False)]
        if blocked and until is None:
            raise DeadlockError(blocked)
        return self.now

    def pending(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._heap)


class CalendarSimulator(Simulator):
    """Former name of the calendar-queue kernel, now plain :class:`Simulator`.

    The calendar kernel did not beat the heap on any paper workload and
    was removed; the name survives for external code that imports it.
    It stays a distinct (memberless) subclass rather than an alias so
    that code patching ``Simulator`` and ``CalendarSimulator`` methods
    side by side never patches the same function twice.
    """
