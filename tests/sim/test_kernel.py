"""Unit tests for the discrete-event simulation kernel."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import DeadlockError, Scheduler, Simulator


class FirstChoice(Scheduler):
    """Always index 0 — reproduces the default seq order."""

    def choose(self, now, events):
        return 0


class LastChoice(Scheduler):
    """Always the highest seq — the maximally reordered schedule."""

    def choose(self, now, events):
        return len(events) - 1


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_break_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_monotonically():
    sim = Simulator()
    stamps = []
    sim.schedule(10, lambda: stamps.append(sim.now))
    sim.schedule(10, lambda: sim.schedule(0, lambda: stamps.append(sim.now)))
    sim.schedule(25, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == [10, 10, 25]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_cancel_handle_suppresses_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, "x")
    sim.cancel(handle)
    sim.run()
    assert fired == []


def test_run_until_stops_clock_and_preserves_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 100


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    hits = []

    def outer():
        hits.append(("outer", sim.now))
        sim.schedule(7, inner)

    def inner():
        hits.append(("inner", sim.now))

    sim.schedule(3, outer)
    sim.run()
    assert hits == [("outer", 3), ("inner", 10)]


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_deadlock_detection_reports_blocked_tasks():
    sim = Simulator()

    class Stuck:
        is_blocked = True

        def __str__(self):
            return "stuck-task"

    sim.watch(Stuck())
    sim.schedule(1, lambda: None)
    with pytest.raises(DeadlockError, match="stuck-task"):
        sim.run()


def test_no_deadlock_when_watched_tasks_unblocked():
    sim = Simulator()

    class Fine:
        is_blocked = False

    sim.watch(Fine())
    sim.schedule(1, lambda: None)
    assert sim.run() == 1


# ----------------------------------------------------------------------
# same-tick cancellation races


def _cancel_race(scheduler):
    """Event ``a`` fires at t=5 and cancels its same-tick sibling ``b``."""
    sim = Simulator()
    sim.scheduler = scheduler
    fired = []
    handles = {}

    def a():
        fired.append("a")
        sim.cancel(handles["b"])

    sim.schedule(5, a)
    handles["b"] = sim.schedule(5, fired.append, "b")
    sim.run()
    return fired


def test_cancellation_racing_same_tick_fire_default_mode():
    assert _cancel_race(None) == ["a"]


def test_cancellation_racing_same_tick_fire_controlled_mode():
    """In controlled mode the tick's batch is gathered *before* the
    chosen event runs; a sibling cancelled by the fired event must still
    be suppressed when it comes back off the heap."""
    assert _cancel_race(FirstChoice()) == ["a"]


def test_reordered_cancellation_kills_the_earlier_sibling():
    """The scheduler fires the later-scheduled event first; if it
    cancels the earlier one, the earlier event must never run even
    though it was already popped into the batch."""
    sim = Simulator()
    sim.scheduler = LastChoice()
    fired = []
    handle_a = sim.schedule(5, fired.append, "a")

    def b():
        fired.append("b")
        sim.cancel(handle_a)

    sim.schedule(5, b)
    sim.run()
    assert fired == ["b"]


def test_controlled_mode_rejects_out_of_range_choice():
    class Bad(Scheduler):
        def choose(self, now, events):
            return len(events)  # one past the end

    sim = Simulator()
    sim.scheduler = Bad()
    sim.schedule(1, lambda: None)
    sim.schedule(1, lambda: None)
    with pytest.raises(IndexError):
        sim.run()


# ----------------------------------------------------------------------
# deadlock reporting


class _Stuck:
    is_blocked = True

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return self.name


@pytest.mark.parametrize("scheduler", [None, FirstChoice()])
def test_deadlock_error_lists_every_blocked_task(scheduler):
    """The error must name *all* blocked watched tasks (not just the
    first) and exclude the runnable ones — that list is what the
    schedule explorer records as the deadlock's witness."""
    sim = Simulator()
    sim.scheduler = scheduler
    stuck = [_Stuck("worker-1"), _Stuck("worker-2"), _Stuck("worker-3")]

    class Fine:
        is_blocked = False

    for task in stuck:
        sim.watch(task)
    sim.watch(Fine())
    sim.schedule(1, lambda: None)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert excinfo.value.blocked == stuck
    for name in ("worker-1", "worker-2", "worker-3"):
        assert name in str(excinfo.value)


# ----------------------------------------------------------------------
# adversarial coverage: the kernel against a plain reference
#
# The `(when, seq)` total order is the repo's reproducibility invariant —
# every committed golden schedule assumes it — so this is the cheap,
# adversarial version of the 42 fixture gates.  The reference keeps one
# list, pops its minimum and marks cancellation with its own flag, so
# neither the heap nor lazy tombstone skipping can hide in it.


class _RefEvent:
    def __init__(self, when, seq, fn, args):
        self.key = (when, seq)
        self.fn = fn
        self.args = args
        self.cancelled = False


class _ReferenceKernel:
    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self._queue = []
        self._seq = 0

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        self._seq += 1
        event = _RefEvent(self.now + delay, self._seq, fn, args)
        self._queue.append(event)
        return event

    def schedule_at(self, when, fn, *args):
        return self.schedule(when - self.now, fn, *args)

    def cancel(self, event):
        event.cancelled = True

    def run(self, until=None):
        while True:
            self._queue = [e for e in self._queue if not e.cancelled]
            if not self._queue:
                return self.now
            event = min(self._queue, key=lambda e: e.key)
            if until is not None and event.key[0] > until:
                self.now = until
                return until
            self._queue.remove(event)
            self.now = event.key[0]
            self.events_executed += 1
            event.fn(*event.args)


# Same tick, near future, and the 500 ms retransmit-timeout regime.
DELTAS = st.one_of(
    st.integers(0, 200_000),
    st.sampled_from([0, 1, 65_536, 16_777_216, 500_000_000]),
)


@st.composite
def kernel_programs(draw):
    """(top_ops, until) — ops may nest up to two levels into callbacks."""

    def op(depth):
        kind = draw(
            st.sampled_from(
                ["schedule", "schedule", "schedule_at", "cancel", "cancel_twice"]
            )
        )
        if kind in ("cancel", "cancel_twice"):
            # Any handle so far: pending, already fired or already cancelled.
            return (kind, draw(st.integers(0, 100)))
        nested = []
        if depth < 2 and draw(st.booleans()):
            nested = [op(depth + 1) for _ in range(draw(st.integers(1, 3)))]
        return (kind, draw(DELTAS), draw(st.integers(0, 10**6)), nested)

    top = [op(0) for _ in range(draw(st.integers(1, 25)))]
    until = draw(st.one_of(st.none(), DELTAS))
    return top, until


def _interpret(sim, top_ops, until):
    """Run one program; return the (time, tag) execution log."""
    log = []
    handles = []

    def fire(tag, nested):
        log.append((sim.now, tag))
        for op in nested:
            apply_op(op)

    def apply_op(op):
        if op[0] in ("cancel", "cancel_twice"):
            if handles:
                handle = handles[op[1] % len(handles)]
                sim.cancel(handle)
                if op[0] == "cancel_twice":
                    sim.cancel(handle)
            return
        kind, delta, tag, nested = op
        if kind == "schedule":
            handles.append(sim.schedule(delta, fire, tag, nested))
        else:
            handles.append(sim.schedule_at(sim.now + delta, fire, tag, nested))

    for op in top_ops:
        apply_op(op)
    if until is not None:
        # Pause mid-run, then keep scheduling: new events may land
        # *earlier* than everything still queued.
        sim.run(until=until)
        for op in top_ops:
            apply_op(op)
    sim.run()
    return log, sim.now, sim.events_executed


@given(kernel_programs())
@settings(max_examples=150, deadline=None)
def test_kernel_replays_the_reference_order_exactly(program):
    top_ops, until = program
    sim = Simulator()
    assert _interpret(sim, top_ops, until) == _interpret(
        _ReferenceKernel(), top_ops, until
    )
    assert sim.pending() == 0


def test_delay_zero_event_yields_to_an_earlier_seq_at_the_same_tick():
    logs = []
    for sim in (Simulator(), _ReferenceKernel()):
        order = []
        sim.schedule(5, lambda: sim.schedule(0, order.append, "zero"))
        sim.schedule(5, order.append, "sibling")
        sim.run()
        logs.append(order)
    assert logs == [["sibling", "zero"]] * 2


def test_run_until_then_an_earlier_event_fires_first():
    sim = Simulator()
    order = []
    sim.schedule(5 * 65_536, order.append, "late")
    sim.run(until=3 * 65_536)
    sim.schedule(1, order.append, "early")  # earlier than everything queued
    sim.run()
    assert order == ["early", "late"]
    assert sim.now == 5 * 65_536


def test_far_future_timer_cancel_never_fires():
    sim = Simulator()
    fired = []
    handle = sim.schedule(500_000_000, fired.append, "timeout")
    sim.schedule(10, sim.cancel, handle)
    sim.run()
    assert fired == []
    assert sim.now == 10


def test_cancelled_event_no_longer_references_its_args():
    class Payload:
        pass

    sim = Simulator()
    payload = Payload()
    ref = weakref.ref(payload)
    handle = sim.schedule(500_000_000, lambda p: None, payload)
    sim.cancel(handle)
    del payload
    gc.collect()
    assert ref() is None
    assert sim.pending() == 1  # the tombstone stays queued until its tick
    sim.run()
    assert sim.pending() == 0 and sim.events_executed == 0


def test_run_until_before_now_is_rejected():
    sim = Simulator()
    sim.schedule(150, lambda: None)
    sim.schedule(300, lambda: None)
    assert sim.run(until=150) == 150
    with pytest.raises(ValueError, match="until=50"):
        sim.run(until=50)
    assert sim.now == 150
    assert sim.run(until=150) == 150  # staying put is allowed
    assert sim.run() == 300


@pytest.mark.parametrize("scheduler", [None, FirstChoice()], ids=["default", "controlled"])
@pytest.mark.parametrize("max_events", [0, -1])
def test_max_events_below_one_is_rejected(scheduler, max_events):
    sim = Simulator()
    sim.scheduler = scheduler
    for _ in range(5):
        sim.schedule(1, lambda: None)
    with pytest.raises(ValueError, match="max_events"):
        sim.run(max_events=max_events)
    assert sim.events_executed == 0


@pytest.mark.parametrize("scheduler", [None, FirstChoice()], ids=["default", "controlled"])
def test_max_events_runs_exactly_that_many(scheduler):
    sim = Simulator()
    sim.scheduler = scheduler
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run(max_events=2)
    assert sim.events_executed == 2
    sim.run(max_events=1)
    assert sim.events_executed == 3
    sim.run()
    assert sim.events_executed == 5
