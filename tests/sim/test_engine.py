"""Unit tests for the discrete-event engine."""

import heapq

import pytest

from repro.obs.trace import RecordingTracer
from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_event_fires_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run(10.0)
        assert seen == [1.5]

    def test_at_absolute_time(self, sim):
        seen = []
        sim.at(3.0, lambda: seen.append(sim.now))
        sim.run(10.0)
        assert seen == [3.0]

    def test_events_fire_in_time_order(self, sim):
        seen = []
        sim.schedule(3.0, lambda: seen.append(3))
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run(10.0)
        assert seen == [1, 2, 3]

    def test_same_time_events_fire_in_schedule_order(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run(2.0)
        assert seen == list(range(10))

    def test_same_time_burst_keeps_schedule_order(self, sim):
        # Many events inside one sub-millisecond window: FIFO by seq.
        seen = []
        for i in range(50):
            sim.schedule(0.0001, lambda i=i: seen.append(i))
        sim.run(1.0)
        assert seen == list(range(50))

    def test_far_future_events_fire_in_order(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(5.0))
        sim.schedule(0.1, lambda: seen.append(0.1))
        sim.run(10.0)
        assert seen == [0.1, 5.0]
        assert sim.pending_events == 0

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "payload")
        sim.run(2.0)
        assert seen == ["payload"]

    def test_zero_delay_runs_after_current_instant(self, sim):
        seen = []

        def first():
            sim.schedule(0.0, lambda: seen.append("nested"))
            seen.append("first")

        sim.schedule(1.0, first)
        sim.run(2.0)
        assert seen == ["first", "nested"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_into_past_rejected(self, sim):
        sim.run(5.0)
        with pytest.raises(ValueError):
            sim.at(4.0, lambda: None)

    # NaN fails every comparison, so a ``delay < 0`` check lets it through
    # and its heap entry sits unordered; each entry point rejects it.
    def test_nan_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_time_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.at(float("nan"), lambda: None)
        assert sim.pending_events == 0


class TestRun:
    def test_run_stops_at_until(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append("late"))
        sim.run(2.0)
        assert seen == []
        assert sim.now == 2.0

    def test_run_is_composable(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(2.0)
        sim.run(4.0)
        assert seen == [1, 3]

    def test_run_backwards_rejected(self, sim):
        sim.run(5.0)
        with pytest.raises(ValueError):
            sim.run(1.0)

    def test_events_scheduled_during_run_fire(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run(5.0)
        assert seen == [2.0]

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(10.0)
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        ev = sim.schedule(1.0, lambda: seen.append(1))
        ev.cancel()
        sim.run(2.0)
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run(2.0)

    def test_cancel_after_firing_is_harmless(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.run(2.0)
        ev.cancel()


class TestPeriodicTimer:
    def test_fires_every_interval(self, sim):
        seen = []
        sim.every(1.0, lambda: seen.append(sim.now))
        sim.run(3.5)
        assert seen == [1.0, 2.0, 3.0]

    def test_start_delay_override(self, sim):
        seen = []
        sim.every(1.0, lambda: seen.append(sim.now), start_delay=0.25)
        sim.run(2.5)
        assert seen == [0.25, 1.25, 2.25]

    def test_fire_count(self, sim):
        timer = sim.every(0.5, lambda: None)
        sim.run(2.4)
        assert timer.fires == 4

    def test_non_positive_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)

    def test_nan_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.every(float("nan"), lambda: None)
        assert sim.pending_events == 0


class TestPost:
    """The handle-less entry point the per-packet paths use."""

    def test_post_shares_the_schedule_counter(self, sim):
        a = sim.schedule(1.0, lambda: None)
        assert sim.post(1.0, lambda: None) is None
        b = sim.schedule(1.0, lambda: None)
        assert b.seq == a.seq + 2

    def test_same_time_fifo_across_both_entry_points(self, sim):
        seen = []
        sim.post(1.0, seen.append, "post-1")
        sim.schedule(1.0, seen.append, "schedule-1")
        sim.post(1.0, seen.append, "post-2")
        sim.at(1.0, seen.append, "at-1")
        sim.post(0.5, seen.append, "early")
        sim.run(2.0)
        assert seen == ["early", "post-1", "schedule-1", "post-2", "at-1"]

    def test_fires_delay_after_the_posting_event(self, sim):
        # The TCP test rigs' hops: a segment posted mid-run arrives one
        # delay after the event that posted it, not before.
        seen = []
        sim.at(0.3, lambda: sim.post(0.05, lambda: seen.append(sim.now)))
        sim.run(0.349)
        assert seen == []
        sim.run(1.0)
        assert seen == [0.3 + 0.05]

    def test_zero_delay_runs_after_current_instant(self, sim):
        seen = []

        def first():
            sim.post(0.0, seen.append, "posted")
            seen.append("first")

        sim.at(1.0, first)
        sim.at(1.0, seen.append, "second")
        sim.run(2.0)
        assert seen == ["first", "second", "posted"]

    def test_past_time_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.post(-0.1, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.post(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_pending_events_counts_posts(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        assert sim.pending_events == 2


def _push(sim, delay, fn, *args):
    """The documented direct push: post's entry, without post's frame."""
    heapq.heappush(sim.heap, (sim.now + delay, next(sim.seq), fn, args))


class TestDirectPush:
    """The ``(time, seq, fn, args)`` entry the per-packet hops push
    through the public ``heap`` and ``seq`` handles."""

    def test_push_is_the_entry_post_pushes(self):
        posted, pushed = Simulator(), Simulator()
        for sim in (posted, pushed):
            sim.run(0.25)
        posted.post(1.0, print, "x")
        _push(pushed, 1.0, print, "x")
        assert posted.heap == pushed.heap == [(1.25, 0, print, ("x",))]

    def test_push_shares_the_one_counter(self, sim):
        seen = []
        sim.post(1.0, seen.append, "post")
        _push(sim, 1.0, seen.append, "push")
        ev = sim.schedule(1.0, seen.append, "schedule")
        _push(sim, 0.5, seen.append, "early")
        assert ev.seq == 2
        sim.run(2.0)
        assert seen == ["early", "post", "push", "schedule"]

    def test_handles_taken_before_compact_stay_live(self, sim):
        heap, seq = sim.heap, sim.seq
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        for ev in events:
            ev.cancel()
        assert sim.compact() == 10
        assert sim.heap is heap and sim.seq is seq
        seen = []
        heapq.heappush(heap, (sim.now + 0.5, next(seq), seen.append, ("pushed",)))
        assert sim.pending_events == 1
        sim.run(1.0)
        assert seen == ["pushed"]


def _drive(mode, ops):
    """Apply one randomized workload script; return its dispatch trace.

    ``mode`` picks how the script is driven: ``"run"`` advances through
    :meth:`Simulator.run` horizons, and ``"traced"`` through ``run()``
    with a recording engine tracer installed (the chunked,
    epoch-snapshotting run loop).  Both must dispatch the identical
    ``(time, id)`` stream.  Callback
    behaviour is keyed by op kind so every mode executes byte-for-byte
    the same program:

    * ``later``  — relative schedule; ``rearm`` callbacks reschedule a
      child, ``flap`` callbacks cancel the oldest pending sibling
      *mid-dispatch* (as an ACK cancels a pending RTO event).
    * ``cancel`` — cancel a pending event from outside the run loop.
    * ``post``   — a handle-less event (:meth:`Simulator.post`).
    * ``push``   — the same entry pushed through the public ``heap`` and
      ``seq`` handles, as the per-packet hops do.
    * ``drain``  — advance the horizon a bit (events straddle run()s).
    """
    import itertools as _it

    sim = Simulator()
    tracer = None
    if mode == "traced":
        tracer = RecordingTracer(["engine"])
        sim.set_tracer(tracer)
    trace = []
    live = []
    ids = _it.count()

    def fire(i, kind, delay):
        trace.append((sim.now, i))
        if kind == "rearm":
            live.append(sim.schedule(delay + 0.003, fire, next(ids), "plain", 0.0))
        elif kind == "flap" and live:
            live.pop(0).cancel()

    for op in ops:
        if op[0] == "later":
            _, delay, kind = op
            live.append(sim.schedule(delay, fire, next(ids), kind, delay))
        elif op[0] == "cancel":
            if live:
                live.pop(op[1] % len(live)).cancel()
        elif op[0] == "post":
            sim.post(op[1], fire, next(ids), "plain", 0.0)
        elif op[0] == "push":
            _push(sim, op[1], fire, next(ids), "plain", 0.0)
        else:  # drain
            sim.run(sim.now + op[1])
    sim.run(sim.now + 5.0)
    assert sim.pending_events == 0
    if tracer is not None:
        assert tracer.by_event("engine_epoch")
    return trace


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # Delays straddle sub-millisecond bursts, paper-scale RTTs and
    # far-future timers past the traced loop's 0.25 s epoch span.
    _DELAY = st.one_of(
        st.floats(min_value=0.0, max_value=0.001),
        st.floats(min_value=0.0, max_value=0.2),
        st.floats(min_value=0.2, max_value=2.0),
    )
    _OP = st.one_of(
        st.tuples(st.just("later"), _DELAY,
                  st.sampled_from(["plain", "rearm", "flap"])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=999)),
        st.tuples(st.just("post"), st.floats(min_value=0.0, max_value=0.05)),
        st.tuples(st.just("push"), st.floats(min_value=0.0, max_value=0.05)),
        st.tuples(st.just("drain"), st.floats(min_value=0.0, max_value=0.5)),
    )

    class TestPopOrderParity:
        """Property: run() and the traced run loop produce the
        identical dispatch stream — same (time, id) sequence — for
        arbitrary interleavings of scheduling, cancellation (incl.
        mid-dispatch cancels), posted events, directly pushed
        per-packet entries, and staged horizons."""

        @settings(max_examples=50, deadline=None)
        @given(ops=st.lists(_OP, max_size=60))
        def test_run_and_traced_traces_agree(self, ops):
            assert _drive("traced", ops) == _drive("run", ops)

except ImportError:  # pragma: no cover - hypothesis is in the dev env
    def test_run_and_traced_traces_agree_fallback():
        ops = [("later", 0.1 * i % 0.7, ("plain", "rearm", "flap")[i % 3])
               for i in range(40)] + [("drain", 0.2), ("cancel", 3),
                                      ("push", 0.01), ("post", 0.01)]
        assert _drive("traced", ops) == _drive("run", ops)
