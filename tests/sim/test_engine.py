"""Unit tests for the discrete-event engine."""

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

    def test_step_processes_one_event(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step() is True
        assert seen == [1]

    def test_step_on_empty_heap_returns_false(self, sim):
        assert sim.step() is False


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

    def test_stop_halts_firing(self, sim):
        seen = []
        timer = sim.every(1.0, lambda: seen.append(sim.now))
        sim.schedule(2.5, timer.stop)
        sim.run(10.0)
        assert seen == [1.0, 2.0]
        assert timer.stopped

    def test_stop_from_within_callback(self, sim):
        seen = []
        timer = sim.every(1.0, lambda: (seen.append(sim.now), timer.stop()))
        sim.run(10.0)
        assert seen == [1.0]

    def test_fire_count(self, sim):
        timer = sim.every(0.5, lambda: None)
        sim.run(2.4)
        assert timer.fires == 4

    def test_non_positive_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)


class TestStreamLane:
    """The batcher-facing API: reserved seqs, the stream lane, horizon."""

    def test_reserve_seq_shares_the_schedule_counter(self, sim):
        a = sim.schedule(1.0, lambda: None)
        reserved = sim.reserve_seq()
        b = sim.schedule(1.0, lambda: None)
        assert a.seq < reserved < b.seq

    def test_stream_events_merge_with_heap_in_time_order(self, sim):
        seen = []
        sim.schedule(2.0, lambda: seen.append("heap"))
        sim.stream_schedule(1.0, sim.reserve_seq(), lambda: seen.append("stream"))
        sim.schedule(3.0, lambda: seen.append("late"))
        sim.run(5.0)
        assert seen == ["stream", "heap", "late"]

    def test_same_time_ties_break_on_seq(self, sim):
        seen = []
        first = sim.reserve_seq()
        sim.schedule(1.0, lambda: seen.append("heap"))  # later seq than first
        sim.stream_schedule(1.0, first, lambda: seen.append("stream"))
        second = sim.reserve_seq()  # later seq than the heap event
        sim.stream_schedule(1.0, second, lambda: seen.append("stream2"))
        sim.run(2.0)
        assert seen == ["stream", "heap", "stream2"]

    def test_at_reserved_is_the_unbatched_twin(self, sim):
        seen = []
        seq = sim.reserve_seq()
        sim.at_reserved(1.0, seq, seen.append, "x")
        sim.run(2.0)
        assert seen == ["x"]

    def test_scheduling_into_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(1.0)
        with pytest.raises(ValueError):
            sim.stream_schedule(0.5, sim.reserve_seq(), lambda: None)
        with pytest.raises(ValueError):
            sim.at_reserved(0.5, sim.reserve_seq(), lambda: None)

    def test_pending_events_counts_both_lanes(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.stream_schedule(2.0, sim.reserve_seq(), lambda: None)
        assert sim.pending_events == 2

    def test_peek_spans_both_lanes(self, sim):
        assert sim.peek() is None
        ev = sim.schedule(2.0, lambda: None)
        assert sim.peek() == (2.0, ev.seq)
        seq = sim.reserve_seq()
        sim.stream_schedule(1.0, seq, lambda: None)
        assert sim.peek() == (1.0, seq)
        assert sim.peek_time() == 1.0

    def test_step_dispatches_stream_events(self, sim):
        seen = []
        sim.stream_schedule(1.0, sim.reserve_seq(), lambda: seen.append(sim.now))
        assert sim.step()
        assert seen == [1.0]
        assert not sim.step()

    def test_advance_to_moves_clock_and_counts(self, sim):
        sim.advance_to(1.5)
        assert sim.now == 1.5
        assert sim.events_batched == 1
        with pytest.raises(ValueError):
            sim.advance_to(1.0)

    def test_note_batch_break_counter(self, sim):
        assert sim.batch_breaks == 0
        sim.note_batch_break()
        assert sim.batch_breaks == 1

    def test_horizon_set_only_inside_run(self, sim):
        assert sim.horizon is None
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.horizon))
        sim.run(4.0)
        assert seen == [4.0]
        assert sim.horizon is None


def _drive(mode, ops):
    """Apply one randomized workload script; return its dispatch trace.

    ``mode`` picks how the script is driven: ``"run"`` advances through
    :meth:`Simulator.run` horizons, ``"step"`` through a :meth:`step`
    loop, and ``"traced"`` through ``run()`` with a recording engine
    tracer installed (the chunked, epoch-snapshotting run loop).  All
    three must dispatch the identical ``(time, id)`` stream.  Callback
    behaviour is keyed by op kind so every mode executes byte-for-byte
    the same program:

    * ``later``  — relative schedule; ``rearm`` callbacks reschedule a
      child, ``flap`` callbacks cancel the oldest pending sibling
      *mid-dispatch* (the fault-injection pattern).
    * ``cancel`` — cancel a pending event from outside the run loop.
    * ``stream`` — a batcher continuation through the stream lane.
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

    def advance(until):
        if mode != "step":
            sim.run(until)
            return
        while True:
            head = sim.peek_time()
            if head is None or head > until:
                break
            sim.step()
        # run() leaves the clock at its horizon; so does this loop.
        sim.advance_to(until)

    for op in ops:
        if op[0] == "later":
            _, delay, kind = op
            live.append(sim.schedule(delay, fire, next(ids), kind, delay))
        elif op[0] == "cancel":
            if live:
                live.pop(op[1] % len(live)).cancel()
        elif op[0] == "stream":
            seq = sim.reserve_seq()
            sim.stream_schedule(sim.now + op[1], seq, fire, next(ids), "plain", 0.0)
        else:  # drain
            advance(sim.now + op[1])
    advance(sim.now + 5.0)
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
        st.tuples(st.just("stream"), st.floats(min_value=0.0, max_value=0.05)),
        st.tuples(st.just("drain"), st.floats(min_value=0.0, max_value=0.5)),
    )

    class TestPopOrderParity:
        """Property: run(), step() and the traced run loop produce the
        identical dispatch stream — same (time, id) sequence — for
        arbitrary interleavings of scheduling, cancellation (incl.
        mid-dispatch fault flaps), stream-lane traffic, and staged
        horizons."""

        @settings(max_examples=50, deadline=None)
        @given(ops=st.lists(_OP, max_size=60))
        def test_run_step_and_traced_traces_agree(self, ops):
            reference = _drive("run", ops)
            assert _drive("step", ops) == reference
            assert _drive("traced", ops) == reference

except ImportError:  # pragma: no cover - hypothesis is in the dev env
    def test_run_step_and_traced_traces_agree_fallback():
        ops = [("later", 0.1 * i % 0.7, ("plain", "rearm", "flap")[i % 3])
               for i in range(40)] + [("drain", 0.2), ("cancel", 3)]
        reference = _drive("run", ops)
        assert _drive("step", ops) == reference
        assert _drive("traced", ops) == reference
