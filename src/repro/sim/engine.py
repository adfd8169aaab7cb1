"""Discrete-event simulation engine.

This is the substrate that replaces the paper's physical Linux testbed
(Figure 10).  It is a binary-heap event scheduler with a second, small
*stream lane* for batcher continuations (see "Event batching" below),
plus a virtual clock with helpers for one-shot and periodic callbacks.
Everything else in the repository (links, queues, TCP senders, AQM
update timers) is driven by this engine.

Determinism
-----------
Events scheduled for the same timestamp fire in scheduling order (a
monotonic sequence number breaks ties), so a simulation with a fixed seed
is exactly reproducible run-to-run and platform-to-platform.  The event
heap and the stream lane are merged in the identical ``(time, seq)``
total order by :meth:`Simulator.run`, :meth:`Simulator.step` and the
traced run loop alike.  Compaction (below) only ever removes cancelled
events and re-heapifies; the (time, seq) total order means the pop
sequence is unchanged, so compaction never perturbs results.

Cancelled events
----------------
Cancellation is lazy: a cancelled event stays in the heap and is skipped
when popped.  Workloads that re-arm timers constantly (every TCP ACK
cancels and reschedules the retransmission timer) can accumulate large
numbers of dead entries, inflating every push/pop.  The simulator counts
cancellations and compacts the heap in place once the dead fraction
crosses a threshold, keeping scheduling operations proportional to
*live* events.

Event batching
--------------
A component that knows its *own* next event time can avoid the scheduler
entirely: inside a callback it may ask :meth:`Simulator.pending_before`
whether any foreign event sorts before its continuation and, if not (and
within the current :attr:`Simulator.horizon`), handle it inline via
:meth:`Simulator.advance_to` instead of scheduling it.  The bottleneck
:class:`~repro.net.link.Link` drains back-to-back packet transmissions
this way, and :class:`~repro.net.pipe.Pipe` keeps its in-flight packets
on an *arrival train* served by a single pending continuation instead of
one event per packet — which also shrinks the pending-event population
from thousands of entries (every in-flight packet) to a handful, making
every remaining push/pop cheaper.

Bit-exactness rests on two rules.  First, inline handling is only
allowed when the continuation provably sorts before every pending
event, so nothing that *would* have fired earlier is displaced.  Second,
batchers draw their sequence numbers from the same counter at the same
points as the unbatched code (:meth:`Simulator.reserve_seq` /
:meth:`Simulator.at_reserved`), so the ``(time, seq)`` identity of every
event — scheduled or absorbed — is identical in both modes and every
same-timestamp tie breaks the same way.  A batched run therefore
produces bit-exact results (equal ``digest()``\\ s) for a fixed seed.
Absorbed events are counted in :attr:`Simulator.events_batched`; a batch
forced to stop because a foreign event intervened is counted in
:attr:`Simulator.batch_breaks`.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(1.5, lambda: fired.append(sim.now))
>>> sim.run(until=10.0)
>>> fired
[1.5]
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CallbackError, SimulationError, WatchdogExceeded
from repro.units import Seconds

__all__ = ["Simulator", "Event", "PeriodicTimer", "Watchdog"]

_heappush = heapq.heappush

#: Virtual-time span of one dispatch epoch when an engine tracer is
#: installed: the traced run loop executes in chunks of this many
#: seconds and emits one ``engine_epoch`` lane-occupancy snapshot per
#: chunk.  Chunked ``run`` calls compose exactly (``run(10); run(20)``
#: ≡ ``run(20)``), so chunking never changes results — only how often
#: the loop surfaces for a snapshot.
_TRACE_EPOCH_SPAN = 0.25


class Event:
    """A scheduled callback.

    Holding a reference to the returned :class:`Event` allows cancellation
    (used e.g. by TCP retransmission timers that are re-armed on every ACK).
    Cancelled events stay in the heap but are skipped when popped; this is
    the standard lazy-deletion scheme and keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Watchdog:
    """Budget limits for a :meth:`Simulator.run` call.

    A runaway simulation (an event loop that keeps rescheduling itself, or
    a scenario far larger than intended) would otherwise consume the whole
    process.  The watchdog bounds one ``run`` call by total events
    processed and/or host wall-clock seconds; exceeding either raises
    :class:`~repro.errors.WatchdogExceeded` with the virtual time reached.

    The wall clock is sampled every :data:`WALL_CHECK_STRIDE` events to
    keep the per-event overhead negligible.
    """

    WALL_CHECK_STRIDE = 1024

    __slots__ = ("max_events", "max_wall_seconds")

    def __init__(
        self,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ):
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive (got {max_events})")
        if max_wall_seconds is not None and max_wall_seconds <= 0:
            raise ValueError(
                f"max_wall_seconds must be positive (got {max_wall_seconds})"
            )
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds


class Simulator:
    """Event-driven virtual-time simulator.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.  Defaults to 0.

    Notes
    -----
    The engine makes no assumptions about what the callbacks do; components
    hold a reference to the simulator and schedule their own continuations.
    Time is a float in seconds.  The paper's experiments span at most a few
    hundred seconds at microsecond-scale event granularity, comfortably
    within double precision.
    """

    #: Minimum number of pending cancelled events before a compaction is
    #: considered.  Below this the dead weight is negligible and the scan
    #: would cost more than it saves.
    COMPACT_THRESHOLD = 1024

    def __init__(self, start_time: float = 0.0):
        self.now: float = start_time
        #: Event lane: a binary heap of :class:`Event` objects.
        self._heap: List[Event] = []
        #: Stream lane: (time, seq, fn, args) tuples for batcher
        #: continuations (see :meth:`stream_schedule`).
        self._streams: List[Tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._events_batched = 0
        self._batch_breaks = 0
        self._horizon: Optional[float] = None
        self._running = False
        self._watchdog: Optional[Watchdog] = None
        #: Optional telemetry sink (duck-typed; see repro.obs.trace).
        #: The engine only ever *emits* into it — tracers observe, they
        #: never schedule (the OBS static-analysis rule).
        self._tracer: Optional[Any] = None
        self._trace_epochs = 0

    def set_tracer(self, tracer: Optional[Any]) -> None:
        """Install (or clear, with ``None``) an engine-event tracer.

        With a tracer installed, :meth:`run` executes in virtual-time
        chunks of :data:`_TRACE_EPOCH_SPAN` seconds and emits one
        ``engine_epoch`` snapshot (lane occupancy and batching counters)
        per chunk.  Chunked runs compose exactly, so results are
        bit-identical with tracing on or off; only the run loop's
        granularity — and hence counters like ``batch_breaks``, which
        count horizon-bounded batching — may differ.  Callers should
        pass tracers through :func:`repro.obs.trace.engine_tracer` so
        the category-subscription check stays in the observability
        layer.
        """
        self._tracer = tracer

    def set_watchdog(
        self,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
    ) -> None:
        """Install (or, with no arguments, remove) a run budget.

        Subsequent :meth:`run` calls are each limited to ``max_events``
        processed events and ``max_wall_seconds`` of host time; exceeding
        either raises :class:`~repro.errors.WatchdogExceeded`.
        """
        if max_events is None and max_wall_seconds is None:
            self._watchdog = None
        else:
            self._watchdog = Watchdog(max_events, max_wall_seconds)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: Seconds, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after all events already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: Seconds, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        ev = Event(time, next(self._seq), fn, args, sim=self)
        _heappush(self._heap, ev)
        return ev

    # ------------------------------------------------------------------
    # Cancelled-event accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; triggers compaction past the
        threshold once dead entries outnumber live ones."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACT_THRESHOLD
            and self._cancelled_pending * 2 >= len(self._heap)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled events from the heap; returns how many were removed.

        The heap list is mutated in place (``run`` holds a local
        reference to it), and re-heapified.  Safe to call at any time,
        including from inside an event callback; pop order is unaffected
        because events are totally ordered by (time, seq).
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [ev for ev in heap if not ev.cancelled]
        removed = before - len(heap)
        if removed:
            heapq.heapify(heap)
            self._compactions += 1
        self._cancelled_pending = 0
        return removed

    def _clean_heap(self) -> None:
        """Pop lazily-cancelled events off the heap's head."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            if self._cancelled_pending > 0:
                self._cancelled_pending -= 1

    # ------------------------------------------------------------------
    # Inline event batching (see module docstring, "Event batching")
    # ------------------------------------------------------------------
    def peek(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the next pending event, or None if idle.

        Considers both lanes (the event heap and the stream lane).
        Lazily-cancelled events at the heap head are discarded on the
        way, exactly as the run loop would skip them, so peeking never
        changes which callbacks fire or when.  The ``seq`` lets a
        batcher compare its own *reserved* event identity
        lexicographically — the exact tie-break the dispatch loop applies
        at equal timestamps.
        """
        self._clean_heap()
        heap = self._heap
        best: Optional[Tuple[float, int]] = (heap[0].time, heap[0].seq) if heap else None
        streams = self._streams
        if streams:
            cand = (streams[0][0], streams[0][1])
            if best is None or cand < best:
                best = cand
        return best

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending (non-cancelled) event, or None."""
        head = self.peek()
        return None if head is None else head[0]

    def pending_before(self, time: float, seq: int) -> bool:
        """True iff a pending event sorts strictly before ``(time, seq)``.

        The batchers' foreign-event test: a continuation with identity
        ``(time, seq)`` may be handled inline only when nothing else can
        fire first.  Spans both lanes and discards lazily-cancelled heap
        heads on the way, exactly as :meth:`peek` does.  (The head clean
        is inlined: batchers call this once per absorbed packet.)
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            if self._cancelled_pending > 0:
                self._cancelled_pending -= 1
        if heap:
            ev = heap[0]
            if ev.time < time or (ev.time == time and ev.seq < seq):
                return True
        streams = self._streams
        if streams:
            s = streams[0]
            if s[0] < time or (s[0] == time and s[1] < seq):
                return True
        return False

    def reserve_seq(self) -> int:
        """Claim the sequence number the next scheduled event would get.

        The batching contract: a batcher reserves a seq at *exactly* the
        point the unbatched code would have called :meth:`schedule`, so
        the sequence-number stream — and therefore every same-timestamp
        tie-break — is identical whether events are heaped, streamed or
        absorbed.  A reserved seq is either spent via
        :meth:`stream_schedule` (the batch broke; the continuation waits
        its turn in the stream lane) or dropped (the continuation was
        handled inline via :meth:`advance_to`).
        """
        return next(self._seq)

    def at_reserved(
        self, time: Seconds, seq: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule an event carrying a seq from :meth:`reserve_seq`.

        The unbatched twin of :meth:`stream_schedule`: components that
        reserve their continuation seq up front use this when batching is
        off, so the event lands in exactly the (time, seq) slot the
        batched run would have given it.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        ev = Event(time, seq, fn, args, sim=self)
        _heappush(self._heap, ev)
        return ev

    def stream_schedule(
        self, time: Seconds, seq: int, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule a batcher continuation in the stream lane.

        The stream lane is a second, small heap of plain ``(time, seq,
        fn, args)`` tuples that the dispatch loop merges with the event
        heap in exact ``(time, seq)`` order.  Batchers (the link's
        transmission drain, pipe arrival trains) route their per-packet
        continuations here: tuples compare in C (no :meth:`Event.__lt__`
        round-trips), nothing is allocated per event, and the lane stays
        a few entries deep — one pending continuation per batcher —
        regardless of how many packets are in flight.  Entries cannot be
        cancelled; ``seq`` must come from :meth:`reserve_seq` so the
        merged order is identical to the unbatched schedule.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        heapq.heappush(self._streams, (time, seq, fn, args))

    def advance_to(self, time: Seconds) -> None:
        """Move the clock forward inside a callback, absorbing one event.

        This is the event-batching primitive: a component that has proven
        (via :meth:`pending_before` and :attr:`horizon`) that nothing
        else can fire before ``time`` may advance the clock itself and
        handle its continuation inline instead of scheduling it.  Each
        call counts one absorbed event in :attr:`events_batched`.
        """
        if time < self.now:
            raise ValueError(
                f"cannot advance backwards to t={time} from t={self.now}"
            )
        self.now = time
        self._events_batched += 1

    def note_batch_break(self) -> None:
        """Record that a batch had to stop because an event intervened.

        Called by batching components (the link) when they fall back to
        scheduling a real event mid-drain; exposed as
        :attr:`batch_breaks` so batching efficiency is observable.
        """
        self._batch_breaks += 1

    @property
    def horizon(self) -> Optional[float]:
        """The ``until`` bound of the :meth:`run` call currently executing.

        ``None`` outside :meth:`run` (including :meth:`step`), which
        disables inline batching — a batcher may never advance the clock
        past the point the run loop has been asked to stop at.
        """
        return self._horizon

    def every(
        self,
        interval: Seconds,
        fn: Callable[..., Any],
        *args: Any,
        start_delay: Optional[Seconds] = None,
    ) -> "PeriodicTimer":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        The first firing is after ``start_delay`` (default: one interval).
        Used for AQM update timers (the paper's ``T`` = 32 ms / 16 ms).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive (got {interval})")
        timer = PeriodicTimer(self, interval, fn, args)
        timer.start(start_delay if start_delay is not None else interval)
        return timer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Seconds) -> None:
        """Process events in timestamp order until the clock reaches ``until``.

        The clock is left exactly at ``until`` so back-to-back ``run`` calls
        compose: ``run(10); run(20)`` is equivalent to ``run(20)``.

        If a callback raises, the exception propagates wrapped in a
        :class:`~repro.errors.CallbackError` carrying the event's virtual
        time and callback name (structured :class:`SimulationError`\\ s pass
        through with their sim-time filled in); ``_running`` is always
        reset so the simulator stays usable, with the clock left at the
        failing event's time.
        """
        if until < self.now:
            raise ValueError(f"cannot run backwards to t={until} from t={self.now}")
        if self._tracer is not None:
            self._traced_run(until)
            return
        self._run_heap(until)

    def _traced_run(self, until: float) -> None:
        """Run to ``until`` in epoch chunks, snapshotting lane stats.

        The actual dispatching is delegated to the untraced run loop
        (:meth:`_run_heap`) one :data:`_TRACE_EPOCH_SPAN`-sized chunk at
        a time; between chunks — never between two events — an
        ``engine_epoch`` event records heap/stream occupancy and the
        batching and compaction counters.  Because back-to-back ``run``
        calls compose exactly and batching is digest-invariant (batch
        boundaries at chunk horizons only perturb the batching
        *counters*, which are not part of any digest), the dispatch
        order — and therefore every result bit — is identical to an
        untraced run.
        """
        tracer = self._tracer
        while True:
            head = self.peek_time()
            if head is None or head > until:
                stop = until
            else:
                start = head if head > self.now else self.now
                stop = start + _TRACE_EPOCH_SPAN
                if stop > until:
                    stop = until
            self._run_heap(stop)
            self._trace_epochs += 1
            if tracer is not None:
                tracer.emit(
                    "engine",
                    "engine_epoch",
                    self.now,
                    {
                        "epoch": self._trace_epochs,
                        "heap": len(self._heap),
                        "stream": len(self._streams),
                        "events_processed": self._events_processed,
                        "events_batched": self._events_batched,
                        "batch_breaks": self._batch_breaks,
                        "cancelled_pending": self._cancelled_pending,
                        "compactions": self._compactions,
                    },
                )
            if self.now >= until:
                return

    def _run_heap(self, until: float) -> None:
        """The untraced run loop; same contract as :meth:`run`."""
        watchdog = self._watchdog
        event_budget = (
            self._events_processed + watchdog.max_events
            if watchdog is not None and watchdog.max_events is not None
            else None
        )
        wall_limit = watchdog.max_wall_seconds if watchdog is not None else None
        # repro: allow[DET] watchdog wall-time budget; never feeds simulation state
        wall_start = time.monotonic() if wall_limit is not None else 0.0
        self._running = True
        self._horizon = until
        # Hot loop: the engine spends essentially all of a simulation here,
        # so the per-event work is kept to heap ops + the callback itself.
        # Heap, pop and clock access are bound to locals, the dispatch
        # wrapper is inlined (one fewer Python frame per event), and the
        # budget checks are single comparisons that short-circuit when no
        # watchdog is installed.  The general event heap and the stream
        # lane (batcher continuations, see stream_schedule) are merged in
        # exact (time, seq) order.
        heap = self._heap
        streams = self._streams
        heappop = heapq.heappop
        # repro: allow[DET] hot-loop local for the watchdog's wall-time check only
        monotonic = time.monotonic
        stride = Watchdog.WALL_CHECK_STRIDE
        processed = self._events_processed
        fn: Optional[Callable[..., Any]] = None
        try:
            while True:
                while heap and heap[0].cancelled:
                    heappop(heap)
                    if self._cancelled_pending > 0:
                        self._cancelled_pending -= 1
                if streams and (
                    not heap
                    or streams[0][0] < heap[0].time
                    or (
                        streams[0][0] == heap[0].time
                        and streams[0][1] < heap[0].seq
                    )
                ):
                    entry = streams[0]
                    t = entry[0]
                    if t > until:
                        break
                    heappop(streams)
                    fn = entry[2]
                    self.now = t
                    fn(*entry[3])
                elif heap:
                    ev = heap[0]
                    t = ev.time
                    if t > until:
                        break
                    heappop(heap)
                    fn = ev.fn
                    self.now = t
                    fn(*ev.args)
                else:
                    break
                processed += 1
                if event_budget is not None and processed >= event_budget:
                    raise WatchdogExceeded(
                        f"event budget of {watchdog.max_events} events exhausted "
                        f"before reaching t={until}",
                        sim_time=self.now,
                        component="Simulator",
                        context={"events_processed": processed},
                    )
                if (
                    wall_limit is not None
                    and processed % stride == 0
                    and monotonic() - wall_start > wall_limit
                ):
                    raise WatchdogExceeded(
                        f"wall-clock budget of {wall_limit}s exhausted "
                        f"before reaching t={until}",
                        sim_time=self.now,
                        component="Simulator",
                        context={"wall_seconds": monotonic() - wall_start},
                    )
            self.now = until
        except SimulationError as exc:
            # Already structured (watchdog, invariant checker, nested
            # engine, ...); just fill in the virtual time if the raiser
            # could not.  self.now is preferred over the event's own time:
            # a batching callback may have advanced the clock past it.
            if exc.sim_time is None and fn is not None:
                exc.sim_time = self.now
            raise
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            name = getattr(fn, "__qualname__", None) or getattr(
                fn, "__name__", repr(fn)
            )
            raise CallbackError(
                f"event callback {name!r} raised {type(exc).__name__}: {exc}",
                sim_time=self.now,
                callback=name,
                component="Simulator",
            ) from exc
        finally:
            self._events_processed = processed
            self._running = False
            self._horizon = None

    def step(self) -> bool:
        """Process a single event.  Returns False when nothing is pending.

        Merges the lanes exactly as :meth:`run` does.  No run horizon is
        in effect, so batchers cannot absorb events inline — each
        continuation is dispatched one per call.  Callback failures
        receive the same structured wrapping as in :meth:`run`.
        """
        self._clean_heap()
        heap = self._heap
        streams = self._streams
        if streams and (
            not heap
            or streams[0][0] < heap[0].time
            or (streams[0][0] == heap[0].time and streams[0][1] < heap[0].seq)
        ):
            when, _seq, fn, args = heapq.heappop(streams)
        elif heap:
            ev = heapq.heappop(heap)
            when, fn, args = ev.time, ev.fn, ev.args
        else:
            return False
        self.now = when
        self._dispatch(fn, args, when)
        self._events_processed += 1
        return True

    def _dispatch(self, fn: Callable[..., Any], args: tuple, when: float) -> None:
        """Run one callback, converting failures into structured errors."""
        try:
            fn(*args)
        except SimulationError as exc:
            # Already structured (invariant checker, nested engine, ...);
            # just fill in the virtual time if the raiser could not.
            if exc.sim_time is None:
                exc.sim_time = when
            raise
        except Exception as exc:
            name = getattr(fn, "__qualname__", None) or getattr(
                fn, "__name__", repr(fn)
            )
            raise CallbackError(
                f"event callback {name!r} raised {type(exc).__name__}: {exc}",
                sim_time=when,
                callback=name,
                component="Simulator",
            ) from exc

    @property
    def pending_events(self) -> int:
        """Number of events still queued — heap entries (including
        lazily-cancelled ones) plus pending stream-lane continuations."""
        return len(self._heap) + len(self._streams)

    @property
    def cancelled_pending(self) -> int:
        """Lazily-cancelled events still sitting in the heap.

        An upper bound: events cancelled *after* they fired (or after the
        heap was already drained of them) are counted until the next
        compaction resets the tally.
        """
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed so far."""
        return self._compactions

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def events_batched(self) -> int:
        """Events absorbed inline by batching (:meth:`advance_to`).

        ``events_processed + events_batched`` is the workload's *logical*
        event count — what an unbatched run would have dispatched.
        """
        return self._events_batched

    @property
    def batch_breaks(self) -> int:
        """Times a batch stopped early because a foreign event intervened."""
        return self._batch_breaks

    def register_metrics(self, registry: Any) -> None:
        """Register the engine's counters under the ``engine.`` prefix.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`
        (duck-typed here so the engine never imports the observability
        layer); the provider is evaluated lazily at snapshot time.
        """
        registry.register_provider("engine", self._metrics_snapshot)

    def _metrics_snapshot(self) -> Dict[str, Any]:
        """Flat end-of-run metric values for :meth:`register_metrics`."""
        return {
            "events_processed": self._events_processed,
            "events_batched": self._events_batched,
            "batch_breaks": self._batch_breaks,
            "cancelled_pending": self._cancelled_pending,
            "compactions": self._compactions,
            "pending_events": self.pending_events,
            "trace_epochs": self._trace_epochs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={self.pending_events}>"


class PeriodicTimer:
    """Re-arming timer produced by :meth:`Simulator.every`."""

    __slots__ = (
        "_sim", "interval", "_fn", "_args", "_event", "_stopped", "fires", "_jitter",
    )

    def __init__(self, sim: Simulator, interval: float, fn: Callable[..., Any], args: tuple):
        self._sim = sim
        self.interval = interval
        self._fn = fn
        self._args = args
        self._event: Optional[Event] = None
        self._stopped = False
        self.fires = 0
        self._jitter: Optional[Callable[[], float]] = None

    def start(self, delay: float) -> None:
        self._event = self._sim.schedule(delay, self._fire)

    def set_jitter(self, jitter: Optional[Callable[[], float]]) -> None:
        """Install (or clear, with ``None``) a per-firing delay perturbation.

        ``jitter()`` is sampled before each re-arm and added to the
        nominal interval; the result is floored at 0.  Used by the fault
        injector to model an AQM update timer that drifts under load.
        """
        self._jitter = jitter

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fires += 1
        self._fn(*self._args)
        if not self._stopped:
            delay = self.interval
            if self._jitter is not None:
                delay = max(0.0, delay + self._jitter())
            self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop the timer; pending firing is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped
