"""Discrete-event simulation engine.

This is the substrate that replaces the paper's physical Linux testbed
(Figure 10).  It is one binary heap of ``(time, seq, fn, args)`` tuples
plus a virtual clock with helpers for one-shot and periodic callbacks.
Everything else in the repository (links, queues, TCP senders, AQM
update timers) is driven by this engine.

Determinism
-----------
Events scheduled for the same timestamp fire in scheduling order (a
monotonic sequence number breaks ties), so a simulation with a fixed seed
is exactly reproducible run-to-run and platform-to-platform.  The
``(time, seq)`` head of every heap entry is unique, so each heap
comparison is a C tuple comparison that never reaches the callback, and
:meth:`Simulator.run` pops the identical total order with or without a
tracer (the traced loop runs the same heap in epoch chunks).  Compaction (below) only ever removes
cancelled events and re-heapifies; the total order means the pop
sequence is unchanged, so compaction never perturbs results.

Two entry points, and the entry they push
-----------------------------------------
:meth:`Simulator.schedule` and :meth:`Simulator.at` return a cancellable
:class:`Event`; the heap entry is ``(time, seq, None, event)`` and the
run loop skips it once cancelled.  :meth:`Simulator.post` returns
nothing: its entry is ``(time, seq, fn, args)`` and allocates no handle.
An :class:`Event` is kept for the one timer that is cancelled (the TCP
retransmission timer, moved earlier by cancel and re-arm), for the
periodic timers (AQM updates, sampling, invariant checks) and the stage
schedule, and for per-flow one-shots (flow starts and stops, the
warm-up, web arrivals); none of them runs per packet.  Both draw their
seq from one counter, so same-time events fire in call order across the
two.

The uncancellable entry is a contract, not an implementation detail.
:attr:`Simulator.heap` is the heap list and :attr:`Simulator.seq` the
seq counter; neither is ever rebound (:meth:`Simulator.compact` rewrites
the list in place), so a handle taken at construction stays valid.  A
component may push ``(time, next(seq), fn, args)`` onto ``heap`` with
:func:`heapq.heappush` itself, where ``time`` is no earlier than
``now`` (``now`` plus a delay that was checked non-negative where it
entered the component, or a deadline the component computed that way),
``fn`` is never None and ``args`` is a tuple.  That is exactly the entry
:meth:`post` pushes, minus its frame and its delay check, and the seq
is drawn at the point the post (or, for a timer nothing cancels, the
:meth:`at`) would draw it, so the dispatch order is the same.  Five
events do this: the link's completion (``Link._transmit_next``), the
link's hop to the flow's receiver (``Link.routes``), the receiver's ACK
hop to its sender, whose arguments are the ACK's fields for
``TcpSender.on_ack`` (``TcpReceiver._send_ack``), the receiver's
delayed-ACK wakeup (``TcpReceiver._on_delack``, guarded by a pending
flag since nothing cancels it) and the constant-rate source's tick
(``UdpSource._send_next``).  :meth:`post` stays for a handle-less event
whose delay nothing else has checked, such as a hop a test builds by
hand around a sender and a receiver; no event of the dumbbell posts.

Cancelled events
----------------
Cancellation is lazy: a cancelled event stays in the heap and is skipped
when popped.  Workloads that re-arm timers constantly (every TCP ACK
cancels and reschedules the retransmission timer) can accumulate large
numbers of dead entries, inflating every push/pop.  The simulator counts
cancellations and compacts the heap in place once the dead fraction
crosses a threshold, keeping scheduling operations proportional to
*live* events.

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
#: seconds and emits one ``engine_epoch`` heap-occupancy snapshot per
#: chunk.  Chunked ``run`` calls compose exactly (``run(10); run(20)``
#: ≡ ``run(20)``), so chunking never changes results — only how often
#: the loop surfaces for a snapshot.
_TRACE_EPOCH_SPAN = 0.25


class Event:
    """A scheduled, cancellable callback.

    Holding a reference to the returned :class:`Event` allows cancellation
    (used e.g. by TCP retransmission timers that are re-armed on every ACK).
    Cancelled events stay in the heap but are skipped when popped; this is
    the standard lazy-deletion scheme and keeps cancellation O(1).  The
    heap orders the event by its entry's ``(time, seq)`` head, never by
    the event object itself.
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
        #: Binary heap of ``(time, seq, fn, args)`` entries.  ``fn`` is
        #: None for a cancellable :class:`Event`, which rides in ``args``.
        #: Never rebound, so per-packet components may hold it and push
        #: uncancellable entries themselves (see the module docstring).
        self.heap: List[Tuple[float, int, Any, Any]] = []
        #: The one seq counter every entry draws from, with ``next(seq)``.
        self.seq = itertools.count()
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._running = False
        self._watchdog: Optional[Watchdog] = None
        #: Optional telemetry sink (duck-typed; see repro.obs.trace).
        #: The engine only ever *emits* into it — tracers observe, they
        #: never schedule.
        self._tracer: Optional[Any] = None
        self._trace_epochs = 0

    def set_tracer(self, tracer: Optional[Any]) -> None:
        """Install (or clear, with ``None``) an engine-event tracer.

        With a tracer installed, :meth:`run` executes in virtual-time
        chunks of :data:`_TRACE_EPOCH_SPAN` seconds and emits one
        ``engine_epoch`` snapshot (heap occupancy and the engine's
        counters) per chunk.  Chunked runs compose exactly, so results,
        every counter and every watchdog trip are identical with tracing
        on or off.  Callers should pass tracers through
        :func:`repro.obs.trace.engine_tracer` so the
        category-subscription check stays in the observability layer.
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
        if not delay >= 0:  # also rejects NaN, which no comparison orders
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: Seconds, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at t={time} before current time {self.now}"
            )
        seq = next(self.seq)
        ev = Event(time, seq, fn, args, self)
        _heappush(self.heap, (time, seq, None, ev))
        return ev

    def post(self, delay: Seconds, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now; no handle.

        The heap entry is the plain ``(time, seq, fn, args)`` tuple, with
        no :class:`Event` to allocate, so a posted callback cannot be
        cancelled.  It draws its seq from the counter :meth:`schedule`
        uses, so same-time events fire in call order across both entry
        points.  The per-packet hops push this same entry onto
        :attr:`heap` themselves (see the module docstring).
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        _heappush(self.heap, (self.now + delay, next(self.seq), fn, args))

    def every(
        self,
        interval: Seconds,
        fn: Callable[..., Any],
        *args: Any,
        start_delay: Optional[Seconds] = None,
    ) -> "PeriodicTimer":
        """Run ``fn(*args)`` every ``interval`` seconds.

        The first firing is after ``start_delay`` (default: one interval).
        Used for AQM update timers (the paper's ``T`` = 32 ms / 16 ms).
        """
        if not interval > 0:
            raise ValueError(f"interval must be positive (got {interval})")
        timer = PeriodicTimer(self, interval, fn, args)
        timer.start(start_delay if start_delay is not None else interval)
        return timer

    # ------------------------------------------------------------------
    # Cancelled-event accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; triggers compaction past the
        threshold once dead entries outnumber live ones."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACT_THRESHOLD
            and self._cancelled_pending * 2 >= len(self.heap)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled events from the heap; returns how many were removed.

        The heap list is mutated in place (``run`` and every holder of
        the :attr:`heap` handle keep a reference to it), and
        re-heapified.  Safe to call at any time,
        including from inside an event callback; pop order is unaffected
        because entries are totally ordered by (time, seq).
        """
        heap = self.heap
        before = len(heap)
        heap[:] = [e for e in heap if e[2] is not None or not e[3].cancelled]
        removed = before - len(heap)
        if removed:
            heapq.heapify(heap)
            self._compactions += 1
        self._cancelled_pending = 0
        return removed

    def _clean_heap(self) -> None:
        """Pop lazily-cancelled events off the heap's head."""
        heap = self.heap
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heapq.heappop(heap)
            if self._cancelled_pending > 0:
                self._cancelled_pending -= 1

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending (non-cancelled) event, or None.

        Lazily-cancelled events at the head are discarded on the way,
        exactly as the run loop would skip them, so peeking never
        changes which callbacks fire or when.
        """
        self._clean_heap()
        return self.heap[0][0] if self.heap else None

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
        # The watchdog budgets are fixed once per call, so a traced run
        # (one _run_heap call per epoch) trips at the very event an
        # untraced run does.
        watchdog = self._watchdog
        event_budget: Optional[int] = None
        wall_start = 0.0
        if watchdog is not None:
            if watchdog.max_events is not None:
                event_budget = self._events_processed + watchdog.max_events
            if watchdog.max_wall_seconds is not None:
                # Watchdog wall-time budget only; never feeds simulation state.
                wall_start = time.monotonic()
        if self._tracer is not None:
            self._traced_run(until, event_budget, wall_start)
        else:
            self._run_heap(until, until, event_budget, wall_start)

    def _traced_run(
        self, until: float, event_budget: Optional[int], wall_start: float
    ) -> None:
        """Run to ``until`` in epoch chunks, snapshotting the heap.

        The actual dispatching is delegated to the untraced run loop
        (:meth:`_run_heap`) one :data:`_TRACE_EPOCH_SPAN`-sized chunk at
        a time; between chunks — never between two events — an
        ``engine_epoch`` event records heap occupancy and the engine's
        counters.  Because back-to-back ``run`` calls compose exactly,
        the dispatch order — and therefore every result bit and every
        counter — is identical to an untraced run.
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
            self._run_heap(stop, until, event_budget, wall_start)
            self._trace_epochs += 1
            tracer.emit(
                "engine",
                "engine_epoch",
                self.now,
                {
                    "epoch": self._trace_epochs,
                    "heap": len(self.heap),
                    "events_processed": self._events_processed,
                    "cancelled_pending": self._cancelled_pending,
                    "compactions": self._compactions,
                },
            )
            if self.now >= until:
                return

    def _run_heap(
        self,
        stop: float,
        until: float,
        event_budget: Optional[int],
        wall_start: float,
    ) -> None:
        """The untraced run loop: dispatch every event due by ``stop``.

        ``until`` is the target of the enclosing :meth:`run` call (a
        traced run stops at each epoch boundary on the way), and
        ``event_budget``/``wall_start`` are that call's watchdog budgets.
        """
        watchdog = self._watchdog
        wall_limit = watchdog.max_wall_seconds if watchdog is not None else None
        self._running = True
        # Hot loop: the engine spends essentially all of a simulation here,
        # so the per-event work is kept to one pop + the callback itself.
        # Heap and pop are bound to locals, the dispatch wrapper is
        # inlined (one fewer Python frame per event), and the budget
        # checks are single comparisons that short-circuit when no
        # watchdog is installed.  The first event past ``stop`` is pushed
        # back, once per call.
        heap = self.heap
        heappop = heapq.heappop
        # Hot-loop local for the watchdog's wall-time check only.
        monotonic = time.monotonic
        stride = Watchdog.WALL_CHECK_STRIDE
        processed = self._events_processed
        fn: Optional[Callable[..., Any]] = None
        try:
            while heap:
                entry = heappop(heap)
                t, _, fn, args = entry
                if fn is None:
                    # A cancellable Event rides in the args slot.
                    if args.cancelled:
                        if self._cancelled_pending > 0:
                            self._cancelled_pending -= 1
                        continue
                    fn, args = args.fn, args.args
                if t > stop:
                    _heappush(heap, entry)
                    break
                self.now = t
                fn(*args)
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
            self.now = stop
        except SimulationError as exc:
            # Already structured (watchdog, invariant checker, nested
            # engine, ...); just fill in the virtual time if the raiser
            # could not.
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

    @property
    def pending_events(self) -> int:
        """Number of events still queued, including lazily-cancelled ones."""
        return len(self.heap)

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
            "cancelled_pending": self._cancelled_pending,
            "compactions": self._compactions,
            "pending_events": self.pending_events,
            "trace_epochs": self._trace_epochs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={self.pending_events}>"


class PeriodicTimer:
    """Re-arming timer produced by :meth:`Simulator.every`; it fires for
    as long as the simulation runs."""

    __slots__ = ("_sim", "interval", "_fn", "_args", "fires")

    def __init__(self, sim: Simulator, interval: float, fn: Callable[..., Any], args: tuple):
        self._sim = sim
        self.interval = interval
        self._fn = fn
        self._args = args
        self.fires = 0

    def start(self, delay: float) -> None:
        self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        self.fires += 1
        self._fn(*self._args)
        self._sim.schedule(self.interval, self._fire)
