"""The Tracer protocol, the JSONL sink, and the AQM instrumentation hook.

A tracer is a passive observer: components *emit* typed events into it
and never read anything back.  Because instrumentation is installed by
swapping bound methods / setting an optional engine field — never by
adding ``if tracing`` branches to per-packet hot paths — a run without
a tracer executes exactly the code it executed before this module
existed, and a run *with* a tracer produces bit-identical
:meth:`~repro.harness.experiment.ResultMetrics.digest` values.

Event records are JSON objects with three reserved keys — ``cat`` (one
of :data:`CATEGORIES`), ``event`` (the type), ``t`` (virtual time, or
0.0 for parent-process harness spans that carry ``wall`` instead) —
plus event-specific fields.  The first line of a JSONL trace is a
header carrying :data:`TRACE_SCHEMA_VERSION`; the full field-by-field
schema is documented in ``docs/OBSERVABILITY.md`` and locked by
``tests/obs/test_tracing.py``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.aqm.base import Decision
from repro.net.packet import ECN

try:  # pragma: no cover - Protocol is 3.8+; the repo floor is 3.10
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "CATEGORIES",
    "Tracer",
    "JsonlTracer",
    "RecordingTracer",
    "engine_tracer",
    "install_aqm_tracer",
]

#: Version of the on-disk JSONL event schema.  Bump only with a
#: migration note in docs/OBSERVABILITY.md; tests lock the value.
TRACE_SCHEMA_VERSION = 1

#: Event categories, in documentation order: AQM control-law events,
#: engine dispatch-epoch snapshots, harness lifecycle spans.
CATEGORIES = ("aqm", "engine", "harness")

#: The ``verdict`` and ``ecn`` names ``aqm_decision`` records: the hook
#: reads them here, one dict lookup per packet, not through an enum
#: ``.name`` descriptor call.
_VERDICT_NAMES = {decision: decision.name.lower() for decision in Decision}
_ECN_NAMES = {ecn: ecn.name for ecn in ECN}
#: The same names as JSON strings, spliced into the decision fast line.
_VERDICT_JSON = {d: encode_basestring_ascii(n) for d, n in _VERDICT_NAMES.items()}
_ECN_JSON = {ecn: encode_basestring_ascii(n) for ecn, n in _ECN_NAMES.items()}


class Tracer(Protocol):
    """What a telemetry sink must implement.

    Implementations must treat every method as fire-and-forget: no
    exceptions for unknown categories, no feedback into the caller.
    """

    def wants(self, category: str) -> bool:
        """Whether events of ``category`` should be generated at all.

        Instrumentation sites may use this to skip *installing* hooks
        (never to branch per event — sinks filter in :meth:`emit`).
        """
        ...

    def emit(
        self, category: str, event: str, t: float, fields: Mapping[str, Any]
    ) -> None:
        """Record one event at virtual time ``t`` with extra ``fields``."""
        ...

    def close(self) -> None:
        """Flush and release the sink; further emits are undefined."""
        ...


def _parse_categories(categories: Optional[Iterable[str]]) -> frozenset:
    """Validate a category selection against :data:`CATEGORIES`."""
    if categories is None:
        return frozenset(CATEGORIES)
    selected = frozenset(str(c).strip() for c in categories if str(c).strip())
    unknown = selected - frozenset(CATEGORIES)
    if unknown:
        raise ValueError(
            f"unknown trace categories {sorted(unknown)} "
            f"(known: {', '.join(CATEGORIES)})"
        )
    return selected


class JsonlTracer:
    """Append-only JSONL sink: one header line, then one object per event.

    Each line is ``json.dumps(record, sort_keys=True, default=str)`` of
    the header or of ``{"cat": category, "event": event, "t": t,
    **fields}``, produced by one encoder built at construction (``dumps``
    with non-default options would build a fresh encoder per record).
    The one exception is the per-packet ``aqm_decision`` record, which
    :func:`install_aqm_tracer`'s hook formats itself, to the same bytes,
    and writes and counts through this sink's ``_write`` and
    :attr:`counts`.

    Parameters
    ----------
    path:
        Output file; truncated on open.
    categories:
        Subset of :data:`CATEGORIES` to record (None = all).  Events of
        unselected categories are dropped silently in :meth:`emit`, so
        instrumented components may emit unconditionally.
    """

    def __init__(
        self,
        path: Union[str, Path],
        categories: Optional[Iterable[str]] = None,
    ):
        self.path = Path(path)
        self.categories = _parse_categories(categories)
        #: Events written, per category (header line not counted).
        self.counts: Dict[str, int] = {c: 0 for c in CATEGORIES}
        self._encode = json.JSONEncoder(sort_keys=True, default=str).encode
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write = self._fh.write
        header = {
            "schema": TRACE_SCHEMA_VERSION,
            "kind": "repro-trace",
            "categories": sorted(self.categories),
        }
        self._write(self._encode(header) + "\n")

    def wants(self, category: str) -> bool:
        """Whether ``category`` is in this sink's selection."""
        return category in self.categories

    def emit(
        self, category: str, event: str, t: float, fields: Mapping[str, Any]
    ) -> None:
        """Serialize one event; unselected categories are dropped."""
        if category not in self.categories:
            return
        self._write(
            self._encode({"cat": category, "event": event, "t": t, **fields})
            + "\n"
        )
        self.counts[category] += 1

    @property
    def total_events(self) -> int:
        """Events written across all categories."""
        return sum(self.counts.values())

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RecordingTracer:
    """In-memory sink for tests: keeps ``(category, event, t, fields)``."""

    def __init__(self, categories: Optional[Iterable[str]] = None):
        self.categories = _parse_categories(categories)
        #: Every emitted event, in emission order.
        self.events: List[Tuple[str, str, float, Dict[str, Any]]] = []

    def wants(self, category: str) -> bool:
        """Whether ``category`` is in this sink's selection."""
        return category in self.categories

    def emit(
        self, category: str, event: str, t: float, fields: Mapping[str, Any]
    ) -> None:
        """Append one event to :attr:`events`."""
        if category in self.categories:
            self.events.append((category, event, t, dict(fields)))

    def close(self) -> None:
        """No-op (nothing to flush)."""

    def by_event(self, event: str) -> List[Tuple[str, str, float, Dict[str, Any]]]:
        """Events of one type, in emission order."""
        return [e for e in self.events if e[1] == event]


def engine_tracer(tracer: Optional[Any]) -> Optional[Any]:
    """``tracer`` when it subscribes to ``engine`` events, else None.

    The engine only switches to its chunked, epoch-snapshotting run
    loop when it holds a tracer, so the subscription check must happen
    *here* (in the observability layer) rather than inside the engine —
    simulation packages never read tracer results.
    """
    if tracer is not None and tracer.wants("engine"):
        return tracer
    return None


def install_aqm_tracer(aqm: Optional[Any], tracer: Optional[Any]) -> Optional[Any]:
    """Instrument one AQM instance with control-law tracing.

    Installs ``update``/``on_enqueue`` wrappers as *instance attributes*,
    so it must run **before** the AQM is attached to a simulator/queue
    (attachment binds ``aqm.update`` into the periodic update timer and
    the queue binds ``aqm.on_enqueue`` when it is constructed — both find
    the wrapper only if it is already installed).  An un-traced AQM carries
    no wrapper and pays zero overhead.

    The wrappers are read-only observers: the update wrapper reads the
    controller's ``prev_delay`` before and after the real update (the
    controller stores the delay it acted on there), so no state is
    recomputed or mutated and seeded behaviour is bit-identical.

    Emits per update: ``aqm_update`` with the queue-delay input, the
    target, the error terms, ``p_prime`` (the linear probability the PI
    core computed) and ``p`` (the applied probability; for coupled AQMs
    additionally ``ps``/``pc``).  Emits per enqueue verdict:
    ``aqm_decision`` with the verdict name, applied probability, ECN
    codepoint and flow id.

    ``aqm_decision`` is the one record written once per packet, so into a
    :class:`JsonlTracer` it takes a fast line: one f-string whose fixed
    text (sorted keys, the JSON-quoted AQM class name, the pre-quoted
    verdict and ECN names) is settled here, leaving ``float.__repr__`` of
    ``t`` and ``p`` and ``int.__repr__`` of ``flow`` per packet.  Those
    reprs are the encoder's output only for an exact finite ``float``
    and an exact ``int``, so any other value (an ``int`` or
    ``np.float64`` probability, NaN, a ``bool`` or ``IntEnum`` flow id)
    and any other sink go through :meth:`Tracer.emit`, and every line
    stays schema 1's ``json.dumps(record, sort_keys=True, default=str)``.
    The other records (``aqm_update`` once per update interval,
    ``engine_epoch``, harness spans) are about 3 % of a trace's lines
    and keep :meth:`JsonlTracer.emit`: a fast line for each of their
    shapes would add code, not measurable time.

    Returns ``aqm`` (possibly None, possibly uninstrumented when the
    tracer does not subscribe to the ``aqm`` category).
    """
    if aqm is None or tracer is None or not tracer.wants("aqm"):
        return aqm
    original_update = aqm.update
    original_on_enqueue = aqm.on_enqueue
    emit = tracer.emit
    kind = type(aqm).__name__
    controller = getattr(aqm, "controller", None)
    # The decision fast line writes and counts through the sink itself;
    # ``head`` is its fixed text up to the ECN name.
    jsonl = type(tracer) is JsonlTracer
    write, counts = (tracer._write, tracer.counts) if jsonl else (None, None)
    head = '{"aqm": ' + encode_basestring_ascii(kind) + ', "cat": "aqm", "ecn": '

    def traced_update() -> None:
        """Run the real control-law update, then emit ``aqm_update``."""
        prev_delay = controller.prev_delay if controller is not None else None
        original_update()
        sim = aqm.sim
        now = sim.now if sim is not None else 0.0
        fields: Dict[str, Any] = {
            "aqm": kind,
            "p_prime": aqm.raw_probability,
            "p": aqm.probability,
        }
        if controller is not None:
            # PIController.update() stores the delay it acted on in
            # prev_delay, so this re-reads — never recomputes — state.
            delay = controller.prev_delay
            fields["delay"] = delay
            fields["target"] = controller.target
            fields["error"] = delay - controller.target
            if prev_delay is not None:
                fields["delta_error"] = delay - prev_delay
        classic = getattr(aqm, "classic_probability", None)
        if classic is not None:
            fields["ps"] = aqm.probability
            fields["pc"] = classic
        emit("aqm", "aqm_update", now, fields)

    def traced_on_enqueue(packet: Any) -> Any:
        """Run the real verdict, then record ``aqm_decision``."""
        decision = original_on_enqueue(packet)
        sim = aqm.sim
        now = sim.now if sim is not None else 0.0
        p = aqm.probability
        flow = packet.flow_id
        if (
            jsonl
            and type(now) is float
            and type(p) is float
            and type(flow) is int
            and isfinite(now)
            and isfinite(p)
        ):
            write(
                f'{head}{_ECN_JSON[packet.ecn]}, "event": "aqm_decision", '
                f'"flow": {flow!r}, "p": {p!r}, "t": {now!r}, '
                f'"verdict": {_VERDICT_JSON[decision]}}}\n'
            )
            counts["aqm"] += 1
        else:
            emit(
                "aqm",
                "aqm_decision",
                now,
                {
                    "aqm": kind,
                    "verdict": _VERDICT_NAMES[decision],
                    "p": p,
                    "ecn": _ECN_NAMES[packet.ecn],
                    "flow": flow,
                },
            )
        return decision

    aqm.update = traced_update
    aqm.on_enqueue = traced_on_enqueue
    return aqm
