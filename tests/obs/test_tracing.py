"""The observability layer: tracing is bit-exact-neutral and schema-locked.

Five claims are pinned here:

* **Determinism** — a traced run produces the identical result digest as
  an untraced one, directly, through the parallel
  executor and the supervised backend, and against the repository's
  golden seeded digests; an untraced run makes no per-event call into
  ``repro.obs``.
* **Schema lock** — the JSONL trace format (header, reserved keys,
  per-event fields) is v1 and changes only with a deliberate bump.
* **Metrics** — the registry flattens provider snapshots correctly and
  the ``telemetry`` block survives freezing and pickling.
* **Sink contract** — every line ``JsonlTracer`` writes is
  ``json.dumps(record, sort_keys=True, default=str)`` of the event,
  including the ``aqm_decision`` lines the decision hook formats itself,
  and the hook's verdict and ECN names are documented values.
* **CLI** — ``repro run --trace`` writes a readable trace,
  ``repro grid --trace`` traces its inline cells and says on stderr when
  worker cells are untraced, and ``repro trace summarize`` reconstructs
  the control-law time series.
"""

import io
import itertools
import json
import pickle
import sys
from enum import IntEnum
from types import SimpleNamespace

import numpy as np
import pytest

from repro.aqm.base import Decision
from repro.aqm.red import RedAqm
from repro.harness import coexistence_pair, light_tcp, run_experiment
from repro.harness.factories import coupled_factory, pi2_factory
from repro.harness.frozen import freeze_result
from repro.harness.parallel import SweepTask, execute_tasks
from repro.net.packet import ECN
from repro.obs import (
    CATEGORIES,
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    MetricsRegistry,
    RecordingTracer,
    format_trace_summary,
    install_aqm_tracer,
    read_trace,
    summarize_trace,
)
from tests.harness.test_digest_regression import (
    GOLDEN_ADAPTIVE,
    _adaptive_experiment,
    _digest_hash,
)
from tests.harness.test_resilience import _divergent_factory, _quick_experiment

#: The ``aqm_decision`` values docs/OBSERVABILITY.md documents.
DOCUMENTED_VERDICTS = {"pass", "mark", "drop"}
DOCUMENTED_ECN = {"NOT_ECT", "ECT1", "ECT0", "CE"}


def _experiment(seed=3, duration=4.0, factory=None):
    return light_tcp(factory or pi2_factory(), duration=duration, seed=seed)


def _red_factory(rng):
    """RED has no update timer: its trace holds decisions only."""
    return RedAqm(rng=rng)


class _ScriptedAqm:
    """An AQM stand-in whose clock, probability and verdict a test sets."""

    def __init__(self):
        self.sim = SimpleNamespace(now=0.0)
        self.probability = 0.0
        self.verdict = Decision.PASS

    def update(self):
        pass

    def on_enqueue(self, packet):
        return self.verdict


def _line(category, event, t, fields):
    """The JSONL line schema 1 specifies for one event."""
    return json.dumps(
        {"cat": category, "event": event, "t": t, **fields},
        sort_keys=True,
        default=str,
    )


def _untraced_obs_calls(experiment):
    """Run ``experiment`` untraced; (Python calls into repro.obs, events)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module == "repro.obs" or module.startswith("repro.obs."):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run_experiment(experiment)
    finally:
        sys.setprofile(previous)
    return calls, result.bed.sim.events_processed


@pytest.fixture(scope="module")
def traced_jsonl(tmp_path_factory):
    """One traced run shared by the schema-lock and summary tests."""
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    with JsonlTracer(path) as tracer:
        result = run_experiment(_experiment(), tracer=tracer)
    return path, result


# ----------------------------------------------------------------------
# Determinism: tracing observes, never perturbs
# ----------------------------------------------------------------------
class TestDigestParity:
    def test_traced_matches_untraced(self):
        exp = _experiment()
        untraced = run_experiment(exp)
        traced = run_experiment(exp, tracer=RecordingTracer())
        assert traced.digest() == untraced.digest()

    def test_traced_run_reproduces_golden_digest(self):
        result = run_experiment(
            _adaptive_experiment(), tracer=RecordingTracer()
        )
        assert _digest_hash(result) == GOLDEN_ADAPTIVE

    def test_parallel_executor_traced_parity(self):
        exp = _experiment()
        reference = run_experiment(exp).digest()
        tracer = RecordingTracer()
        pairs = execute_tasks(
            [SweepTask("cell", exp)], jobs=1, tracer=tracer
        )
        assert pairs[0][1] is None
        assert pairs[0][0].digest() == reference
        assert tracer.by_event("task_start") and tracer.by_event("task_done")

    def test_capture_mode_inline_cell_is_traced(self):
        # Capture mode runs cells through run_with_retries; its first
        # attempt is traced like a raise-mode cell, and bit-exact.
        exp = _experiment(duration=2.0)
        reference = run_experiment(exp).digest()
        tracer = RecordingTracer()
        pairs = execute_tasks(
            [SweepTask("cell", exp)], jobs=1, tracer=tracer,
            on_error="capture", max_retries=1,
        )
        assert pairs[0][1] is None
        assert pairs[0][0].digest() == reference
        assert tracer.by_event("aqm_decision") and tracer.by_event("aqm_update")
        assert tracer.by_event("engine_epoch")

    def test_capture_mode_retry_is_untraced(self):
        # The first attempt diverges at the AQM's first update, before
        # the first engine epoch; the retry on a bumped seed succeeds and
        # would add an epoch every 0.25 s if it were traced.
        exp = _quick_experiment(aqm_factory=_divergent_factory(1), seed=1)
        tracer = RecordingTracer()
        pairs = execute_tasks(
            [SweepTask("flaky", exp)], jobs=1, tracer=tracer,
            on_error="capture", max_retries=1,
        )
        assert pairs[0][1] is None and pairs[0][0] is not None
        assert not tracer.by_event("engine_epoch")
        assert tracer.by_event("task_done")

    def test_supervised_backend_traced_parity(self):
        exp = _experiment(duration=3.0)
        reference = run_experiment(exp).digest()
        tracer = RecordingTracer()
        pairs = execute_tasks([SweepTask("cell", exp)], jobs=2, tracer=tracer)
        assert pairs[0][0].digest() == reference
        starts = tracer.by_event("task_start")
        assert starts and starts[0][3]["backend"] == "supervised"
        assert tracer.by_event("task_done")

    def test_untraced_aqm_carries_no_wrapper(self):
        # install_aqm_tracer must be a no-op without a tracer: the
        # instance keeps using the class methods (zero overhead off).
        from repro.core.pi2 import Pi2Aqm

        aqm = Pi2Aqm()
        assert install_aqm_tracer(aqm, None) is aqm
        assert "update" not in vars(aqm) and "on_enqueue" not in vars(aqm)

    def test_tracing_off_costs_no_obs_call_per_event(self):
        # Tracing off is free: an untraced run enters repro.obs a fixed
        # number of times (set-up, teardown telemetry), so doubling the
        # simulated time must not add a single call.
        short_calls, short_events = _untraced_obs_calls(_experiment(duration=2.0))
        long_calls, long_events = _untraced_obs_calls(_experiment(duration=4.0))
        assert long_events > short_events
        assert long_calls == short_calls


# ----------------------------------------------------------------------
# JSONL schema lock (v1)
# ----------------------------------------------------------------------
class TestTraceSchema:
    def test_schema_version_locked(self):
        assert TRACE_SCHEMA_VERSION == 1
        assert CATEGORIES == ("aqm", "engine", "harness")

    def test_header_line_locked(self, traced_jsonl):
        path, _ = traced_jsonl
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {
            "schema": 1,
            "kind": "repro-trace",
            "categories": ["aqm", "engine", "harness"],
        }

    def test_every_event_carries_reserved_keys(self, traced_jsonl):
        path, _ = traced_jsonl
        lines = path.read_text().splitlines()[1:]
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"cat", "event", "t"} <= set(record)
            assert record["cat"] in CATEGORIES
            assert isinstance(record["t"], (int, float))

    def test_aqm_and_engine_events_present_with_locked_fields(
        self, traced_jsonl
    ):
        path, _ = traced_jsonl
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()[1:]
        ]
        updates = [e for e in events if e["event"] == "aqm_update"]
        decisions = [e for e in events if e["event"] == "aqm_decision"]
        epochs = [e for e in events if e["event"] == "engine_epoch"]
        assert updates and decisions and epochs
        assert {"aqm", "p_prime", "p", "delay", "target", "error"} <= set(
            updates[0]
        )
        assert {"aqm", "verdict", "p", "ecn", "flow"} <= set(decisions[0])
        assert decisions[0]["verdict"] in DOCUMENTED_VERDICTS
        assert set(epochs[0]) - {"cat", "event", "t"} == {
            "epoch", "heap", "events_processed",
            "cancelled_pending", "compactions",
        }

    def test_coupled_updates_carry_ps_and_pc(self, tmp_path):
        tracer = RecordingTracer(categories=["aqm"])
        run_experiment(
            _experiment(duration=3.0, factory=coupled_factory()),
            tracer=tracer,
        )
        updates = tracer.by_event("aqm_update")
        assert updates
        assert {"ps", "pc"} <= set(updates[0][3])

    def test_category_filter_drops_unselected(self, tmp_path):
        path = tmp_path / "aqm-only.jsonl"
        with JsonlTracer(path, categories=["aqm"]) as tracer:
            run_experiment(_experiment(duration=3.0), tracer=tracer)
            assert tracer.counts["aqm"] > 0
            assert tracer.counts["engine"] == 0
        cats = {
            json.loads(line)["cat"]
            for line in path.read_text().splitlines()[1:]
        }
        assert cats == {"aqm"}

    def test_unknown_category_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace categories"):
            JsonlTracer(tmp_path / "x.jsonl", categories=["bogus"])

    def test_read_trace_rejects_alien_files(self, tmp_path):
        alien = tmp_path / "alien.jsonl"
        alien.write_text('{"not": "a trace"}\n')
        with pytest.raises(ValueError):
            read_trace(alien)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_trace(empty)


# ----------------------------------------------------------------------
# Sink contract: one encoding per line, documented names
# ----------------------------------------------------------------------
class TestSinkEncoding:
    def test_every_line_is_the_dumps_encoding(self, tmp_path):
        class Opaque:
            def __str__(self):
                return "opaque<7>"

        events = [
            ("aqm", "crafted", 0.125, {
                "nan": float("nan"),
                "inf": float("inf"),
                "neg_inf": float("-inf"),
                "neg_zero": -0.0,
                "big": 1e16,
                "flag": True,
                "none": None,
                "ecn": ECN.CE,
                "opaque": Opaque(),
                "text": "délai ≤ 5 µs",
            }),
            ("engine", "crafted", 1e-9, {}),
            ("harness", "crafted", 0.0, {"nested": {"b": [1, 2.5], "a": "x"}}),
        ]
        path = tmp_path / "crafted.jsonl"
        with JsonlTracer(path) as tracer:
            for event in events:
                tracer.emit(*event)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        assert header == json.dumps(
            {"schema": 1, "kind": "repro-trace", "categories": list(CATEGORIES)},
            sort_keys=True,
        )
        assert lines == [_line(*event) for event in events]
        assert "NaN" in lines[0] and "-Infinity" in lines[0]
        assert '"opaque": "opaque<7>"' in lines[0]
        assert '"ecn": 3' in lines[0]

    def test_decision_fast_line_is_the_dumps_encoding(self, tmp_path):
        # A JsonlTracer's decision hook formats its own line when t and
        # p are finite exact floats and flow is an exact int; every other
        # value must fall back to emit.  Either way the line is dumps'.
        class Flow(IntEnum):
            UDP = 7

        nan, inf = float("nan"), float("inf")
        cases = [(t, 0.25, 3) for t in (1.5, 0, True, np.float64(2.5), nan, inf, -inf)]
        cases += [
            (1.5, p, 3)
            for p in (1, True, np.float64(0.1), nan, inf, -0.0, 1e16, 1e-9, 0.0)
        ]
        cases += [(1.5, 0.25, flow) for flow in (True, Flow.UDP, "udp-0", 10**20, -1)]
        non_ascii = type('Pi²Aqm "délai"', (_ScriptedAqm,), {})
        path = tmp_path / "decisions.jsonl"
        expected = []
        with JsonlTracer(path) as tracer:
            for cls in (_ScriptedAqm, non_ascii):
                aqm = install_aqm_tracer(cls(), tracer)
                for (t, p, flow), verdict, ecn in itertools.product(
                    cases, Decision, ECN
                ):
                    aqm.sim.now, aqm.probability, aqm.verdict = t, p, verdict
                    packet = SimpleNamespace(ecn=ecn, flow_id=flow)
                    assert aqm.on_enqueue(packet) is verdict
                    expected.append(_line("aqm", "aqm_decision", t, {
                        "aqm": cls.__name__,
                        "verdict": verdict.name.lower(),
                        "p": p,
                        "ecn": ecn.name,
                        "flow": flow,
                    }))
                # A detached AQM (no simulator) records t = 0.0.
                aqm.sim, aqm.probability, aqm.verdict = None, 0.0, Decision.DROP
                aqm.on_enqueue(SimpleNamespace(ecn=ECN.CE, flow_id=0))
                expected.append(_line("aqm", "aqm_decision", 0.0, {
                    "aqm": cls.__name__, "verdict": "drop", "p": 0.0,
                    "ecn": "CE", "flow": 0,
                }))
            assert tracer.counts["aqm"] == len(expected)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == expected

    def test_jsonl_lines_encode_the_recorded_events(self, tmp_path):
        exp = _experiment(duration=2.0)
        recorder = RecordingTracer()
        run_experiment(exp, tracer=recorder)
        path = tmp_path / "cell.jsonl"
        with JsonlTracer(path) as tracer:
            run_experiment(exp, tracer=tracer)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert recorder.by_event("aqm_decision") and recorder.by_event("engine_epoch")
        assert lines == [_line(*event) for event in recorder.events]

    def test_coupled_pair_marks_both_ect_codepoints(self):
        # DCTCP sends ECT(1) and ECN-Cubic ECT(0); the coupled AQM marks
        # both, so the hook's name lookup sees every codepoint it maps.
        tracer = RecordingTracer(categories=["aqm"])
        run_experiment(
            coexistence_pair(
                coupled_factory(), cc_b="ecn-cubic", duration=3.0,
                warmup=1.5, seed=1,
            ),
            tracer=tracer,
        )
        decisions = [fields for *_, fields in tracer.by_event("aqm_decision")]
        assert {d["verdict"] for d in decisions} <= DOCUMENTED_VERDICTS
        assert {d["ecn"] for d in decisions} <= DOCUMENTED_ECN
        marked = {d["ecn"] for d in decisions if d["verdict"] == "mark"}
        assert {"ECT0", "ECT1"} <= marked
        assert {d["flow"] for d in decisions} == {0, 1}


# ----------------------------------------------------------------------
# Metrics registry and the telemetry block
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_set_snapshot(self):
        registry = MetricsRegistry()
        registry.set("aqm", "Pi2Aqm")
        registry.set("runs", 3)
        snapshot = registry.snapshot()
        assert snapshot["aqm"] == "Pi2Aqm"
        assert snapshot["runs"] == 3
        assert list(snapshot) == sorted(snapshot)

    def test_provider_flattening_and_duplicate_prefix(self):
        registry = MetricsRegistry()
        registry.register_provider("engine", lambda: {"events": 7})
        with pytest.raises(ValueError):
            registry.register_provider("engine", lambda: {})
        assert registry.snapshot()["engine.events"] == 7

    def test_run_telemetry_covers_all_providers(self):
        result = run_experiment(_experiment(duration=3.0))
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry["seed"] == 3
        assert not any("scheduler" in key or "pool" in key for key in telemetry)
        for prefix in ("engine.", "aqm.", "link."):
            assert any(key.startswith(prefix) for key in telemetry), prefix
        assert telemetry["aqm.decisions"] > 0
        assert telemetry["engine.events_processed"] > 0

    def test_telemetry_survives_freeze_and_pickle(self):
        result = run_experiment(_experiment(duration=3.0))
        frozen = freeze_result(result)
        assert frozen.telemetry == result.telemetry
        thawed = pickle.loads(pickle.dumps(frozen))
        assert thawed.telemetry == result.telemetry
        assert thawed.digest() == result.digest()


# ----------------------------------------------------------------------
# Summary + CLI surface
# ----------------------------------------------------------------------
class TestSummarizeTrace:
    def test_reconstructs_control_law_series(self, traced_jsonl):
        path, result = traced_jsonl
        summary = summarize_trace(path)
        assert summary["schema"] == 1
        aqm = summary["aqm"]
        assert aqm["updates"] > 0
        series = aqm["series"]
        assert len(series["t"]) == len(series["p_prime"]) == len(
            series["delay"]
        ) > 0
        assert summary["engine"]["epochs"] > 0
        total_decisions = sum(aqm["decisions"].values())
        assert total_decisions == result.telemetry["aqm.decisions"]

    def test_decisions_without_updates_summarize(self, tmp_path):
        # RED has no update timer, so its trace holds aqm_decision
        # lines only; the verdict counts must still be reported.
        path = tmp_path / "red.jsonl"
        with JsonlTracer(path, categories=["aqm"]) as tracer:
            result = run_experiment(
                _experiment(duration=3.0, factory=_red_factory),
                tracer=tracer,
            )
        summary = summarize_trace(path)
        aqm = summary["aqm"]
        assert aqm is not None
        assert aqm["aqm"] == "RedAqm" and aqm["updates"] == 0
        assert sum(aqm["decisions"].values()) == result.telemetry["aqm.decisions"] > 0
        assert aqm["series"] == {"t": [], "p_prime": [], "delay": []}
        for key in ("first_t", "last_t", "final_p_prime", "convergence_time",
                    "mean_delay", "max_delay"):
            assert aqm[key] is None, key
        text = format_trace_summary(summary)
        assert "control loop (RedAqm): 0 updates\n  decisions: " in text
        assert "mean queue delay" not in text and "None" not in text

    def test_engine_lane_peaks_read_old_and_new_epochs(self, tmp_path):
        # Epochs from older traces carry lane fields the summarizer no
        # longer reads (overflow, pool counters), may lack heap or stream
        # counts, and carry batching counters; the one-heap shape has
        # none of those.  Every shape must summarize, and the text shows
        # the stream lane and batching only for traces that have them.
        header = {"schema": 1, "kind": "repro-trace",
                  "categories": ["aqm", "engine", "harness"]}
        wheel = {"cat": "engine", "event": "engine_epoch", "t": 0.25,
                 "epoch": 1, "overflow": 3, "pool_hits": 0, "pool_misses": 0,
                 "events_processed": 10, "events_batched": 0,
                 "batch_breaks": 0}
        lanes = {"cat": "engine", "event": "engine_epoch", "t": 0.5,
                 "epoch": 2, "heap": 7, "stream": 2, "events_processed": 20,
                 "events_batched": 5, "batch_breaks": 1,
                 "cancelled_pending": 0, "compactions": 0}
        one_heap = {"cat": "engine", "event": "engine_epoch", "t": 0.25,
                    "epoch": 1, "heap": 9, "events_processed": 30,
                    "cancelled_pending": 0, "compactions": 0}

        def summarize(name, *epochs):
            path = tmp_path / name
            path.write_text(
                "".join(json.dumps(r) + "\n" for r in (header, *epochs)))
            summary = summarize_trace(path)
            return summary["engine"], format_trace_summary(summary)

        engine, text = summarize("mixed.jsonl", wheel, lanes)
        assert (engine["max_heap"], engine["max_stream"]) == (7, 2)
        assert engine["events_processed"] == 20
        assert "5 batched (1 batch breaks)" in text
        assert "lane peaks: heap=7 stream=2" in text

        engine, text = summarize("one-heap.jsonl", one_heap)
        assert engine["max_heap"] == 9
        assert engine["events_processed"] == 30
        assert "max_stream" not in engine and "events_batched" not in engine
        lines = text.splitlines()
        assert lines[-2].endswith("t=0.250s, 30 events processed")
        assert lines[-1] == "  lane peaks: heap=9"
        assert "None" not in text and "stream=" not in text

    def test_cli_trace_summarize(self, traced_jsonl):
        from repro.cli import main

        path, _ = traced_jsonl
        out = io.StringIO()
        assert main(["trace", "summarize", str(path)], out=out) == 0
        text = out.getvalue()
        assert "aqm" in text and "engine" in text
        assert "lane peaks: heap=" in text
        out = io.StringIO()
        assert main(["trace", "summarize", str(path), "--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["events"] > 0

    def test_cli_trace_summarize_bad_path(self, tmp_path):
        from repro.cli import main

        out = io.StringIO()
        assert main(
            ["trace", "summarize", str(tmp_path / "missing.jsonl")], out=out
        ) == 1

    def test_cli_run_with_trace_flag(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        out = io.StringIO()
        code = main(
            ["run", "--scenario", "light", "--aqm", "pi2",
             "--duration", "4", "--trace", str(path),
             "--trace-filter", "aqm,engine"],
            out=out,
        )
        assert code == 0
        assert f"-> {path}" in out.getvalue()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["categories"] == ["aqm", "engine"]

    def test_cli_grid_traces_inline_capture_cells(self, tmp_path, capsys):
        # repro grid defaults to --on-error capture; its inline cells
        # must still record simulation events, with no stderr note.
        from repro.cli import main

        path = tmp_path / "grid.jsonl"
        out = io.StringIO()
        code = main(
            ["grid", "--links", "4", "--rtts", "5", "--duration", "2",
             "--no-cache", "--jobs", "1", "--trace", str(path),
             "--trace-filter", "aqm,engine"],
            out=out,
        )
        assert code == 0
        categories = summarize_trace(path)["categories"]
        assert categories["aqm"] > 0 and categories["engine"] > 0
        assert "--jobs 1" not in capsys.readouterr().err

    def test_cli_notes_untraced_worker_cells(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "grid.jsonl"
        code = main(
            ["grid", "--links", "4", "--rtts", "5", "--duration", "2",
             "--no-cache", "--jobs", "2", "--trace", str(path)],
            out=io.StringIO(),
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        notes = [line for line in err if "--jobs 1" in line]
        assert len(notes) == 1 and "untraced" in notes[0]
        assert summarize_trace(path)["categories"]["aqm"] == 0
