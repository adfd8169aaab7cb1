"""The observability layer: tracing is bit-exact-neutral and schema-locked.

Four claims are pinned here:

* **Determinism** — a traced run produces the identical result digest as
  an untraced one, directly, through the parallel
  executor and the supervised backend, and against the repository's
  golden seeded digests.
* **Schema lock** — the JSONL trace format (header, reserved keys,
  per-event fields) is v1 and changes only with a deliberate bump,
  mirroring the static-analysis JSON schema lock.
* **Metrics** — the registry flattens provider snapshots correctly and
  the ``telemetry`` block survives freezing and pickling.
* **CLI** — ``repro run --trace`` writes a readable trace and
  ``repro trace summarize`` reconstructs the control-law time series.
"""

import io
import json
import pickle

import pytest

from repro.harness import light_tcp, run_experiment
from repro.harness.factories import coupled_factory, pi2_factory
from repro.harness.frozen import freeze_result
from repro.harness.parallel import SweepTask, execute_tasks
from repro.harness.supervisor import SupervisorConfig
from repro.obs import (
    CATEGORIES,
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    MetricsRegistry,
    RecordingTracer,
    install_aqm_tracer,
    read_trace,
    summarize_trace,
)
from tests.harness.test_digest_regression import (
    GOLDEN_ADAPTIVE,
    _adaptive_experiment,
    _digest_hash,
)


def _experiment(seed=3, duration=4.0, factory=None):
    return light_tcp(factory or pi2_factory(), duration=duration, seed=seed)


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

    def test_supervised_backend_traced_parity(self):
        exp = _experiment(duration=3.0)
        reference = run_experiment(exp).digest()
        tracer = RecordingTracer()
        pairs = execute_tasks(
            [SweepTask("cell", exp)], jobs=1, tracer=tracer,
            supervisor=SupervisorConfig(),
        )
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
        assert "update" not in vars(aqm) and "decide" not in vars(aqm)


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
        assert decisions[0]["verdict"] in ("pass", "mark", "drop")
        assert set(epochs[0]) - {"cat", "event", "t"} == {
            "epoch", "heap", "stream",
            "events_processed", "events_batched", "batch_breaks",
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
# Metrics registry and the telemetry block
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_set_increment_snapshot(self):
        registry = MetricsRegistry()
        registry.set("aqm", "Pi2Aqm")
        registry.increment("runs")
        registry.increment("runs", 2)
        snapshot = registry.snapshot()
        assert snapshot["aqm"] == "Pi2Aqm"
        assert snapshot["runs"] == 3
        assert list(snapshot) == sorted(snapshot)

    def test_increment_rejects_non_numeric(self):
        registry = MetricsRegistry()
        registry.set("name", "x")
        with pytest.raises(TypeError):
            registry.increment("name")

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

    def test_engine_lane_peaks_read_old_and_new_epochs(self, tmp_path):
        # Epochs from older traces carry lane fields the summarizer no
        # longer reads (overflow, pool counters) and may lack heap or
        # stream counts; both shapes must summarize.
        header = {"schema": 1, "kind": "repro-trace",
                  "categories": ["aqm", "engine", "harness"]}
        old = {"cat": "engine", "event": "engine_epoch", "t": 0.25,
               "epoch": 1, "overflow": 3, "pool_hits": 0, "pool_misses": 0,
               "events_processed": 10, "events_batched": 0,
               "batch_breaks": 0}
        new = {"cat": "engine", "event": "engine_epoch", "t": 0.5,
               "epoch": 2, "heap": 7, "stream": 2, "events_processed": 20,
               "events_batched": 5, "batch_breaks": 1,
               "cancelled_pending": 0, "compactions": 0}
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in (header, old, new)))
        engine = summarize_trace(path)["engine"]
        assert (engine["max_heap"], engine["max_stream"]) == (7, 2)
        assert engine["events_processed"] == 20

    def test_cli_trace_summarize(self, traced_jsonl):
        from repro.cli import main

        path, _ = traced_jsonl
        out = io.StringIO()
        assert main(["trace", "summarize", str(path)], out=out) == 0
        text = out.getvalue()
        assert "aqm" in text and "engine" in text
        assert "lane peaks: heap=" in text and "stream=" in text
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
