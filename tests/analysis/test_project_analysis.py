"""Tests for the two-pass project analyzer: graph, TAINT, UNIT, ratchet.

Covers the pass-1 index (call-graph construction, method resolution,
cycles, decorated functions), the interprocedural TAINT rule (multi-hop
source-to-sink flow, sanitizers, per-function summaries), the UNIT
dimensional analysis, the generalized findings baseline, SARIF output,
and the incremental runner's full-run parity.
"""

import json
from io import StringIO
from pathlib import Path

from repro.analysis.static import (
    RULES,
    Report,
    SourceFile,
    analyze_paths,
    apply_baseline,
    check_source,
    load_baseline,
    run_check,
    to_sarif,
)
from repro.analysis.static.core import Finding
from repro.analysis.static.graph import ProjectIndex, module_name_for


def _source(text, name="repro/sim/mod.py", package=None, tmp=None):
    path = (tmp / name) if tmp is not None else Path(name)
    return SourceFile(path, text=text, package=package,
                      display_path=str(name))


def _index(*files):
    """Build a ProjectIndex from (name, text) pairs."""
    return ProjectIndex.build(
        [_source(text, name=name) for name, text in files]
    )


def _check(text, package, rules):
    source = _source(text, package=package)
    findings, suppressed = check_source(
        source, [RULES[name] for name in rules]
    )
    return findings, suppressed


def _write_tree(tmp_path, files):
    """Materialise {relative name: text} under tmp_path/repro/..."""
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return tmp_path


# ----------------------------------------------------------------------
# Pass 1: the project index
# ----------------------------------------------------------------------
class TestProjectIndex:
    def test_module_name_inference(self):
        assert module_name_for(
            _source("", name="src/repro/aqm/pi.py")
        ) == "repro.aqm.pi"
        assert module_name_for(
            _source("", name="src/repro/aqm/__init__.py")
        ) == "repro.aqm"
        assert module_name_for(_source("", name="fixture.py")) == "fixture"

    def test_call_graph_and_reverse_edges(self):
        idx = _index((
            "repro/sim/a.py",
            "def helper():\n    return 1\n\ndef top():\n    return helper()\n",
        ))
        assert "repro.sim.a.helper" in idx.call_graph["repro.sim.a.top"]
        assert "repro.sim.a.top" in idx.reverse_call_graph["repro.sim.a.helper"]

    def test_cross_module_call_through_import(self):
        idx = _index(
            ("repro/sim/a.py", "def helper():\n    return 1\n"),
            (
                "repro/sim/b.py",
                "from repro.sim.a import helper\n\n"
                "def top():\n    return helper()\n",
            ),
        )
        assert "repro.sim.a.helper" in idx.call_graph["repro.sim.b.top"]
        assert "repro.sim.b" in idx.module_deps
        assert "repro.sim.a" in idx.module_deps["repro.sim.b"]

    def test_method_resolution_through_bases(self):
        idx = _index((
            "repro/sim/c.py",
            "class Base:\n"
            "    def step(self):\n        return 0\n\n"
            "class Child(Base):\n"
            "    def run(self):\n        return self.step()\n",
        ))
        assert (
            idx.resolve_method("repro.sim.c.Child", "step")
            == "repro.sim.c.Base.step"
        )
        assert (
            "repro.sim.c.Base.step"
            in idx.call_graph["repro.sim.c.Child.run"]
        )

    def test_cyclic_calls_and_cyclic_bases_terminate(self):
        idx = _index((
            "repro/sim/d.py",
            "def f():\n    return g()\n\ndef g():\n    return f()\n\n"
            "class A(B):\n    pass\n\nclass B(A):\n    pass\n",
        ))
        assert "repro.sim.d.g" in idx.call_graph["repro.sim.d.f"]
        assert idx.resolve_method("repro.sim.d.A", "missing") is None
        assert "repro.sim.d.A" in idx.mro("repro.sim.d.A")

    def test_decorated_functions_are_indexed(self):
        idx = _index((
            "repro/sim/e.py",
            "import functools\n\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def cached():\n    return 1\n\n"
            "class C:\n"
            "    @property\n"
            "    def prop(self):\n        return 2\n"
            "    @staticmethod\n"
            "    def stat(x):\n        return x\n",
        ))
        assert "repro.sim.e.cached" in idx.functions
        assert "functools.lru_cache" in idx.functions[
            "repro.sim.e.cached"
        ].decorators
        assert idx.functions["repro.sim.e.C.prop"].is_property
        stat = idx.functions["repro.sim.e.C.stat"]
        assert stat.is_static
        # Caller-visible positional params skip self only for bound methods.
        assert stat.positional_param(0) == "x"
        assert idx.functions["repro.sim.e.C.prop"].positional_param(0) is None

    def test_attr_class_inference_resolves_self_attr_calls(self):
        idx = _index((
            "repro/sim/f.py",
            "class Ctl:\n"
            "    def update(self, d):\n        return d\n\n"
            "class Aqm:\n"
            "    def __init__(self):\n"
            "        self.ctl = Ctl()\n"
            "    def tick(self):\n"
            "        return self.ctl.update(0.0)\n",
        ))
        assert idx.attr_class("repro.sim.f.Aqm", "ctl") == "repro.sim.f.Ctl"
        assert "repro.sim.f.Ctl.update" in idx.call_graph["repro.sim.f.Aqm.tick"]

    def test_dependents_closure_is_transitive(self):
        idx = _index(
            ("repro/sim/base.py", "def low():\n    return 1\n"),
            (
                "repro/sim/mid.py",
                "from repro.sim.base import low\n\n"
                "def mid():\n    return low()\n",
            ),
            (
                "repro/sim/top.py",
                "from repro.sim.mid import mid\n\n"
                "def top():\n    return mid()\n",
            ),
        )
        dirty = idx.dependents_of(["repro/sim/base.py"])
        assert dirty == {
            "repro/sim/base.py", "repro/sim/mid.py", "repro/sim/top.py"
        }
        assert idx.dependents_of(["repro/sim/top.py"]) == {"repro/sim/top.py"}


# ----------------------------------------------------------------------
# TAINT
# ----------------------------------------------------------------------
class TestTaint:
    def test_direct_wall_clock_into_schedule(self):
        findings, _ = _check(
            "import time\n\n"
            "def arm(sim):\n"
            "    sim.schedule(time.time(), arm)\n",
            package="sim",
            rules=["TAINT"],
        )
        assert len(findings) == 1
        assert "wall-clock" in findings[0].message

    def test_two_hop_flow_reports_via_chain(self):
        findings, _ = _check(
            "import time\n\n"
            "def _now():\n    return time.time()\n\n"
            "def _jitter():\n    return _now() * 1e-3\n\n"
            "def arm(sim):\n    sim.schedule(_jitter(), arm)\n",
            package="sim",
            rules=["TAINT"],
        )
        assert len(findings) == 1
        assert "via _jitter -> _now" in findings[0].message

    def test_clamp_and_default_stream_sanitize(self):
        findings, _ = _check(
            "import time\n\n"
            "def clamped():\n    return clamp_unit(time.time())\n\n"
            "def seeded():\n    return default_stream()\n\n"
            "def arm(sim):\n"
            "    sim.schedule(clamped(), arm)\n"
            "    sim.schedule(seeded(), arm)\n",
            package="sim",
            rules=["TAINT"],
        )
        assert findings == []

    def test_environment_read_into_probability_write(self):
        findings, _ = _check(
            "import os\n\n"
            "def tune(self):\n"
            "    scale = float(os.environ['SCALE'])\n"
            "    self.p = scale\n",
            package="aqm",
            rules=["TAINT"],
        )
        assert len(findings) == 1
        assert "probability write" in findings[0].message

    def test_unseeded_rng_into_digest(self):
        findings, _ = _check(
            "import hashlib\n"
            "import random\n\n"
            "def fingerprint():\n"
            "    h = hashlib.sha256()\n"
            "    h.update(str(random.random()).encode())\n"
            "    return h.hexdigest()\n",
            package="harness",
            rules=["TAINT"],
        )
        assert len(findings) == 1
        assert "digest input" in findings[0].message

    def test_tainted_argument_into_sinking_callee(self):
        findings, _ = _check(
            "import time\n\n"
            "def arm_at(sim, when):\n"
            "    sim.schedule(when, arm_at)\n\n"
            "def caller(sim):\n"
            "    arm_at(sim, time.time())\n",
            package="sim",
            rules=["TAINT"],
        )
        # One finding at the call site passing the tainted argument.
        assert any("inside arm_at()" in f.message for f in findings)

    def test_set_iteration_taints_loop_variable(self):
        findings, _ = _check(
            "def arm(sim, flows):\n"
            "    for f in set(flows):\n"
            "        sim.schedule(f, arm)\n",
            package="sim",
            rules=["TAINT"],
        )
        assert len(findings) == 1
        assert "hash-order" in findings[0].message

    def test_virtual_time_stays_clean(self):
        findings, _ = _check(
            "def arm(sim, interval):\n"
            "    sim.schedule(sim.now + interval, arm)\n",
            package="sim",
            rules=["TAINT"],
        )
        assert findings == []

    def test_suppression_comment_applies(self):
        text = (
            "import time\n\n"
            "def arm(sim):\n"
            "    # repro: allow[TAINT] test fixture exercising the gate\n"
            "    sim.schedule(time.time(), arm)\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["TAINT"])
        assert findings == []
        assert len(suppressed) == 1


# ----------------------------------------------------------------------
# UNIT
# ----------------------------------------------------------------------
class TestUnit:
    def test_seconds_plus_packets_flagged(self):
        findings, _ = _check(
            "from repro.units import Packets, Seconds\n\n"
            "def f(delay: Seconds, backlog: Packets):\n"
            "    return delay + backlog\n",
            package="aqm",
            rules=["UNIT"],
        )
        assert len(findings) == 1
        assert "mixes Seconds with Packets" in findings[0].message

    def test_division_composes_dimensions(self):
        findings, _ = _check(
            "from repro.units import Bits, BitsPerSecond, Seconds\n\n"
            "def tx_time(size: Bits, rate: BitsPerSecond) -> Seconds:\n"
            "    return size / rate\n",
            package="net",
            rules=["UNIT"],
        )
        assert findings == []

    def test_return_dimension_mismatch_flagged(self):
        findings, _ = _check(
            "from repro.units import Packets, Seconds\n\n"
            "def f(backlog: Packets) -> Seconds:\n"
            "    return backlog\n",
            package="net",
            rules=["UNIT"],
        )
        assert len(findings) == 1
        assert "returning Packets" in findings[0].message

    def test_literal_into_unit_parameter_flagged_zero_exempt(self):
        findings, _ = _check(
            "from repro.units import Seconds\n\n"
            "def arm(delay: Seconds):\n    return delay\n\n"
            "def go():\n"
            "    arm(0.02)\n"
            "    arm(0.0)\n"
            "    arm(Seconds(0.02))\n",
            package="sim",
            rules=["UNIT"],
        )
        assert len(findings) == 1
        assert "wrap it as Seconds" in findings[0].message
        assert findings[0].line == 7

    def test_keyword_argument_dimension_mismatch(self):
        findings, _ = _check(
            "from repro.units import Packets, Seconds\n\n"
            "def arm(delay: Seconds):\n    return delay\n\n"
            "def go(backlog: Packets):\n"
            "    arm(delay=backlog)\n",
            package="sim",
            rules=["UNIT"],
        )
        assert len(findings) == 1
        assert "Packets value passed" in findings[0].message

    def test_comparison_across_units_flagged(self):
        findings, _ = _check(
            "from repro.units import Packets, Seconds\n\n"
            "def f(delay: Seconds, backlog: Packets):\n"
            "    return delay < backlog\n",
            package="aqm",
            rules=["UNIT"],
        )
        assert len(findings) == 1
        assert "comparing Seconds against Packets" in findings[0].message

    def test_self_attribute_units_via_init_param(self):
        findings, _ = _check(
            "from repro.units import Packets, Seconds\n\n"
            "class Ctl:\n"
            "    def __init__(self, target: Seconds):\n"
            "        self.target = target\n"
            "    def err(self, backlog: Packets):\n"
            "        return backlog - self.target\n",
            package="aqm",
            rules=["UNIT"],
        )
        assert len(findings) == 1
        assert "mixes Packets with Seconds" in findings[0].message

    def test_probability_literals_stay_silent(self):
        findings, _ = _check(
            "from repro.units import Probability\n\n"
            "def cap(p_max: Probability):\n    return p_max\n\n"
            "def go():\n    cap(0.25)\n",
            package="aqm",
            rules=["UNIT"],
        )
        assert findings == []

    def test_annotated_default_literal_flagged(self):
        findings, _ = _check(
            "from repro.units import Seconds\n\n"
            "def arm(delay: Seconds = 0.032):\n    return delay\n",
            package="aqm",
            rules=["UNIT"],
        )
        assert len(findings) == 1
        assert "unit-less literal default" in findings[0].message


# ----------------------------------------------------------------------
# FLOAT extension: sum()/math.fsum() on unordered operands
# ----------------------------------------------------------------------
class TestFloatSums:
    def test_sum_on_set_and_listing_fire(self):
        findings, _ = _check(
            "import math\n"
            "import os\n\n"
            "def totals(xs):\n"
            "    a = sum(set(xs))\n"
            "    b = math.fsum({x * 2 for x in xs})\n"
            "    c = sum(os.listdir('.'))\n"
            "    return a, b, c\n",
            package="metrics",
            rules=["FLOAT"],
        )
        assert len(findings) == 3
        assert all("unstable iteration" in f.message for f in findings)

    def test_sum_on_dict_view_fires(self):
        findings, _ = _check(
            "def total(d):\n    return sum(d.values())\n",
            package="metrics",
            rules=["FLOAT"],
        )
        assert len(findings) == 1
        assert "dict .values() view" in findings[0].message

    def test_sorted_operand_is_quiet(self):
        findings, _ = _check(
            "import math\n\n"
            "def totals(xs, d):\n"
            "    a = sum(sorted(set(xs)))\n"
            "    b = math.fsum(sorted(d.values()))\n"
            "    c = sum(xs)\n"
            "    return a, b, c\n",
            package="metrics",
            rules=["FLOAT"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# Findings baseline (the generalized ratchet)
# ----------------------------------------------------------------------
class TestBaseline:
    def _report(self, det=0):
        report = Report(rules={"DET": "d", "TAINT": "t"})
        for i in range(det):
            report.findings.append(Finding(
                rule="DET", severity="error", path="x.py", line=i + 1,
                col=1, message="m",
            ))
        return report

    def test_update_writes_counts(self, tmp_path):
        path = tmp_path / "baseline.json"
        rc = apply_baseline(
            self._report(det=2), path, update=True, out=StringIO()
        )
        assert rc == 0
        assert load_baseline(path) == {"DET": 2, "TAINT": 0}

    def test_new_findings_fail(self, tmp_path):
        path = tmp_path / "baseline.json"
        apply_baseline(self._report(det=1), path, update=True, out=StringIO())
        out = StringIO()
        rc = apply_baseline(self._report(det=2), path, out=out)
        assert rc == 1
        assert "exceed the baseline ceiling" in out.getvalue()

    def test_fixed_findings_auto_lower_the_ceiling(self, tmp_path):
        path = tmp_path / "baseline.json"
        apply_baseline(self._report(det=3), path, update=True, out=StringIO())
        out = StringIO()
        rc = apply_baseline(self._report(det=1), path, out=out)
        assert rc == 0
        assert "ratcheted down" in out.getvalue()
        assert load_baseline(path)["DET"] == 1
        # ... and the lowered ceiling now gates at the new level.
        assert apply_baseline(self._report(det=2), path, out=StringIO()) == 1

    def test_missing_baseline_requires_flag(self, tmp_path):
        path = tmp_path / "missing.json"
        out = StringIO()
        assert apply_baseline(self._report(), path, require=True, out=out) == 1
        assert "baseline required" in out.getvalue()
        # Without require: legacy strict mode.
        assert apply_baseline(self._report(det=0), path, out=StringIO()) == 0
        assert apply_baseline(self._report(det=1), path, out=StringIO()) == 1

    def test_repo_baseline_is_all_zero(self):
        ceilings = load_baseline(Path("tools/findings_baseline.json"))
        assert ceilings is not None
        assert set(ceilings) == set(RULES)
        assert all(count == 0 for count in ceilings.values())


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
class TestSarif:
    def test_schema_locked(self):
        report = Report(rules={"DET": "no wall clock"})
        report.findings.append(Finding(
            rule="DET", severity="error", path="src/repro/sim/x.py",
            line=3, col=7, message="bad",
        ))
        payload = to_sarif(report)
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-check"
        assert driver["rules"] == [{
            "id": "DET",
            "shortDescription": {"text": "no wall clock"},
        }]
        (result,) = run["results"]
        assert result["ruleId"] == "DET"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/sim/x.py"
        assert location["region"] == {"startLine": 3, "startColumn": 7}

    def test_cli_format_sarif_parses(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrng = random.Random()\n")
        out = StringIO()
        rc = run_check([str(bad)], output_format="sarif", out=out)
        assert rc == 1
        payload = json.loads(out.getvalue())
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]


# ----------------------------------------------------------------------
# Incremental mode
# ----------------------------------------------------------------------
class TestIncremental:
    FILES = {
        "repro/sim/base.py": "def low(x):\n    return x\n",
        "repro/sim/mid.py": (
            "from repro.sim.base import low\n\n"
            "def mid(sim):\n    sim.schedule(low(0.0), mid)\n"
        ),
        "repro/net/other.py": "def unrelated():\n    return 3\n",
    }

    def test_clean_rerun_analyzes_nothing(self, tmp_path):
        _write_tree(tmp_path, self.FILES)
        state = tmp_path / "state.json"
        first = analyze_paths([tmp_path], incremental=True, state_path=state)
        assert first.files_analyzed == 3
        second = analyze_paths([tmp_path], incremental=True, state_path=state)
        assert second.files_analyzed == 0
        assert second.files_checked == 3

    def test_change_reanalyzes_dependents_and_agrees_with_full_run(
        self, tmp_path
    ):
        _write_tree(tmp_path, self.FILES)
        state = tmp_path / "state.json"
        first = analyze_paths([tmp_path], incremental=True, state_path=state)
        assert first.findings == []
        # base.py now returns wall-clock time: mid.py's schedule() call
        # becomes a cross-file TAINT violation even though mid.py itself
        # did not change.
        (tmp_path / "repro/sim/base.py").write_text(
            "import time\n\ndef low(x):\n    return time.time()\n"
        )
        incremental = analyze_paths(
            [tmp_path], incremental=True, state_path=state
        )
        # Changed file + its dependent, but not the unrelated module.
        assert incremental.files_analyzed == 2
        full = analyze_paths([tmp_path])
        assert (
            [f.to_dict() for f in incremental.findings]
            == [f.to_dict() for f in full.findings]
        )
        assert any(
            f.rule == "TAINT" and f.path.endswith("mid.py")
            for f in incremental.findings
        )

    def test_cached_findings_replay_for_clean_files(self, tmp_path):
        files = dict(self.FILES)
        files["repro/net/other.py"] = (
            "import random\nrng = random.Random()\n"
        )
        _write_tree(tmp_path, files)
        state = tmp_path / "state.json"
        first = analyze_paths([tmp_path], incremental=True, state_path=state)
        assert any(f.rule == "DET" for f in first.findings)
        # Touch an unrelated file; the DET finding must replay from cache.
        (tmp_path / "repro/sim/mid.py").write_text(
            self.FILES["repro/sim/mid.py"] + "\n"
        )
        second = analyze_paths([tmp_path], incremental=True, state_path=state)
        assert any(f.rule == "DET" for f in second.findings)
        assert second.files_analyzed == 1

    def test_rule_change_forces_full_run(self, tmp_path):
        _write_tree(tmp_path, self.FILES)
        state = tmp_path / "state.json"
        analyze_paths([tmp_path], incremental=True, state_path=state)
        report = analyze_paths(
            [tmp_path], rule_names=["DET"], incremental=True, state_path=state
        )
        assert report.files_analyzed == 3


# ----------------------------------------------------------------------
# Acceptance fixtures: the gate fails on seeded violations
# ----------------------------------------------------------------------
class TestAcceptanceGate:
    def test_cross_function_wall_clock_to_schedule_fails_gate(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "jitter.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n"
            "def _now_wall():\n    return time.time()\n\n"
            "def arm(sim):\n    sim.schedule(_now_wall(), arm)\n"
        )
        assert run_check([str(tmp_path)], out=StringIO()) == 1

    def test_seconds_packets_mixing_fails_gate(self, tmp_path):
        bad = tmp_path / "repro" / "aqm" / "mix.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "from repro.units import Packets, Seconds\n\n"
            "def err(delay: Seconds, backlog: Packets):\n"
            "    return delay - backlog\n"
        )
        assert run_check([str(tmp_path)], out=StringIO()) == 1

    def test_head_is_clean_under_the_baseline(self):
        out = StringIO()
        rc = run_check(
            baseline="tools/findings_baseline.json",
            require_baseline=True,
            out=out,
        )
        assert rc == 0, out.getvalue()
