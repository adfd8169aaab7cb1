"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_scenarios_and_aqms(self):
        code, text = run_cli("list")
        assert code == 0
        assert "light" in text and "pi2" in text and "coupled" in text


class TestRun:
    def test_light_scenario_summary(self):
        code, text = run_cli("run", "--scenario", "light", "--aqm", "pi2",
                             "--duration", "10")
        assert code == 0
        assert "queue delay mean" in text
        assert "utilization" in text

    def test_taildrop_aqm(self):
        code, text = run_cli("run", "--scenario", "light", "--aqm", "taildrop",
                             "--duration", "8")
        assert code == 0
        assert "tail drops" in text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--scenario", "bogus")

    def test_dynamic_scenario_uses_stage(self):
        code, text = run_cli("run", "--scenario", "capacity", "--aqm", "pi2",
                             "--duration", "5")
        assert code == 0
        assert "duration=15s" in text  # 3 stages of 5 s

    def test_json_export(self, tmp_path):
        import json

        path = tmp_path / "out.json"
        code, text = run_cli("run", "--scenario", "light", "--aqm", "pi2",
                             "--duration", "8", "--json", str(path))
        assert code == 0
        assert f"wrote {path}" in text
        assert json.loads(path.read_text())["config"]["capacity_bps"] == 10e6


class TestRunValidateAndFaults:
    def test_validate_flag_reports_checks(self):
        code, text = run_cli("run", "--scenario", "light", "--aqm", "pi2",
                             "--duration", "8", "--validate")
        assert code == 0
        assert "invariant checks" in text

    def test_fault_flag_injects_and_reports(self):
        code, text = run_cli("run", "--scenario", "light", "--aqm", "pi2",
                             "--duration", "10",
                             "--fault", "burstloss:3:4:0.05:8")
        assert code == 0
        assert "fault drops" in text

    def test_repeatable_fault_flag(self):
        code, text = run_cli("run", "--scenario", "light", "--aqm", "pi2",
                             "--duration", "10",
                             "--fault", "flap:3:1",
                             "--fault", "stall:5:2")
        assert code == 0
        assert "queue delay mean" in text

    def test_bad_fault_spec_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_cli("run", "--scenario", "light", "--fault", "meteor:1:2")

    def test_fault_beyond_duration_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_cli("run", "--scenario", "light", "--duration", "5",
                    "--fault", "flap:30:2")


class TestCoexist:
    def test_reports_ratio(self):
        code, text = run_cli("coexist", "--aqm", "coupled", "--link", "10",
                             "--rtt", "10", "--duration", "10")
        assert code == 0
        assert "cubic/dctcp ratio" in text
        assert "dctcp [Mb/s]" in text


class TestBode:
    def test_reports_margins(self):
        code, text = run_cli("bode", "--kind", "reno_pi2", "--p", "0.01")
        assert code == 0
        assert "gain margin" in text
        assert "True" in text  # stable at this operating point

    def test_fixed_gain_low_p_unstable(self):
        code, text = run_cli("bode", "--kind", "reno_pi", "--p", "0.0001")
        assert code == 0
        assert "False" in text

    def test_custom_gains(self):
        code, text = run_cli("bode", "--kind", "reno_pi2", "--p", "0.01",
                             "--alpha", "0.125", "--beta", "1.25")
        assert code == 0
        assert "alpha=0.125" in text


class TestFigure:
    def test_analytic_figure_renders(self):
        code, text = run_cli("figure", "fig05")
        assert code == 0
        assert "sqrt(2p)" in text

    def test_csv_export(self, tmp_path):
        path = tmp_path / "fig04.csv"
        code, text = run_cli("figure", "fig04", "--csv", str(path))
        assert code == 0
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header.startswith("p,")

    def test_unknown_figure_errors(self):
        with pytest.raises(ConfigError):
            run_cli("figure", "fig99")

    def test_listed_in_list(self):
        code, text = run_cli("list")
        assert "fig12" in text

    def test_cache_line_counts_supervised_stores(self, tmp_path):
        """At --jobs 2 the cells run in workers, but their results are
        stored by the process that prints the `cache:` line."""
        argv = ("figure", "fig12", "--scale", "0.1", "--jobs", "2",
                "--cache-dir", str(tmp_path))
        code, cold = run_cli(*argv)
        assert code == 0
        assert "cache: hits=0 misses=2 stores=2" in cold
        code, warm = run_cli(*argv)
        assert code == 0
        assert "cache: hits=2 " in warm


    def test_no_cache_stores_nothing(self, tmp_path):
        code, text = run_cli("figure", "fig12", "--scale", "0.1", "--no-cache",
                             "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        assert "cache:" not in text
        assert not (tmp_path / "cache").exists()

class TestGrid:
    def test_cache_line_counts_supervised_stores(self, tmp_path):
        """As for `figure`: cells run in workers at --jobs 2 are stored,
        and counted, by the process that prints the `cache:` line."""
        argv = ("grid", "--aqm", "pi2", "--links", "4", "--rtts", "5,10",
                "--duration", "2", "--jobs", "2", "--cache-dir", str(tmp_path))
        code, cold = run_cli(*argv)
        assert code == 0
        assert "cache: hits=0 misses=2 stores=2" in cold
        code, warm = run_cli(*argv)
        assert code == 0
        assert "cache: hits=2 misses=0 stores=0" in warm
        digest = [line for line in cold.splitlines()
                  if line.startswith("grid digest: ")]
        assert len(digest) == 1 and digest[0] in warm.splitlines()

class TestCacheCommand:
    def test_counts_then_clears_entries(self, tmp_path):
        run_cli("figure", "fig12", "--scale", "0.1", "--cache-dir", str(tmp_path))
        code, text = run_cli("cache", "--cache-dir", str(tmp_path))
        assert code == 0 and "entries:   2" in text
        code, text = run_cli("cache", "--cache-dir", str(tmp_path), "--clear")
        assert code == 0 and "removed 2 cached result(s)" in text
        code, text = run_cli("cache", "--cache-dir", str(tmp_path))
        assert "entries:   0" in text

class TestFluid:
    def test_reports_steady_state(self):
        code, text = run_cli("fluid", "--flows", "5", "--duration", "30")
        assert code == 0
        assert "steady queue delay" in text

    @pytest.mark.parametrize("kind", ["scal_pi", "reno_pi"])
    def test_other_kinds(self, kind):
        code, text = run_cli("fluid", "--kind", kind, "--duration", "30")
        assert code == 0
        assert f"kind={kind}" in text


def run_module(*argv):
    """``python -m repro ARGV`` in a child: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


#: (argv, text the error line must contain) for each bad-input shape.
BAD_INPUT = [
    (("figure", "fig99"), "unknown figure 'fig99'"),
    (("figure", "fig11", "--scale", "0"), "scale must be positive"),
    (("bode", "--p", "2"), "must be in (0,1]"),
    (("fluid", "--flows", "0"), "flows and base RTT must be positive"),
    (("grid", "--links", ""), "--links needs at least one value"),
    (("grid", "--rtts", "0"), "--rtts values must be positive"),
    (("grid", "--links", "4,x"), "--links: could not convert"),
    # The Experiment checks the link rate, the duration and each flow
    # group's RTT: a non-positive or non-finite one is a ConfigError, not
    # a traceback from deep in the run (or, for an infinite duration, a
    # run that never ends).
    (("coexist", "--rtt", "0"), "rtt must be positive and finite"),
    (("coexist", "--rtt", "-5"), "rtt must be positive and finite"),
    (("coexist", "--rtt", "nan"), "rtt must be positive and finite"),
    (("coexist", "--link", "nan"), "capacity must be positive and finite"),
    (("run", "--duration", "inf"), "duration must be positive and finite"),
    # The analysis commands check the same inputs of their own models:
    # a NaN or infinite RTT used to print nan margins and "stable True".
    (("bode", "--rtt", "nan"), "R0 must be positive and finite"),
    (("bode", "--rtt", "inf"), "R0 must be positive and finite"),
    (("fluid", "--link", "nan"), "base RTT must be positive and finite"),
    (("fluid", "--rtt", "inf"), "base RTT must be positive and finite"),
    (("fluid", "--duration", "inf"), "duration must be positive and finite"),
    # A NaN fault start used to run with no fault; a NaN jitter hung.
    (("run", "--duration", "5", "--fault", "flap:nan:1"), "fault start"),
    (("run", "--duration", "5", "--fault", "jitter:1:2:nan"), "max_jitter"),
]


class TestBadInputIsAUsageError:
    """Bad input ends in one ``error:`` line and exit 2 — no traceback,
    no silent success, and no cell runs first."""

    @pytest.mark.parametrize(
        "argv, needle", BAD_INPUT,
        ids=[" ".join(arg or "''" for arg in argv) for argv, _ in BAD_INPUT],
    )
    def test_one_error_line_and_exit_2(self, argv, needle):
        code, out, err = run_module(*argv)
        assert code == 2, (out, err)
        assert err.splitlines() == [err.strip()], err
        assert err.startswith("error: ") and needle in err, err
        assert "grid digest" not in out


class TestRemovedOptions:
    """Journal compaction is gone, and with it ``--compact-every``: the
    option is an unknown argument, a usage error."""

    @pytest.mark.parametrize("argv", [("figure", "fig12"), ("grid",)],
                             ids=["figure", "grid"])
    def test_compact_every_is_a_usage_error(self, argv):
        code, out, err = run_module(*argv, "--compact-every", "2")
        assert code == 2, (out, err)
        assert "unrecognized arguments: --compact-every 2" in err
        assert out == ""
