"""Charging rule of layers.py on synthetic profiles.

    PYTHONPATH=src python -m pytest perf/e2e -q
"""

import math

import pytest

from layers import ALL, OTHER, attribute, layer_of, shares

SIM = ("/x/src/repro/sim/engine.py", 10, "run")
METRICS = ("/x/src/repro/metrics/stats.py", 5, "summary")
HARNESS = ("/x/src/repro/harness/experiment.py", 7, "digest")
ANALYSIS = ("/x/src/repro/analysis/bode.py", 3, "margins")
BUILTIN = ("~", 0, "<built-in method builtins.len>")
STDLIB = ("/usr/lib/python3.11/statistics.py", 400, "mean")
NUMPY = ("/site-packages/numpy/core/fromnumeric.py", 2300, "sum")
SCRIPT = ("/x/perf/e2e/child.py", 1, "main")


def test_layer_of_maps_packages():
    assert layer_of(SIM[0]) == "sim"
    assert layer_of("/x/src/repro/net/link.py") == "net"
    assert layer_of(ANALYSIS[0]) == OTHER
    assert layer_of("/x/src/repro/units.py") == OTHER
    assert layer_of(STDLIB[0]) is None
    assert layer_of(BUILTIN[0]) is None


def test_builtin_called_from_sim_is_charged_to_sim():
    stats = {
        SIM: (1, 1, 0.5, 1.0, {}),
        BUILTIN: (10, 10, 0.5, 0.5, {SIM: (10, 10, 0.5, 0.5)}),
    }
    seconds, calls = attribute(stats)
    assert seconds["sim"] == pytest.approx(1.0)
    assert calls["sim"] == 1
    assert sum(v for k, v in seconds.items() if k != "sim") == 0


def test_stdlib_numpy_chain_is_charged_to_its_repro_callers():
    # statistics.mean is called from metrics (0.3 s inclusive, all of its
    # own 0.2 s self time) and from harness (0.7 s inclusive, no self
    # time); it calls numpy's sum, which has no repro caller.  Its self
    # time follows the self time on each edge; numpy's follows the
    # inclusive time.
    stats = {
        METRICS: (1, 1, 0.1, 0.4, {}),
        HARNESS: (1, 1, 0.1, 0.8, {}),
        STDLIB: (2, 2, 0.2, 1.0, {METRICS: (1, 1, 0.2, 0.3),
                                  HARNESS: (1, 1, 0.0, 0.7)}),
        NUMPY: (2, 2, 0.8, 0.8, {STDLIB: (2, 2, 0.8, 0.8)}),
    }
    seconds, _ = attribute(stats)
    assert seconds["metrics"] == pytest.approx(0.1 + 0.2 + 0.8 * 0.3)
    assert seconds["harness"] == pytest.approx(0.1 + 0.0 + 0.8 * 0.7)
    assert seconds[OTHER] == 0


def test_time_without_a_repro_caller_goes_to_other():
    stats = {
        SCRIPT: (1, 1, 0.3, 1.3, {}),
        BUILTIN: (1, 1, 0.2, 0.2, {SCRIPT: (1, 1, 0.2, 0.2)}),
        ANALYSIS: (1, 1, 0.4, 0.4, {SCRIPT: (1, 1, 0.4, 0.4)}),
        SIM: (1, 1, 0.4, 0.4, {SCRIPT: (1, 1, 0.4, 0.4)}),
    }
    seconds, calls = attribute(stats)
    assert seconds[OTHER] == pytest.approx(0.9)
    assert seconds["sim"] == pytest.approx(0.4)
    assert OTHER not in calls


def test_recursion_and_cycles_terminate():
    json_encode = ("/usr/lib/python3.11/json/encoder.py", 1, "_iterencode")
    helper = ("/usr/lib/python3.11/json/encoder.py", 2, "_iterencode_dict")
    obs = ("/x/src/repro/obs/trace.py", 126, "emit")
    stats = {
        obs: (1, 1, 0.1, 1.1, {}),
        json_encode: (5, 1, 0.6, 1.0, {obs: (1, 1, 0.2, 1.0),
                                       json_encode: (2, 2, 0.2, 0.5),
                                       helper: (2, 2, 0.2, 0.4)}),
        helper: (2, 2, 0.4, 0.8, {json_encode: (2, 2, 0.4, 0.8)}),
    }
    seconds, _ = attribute(stats)
    assert seconds["obs"] == pytest.approx(1.1)


def test_shares_sum_to_one():
    stats = {
        SIM: (1, 1, 0.5, 1.0, {}),
        BUILTIN: (3, 3, 0.25, 0.25, {SIM: (2, 2, 0.2, 0.2),
                                     SCRIPT: (1, 1, 0.05, 0.05)}),
        METRICS: (4, 4, 0.75, 0.75, {SIM: (4, 4, 0.75, 0.75)}),
        SCRIPT: (1, 1, 0.1, 1.5, {}),
    }
    result = shares(attribute(stats)[0])
    assert set(result) == set(ALL)
    assert math.fsum(result.values()) == pytest.approx(1.0)
    assert result["sim"] == pytest.approx(0.7 / 1.6)


def test_shares_reject_an_empty_profile():
    with pytest.raises(ValueError):
        shares({name: 0.0 for name in ALL})
