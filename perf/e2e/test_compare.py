"""compare.py on synthetic results.

    PYTHONPATH=src python -m pytest perf/e2e -q
"""

import json

from compare import compare, main, verdict
from run import summarize

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "sim_s_per_s", "unit": "sim-s/s", "better": "higher", "bound": 0.1},
    ]
}
BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def test_clear_gain_is_better():
    faster = [x * 0.8 for x in BASE]
    assert verdict(summarize(BASE), summarize(faster), "lower", 0.1) == "better"
    assert verdict(summarize(BASE), summarize(faster), "higher", 0.1) == "worse"


def test_gain_needs_nine_of_ten_pair_wins():
    # Lower median, but B loses 2 of 10 pairs.
    mixed = [x * 0.8 for x in BASE[:8]] + [11.0, 11.0]
    assert verdict(summarize(BASE), summarize(mixed), "lower", 0.1) != "better"


def test_gain_smaller_than_parent_spread_is_not_better():
    wide = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    shifted = [x - 0.5 for x in wide]
    assert verdict(summarize(wide), summarize(shifted), "lower", 0.5) == "unchanged"


def test_regression_beyond_bound_is_worse():
    slower = [x * 1.2 for x in BASE]
    assert verdict(summarize(BASE), summarize(slower), "lower", 0.1) == "worse"


def test_small_change_within_bound_is_unchanged():
    same = [x * 1.02 for x in BASE]
    assert verdict(summarize(BASE), summarize(same), "lower", 0.1) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 7.5, 12.5, 9.0, 11.0, 10.0]
    assert verdict(summarize(BASE), summarize(noisy), "lower", 0.1) == "unresolved"


def test_zero_bound_flags_any_increase():
    zero = summarize([0.0])
    assert verdict(zero, summarize([0.1]), "lower", 0.0) == "worse"
    assert verdict(zero, zero, "lower", 0.0) == "unchanged"


def _report(scale: float, events: int) -> dict:
    wall = summarize([x * scale for x in BASE])
    rate = summarize([100.0 / (x * scale) for x in BASE])
    return {"workloads": {"w": {
        "end_to_end": {"wall_s": {**wall, "unit": "s"},
                       "sim_s_per_s": {**rate, "unit": "sim-s/s"}},
        "layers": {"sim.events_processed": {"value": events, "unit": "count"},
                   "sim.self_share": {"value": 0.3 * scale, "unit": "ratio"}},
    }}}


def test_compare_rows_and_counter_diff():
    rows, diffs = compare(_report(1.0, 100), _report(0.8, 90), SPEC)
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts == {"wall_s": "better", "sim_s_per_s": "better"}
    assert rows[0][5] == 0.8
    # Measured shares are not exact counters; only the count differs.
    assert diffs == [("w", "sim.events_processed", 100, 90)]


def test_main_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("compare.load_spec", lambda: SPEC)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report(1.0, 100)))
    b.write_text(json.dumps(_report(1.0, 100)))
    assert main([str(a), str(b)]) == 0
    assert "exact counters identical" in capsys.readouterr().out
    b.write_text(json.dumps(_report(1.3, 100)))
    assert main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
