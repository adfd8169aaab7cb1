"""Compare two suite results written by ``run.py --out``.

    python perf/e2e/compare.py A.json B.json

A is the parent, B the change.  For every workload and end-to-end metric
it prints both medians with their quartiles, the ratio B/A and a verdict:

* ``better``: B wins at least 9 of every 10 pairs (run i of A against
  run i of B; ties count for neither) and the medians differ by more
  than A's interquartile range;
* ``worse``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json`` (``failed_frac``: by anything at all);
* ``unresolved``: neither, and either side's interquartile range is
  wider than the bound, so "no change" cannot be told from noise;
* ``unchanged``: otherwise.

Metrics without a bound in ``BENCHMARK.json`` (the raw, unscaled times)
are listed for information with the verdict ``no bound``.  It then lists every exact per-layer counter that differs between A and
B.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import COUNT_UNITS, load_spec

#: ``failed_frac`` is not in BENCHMARK.json: any increase is a regression.
FAILED_FRAC = {"better": "lower", "bound": 0.0}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Classify one metric from two ``summarize`` records (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (a["median"] - b["median"])  # > 0 when B is better
    pairs = list(zip(a["values"], b["values"]))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > a["q3"] - a["q1"]:
        return "better"
    scale = abs(a["median"]) or 1.0
    if bound == 0.0:
        return "worse" if gain < 0 else "unchanged"
    if -gain / scale > bound:
        return "worse"
    spread = max((s["q3"] - s["q1"]) / (abs(s["median"]) or 1.0) for s in (a, b))
    return "unresolved" if spread > bound else "unchanged"


def compare(a: dict, b: dict, spec: dict):
    """Rows of (workload, metric, unit, A, B, ratio, verdict) and counter diffs."""
    limits = {m["name"]: m for m in spec["end_to_end"]}
    limits["failed_frac"] = FAILED_FRAC
    rows, diffs = [], []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            diffs.append((name, "(workload)", "present", "absent"))
            continue
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"].get(metric)
            if sb is None:
                continue
            limit = limits.get(metric)
            result = (verdict(sa, sb, limit["better"], limit["bound"])
                      if limit is not None else "no bound")
            if sa["median"]:
                ratio = sb["median"] / sa["median"]
            else:
                ratio = 1.0 if sb["median"] == 0 else float("inf")
            rows.append((name, metric, sa["unit"], sa, sb, ratio, result))
        la, lb = wa["layers"], wb["layers"]
        for metric in COUNT_UNITS:
            va = la.get(metric, {}).get("value")
            vb = lb.get(metric, {}).get("value")
            if va != vb:
                diffs.append((name, metric, va, vb))
    return rows, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run.py results.")
    parser.add_argument("a", type=Path, help="parent results (run.py --out)")
    parser.add_argument("b", type=Path, help="change results")
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text(encoding="utf-8"))
    b = json.loads(args.b.read_text(encoding="utf-8"))
    rows, diffs = compare(a, b, load_spec())
    print(f"{'workload':20} {'metric':20} {'unit':8} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B/A':>7}  verdict")
    for name, metric, unit, sa, sb, ratio, result in rows:
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"
                 for s in (sa, sb)]
        print(f"{name:20} {metric:20} {unit:8} {cells[0]:>30} {cells[1]:>30} "
              f"{ratio:7.3f}  {result}")
    if diffs:
        print("\nexact counters that differ (A -> B):")
        for name, metric, va, vb in diffs:
            print(f"  {name:20} {metric:30} {va} -> {vb}")
    else:
        print("\nexact counters identical")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
