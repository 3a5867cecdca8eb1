#!/usr/bin/env python3
"""Compare the benchmark result sets of a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``run.py --out DIR`` writes; traced
records are ignored. Make them by running the parent's and the change's
checkouts on the same seeds, one seed at a time, alternating which side runs
first. Runs of a workload are paired by seed. For every workload and every
end-to-end metric of BENCHMARK.json the verdict is:

- ``unresolved``: the parent's interquartile spread, as a share of its
  median, is wider than the metric's bound, and not every change run reads
  better than every parent run;
- ``regressed``: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
- ``improved``: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither side), the medians differ by more than the
  parent's interquartile spread, the order alternated, and no more ops
  failed than at the parent;
- ``unchanged``: otherwise.

Exits with 1 when any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """workload -> seed -> untraced run record."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better: str, bound: float, may_claim=True) -> str:
    """Verdict for one metric from seed-paired parent and change values.

    ``may_claim`` is False when the pairs did not alternate or the change
    failed more ops, which rules out ``improved``."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_spread = spread(parent)
    if sign > 0:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if p_spread > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regressed"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and sign * (c_med - p_med) > p_spread
        and may_claim
    ):
        return "improved"
    return "unchanged"


def alternated(pairs) -> bool:
    """True if the side that ran first flips from one pair to the next."""
    firsts = [p["started"] < c["started"] for p, c in sorted(
        pairs, key=lambda pc: min(pc[0]["started"], pc[1]["started"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent_runs: dict, change_runs: dict, end_to_end) -> list:
    rows = []
    for workload in sorted(parent_runs):
        seeds = sorted(set(parent_runs[workload]) & set(change_runs.get(workload, {})))
        if len(seeds) < 2:
            continue
        pairs = [(parent_runs[workload][s], change_runs[workload][s]) for s in seeds]
        failed_p = sum(len(p["failures"]) for p, _ in pairs)
        failed_c = sum(len(c["failures"]) for _, c in pairs)
        in_turn = alternated(pairs)
        for metric in end_to_end:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "pairs": len(pairs),
                "alternated": in_turn,
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_spread": spread(parent) / abs(statistics.median(parent)),
                "bound": metric["bound"],
                "verdict": verdict(parent, change, metric["better"], metric["bound"],
                                   may_claim=in_turn and failed_c <= failed_p),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(load(args.parent), load(args.change), end_to_end)
    for r in rows:
        print(f"{r['workload']:18s} {r['metric']:12s} {r['verdict']:10s} "
              f"parent {r['parent_median']:.6g} change {r['change_median']:.6g} {r['unit']} "
              f"spread {r['parent_spread']:.3f} bound {r['bound']} pairs {r['pairs']}"
              f"{'' if r['alternated'] else ' ORDER-NOT-ALTERNATED'}")
    print(json.dumps(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
