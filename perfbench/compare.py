"""Compare two sets of benchmark result files: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each side is a directory (searched recursively) or one result file
written by ``run.py --trace 0``.  For every workload and
end-to-end metric it prints each side's median and quartiles, each
side's spread (quartile distance over median), the share of pairs the
change won, and a verdict under the bounds in ``BENCHMARK.json``:

* ``improved``: the change won at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile distance;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's spread is wider than the bound, and not
  every change run beats every parent run;
* ``unchanged``: otherwise.

Pairs are the i-th parent run with the i-th change run, both in the
order the runs started, so alternate the two sides when running them.
Provenance fields that differ between the sides are listed first: a
difference in library versions, compiler or host makes the comparison
suspect.  Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from provenance import COMPARED

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_side(source: Path) -> list[dict]:
    files = sorted(source.rglob("*.json")) if source.is_dir() else [source]
    results = []
    for path in files:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(record, dict) and record.get("trace") == 0 \
                and "metrics" in record:
            results.append(record)
    return sorted(results, key=lambda r: r["started_unix"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, share of pairs won by the change)``."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = won / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if share >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", share
    if -sign * (cm - pm) > bound * abs(pm):
        return "worse", share
    every_better = min(sign * c for c in change) > max(sign * p
                                                       for p in parent)
    if (p3 - p1) > bound * abs(pm) and not every_better:
        return "unresolved", share
    return "unchanged", share


def provenance_differences(parent: list[dict], change: list[dict]) -> dict:
    differences = {}
    for field in COMPARED:
        left = {str(r["provenance"].get(field)) for r in parent}
        right = {str(r["provenance"].get(field)) for r in change}
        if left != right:
            differences[field] = (sorted(left), sorted(right))
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path,
                        help="parent result directory or file")
    parser.add_argument("change", type=Path,
                        help="change result directory or file")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    parent = load_side(args.parent)
    change = load_side(args.change)
    if not parent or not change:
        print("no --trace 0 result files on one side", file=sys.stderr)
        return 2

    for field, (left, right) in provenance_differences(parent,
                                                       change).items():
        print(f"provenance differs: {field}: parent {left} vs change "
              f"{right}")
    by_workload = defaultdict(lambda: ([], []))
    for side, results in ((0, parent), (1, change)):
        for record in results:
            by_workload[record["workload"]][side].append(record)

    worse = False
    header = (f"{'workload':16} {'metric':17} {'parent median [q1, q3]':>34}"
              f" {'spread':>7} {'change median [q1, q3]':>34} {'spread':>7}"
              f" {'won':>5}  verdict")
    print(header)
    order = [w["name"] for w in benchmark["workloads"]]
    for workload in sorted(by_workload, key=lambda w: (
            order.index(w) if w in order else len(order), w)):
        left, right = by_workload[workload]
        if not left or not right:
            print(f"{workload:16} only on one side "
                  f"({len(left)} parent, {len(right)} change runs)")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in left]
            c = [r["metrics"][name] for r in right]
            result, share = verdict(p, c, metric["better"], metric["bound"])
            worse |= result == "worse"
            cells = []
            for values in (p, c):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:12.5g} [{q1:9.5g}, {q3:9.5g}]")
                cells.append(f"{(q3 - q1) / abs(q2) if q2 else 0:7.3f}")
            print(f"{workload:16} {name:17} {cells[0]:>34} {cells[1]:>7} "
                  f"{cells[2]:>34} {cells[3]:>7} {share:5.2f}  {result}"
                  f" (bound {metric['bound']}, {len(p)}/{len(c)} runs)")
        failed = [r for r in right if not r["correct"]]
        if failed:
            print(f"{workload:16} change has {len(failed)} run(s) with "
                  "failed output checks")
            worse = True
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
