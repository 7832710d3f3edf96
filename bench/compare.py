"""Compare two result sets of the benchmark against the bounds in BENCHMARK.json.

    python3 bench/compare.py PARENT_SET CHANGE_SET

A result set is a directory of run records as bench/run.py writes them
(bench/series.py collects one). For every workload and metric the table gives
each side's median and quartiles over its runs, the change of the median, and
a verdict:

  better        the change wins at least 9/10 of all (parent run, change run)
                pairs and the medians differ by more than the parent's
                quartile spread;
  worse         the change's median is worse than the parent's by more than
                the metric's bound (for a per-layer metric, which has no
                bound: the parent wins 9/10 of the pairs by more than the
                change's quartile spread);
  unresolved    neither, and a side's quartile spread is wider than the bound
                (per-layer: neither, and the medians differ);
  within-bound  neither, and both spreads are within the bound (per-layer:
                the medians are equal).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); NaN for no values."""
    values = sorted(values)
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def declared_metrics() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {m["name"]: {**m, "trace": 0} for m in spec["end_to_end"]}
    out.update({m["name"]: {**m, "bound": None, "trace": 1} for m in spec["per_layer"]})
    return out


def load_set(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Run records of a set, grouped by (workload, trace)."""
    groups = defaultdict(list)
    for f in sorted(Path(path).glob("*.json")):
        rec = json.loads(f.read_text(encoding="utf-8"))
        if "result" in rec:
            groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def values(records, name) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]


def verdict(parent, change, bound, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = len(parent) * len(change)
    wins = sum(1 for p in parent for c in change if sign * (c - p) < 0)
    losses = sum(1 for p in parent for c in change if sign * (c - p) > 0)
    if wins >= 0.9 * pairs and abs(cmed - pmed) > pq3 - pq1:
        return "better"
    if bound is None:
        if losses >= 0.9 * pairs and abs(cmed - pmed) > cq3 - cq1:
            return "worse"
        return "within-bound" if cmed == pmed else "unresolved"
    if pmed and sign * (cmed - pmed) / abs(pmed) > bound:
        return "worse"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    return "within-bound"


def compare(parent_dir: Path, change_dir: Path) -> list[dict]:
    metrics = declared_metrics()
    parent, change = load_set(parent_dir), load_set(change_dir)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for name, m in metrics.items():
            if m["trace"] != trace:
                continue
            a, b = values(parent[key], name), values(change[key], name)
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "parent": quartiles(a),
                    "change": quartiles(b),
                    "runs": (len(a), len(b)),
                    "bound": m["bound"],
                    "verdict": verdict(a, b, m["bound"], m["better"] == "lower"),
                }
            )
    return rows


def errors_line(records) -> str:
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    return f"{failed} failed of {attempted} attempted"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    for d in (args.parent, args.change):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    rows = compare(args.parent, args.change)
    if not rows:
        print("error: the two sets share no workload", file=sys.stderr)
        return 2
    print(
        f"{'workload':12s} {'metric':36s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} {'runs':>7s}  verdict"
    )
    for r in rows:
        (pq1, pm, pq3), (cq1, cm, cq3) = r["parent"], r["change"]
        delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
        bound = f"{r['bound']:.2f}" if r["bound"] is not None else "-"
        print(
            f"{r['workload']:12s} {r['metric']:36s} "
            f"{f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}]':>34s} {f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}]':>34s} "
            f"{delta:>8s} {bound:>6s} {'%d/%d' % r['runs']:>7s}  {r['verdict']}"
        )
    parent, change = load_set(args.parent), load_set(args.change)
    for key in sorted(set(parent) & set(change)):
        print(
            f"{key[0]} trace {key[1]}: parent {errors_line(parent[key])}; "
            f"change {errors_line(change[key])}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
