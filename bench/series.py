"""Run the benchmark over several seeds and keep the run records as one result set.

    python3 bench/series.py --out bench/out/sets/parent --seeds 1-10
    python3 bench/series.py --out bench/out/sets/traced --seeds 1-3 --trace 1 --workloads adaptive

Every run is a fresh `python3 bench/run.py` process with the run length from
BENCHMARK.json; seeds are the outer loop so slow drift of the machine spreads
over every workload. Afterwards it prints, per workload and metric, the median
over the runs and the spread between the quartiles as a share of the median,
next to the metric's bound. Compare two sets with bench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from compare import declared_metrics, load_set, quartiles, spread, values

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--out", type=Path, required=True, help="result-set directory")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            if proc.returncode != 0 or not last[0].startswith("{"):
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            name = f"{workload}-seed{seed}-trace{args.trace}"
            shutil.copy(BENCH / "out" / "runs" / f"{name}.json", args.out / f"{name}.json")
            result = json.loads(last[0])
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  flush=True)

    metrics = declared_metrics()
    print(f"{'workload':12s} {'metric':36s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'runs':>5s}")
    for (workload, trace), records in sorted(load_set(args.out).items()):
        for name, m in metrics.items():
            vals = values(records, name)
            if m["trace"] != trace or not vals:
                continue
            bound = f"{m['bound']:.2f}" if m["bound"] is not None else "-"
            print(f"{workload:12s} {name:36s} {quartiles(vals)[1]:12.5g} {spread(vals):8.2%} "
                  f"{bound:>6s} {len(vals):5d}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
