"""Sweep harness: privacy level vs max error, as a plot-ready CSV table.

Run: python demos/06_epsilon_sweep.py
"""

import statistics
import tempfile
from pathlib import Path

import numpy as np

from privsynth import (
    DiscreteDataset,
    FitConfig,
    ProjectionConfig,
    SweepSpec,
    random_workload,
    run_sweep,
    schema_from_cardinalities,
)
from privsynth.evaluation import sweep_rows_to_csv

rng = np.random.default_rng(21)
n = 2000
schema = schema_from_cardinalities((4, 4, 3))
c0 = rng.choice(4, n, p=[0.5, 0.25, 0.15, 0.1])
c1 = np.where(rng.random(n) < 0.5, c0, rng.integers(0, 4, n))
c2 = rng.choice(3, n, p=[0.7, 0.2, 0.1])
data = DiscreteDataset(schema, np.column_stack([c0, c1, c2]))

workload = random_workload(schema, 2, 3, seed=0)
spec = SweepSpec(axis="epsilon", values=(0.1, 0.25, 0.5, 1.0), seeds=(0, 1, 2))
base = FitConfig(rounds=1, n_synth=150, projection=ProjectionConfig(max_steps=800))
rows = run_sweep(data, workload, spec, base)

print(f"{len(rows)} runs; median max error by privacy level:")
for eps in spec.values:
    errs = [r["max_error"] for r in rows if r["value"] == eps and r["status"] == "ok"]
    bar = "#" * int(statistics.median(errs) * 200)
    print(f"  eps={eps:<5} median={statistics.median(errs):.4f} {bar}")
print(f"naive baseline: {rows[0]['naive_baseline']:.4f}")

# The least-error row per (axis, value, seed). Choosing by true error reads the
# private data, so this view is as non-private as every row it picks from.
best = {}
for r in rows:
    key = (r["axis"], r["value"], r["seed"])
    if r["status"] == "ok" and (key not in best or r["max_error"] < best[key]["max_error"]):
        best[key] = r
print(f"best-of-grid rows (tagged '{rows[0]['privacy']}'): {len(best)}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.csv"
    sweep_rows_to_csv(rows, out)
    print(f"\nwrote {out.name} with columns:")
    print(" ", out.read_text().splitlines()[0])
