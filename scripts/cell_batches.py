"""Time the per-cell gradient's batch budget in an adaptive fit and one gradient call.

    PYTHONPATH=src python3 scripts/cell_batches.py [--fits 3]

queries._CellPath splits the queries of each (kind, arity k) group into
batches of at most queries._CELL_BATCH_BUDGET // (k * max(n', d')) queries,
and each batch gathers its k slot rows per query into a fresh array. A small
budget keeps a batch's slots in cache while the suffix pass, the prefix pass
and the one-hot scatters reread them; a large one pays fewer Python-level
steps but streams every slot through memory. This script checks the shipped
budget against its neighbours and against 2^22, the tensor path's row-chunk
budget, which the per-cell path once shared.

For each budget (monkeypatched into queries before anything is built) it
runs, on the benchmark table (bench/workloads.generate_table at seed 1,
20 000 rows, 15 features, d' = 68) and its 64 random 3-way marginals
(workload seed 7):

1. an adaptive fit with T = 10, K = 50, n' = 2000 and 20 Adam steps per
   round (epsilon 1, fit seed 0), --fits times; it prints the median wall
   time and gradient time;
2. one gradient call on the fit's 500 selected queries and noisy answers at
   its final relaxed table, under tracemalloc; it prints the traced peak,
   the returned gradient included.

Batches only regroup the sums that reach the gradient, so the fits agree to
rounding; the script exits 1 if any round's final projection_loss differs
between budgets by more than 1e-9 relative. It asserts nothing about time.
BLAS is limited to one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from privsynth import engine, projection, queries, schema  # noqa: E402
from workloads import CARDINALITIES, generate_table  # noqa: E402

BUDGETS = (1 << 16, 1 << 17, 1 << 18, 1 << 22)
# Largest allowed relative gap between budgets in a round's final projection loss.
LOSS_TOLERANCE = 1e-9


def run_budget(data, wl, config, fits: int) -> tuple[list[float], float, float, float]:
    """Each round's final loss, median fit and gradient seconds, and the call's traced peak."""
    walls, grads = [], []
    for _ in range(fits):
        t0 = time.perf_counter()
        result = engine.fit(data, wl, config)
        walls.append(time.perf_counter() - t0)
        grads.append(result.timing["gradient_s"])
    ev = queries.QueryEvaluator(wl.select(result.selected), wl.schema, config.n_synth)
    targets = np.asarray(result.noisy_answers)
    tracemalloc.start()
    try:
        ev.loss_and_gradient(result.relaxed.data, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    losses = [r["projection_loss"] for r in result.rounds]
    return losses, statistics.median(walls), statistics.median(grads), peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fits", type=int, default=3, help="fits per budget")
    args = parser.parse_args(argv)
    s = schema.schema_from_cardinalities(CARDINALITIES)
    data = schema.DiscreteDataset(s, generate_table(CARDINALITIES, 20_000, seed=1))
    wl = queries.random_workload(s, k=3, num_marginals=64, seed=7)
    config = engine.FitConfig(
        epsilon=1.0,
        rounds=10,
        queries_per_round=50,
        n_synth=2000,
        seed=0,
        projection=projection.ProjectionConfig(max_steps=20),
    )
    shipped = queries._CELL_BATCH_BUDGET
    print(f"adaptive fit T = 10, K = 50, n' = 2000, m = {wl.m}; median of {args.fits} fits")
    print(f"{'budget':>8} {'fit_s':>7} {'gradient_s':>11} {'peak_MB':>8}")
    losses = {}
    try:
        for budget in BUDGETS:
            queries._CELL_BATCH_BUDGET = budget
            losses[budget], wall, grad, peak = run_budget(data, wl, config, args.fits)
            name = f"2^{budget.bit_length() - 1}"
            mark = "  shipped" if budget == shipped else ""
            print(f"{name:>8} {wall:>7.3f} {grad:>11.3f} {peak / 1e6:>8.2f}{mark}")
    finally:
        queries._CELL_BATCH_BUDGET = shipped
    ref = np.asarray(losses[shipped])
    gap = max(np.max(np.abs(np.asarray(v) - ref) / np.abs(ref)) for v in losses.values())
    print(f"largest relative gap in a round's final projection_loss: {gap:.3g}")
    if gap > LOSS_TOLERANCE:
        print(f"error: budgets disagree by more than {LOSS_TOLERANCE:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
