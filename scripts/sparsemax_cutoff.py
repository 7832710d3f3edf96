"""Measure the sparsemax kernel cut-off on both sides: column network against row sort.

    PYTHONPATH=src python3 scripts/sparsemax_cutoff.py [--repeats 5] [--fits 3]

projection.sparsemax_rows sends blocks of width t <= projection._NETWORK_MAX_T
through the column kernel (_sparsemax_network: Batcher's odd-even mergesort
network of elementwise max/min over the (t, N) transposed stack) and wider
ones through the row-sort kernel (_sparsemax_sorted, np.sort per row). The
network's cost grows with its comparator count (19 at t = 8, 63 at t = 16),
the sort's with its per-row overhead, so the crossover moves up as the stack
grows. This script checks the shipped cut-off two ways.

1. Kernels: the best of --repeats timings of each kernel on stacks of
   N = 1000 and N = 5000 rows (one and five blocks of one width on 1000
   synthetic rows, as _normalize_inplace stacks them), for widths 2..16, 24,
   32 and 42.
2. End to end: an adaptive fit (T = 5, K = 25, 60 Adam steps, n' = 1000) on
   a 20 000-row table whose block widths are those of the UCI ADULT
   categorical attributes plus the label (workclass 9, education 16,
   marital-status 7, occupation 15, relationship 6, race 5, sex 2,
   native-country 42, income 2), so blocks sit on both sides of the
   cut-off. The table comes from bench/workloads.generate_table; the fit
   runs with the shipped cut-off, with every width on the network and with
   every width on the sort kernel. The script prints the median of --fits
   runs of the fit's normalize_s and of its wall time, and fails unless the
   three relaxed outputs are byte-equal.

BLAS is limited to one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from privsynth import engine, projection, queries, schema  # noqa: E402
from workloads import generate_table  # noqa: E402

WIDTHS = (*range(2, 17), 24, 32, 42)
STACK_ROWS = (1000, 5 * 1000)
ADULT_CARDS = (9, 16, 7, 15, 6, 5, 2, 42, 2)
SELECTIONS = {
    "shipped": projection._NETWORK_MAX_T,
    "network-only": 10**9,
    "sort-only": 0,
}


def best_time(fn, arg, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def kernels(repeats: int) -> None:
    rng = np.random.default_rng(0)
    print(f"kernels on (N, t) stacks, best of {repeats}, ms")
    print(f"{'N':>6} {'t':>4} {'network':>9} {'sort':>9} {'sort/network':>13}  used")
    for n in STACK_ROWS:
        for t in WIDTHS:
            Z = rng.uniform(-1.0, 1.0, (n, t))
            net = best_time(lambda z: projection._sparsemax_network(z.T), Z, repeats)
            srt = best_time(projection._sparsemax_sorted, Z, repeats)
            used = "network" if t <= projection._NETWORK_MAX_T else "sort"
            print(
                f"{n:>6} {t:>4} {net * 1e3:>9.3f} {srt * 1e3:>9.3f} {srt / net:>13.2f}  {used}"
            )


def end_to_end(fits: int) -> None:
    s = schema.schema_from_cardinalities(ADULT_CARDS)
    data = schema.DiscreteDataset(s, generate_table(ADULT_CARDS, 20_000, seed=1))
    wl = queries.random_workload(s, k=3, num_marginals=32, seed=7)
    config = engine.FitConfig(
        epsilon=1.0,
        rounds=5,
        queries_per_round=25,
        n_synth=1000,
        seed=0,
        projection=projection.ProjectionConfig(max_steps=60),
    )
    print(f"\nadaptive fit, widths {ADULT_CARDS}, m = {wl.m}, median of {fits}, s")
    print(f"{'selection':>13} {'normalize_s':>12} {'wall_s':>8}  relaxed sha256")
    digests = set()
    shipped = projection._NETWORK_MAX_T
    try:
        for name, cutoff in SELECTIONS.items():
            projection._NETWORK_MAX_T = cutoff
            norm, wall = [], []
            for _ in range(fits):
                result = engine.fit(data, wl, config)
                norm.append(result.timing["normalize_s"])
                wall.append(result.timing["wall_s"])
            digest = hashlib.sha256(result.relaxed.data.tobytes()).hexdigest()
            digests.add(digest)
            print(
                f"{name:>13} {statistics.median(norm):>12.3f} "
                f"{statistics.median(wall):>8.3f}  {digest[:16]}"
            )
    finally:
        projection._NETWORK_MAX_T = shipped
    if len(digests) != 1:
        raise SystemExit("kernel selections disagree on the relaxed output")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timings per kernel and width")
    parser.add_argument("--fits", type=int, default=3, help="fits per kernel selection")
    args = parser.parse_args(argv)
    kernels(args.repeats)
    end_to_end(args.fits)


if __name__ == "__main__":
    main()
