"""Error metrics and the sweep harness for trend experiments.

The headline metric is the maximum absolute gap between a query's answer on
the synthetic data and its answer on the real data. For calibration every
report carries the naive baseline: the max error obtained by answering every
query with 0, i.e. max_i q_i(D). Error above that baseline is uninteresting.

run_sweep drives repeated fits of one workload along one axis (privacy level,
workload size, synthetic row count, or rounding oversample) crossed with
seeds and an optional grid of (queries_per_round, rounds) combinations, and
emits a row-complete table: failed cells are recorded with an error status,
never dropped. Every row is measured against the private data, so each one says
"non-private" in its privacy column, and so is a grid point picked by its error.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .engine import FitConfig, fit
from .queries import Workload, WorkloadError, eval_discrete, eval_relaxed, random_workload
from .rounding import RoundingConfig, randomized_round
from .schema import DiscreteDataset, RelaxedDataset, SchemaError

AXIS_EPSILON = "epsilon"
AXIS_WORKLOAD = "workload"
AXIS_N_SYNTH = "n_synth"
AXIS_OVERSAMPLE = "oversample"
SWEEP_AXES = (AXIS_EPSILON, AXIS_WORKLOAD, AXIS_N_SYNTH, AXIS_OVERSAMPLE)

#: Fixed column set of the sweep table; plot-ready.
SWEEP_COLUMNS = (
    "axis",
    "value",
    "seed",
    "K",
    "T",
    "n_prime",
    "epsilon",
    "delta",
    "max_error",
    "mean_error",
    "naive_baseline",
    "wall_ms",
    "status",
    "privacy",
)

#: The privacy tag of every figure computed against the private data.
NON_PRIVATE = "non-private"


@dataclass
class ErrorReport:
    max_error: float
    mean_error: float
    per_query: np.ndarray
    naive_baseline: float
    m: int

    def to_json_dict(self) -> dict:
        return {
            "privacy": NON_PRIVATE,
            "max_error": self.max_error,
            "mean_error": self.mean_error,
            "naive_baseline": self.naive_baseline,
            "m": self.m,
            "per_query": [float(e) for e in self.per_query],
        }


def max_error(workload: Workload, data: DiscreteDataset, synth) -> ErrorReport:
    """Per-query |q(synth) - q(data)| with max/mean and the naive baseline.

    `synth` may be a relaxed matrix (evaluated differentiably) or a discrete
    dataset (evaluated exactly); the two agree when the relaxed input is
    one-hot. A table without rows answers no query, so either one empty is
    a SchemaError.
    """
    if not isinstance(synth, (RelaxedDataset, DiscreteDataset)):
        raise TypeError(f"synth must be a relaxed or discrete dataset, got {type(synth)!r}")
    for table, name in ((data, "private"), (synth, "synthetic")):
        if table.n == 0:
            raise SchemaError(f"the {name} table has no rows")
    truth = eval_discrete(workload, data)
    if isinstance(synth, RelaxedDataset):
        approx = eval_relaxed(workload, synth)
    else:
        approx = eval_discrete(workload, synth)
    errors = np.abs(approx - truth)
    return ErrorReport(
        max_error=float(errors.max()),
        mean_error=float(errors.mean()),
        per_query=errors,
        naive_baseline=float(truth.max()),
        m=workload.m,
    )


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    seeds: tuple[int, ...]
    grid_rounds: tuple[int, ...] | None = None  # None: take rounds from the base config
    grid_queries_per_round: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        if len(set(self.seeds)) != len(self.seeds) or len(self.seeds) == 0:
            raise ValueError("seeds must be non-empty and distinct")

    def grid(self, base: FitConfig):
        ts = self.grid_rounds if self.grid_rounds is not None else (base.rounds,)
        ks = (
            self.grid_queries_per_round
            if self.grid_queries_per_round is not None
            else (base.queries_per_round,)
        )
        return [(t, k) for t in ts for k in ks]


def run_sweep(
    data: DiscreteDataset, workload: Workload, spec: SweepSpec, base: FitConfig
) -> list[dict]:
    """One fit of `workload` per (axis value, seed, grid point); returns table rows.

    Rows come out in spec order: values outermost, then seeds, then the grid.
    wall_ms is the only nondeterministic column. The workload axis instead
    fits random_workload(schema, workload.k, value, workload.seed, workload.kind).
    Before any fit, a workload on another schema raises SchemaError, and one of
    mixed arities or without a seed raises WorkloadError on the workload axis.
    """
    if workload.schema != data.schema:
        raise SchemaError("workload and dataset schemas differ")
    if spec.axis == AXIS_WORKLOAD and (workload.k is None or workload.seed is None):
        raise WorkloadError("the workload axis needs a workload of one arity with a seed")
    rows = []
    for value in spec.values:
        for seed in spec.seeds:
            for t_rounds, k_per in spec.grid(base):
                epsilon = float(value) if spec.axis == AXIS_EPSILON else base.epsilon
                n_synth = int(value) if spec.axis == AXIS_N_SYNTH else base.n_synth
                row = dict.fromkeys(SWEEP_COLUMNS) | {
                    "axis": spec.axis, "value": value, "seed": seed, "K": k_per, "T": t_rounds,
                    "n_prime": n_synth, "epsilon": epsilon, "status": "ok", "privacy": NON_PRIVATE,
                }
                t0 = time.perf_counter()
                try:  # an infeasible config, or workload-axis value, is an error row too
                    wl = workload
                    if spec.axis == AXIS_WORKLOAD:
                        wl = random_workload(
                            data.schema, workload.k, int(value), workload.seed, workload.kind
                        )
                    config = replace(
                        base, seed=seed, rounds=t_rounds, queries_per_round=k_per,
                        epsilon=epsilon, n_synth=n_synth,
                    )
                    result = fit(data, wl, config)
                    row["delta"] = result.resolved_delta
                    if spec.axis == AXIS_OVERSAMPLE:
                        synth = randomized_round(
                            result.relaxed, RoundingConfig(oversample=int(value))
                        )
                        report = max_error(wl, data, synth)
                    else:
                        report = max_error(wl, data, result.relaxed)
                    row["max_error"] = report.max_error
                    row["mean_error"] = report.mean_error
                    row["naive_baseline"] = report.naive_baseline
                except (ValueError, SchemaError) as exc:
                    row["status"] = f"error: {exc}"
                row["wall_ms"] = (time.perf_counter() - t0) * 1000.0
                rows.append(row)
    return rows


def sweep_rows_to_csv(rows: list[dict], path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
