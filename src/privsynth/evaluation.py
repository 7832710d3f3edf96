"""Error metrics and the sweep harness for trend experiments.

The headline metric is the maximum absolute gap between a query's answer on
the synthetic data and its answer on the real data. For calibration every
report carries the naive baseline: the max error obtained by answering every
query with 0, i.e. max_i q_i(D). Error above that baseline is uninteresting.

run_sweep drives repeated fits along one axis (privacy level, workload size,
synthetic row count, or rounding oversample) crossed with seeds and an
optional grid of (queries_per_round, rounds) combinations, and emits a
row-complete table: failed cells are recorded with an error status, never
dropped. Picking the best grid combination by true error afterwards is not
itself a private operation, so best_of_grid tags every row it returns.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .engine import FitConfig, fit
from .queries import PRODUCT, Workload, eval_discrete, eval_relaxed, random_workload
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
)

NON_PRIVATE_SELECTION = "non-privately selected"


@dataclass
class ErrorReport:
    max_error: float
    mean_error: float
    per_query: np.ndarray
    naive_baseline: float
    m: int

    def to_json_dict(self) -> dict:
        return {
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
    workload_k: int = 3
    workload_marginals: int = 8
    workload_seed: int = 0
    kind: str = PRODUCT
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


def run_sweep(data: DiscreteDataset, spec: SweepSpec, base: FitConfig) -> list[dict]:
    """One fit per (axis value, seed, grid point); returns table rows.

    Rows come out in spec order: values outermost, then seeds, then the grid.
    wall_ms is the only nondeterministic column.
    """
    rows = []
    base_workload = None
    if spec.axis != AXIS_WORKLOAD:
        base_workload = random_workload(
            data.schema, spec.workload_k, spec.workload_marginals, spec.workload_seed, spec.kind
        )
    for value in spec.values:
        if spec.axis == AXIS_WORKLOAD:
            workload = random_workload(
                data.schema, spec.workload_k, int(value), spec.workload_seed, spec.kind
            )
        else:
            workload = base_workload
        for seed in spec.seeds:
            for t_rounds, k_per in spec.grid(base):
                epsilon = float(value) if spec.axis == AXIS_EPSILON else base.epsilon
                n_synth = int(value) if spec.axis == AXIS_N_SYNTH else base.n_synth
                row = {
                    "axis": spec.axis,
                    "value": value,
                    "seed": seed,
                    "K": k_per,
                    "T": t_rounds,
                    "n_prime": n_synth,
                    "epsilon": epsilon,
                    "delta": None,
                    "max_error": None,
                    "mean_error": None,
                    "naive_baseline": None,
                    "wall_ms": None,
                    "status": "ok",
                }
                t0 = time.perf_counter()
                try:  # an infeasible config is an error row too
                    config = replace(
                        base, seed=seed, rounds=t_rounds, queries_per_round=k_per,
                        epsilon=epsilon, n_synth=n_synth,
                    )
                    result = fit(data, workload, config)
                    row["delta"] = result.resolved_delta
                    if spec.axis == AXIS_OVERSAMPLE:
                        synth = randomized_round(
                            result.relaxed, RoundingConfig(oversample=int(value))
                        )
                        report = max_error(workload, data, synth)
                    else:
                        report = max_error(workload, data, result.relaxed)
                    row["max_error"] = report.max_error
                    row["mean_error"] = report.mean_error
                    row["naive_baseline"] = report.naive_baseline
                except (ValueError, SchemaError) as exc:
                    row["status"] = f"error: {exc}"
                row["wall_ms"] = (time.perf_counter() - t0) * 1000.0
                rows.append(row)
    return rows


def best_of_grid(rows: list[dict]) -> list[dict]:
    """Smallest-max-error grid point per (value, seed), tagged as non-private.

    Mirrors the reporting convention of picking the best (K, T) combination
    by observed error; that choice leaks information about the data, hence
    the mandatory tag.
    """
    groups: dict[tuple, dict] = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        key = (row["axis"], row["value"], row["seed"])
        cur = groups.get(key)
        if cur is None or row["max_error"] < cur["max_error"]:
            groups[key] = row
    out = []
    for row in groups.values():
        tagged = dict(row)
        tagged["selection"] = NON_PRIVATE_SELECTION
        out.append(tagged)
    return out


def sweep_rows_to_csv(rows: list[dict], path, extra_columns: tuple[str, ...] = ()) -> None:
    columns = SWEEP_COLUMNS + extra_columns
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c) for c in columns})
