"""Benchmark inputs and pipelines: the seeded table, its schema, the three workloads.

Every workload shares one schema of 15 categorical features (d' = 68) and one
workload of 64 random 3-way marginals drawn with workload seed 7 (m = 6144).
The private table comes from a seeded generator in this file; the program only
ever sees the CSV and schema JSON written here, before any timing starts.

A pipeline run is one repetition of "CSV on disk -> released CSV plus its
utility report". It returns the phase timings and the outputs the correctness
checks read.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from privsynth import cli, engine, evaluation, projection, queries, rounding, schema

CARDINALITIES = (2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7)
EPSILON = 1.0
FIT_SEED = 0
ROUND_SEED = 0
OVERSAMPLE = 5


@dataclass(frozen=True)
class Spec:
    """One workload: table size, fit mode and whether it runs through the CLI."""

    name: str
    why: str
    n: int  # private rows
    rounds: int
    queries_per_round: int | None
    max_steps: int  # Adam steps per projection
    via_cli: bool = False
    n_synth: int = 1000
    cards: tuple[int, ...] = CARDINALITIES
    k: int = 3
    marginals: int = 64
    workload_seed: int = 7

    @property
    def released_rows(self) -> int:
        return self.n_synth * OVERSAMPLE


WORKLOADS = {
    spec.name: spec
    for spec in (
        # T = 1 answers all 6144 queries at rho/m: the full-workload gradient
        # and the m-entry ledger block every step; sparsemax and Adam are small.
        Spec(
            name="oneshot",
            why="T=1: all 6144 queries answered at rho/m, so the full-workload "
            "gradient and the m-entry ledger dominate fit time",
            n=20_000,
            rounds=1,
            queries_per_round=None,
            max_steps=10,
        ),
        # T = 5, K = 25 fits at most 125 selected queries, so the per-step cost
        # moves to sparsemax and Adam, plus one full-workload relaxed evaluation
        # per round for selection; the ledger has only 2*T*K entries.
        Spec(
            name="adaptive",
            why="T=5, K=25: at most 125 selected queries per fit, so sparsemax "
            "and Adam carry the step cost and the ledger is near zero",
            n=20_000,
            rounds=5,
            queries_per_round=25,
            max_steps=60,
        ),
        # How CLI users work: each subcommand reloads a large private CSV, so
        # CSV parsing and exact discrete evaluation dominate, not projection.
        Spec(
            name="cli-large-n",
            why="workload, fit, round and eval subcommands on a 10^5-row CSV: "
            "each reloads the table, so CSV I/O and discrete evaluation dominate",
            n=100_000,
            rounds=5,
            queries_per_round=25,
            max_steps=10,
            via_cli=True,
        ),
    )
}


def tiny(spec: Spec) -> Spec:
    """The same pipeline at sizes that run in well under a second."""
    return replace(
        spec,
        n=400,
        n_synth=30,
        cards=(2, 3, 4, 3),
        k=2,
        marginals=3,
        max_steps=3,
        queries_per_round=None if spec.rounds == 1 else 2,
        rounds=min(spec.rounds, 2),
    )


# ---------------------------------------------------------------------------
# Seeded private table
# ---------------------------------------------------------------------------


def _skewed(rng, t: int, n: int) -> np.ndarray:
    p = 0.6 ** np.arange(t)
    return rng.choice(t, size=n, p=p / p.sum())


def generate_table(cards, n: int, seed: int) -> np.ndarray:
    """Correlated, skewed categorical rows, one column per feature.

    A skewed latent variable with max(cards) levels is drawn per row; each
    feature copies it (mod its cardinality) half the time and draws a fresh
    skewed value otherwise, so 2- and 3-way marginals are far from uniform.
    """
    rng = np.random.default_rng(seed)
    latent = _skewed(rng, max(cards), n)
    cols = []
    for t in cards:
        fresh = _skewed(rng, t, n)
        cols.append(np.where(rng.random(n) < 0.5, latent % t, fresh))
    return np.column_stack(cols)


@dataclass(frozen=True)
class Paths:
    """Files of one workload run, all inside its work directory."""

    private: Path
    schema: Path
    workload: Path
    fit_dir: Path
    released: Path
    report: Path

    @classmethod
    def under(cls, root: Path) -> "Paths":
        return cls(
            private=root / "private.csv",
            schema=root / "schema.json",
            workload=root / "workload.json",
            fit_dir=root / "fit",
            released=root / "released.csv",
            report=root / "report.json",
        )


def write_inputs(spec: Spec, seed: int, root: Path) -> Paths:
    """Write the private CSV and its schema JSON for this seed."""
    root.mkdir(parents=True, exist_ok=True)
    paths = Paths.under(root)
    names = [f"f{i}" for i in range(len(spec.cards))]
    rows = generate_table(spec.cards, spec.n, seed)
    np.savetxt(paths.private, rows, fmt="%d", delimiter=",", header=",".join(names), comments="")
    paths.schema.write_text(
        json.dumps(
            [{"name": f, "categories": [str(v) for v in range(t)]} for f, t in zip(names, spec.cards)]
        )
        + "\n",
        encoding="utf-8",
    )
    return paths


class RelaxedError:
    """Max error of a relaxed output over the full workload, computed here.

    On relaxed rows a product query's answer is the mean over rows of the
    product of the row's entries in the query's columns, so one marginal's
    answers are an outer product of its feature blocks, averaged over rows.
    The private table's exact marginals are counted once, from the generated
    rows; the marginal list is the program's workload for this spec.
    """

    def __init__(self, spec: Spec, seed: int, schema_path: Path):
        sch = schema.Schema.load(schema_path)
        self.marginals = queries.random_workload(
            sch, spec.k, spec.marginals, spec.workload_seed
        ).marginals
        self.offsets = np.concatenate([[0], np.cumsum(spec.cards)])
        rows = generate_table(spec.cards, spec.n, seed)
        self.truth = []
        for s in self.marginals:
            dims = [spec.cards[i] for i in s]
            cells = np.ravel_multi_index(tuple(rows[:, i] for i in s), dims)
            self.truth.append(np.bincount(cells, minlength=math.prod(dims)) / spec.n)

    def __call__(self, relaxed: np.ndarray) -> float:
        relaxed = np.asarray(relaxed, dtype=np.float64)
        if relaxed.ndim != 2 or relaxed.shape[1] != self.offsets[-1]:
            raise ValueError(f"relaxed output has shape {relaxed.shape}")
        worst = 0.0
        for s, truth in zip(self.marginals, self.truth):
            blocks = [relaxed[:, self.offsets[i] : self.offsets[i + 1]] for i in s]
            cells = functools.reduce(
                lambda acc, b: (acc[:, :, None] * b[:, None, :]).reshape(len(relaxed), -1), blocks
            )
            worst = max(worst, float(np.abs(cells.mean(axis=0) - truth).max()))
        return worst


# ---------------------------------------------------------------------------
# One repetition of a pipeline
# ---------------------------------------------------------------------------


@dataclass
class Outputs:
    """What a repetition released, as the correctness checks read it."""

    rho_total: float
    ledger: list[float]  # rho of every ledger entry
    relaxed: np.ndarray  # (n_synth, d') relaxed rows
    rounded: np.ndarray  # (rows, d) category indices, -1 for an unknown label
    m: int  # workload size the utility report covers
    max_error: float
    naive_baseline: float
    exit_codes: list[int]  # one per CLI subcommand; empty in process


@dataclass
class Repetition:
    timings: dict  # setup_s, fit_s, eval_s, total_s
    outputs: Outputs


def run_once(spec: Spec, paths: Paths) -> Repetition:
    return (_run_cli if spec.via_cli else _run_in_process)(spec, paths)


def _run_in_process(spec: Spec, paths: Paths) -> Repetition:
    t0 = time.perf_counter()
    sch = schema.Schema.load(paths.schema)
    data = schema.load_csv(paths.private, sch)
    wl = queries.random_workload(sch, spec.k, spec.marginals, spec.workload_seed)
    t1 = time.perf_counter()
    config = engine.FitConfig(
        epsilon=EPSILON,
        rounds=spec.rounds,
        queries_per_round=spec.queries_per_round,
        n_synth=spec.n_synth,
        seed=FIT_SEED,
        projection=projection.ProjectionConfig(max_steps=spec.max_steps),
    )
    result = engine.fit(data, wl, config)
    t2 = time.perf_counter()
    synth = rounding.randomized_round(
        result.relaxed, rounding.RoundingConfig(oversample=OVERSAMPLE, seed=ROUND_SEED)
    )
    schema.save_csv(synth, paths.released)
    t3 = time.perf_counter()
    report = evaluation.max_error(wl, data, synth)
    paths.report.write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    t4 = time.perf_counter()
    return Repetition(
        _timings(t0, t1, t2, t3, t4),
        Outputs(
            rho_total=result.budget.rho_total,
            ledger=[rho for _, rho in result.budget.ledger],
            relaxed=result.relaxed.data,
            rounded=synth.rows,
            m=report.m,
            max_error=report.max_error,
            naive_baseline=report.naive_baseline,
            exit_codes=[],
        ),
    )


def _cli(argv) -> int:
    """Run one subcommand in this process, keeping its prints off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects a malformed command line
            return exc.code if isinstance(exc.code, int) else 2


def _run_cli(spec: Spec, paths: Paths) -> Repetition:
    # No output of an earlier repetition may stand in for one a failed subcommand missed.
    shutil.rmtree(paths.fit_dir, ignore_errors=True)
    paths.released.unlink(missing_ok=True)
    paths.report.unlink(missing_ok=True)
    data = ["--data", paths.private, "--schema", paths.schema]
    t0 = time.perf_counter()
    codes = [_cli(["workload", *data, "--k", spec.k, "--marginals", spec.marginals,
                   "--seed", spec.workload_seed, "--out", paths.workload])]
    t1 = time.perf_counter()
    fit = ["fit", *data, "--workload", paths.workload, "--epsilon", EPSILON, "--T", spec.rounds,
           "--n-prime", spec.n_synth, "--max-steps", spec.max_steps, "--seed", FIT_SEED,
           "--out-dir", paths.fit_dir]
    if spec.queries_per_round is not None:
        fit += ["--K", spec.queries_per_round]
    codes.append(_cli(fit))
    t2 = time.perf_counter()
    codes.append(
        _cli(["round", "--relaxed", paths.fit_dir / "relaxed.csv",
              "--schema", paths.fit_dir / "schema.json", "--oversample", OVERSAMPLE,
              "--seed", ROUND_SEED, "--out", paths.released])
    )
    t3 = time.perf_counter()
    codes.append(
        _cli(["eval", *data, "--workload", paths.workload, "--synth", paths.released,
              "--out", paths.report])
    )
    t4 = time.perf_counter()

    result = json.loads((paths.fit_dir / "result.json").read_text(encoding="utf-8"))
    report = json.loads(paths.report.read_text(encoding="utf-8"))
    return Repetition(
        _timings(t0, t1, t2, t3, t4),
        Outputs(
            rho_total=result["budget"]["rho_total"],
            ledger=[e["rho"] for e in result["ledger"]],
            relaxed=np.loadtxt(paths.fit_dir / "relaxed.csv", delimiter=",", ndmin=2),
            rounded=_read_labels(paths.released, spec.cards),
            m=report["m"],
            max_error=report["max_error"],
            naive_baseline=report["naive_baseline"],
            exit_codes=codes,
        ),
    )


def _read_labels(path: Path, cards) -> np.ndarray:
    """Category indices of a released CSV; -1 marks a bad label or a ragged row."""
    d = len(cards)
    lookup = [{str(v): v for v in range(t)} for t in cards]
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if len(row) != d:
                rows.append([-1] * d)
            else:
                rows.append([lookup[c].get(cell, -1) for c, cell in enumerate(row)])
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), d)


def _timings(t0, t1, t2, t3, t4) -> dict:
    return {"setup_s": t1 - t0, "fit_s": t2 - t1, "eval_s": t4 - t3, "total_s": t4 - t0}
