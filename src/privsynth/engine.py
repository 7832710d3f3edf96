"""End-to-end synthetic data fitting: budget split, selection, projection.

Two branches, chosen by the `rounds` parameter:

* rounds == 1: every workload query is answered once with the Gaussian
  mechanism at rho/m, and a single projection fits a relaxed dataset to the
  full noisy answer vector from a seeded random start.

* rounds > 1: per round, `queries_per_round` selections are made
  sequentially. Each selection scores the not-yet-answered pool by the gap
  between its true answers and the answers conjectured from the current
  relaxed dataset, picks a winner by Gumbel noisy-max at rho/(2*T*K), and
  answers the winner with the Gaussian mechanism at the same share. The round
  ends with one projection over everything selected so far, warm-started from
  the previous round's dataset. Selection and answering each consume
  rho/(2*T*K), so T*K full rounds spend exactly rho.

Within a round the relaxed dataset is fixed, so conjectured pool answers are
computed once, at the start of the round, and the K selections index into
them; one evaluator over the whole workload serves every round. If the pool
empties early, remaining rounds are skipped and unspent budget stays unspent.

The per-round records hold only what the mechanism released or derived from
released values (selection counts and projection losses against the noisy
answers). Error against the private data is an evaluation, not part of the
fit: see evaluation.max_error.

Everything is deterministic given the seed (noise streams are derived per
component), so rerunning a fit reproduces its result byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import time
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .privacy import NoiseSource, PrivacyBudget, gaussian_mechanism, report_noisy_max
from .projection import ProjectionConfig, random_init, relaxed_projection
from .queries import QueryEvaluator, Workload, eval_compiled, eval_discrete
from .schema import DiscreteDataset, RelaxedDataset, SchemaError


class InfeasibleConfigError(ValueError):
    """Round/selection counts cannot be satisfied by the workload."""


@dataclass(frozen=True)
class FitConfig:
    epsilon: float = 1.0
    delta: float | None = None  # None resolves to 1/n^2 at fit time
    rounds: int = 1
    queries_per_round: int | None = None  # required when rounds > 1
    n_synth: int = 1000
    seed: int = 0
    no_noise: bool = False
    crypto_noise: bool = False
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    # Diagnostics: snapshot the relaxed dataset after every round. Off by
    # default; the copies are pure overhead outside of tests.
    keep_round_datasets: bool = field(default=False, metadata={"json": False})

    def __post_init__(self):
        if self.rounds < 1:
            raise InfeasibleConfigError("rounds must be >= 1")
        if self.rounds > 1 and (self.queries_per_round is None or self.queries_per_round < 1):
            raise InfeasibleConfigError("queries_per_round must be >= 1 when rounds > 1")
        if self.n_synth < 1:
            raise InfeasibleConfigError("n_synth must be >= 1")


@dataclass
class FitResult:
    relaxed: RelaxedDataset
    selected: list[int]  # workload indices in selection order
    noisy_answers: list[float]  # aligned with `selected`
    rounds: list[dict]  # per-round selection count, losses and steps
    budget: PrivacyBudget
    config: FitConfig
    resolved_delta: float
    timing: dict = field(default_factory=dict)
    round_datasets: list[RelaxedDataset] = field(default_factory=list)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "config": dict(config_to_json(self.config), delta=self.resolved_delta),
            "budget": self.budget.summary(),
            "ledger": self.budget.ledger_json(),
            "selected": list(self.selected),
            "noisy_answers": [float(a) for a in self.noisy_answers],
            "rounds": self.rounds,
            "n_synth_rows": self.relaxed.n,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timing), sort_keys=True, indent=2) + "\n"


def resolve_delta(config: FitConfig, n: int) -> float:
    """Apply the default delta = 1/n^2 when none was given.

    Raises SchemaError for a table without rows: no answer count/n exists.
    """
    if n < 1:
        raise SchemaError("the private table has no rows")
    return 1.0 / (n * n) if config.delta is None else config.delta


def conjectured_answers(
    pool, workload: Workload, relaxed: RelaxedDataset, evaluator: QueryEvaluator | None = None
) -> np.ndarray:
    """Relaxed answers for the pool's queries, in pool order.

    `evaluator`, when given, is a QueryEvaluator over the whole workload for
    relaxed.n rows, and the pool's entries are read off its answers; without
    one only the pool's queries are evaluated. A query's answer comes from its
    marginal's full answer tensor either way, so the two agree bit for bit.
    An index outside the workload raises IndexError.
    """
    selection = workload.select(pool)
    if evaluator is None:
        return eval_compiled(selection, relaxed)
    return evaluator.answers(relaxed.data)[selection.indices]


def fit(data: DiscreteDataset, workload: Workload, config: FitConfig) -> FitResult:
    """Run the full mechanism and return the fitted relaxed dataset."""
    n = data.n
    delta = resolve_delta(config, n)
    if workload.m == 0:
        raise InfeasibleConfigError("workload is empty")
    if data.schema != workload.schema:
        raise SchemaError("dataset and workload schemas differ")
    t_rounds, k_per = config.rounds, config.queries_per_round
    if t_rounds > 1 and t_rounds * k_per > workload.m:
        raise InfeasibleConfigError(
            f"rounds*queries_per_round = {t_rounds * k_per} exceeds workload size {workload.m}"
        )

    started = time.perf_counter()
    if config.no_noise:
        budget = PrivacyBudget.non_private()
        rho = math.inf
    else:
        budget = PrivacyBudget.from_eps_delta(config.epsilon, delta)
        rho = budget.rho_total

    init_rng = NoiseSource(config.seed, "init")
    gauss_rng = NoiseSource(config.seed, "gaussian", crypto=config.crypto_noise)
    gumbel_rng = NoiseSource(config.seed, "gumbel", crypto=config.crypto_noise)

    true_answers = eval_discrete(workload, data)
    current = random_init(workload.schema, config.n_synth, init_rng)
    selected: list[int] = []
    noisy: list[float] = []
    round_trace: list[dict] = []
    round_datasets: list[RelaxedDataset] = []
    proj_seconds = 0.0
    phases = {"gradient_s": 0.0, "normalize_s": 0.0, "adam_s": 0.0}
    # The fit writes one trace over all rounds; a projection would rewrite it.
    proj_config = replace(config.projection, trace_path=None)
    losses: list[tuple[int, list[float]]] = []

    def project(t, queries, targets, start):
        nonlocal proj_seconds
        t0 = time.perf_counter()
        proj = relaxed_projection(queries, targets, start, proj_config)
        proj_seconds += time.perf_counter() - t0
        for key, seconds in proj.timing.items():
            phases[key] += seconds
        losses.append((t, proj.losses))
        return proj

    if t_rounds == 1:
        share = math.inf if config.no_noise else rho / workload.m
        answers = gaussian_mechanism(true_answers, n, share, gauss_rng)
        budget.spend([f"gaussian[q={i}]" for i in range(workload.m)],
                     0.0 if config.no_noise else share)
        selected = list(range(workload.m))
        noisy = [float(a) for a in np.atleast_1d(answers)]
        proj = project(1, workload.select(), answers, current)
        current = proj.dataset
        round_trace.append(_round_record(1, proj, selected))
        if config.keep_round_datasets:
            round_datasets.append(current)
    else:
        share = math.inf if config.no_noise else rho / (2.0 * t_rounds * k_per)
        ledger_share = 0.0 if config.no_noise else share
        full = QueryEvaluator(workload.select(), workload.schema, config.n_synth)
        pool = list(range(workload.m))
        for t in range(1, t_rounds + 1):
            if not pool:
                break  # pool exhausted: skip remaining rounds, budget stays unspent
            pool_true = true_answers[pool]
            pool_conj = conjectured_answers(pool, workload, current, full)
            for j in range(k_per):
                if not pool:
                    break
                win = report_noisy_max(pool_true, pool_conj, n, share, gumbel_rng)
                qidx = pool.pop(win)
                pool_true = np.delete(pool_true, win)
                pool_conj = np.delete(pool_conj, win)
                budget.spend(f"noisy_max[round={t},pick={j}]", ledger_share)
                answer = gaussian_mechanism(true_answers[qidx], n, share, gauss_rng)
                budget.spend(f"gaussian[q={qidx}]", ledger_share)
                selected.append(qidx)
                noisy.append(float(answer))
            proj = project(t, workload.select(selected), np.asarray(noisy), current)
            current = proj.dataset
            round_trace.append(_round_record(t, proj, selected))
            if config.keep_round_datasets:
                round_datasets.append(current)

    if config.projection.trace_path is not None:
        _write_trace(config.projection.trace_path, losses)
    result = FitResult(
        relaxed=current,
        selected=selected,
        noisy_answers=noisy,
        rounds=round_trace,
        budget=budget,
        config=config,
        resolved_delta=delta,
        timing={
            "wall_ms": (time.perf_counter() - started) * 1000.0,
            "projection_ms": proj_seconds * 1000.0,
            **phases,
        },
        round_datasets=round_datasets,
    )
    return result


def _round_record(t, proj, selected) -> dict:
    return {
        "round": t,
        "selected_total": len(selected),
        "projection_initial_loss": proj.losses[0],
        "projection_loss": proj.best_loss,
        "projection_steps": proj.steps,
    }


def _write_trace(path, losses) -> None:
    """One `round,step,loss` CSV over every projection of a fit."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "step", "loss"])
        for t, round_losses in losses:
            writer.writerows((t, i, f"{l!r}") for i, l in enumerate(round_losses))


def save_relaxed_csv(relaxed: RelaxedDataset, path) -> None:
    """Write the relaxed matrix as headerless CSV with full float precision."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in relaxed.data.tolist())


def load_relaxed_csv(path, schema) -> RelaxedDataset:
    data = np.loadtxt(Path(path), delimiter=",", ndmin=2, dtype=np.float64)
    return RelaxedDataset(schema, data)


def _json_fields(config_type) -> list:
    return [f for f in fields(config_type) if f.metadata.get("json", True)]


def config_to_json(config) -> dict:
    """A config dataclass as a JSON object, nested configs as nested objects.

    One key per field; fields marked metadata={"json": False} are left out.
    """
    return {
        f.name: config_to_json(value) if is_dataclass(value := getattr(config, f.name)) else value
        for f in _json_fields(config)
    }


def config_from_json(config_type, obj, where: str = ""):
    """Inverse of config_to_json, checking `obj` as outside input.

    A missing key takes the field's default. An unknown key, or a value whose
    JSON type does not fit the field's annotation, raises ValueError naming
    the key (ints are accepted for float fields, booleans only for bool ones).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"config {where.rstrip('.') or 'file'} must be a JSON object")
    hints = typing.get_type_hints(config_type)
    known = {f.name: hints[f.name] for f in _json_fields(config_type)}
    kwargs = {}
    for key, value in obj.items():
        name = where + key
        if key not in known:
            raise ValueError(f"unknown config key {name!r}")
        if is_dataclass(known[key]):
            kwargs[key] = config_from_json(known[key], value, name + ".")
        else:
            kwargs[key] = _checked_json_value(name, value, known[key])
    return config_type(**kwargs)


def _checked_json_value(name: str, value, hint):
    allowed = typing.get_args(hint) or (hint,)  # float | None -> (float, NoneType)
    if isinstance(value, bool):  # an int subclass, but never a count or a rate
        ok = bool in allowed
    else:
        ok = isinstance(value, allowed) or (float in allowed and isinstance(value, int))
    if not ok:
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ValueError(f"config key {name!r} must be {expected}, got {value!r}")
    return value
