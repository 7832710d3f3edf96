"""End-to-end synthetic data fitting: budget split, selection, projection.

One loop of `rounds` rounds, each measuring queries and then fitting:

* rounds == 1: the one round answers every workload query with the Gaussian
  mechanism at share(m), the largest float whose m-fold sum is at most rho,
  and a single projection fits a relaxed dataset to the full noisy answer
  vector from a seeded random start.

* rounds > 1: per round, `queries_per_round` selections are made
  sequentially. Each selection scores the not-yet-answered pool by the gap
  between its true answers and the answers conjectured from the current
  relaxed dataset, picks a winner by Gumbel noisy-max at share(2*T*K), and
  answers the winner with the Gaussian mechanism at the same share. The round
  ends with one projection over everything selected so far, warm-started from
  the previous round's dataset. Selection and answering each consume
  share(2*T*K), so the ledger's 2*T*K spends total at most rho, exactly.

Only _Measurements reaches the private table: it holds the true answers, the
ledger and the secret noise streams, and books each spend where it draws the
noise. Within a round the relaxed dataset is fixed, so conjectured pool
answers are computed once, at the start of the round, and the K selections
index into them; one evaluator over the whole workload serves every round.
T*K may not exceed m, so the pool never runs dry.

The per-round records hold only what the mechanism released or derived from
released values (selection counts and projection losses against the noisy
answers, the whole trajectory included: one loss per iterate, the entry
loss first). Error against the private data is an evaluation, not part of the
fit: see evaluation.max_error. Everything after the noisy measurements is
post-processing of the record, and replay rebuilds it from the record alone.

Without a seed the noise comes from OS entropy that no output records. A
seed makes a rerun byte-identical and the noise removable (see noise_label).
"""

from __future__ import annotations

import time
import typing
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .privacy import NoiseSource, PrivacyBudget, gaussian_mechanism, report_noisy_max
from .projection import ProjectionConfig, random_init, relaxed_projection
from .queries import QueryEvaluator, Workload, eval_compiled, eval_discrete
from .schema import DiscreteDataset, RelaxedDataset, SchemaError, dump_json


class InfeasibleConfigError(ValueError):
    """Round/selection counts cannot be satisfied by the workload."""


@dataclass(frozen=True)
class FitConfig:
    epsilon: float = 1.0
    delta: float | None = None  # None resolves to 1/n^2 at fit time
    rounds: int = 1
    queries_per_round: int | None = None  # required when rounds > 1
    n_synth: int = 1000
    seed: int | None = None  # None: secret noise from OS entropy; an int makes it reproducible
    no_noise: bool = False
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)

    def __post_init__(self):
        if self.rounds < 1:
            raise InfeasibleConfigError("rounds must be >= 1")
        if self.rounds > 1 and (self.queries_per_round is None or self.queries_per_round < 1):
            raise InfeasibleConfigError("queries_per_round must be >= 1 when rounds > 1")
        if self.n_synth < 1:
            raise InfeasibleConfigError("n_synth must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class FitResult:
    relaxed: RelaxedDataset
    selected: list[int]  # workload indices in selection order
    noisy_answers: list[float]  # aligned with `selected`
    rounds: list[dict]  # per-round selection count, loss trajectory and steps
    budget: PrivacyBudget
    config: FitConfig
    resolved_delta: float
    timing: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": dict(config_to_json(self.config), delta=self.resolved_delta),
            "noise": noise_label(self.config),
            "budget": self.budget.summary(),
            "ledger": self.budget.ledger_json(),
            "selected": list(self.selected),
            "noisy_answers": [float(a) for a in self.noisy_answers],
            "rounds": self.rounds,
            "n_synth_rows": self.relaxed.n,
            "timing": self.timing,
        }

    def to_json(self) -> str:
        return dump_json(self.to_json_dict())


def noise_label(config: FitConfig) -> str:
    """result.json's "noise": a seeded fit's noise can be regenerated and subtracted."""
    if config.no_noise:
        return "none"
    return "os-entropy" if config.seed is None else "seeded-reproducible-non-private"


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
    An index outside the workload raises IndexError, and a relaxed table on
    another schema SchemaError.
    """
    if relaxed.schema != workload.schema:
        raise SchemaError("workload and relaxed dataset schemas differ")
    selection = workload.select(pool)
    if evaluator is None:
        return eval_compiled(selection, relaxed)
    return evaluator.answers(relaxed.data)[selection.indices]


class _Measurements:
    """The fit's one way to the private table: noisy-max selection and Gaussian measurement.

    It alone holds the true answers, the ledger and the secret gaussian and
    gumbel streams. Each call books its spend before it draws, so every draw
    follows its own ledger entries and an overspend raises BudgetError with
    no noise drawn. A non-private budget books 0 and hands the mechanisms its
    infinite share, which they answer without noise.
    """

    def __init__(self, data: DiscreteDataset, workload: Workload, config: FitConfig, delta: float):
        self.n = data.n
        if config.no_noise:
            self.budget = PrivacyBudget.non_private()
        else:
            self.budget = PrivacyBudget.from_eps_delta(config.epsilon, delta)
        self._true = eval_discrete(workload, data)
        self._gaussian = NoiseSource(config.seed, "gaussian")
        self._gumbel = NoiseSource(config.seed, "gumbel")

    def _book(self, label, share: float) -> float:
        self.budget.spend(label, share if self.budget.private else 0.0)
        return share

    def measure(self, indices: list[int], share: float) -> np.ndarray:
        """Noisy answers to the queries at `indices`, one Gaussian draw each, in order."""
        rho = self._book([f"gaussian[q={i}]" for i in indices], share)
        return gaussian_mechanism(self._true[indices], self.n, rho, self._gaussian)

    def select(self, pool: np.ndarray, conjectured, share: float, label: str) -> int:
        """Position in `pool` of the noisy-max gap between true and conjectured answers."""
        rho = self._book(label, share)
        return report_noisy_max(self._true[pool], conjectured, self.n, rho, self._gumbel)


def fit(data: DiscreteDataset, workload: Workload, config: FitConfig) -> FitResult:
    """Run the full mechanism and return the fitted relaxed dataset."""
    delta = resolve_delta(config, data.n)
    if data.schema != workload.schema:
        raise SchemaError("dataset and workload schemas differ")
    t_rounds, k_per = config.rounds, config.queries_per_round
    if t_rounds > 1 and t_rounds * k_per > workload.m:
        raise InfeasibleConfigError(
            f"rounds*queries_per_round = {t_rounds * k_per} exceeds workload size {workload.m}"
        )

    started = time.perf_counter()
    private = _Measurements(data, workload, config, delta)
    init_rng = NoiseSource(config.seed or 0, "init")  # public: replay rebuilds it from the record
    current = random_init(workload.schema, config.n_synth, init_rng)
    share = private.budget.share(workload.m if t_rounds == 1 else 2 * t_rounds * k_per)
    if t_rounds > 1:
        full = QueryEvaluator(workload.select(), workload.schema, config.n_synth)
        pool = np.arange(workload.m)  # the queries not yet selected
    selected: list[int] = []
    noisy: list[float] = []
    round_trace: list[dict] = []
    timing = {"projection_s": 0.0, "gradient_s": 0.0, "normalize_s": 0.0, "adam_s": 0.0}

    for t in range(1, t_rounds + 1):
        if t_rounds == 1:  # the one round measures every query
            selected = list(range(workload.m))
            noisy = private.measure(selected, share).tolist()
        else:  # K sequential picks, each measured as soon as it is chosen
            conj = conjectured_answers(pool, workload, current, full)
            for j in range(k_per):
                win = private.select(pool, conj, share, f"noisy_max[round={t},pick={j}]")
                selected.append(int(pool[win]))
                pool, conj = np.delete(pool, win), np.delete(conj, win)
                noisy += private.measure(selected[-1:], share).tolist()
        t0 = time.perf_counter()
        proj = relaxed_projection(
            workload.select(selected), np.asarray(noisy), current, config.projection
        )
        timing["projection_s"] += time.perf_counter() - t0
        for key, seconds in proj.timing.items():
            timing[key] += seconds
        current = proj.dataset
        round_trace.append({
            "round": t,
            "selected_total": len(selected),
            "projection_initial_loss": proj.losses[0],
            "projection_loss": proj.best_loss,
            "projection_steps": proj.steps,
            "projection_losses": proj.losses,
        })

    return FitResult(
        relaxed=current,
        selected=selected,
        noisy_answers=noisy,
        rounds=round_trace,
        budget=private.budget,
        config=config,
        resolved_delta=delta,
        timing={"wall_s": time.perf_counter() - started, **timing},
    )


def replay(record: dict, workload: Workload) -> list[RelaxedDataset]:
    """Every round's relaxed dataset, rebuilt bit for bit from a fit's record alone.

    `record` is FitResult.to_json_dict() or the parsed result.json. No private
    data enters: the release is post-processing of the recorded noisy answers.
    """
    config = config_from_json(FitConfig, record["config"])
    current = random_init(workload.schema, config.n_synth, NoiseSource(config.seed or 0, "init"))
    datasets = []
    for round_record in record["rounds"]:
        upto = round_record["selected_total"]
        targets = np.asarray(record["noisy_answers"][:upto], dtype=np.float64)
        queries = workload.select(record["selected"][:upto])
        current = relaxed_projection(queries, targets, current, config.projection).dataset
        datasets.append(current)
    return datasets


def save_relaxed_csv(relaxed: RelaxedDataset, path) -> None:
    """Write the relaxed matrix as headerless CSV with full float precision."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in relaxed.data.tolist())


def load_relaxed_csv(path, schema) -> RelaxedDataset:
    """Read a save_relaxed_csv file into a RelaxedDataset.

    A file without rows, one that is not numeric CSV, or one holding a NaN or
    infinite value (named by row and column) is a SchemaError.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(Path(path), delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:  # a non-numeric cell or a ragged row
            raise SchemaError(f"{path}: {exc}") from None
    if data.size == 0:
        raise SchemaError(f"{path}: no rows")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0].tolist()
        raise SchemaError(f"{path}: non-finite value {data[row, col]} at row {row}, column {col}")
    return RelaxedDataset(schema, data)


def config_to_json(config) -> dict:
    """A config dataclass as a JSON object, one key per field, nested configs as nested objects."""
    return {
        f.name: config_to_json(value) if is_dataclass(value := getattr(config, f.name)) else value
        for f in fields(config)
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
    known = {f.name: hints[f.name] for f in fields(config_type)}
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
