"""Projection of noisy answers onto (relaxed) synthetic datasets.

relaxed_projection minimizes sum_j (q_j(X) - a_j)^2 over an n_rows-by-d_prime
matrix with Adam, renormalizing rows after every step. The default
normalization projects each feature block of each row onto the probability
simplex (SparseMax: sort descending, find the support size, subtract the
threshold tau, clamp at zero), which keeps rows interpretable as per-feature
category distributions and is what randomized rounding consumes downstream.
A plain box clamp is available as an alternative, alone or composed before
SparseMax, since optimizing over [-1, 1] can converge faster than optimizing
over [0, 1] where product-query gradients vanish at zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .queries import DEFAULT_BATCH_SIZE, QueryEvaluator
from .schema import RelaxedDataset, Schema

SPARSEMAX = "sparsemax"
CLIP = "clip"
CLIP_THEN_SPARSEMAX = "clip+sparsemax"
NORMALIZATION_MODES = (SPARSEMAX, CLIP, CLIP_THEN_SPARSEMAX)


def sparsemax(z) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("sparsemax expects a non-empty 1-D vector")
    if not np.isfinite(z).all():
        raise ValueError("sparsemax input must be finite")
    return sparsemax_rows(z[None, :])[0]


def sparsemax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection of a 2-D array.

    Support size k(z) = max{k : 1 + k*z_(k) > sum_{j<=k} z_(j)} over the
    descending sort, tau = (sum of the top k(z) entries - 1)/k(z), output
    max(z - tau, 0).
    """
    srt = -np.sort(-Z, axis=1)
    css = np.cumsum(srt, axis=1) - 1.0
    ranks = np.arange(1, Z.shape[1] + 1, dtype=np.float64)
    support = np.count_nonzero(srt * ranks > css, axis=1)
    tau = css[np.arange(Z.shape[0]), support - 1] / support
    return np.maximum(Z - tau[:, None], 0.0)


@dataclass(frozen=True)
class Normalization:
    """Row renormalization applied after each optimizer step."""

    mode: str = SPARSEMAX
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if self.mode not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization mode {self.mode!r}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")


def _normalize_inplace(X: np.ndarray, schema: Schema, norm: Normalization) -> None:
    if norm.mode in (CLIP, CLIP_THEN_SPARSEMAX):
        np.clip(X, norm.lo, norm.hi, out=X)
    if norm.mode in (SPARSEMAX, CLIP_THEN_SPARSEMAX):
        for off, t in zip(schema.offsets, schema.cardinalities):
            X[:, off : off + t] = sparsemax_rows(X[:, off : off + t])


def normalize_rows(relaxed: RelaxedDataset, norm: Normalization = Normalization()) -> RelaxedDataset:
    """Return a renormalized copy; sparsemax acts per feature block per row."""
    X = relaxed.data.copy()
    _normalize_inplace(X, relaxed.schema, norm)
    return RelaxedDataset(relaxed.schema, X)


def random_init(
    schema: Schema, n_rows: int, rng, norm: Normalization = Normalization()
) -> RelaxedDataset:
    """Seeded uniform(-1, 1) matrix followed by one normalization pass."""
    X = rng.uniform_signed((n_rows, schema.d_prime))
    _normalize_inplace(X, schema, norm)
    return RelaxedDataset(schema, X)


@dataclass(frozen=True)
class ProjectionConfig:
    learning_rate: float = 0.001
    max_steps: int = 5000
    early_stop_rel: float = 1e-7
    normalization: Normalization = field(default_factory=Normalization)
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = DEFAULT_BATCH_SIZE
    trace_path: str | None = None

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.early_stop_rel < 0:
            raise ValueError("early_stop_rel must be >= 0")


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the data matrix."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(0, np.zeros(shape), np.zeros(shape))

    def update(self, X: np.ndarray, grad: np.ndarray, config: ProjectionConfig) -> None:
        """One bias-corrected Adam step, applied to X in place."""
        self.step += 1
        b1, b2 = config.beta1, config.beta2
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        m_hat = self.m / (1.0 - b1 ** self.step)
        v_hat = self.v / (1.0 - b2 ** self.step)
        X -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


@dataclass
class ProjectionResult:
    dataset: RelaxedDataset
    losses: list[float]  # loss per iterate, index 0 = (normalized) input
    best_loss: float
    best_step: int

    @property
    def steps(self) -> int:
        return len(self.losses) - 1


def relaxed_projection(
    queries,
    targets,
    init: RelaxedDataset,
    config: ProjectionConfig = ProjectionConfig(),
) -> ProjectionResult:
    """Fit a relaxed dataset whose query answers are close to `targets`.

    The input is normalized once on entry (a no-op for inputs already in
    normal form, which is everything the engine produces), then Adam runs for
    at most max_steps, renormalizing after every step. Stops early when the
    relative loss improvement between consecutive steps is nonnegative and
    below early_stop_rel; a loss increase never triggers the stop. The
    best-loss iterate observed is returned, so the result is never worse than
    the (normalized) starting point even though Adam is non-monotone.
    """
    if len(queries) == 0:
        raise ValueError("cannot project onto an empty query list")
    targets = np.asarray(targets, dtype=np.float64)
    if len(queries) != targets.shape[0]:
        raise ValueError(f"{len(queries)} queries but {targets.shape[0]} targets")
    schema = init.schema
    X = init.data.astype(np.float64, copy=True)
    _normalize_inplace(X, schema, config.normalization)

    evaluator = QueryEvaluator(queries, schema, X.shape[0], config.batch_size)
    loss, grad = evaluator.loss_and_gradient(X, targets)
    losses = [loss]
    best_loss, best_X, best_step = loss, X.copy(), 0
    adam = AdamState.zeros(X.shape)

    for step in range(1, config.max_steps + 1):
        adam.update(X, grad, config)
        _normalize_inplace(X, schema, config.normalization)
        new_loss, grad = evaluator.loss_and_gradient(X, targets)
        losses.append(new_loss)
        if new_loss < best_loss:
            best_loss, best_step = new_loss, step
            np.copyto(best_X, X)
        improvement = loss - new_loss
        loss = new_loss
        if improvement >= 0.0 and improvement / max(losses[-2], 1e-30) < config.early_stop_rel:
            break

    if config.trace_path is not None:
        with Path(config.trace_path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss"])
            writer.writerows((i, f"{l!r}") for i, l in enumerate(losses))

    return ProjectionResult(RelaxedDataset(schema, best_X), losses, best_loss, best_step)


def projection_config_json(config: ProjectionConfig) -> dict:
    n = config.normalization
    return {
        "learning_rate": config.learning_rate,
        "max_steps": config.max_steps,
        "early_stop_rel": config.early_stop_rel,
        "normalization": {"mode": n.mode, "lo": n.lo, "hi": n.hi},
        "beta1": config.beta1,
        "beta2": config.beta2,
        "adam_eps": config.adam_eps,
        "batch_size": config.batch_size,
    }


def projection_config_from_json(obj: dict) -> ProjectionConfig:
    n = obj.get("normalization", {})
    return ProjectionConfig(
        learning_rate=obj.get("learning_rate", 0.001),
        max_steps=obj.get("max_steps", 5000),
        early_stop_rel=obj.get("early_stop_rel", 1e-7),
        normalization=Normalization(
            mode=n.get("mode", SPARSEMAX), lo=n.get("lo", -1.0), hi=n.get("hi", 1.0)
        ),
        beta1=obj.get("beta1", 0.9),
        beta2=obj.get("beta2", 0.999),
        adam_eps=obj.get("adam_eps", 1e-8),
        batch_size=obj.get("batch_size", DEFAULT_BATCH_SIZE),
    )
