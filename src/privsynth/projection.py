"""Projection of noisy answers onto (relaxed) synthetic datasets.

relaxed_projection minimizes sum_j (q_j(X) - a_j)^2 over an n_rows-by-d_prime
matrix with Adam, renormalizing rows after every step. The normalization
projects each feature block of each row onto the probability simplex
(SparseMax: sort descending, find the support size, subtract the threshold
tau, clamp at zero), which keeps rows interpretable as per-feature category
distributions and is what randomized rounding consumes downstream.

One projection step is built to allocate little and to avoid per-row numpy
calls, with results bit-identical to the plain per-block formulas:

* The iterate has RelaxedDataset's layout, so X.T is a C-contiguous
  (d', rows) array with one contiguous row per one-hot column. The query
  evaluator runs its marginal kernels on that free feature-major view and
  returns the gradient in the same order, and the normalization gathers
  whole rows of it. The Adam moments, scratch buffers and the best iterate,
  which is returned as it is, share that order.
* The normalization stacks all feature blocks of one cardinality t into one
  (t, blocks * rows) array and projects it in one sparsemax_rows call, so a
  step costs one call per distinct cardinality, not one per feature.
* For t <= _NETWORK_MAX_T (11), sparsemax works column-wise on that layout:
  Batcher's odd-even mergesort network of elementwise max/min (generated
  per width and cached; 19 comparators at t = 8, against 28 for odd-even
  transposition) sorts each column, and the prefix sums run in cumsum's
  order. Wider blocks keep the row-wise np.sort kernel, which the network
  loses to from about t = 12 on 1000-row stacks. The cut-off is a constant.
* Adam runs only on the one-hot columns the query list can move: the
  evaluator's `touched` columns, where the gradient can be nonzero (all d'
  of them in a one-shot fit, an adaptive round's few selected cells
  otherwise). Their rows of X.T and of the gradient are gathered into
  compact (touched, rows) arrays that hold the moments' layout, stepped,
  and written back. An untouched column's gradient is exactly 0.0 at every
  step, so a full-width step there would be lr*0/(sqrt(0) + eps) = 0 and
  leave X's bits as they are.
* AdamState.update works in place on its moments and on X, through two
  scratch buffers allocated with the state, in the operation order of the
  textbook formula.

relaxed_projection reports the seconds spent in the gradient, the
normalization and the Adam update in ProjectionResult.timing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .queries import QueryEvaluator
from .schema import RelaxedDataset, Schema


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
    max(z - tau, 0). Rows of up to _NETWORK_MAX_T entries go through the
    column kernel, wider rows through the sort kernel; both give the same bits.
    The output is float64 whatever the input dtype.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[1] > _NETWORK_MAX_T:
        return _sparsemax_sorted(Z)
    return _sparsemax_network(Z.T).T


# Rows up to this width are sorted by Batcher's odd-even mergesort network on
# the transposed (t, N) layout: its elementwise max/min pairs over length-N
# rows (19 at t = 8, 38 at t = 11) beat np.sort's per-row cost 1.2-3x at
# t <= 11 on N = 1000 stacks; from t = 12 the two trade places by width
# there, and at t = 42 the sort wins (0.90 ms against 1.11 ms). Longer
# stacks favour the network (N = 5000: it wins up to t = 32). CHANGES.md
# records the crossover and an ADULT-like fit under each choice.
_NETWORK_MAX_T = 11


def _sparsemax_sorted(Z: np.ndarray) -> np.ndarray:
    srt = -np.sort(-Z, axis=1)
    css = np.cumsum(srt, axis=1) - 1.0
    ranks = np.arange(1, Z.shape[1] + 1, dtype=np.float64)
    support = np.count_nonzero(srt * ranks > css, axis=1)
    tau = css[np.arange(Z.shape[0]), support - 1] / support
    return np.maximum(Z - tau[:, None], 0.0)


@functools.lru_cache(maxsize=64)
def _batcher_comparators(t: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even mergesort network on t wires, as (i, j) pairs with i < j.

    The iterative form for any t: the network for the next power of two with
    every comparator that touches a wire >= t left out. Those wires would
    hold the padding, which no comparator moves, so the rest still sorts.
    The first t // 2 comparators are the layer (0, 1), (2, 3), ...
    """
    pairs = []
    p = 1
    while p < t:
        k = p
        while k >= 1:
            for j in range(k % p, t - k, 2 * k):
                for i in range(j, j + min(k, t - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _sparsemax_network(Zt: np.ndarray) -> np.ndarray:
    """_sparsemax_sorted on the transposed (t, N) layout, one column per row.

    Batcher's network of elementwise max/min yields the same descending values
    as the sort, and the prefix sums run in cumsum's order, so every output
    bit matches. The first layer writes its outputs as fresh rows; the rest
    of the network runs in place.
    """
    t, N = Zt.shape
    srt = []
    for i in range(0, t - 1, 2):
        srt += [np.maximum(Zt[i], Zt[i + 1]), np.minimum(Zt[i], Zt[i + 1])]
    if t % 2:
        srt.append(Zt[t - 1].copy())
    spare = np.empty(N)
    for i, j in _batcher_comparators(t)[t // 2 :]:
        lo = np.minimum(srt[i], srt[j], out=spare)
        np.maximum(srt[i], srt[j], out=srt[i])
        spare, srt[j] = srt[j], lo
    css = np.empty((t, N))
    css[0] = srt[0]
    for i in range(1, t):
        np.add(css[i - 1], srt[i], out=css[i])
    css -= 1.0
    support = np.zeros(N, dtype=np.int64)
    for i in range(t):
        support += np.multiply(srt[i], float(i + 1), out=spare) > css[i]
    tau = css.ravel()[(support - 1) * N + np.arange(N)] / support
    return np.maximum(Zt - tau, 0.0)


def _normalize_inplace(X: np.ndarray, schema: Schema) -> None:
    Xt = X.T
    for t, cols in schema.blocks_by_cardinality:
        stacked = Xt[cols]  # every block of width t: (t, blocks, rows)
        out = sparsemax_rows(stacked.reshape(t, -1).T)
        Xt[cols] = out.T.reshape(stacked.shape)


def normalize_rows(relaxed: RelaxedDataset) -> RelaxedDataset:
    """Return a renormalized copy; sparsemax acts per feature block per row."""
    X = relaxed.data.copy(order="F")
    _normalize_inplace(X, relaxed.schema)
    return RelaxedDataset(relaxed.schema, X)


def random_init(schema: Schema, n_rows: int, rng) -> RelaxedDataset:
    """Seeded uniform(-1, 1) matrix followed by one normalization pass."""
    X = np.asfortranarray(rng.uniform_signed((n_rows, schema.d_prime)))
    _normalize_inplace(X, schema)
    return RelaxedDataset(schema, X)


# Adam's defaults (Kingma & Ba, arXiv 1412.6980), and the relative stop tolerance.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EARLY_STOP_REL = 1e-7


@dataclass(frozen=True)
class ProjectionConfig:
    learning_rate: float = 0.001
    max_steps: int = 5000

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the array they step.

    In relaxed_projection that is the data matrix's touched columns, as
    (touched, rows) rows.

    update() works in place on m, v and X, through two scratch buffers
    allocated with the state in the memory order of m. Elementwise steps run
    fastest when m, v, X and the gradient all share one order.
    """

    step: int
    m: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self._scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(0, np.zeros(shape), np.zeros(shape))

    def update(self, X: np.ndarray, grad: np.ndarray, config: ProjectionConfig) -> None:
        """One bias-corrected Adam step, applied to X in place.

        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
        X -= (lr*m_hat) / (sqrt(v_hat) + eps), evaluated in that order.
        """
        self.step += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        s1, s2 = self._scratch
        self.m *= b1
        self.m += np.multiply(grad, 1.0 - b1, out=s1)
        self.v *= b2
        np.multiply(grad, 1.0 - b2, out=s1)
        self.v += np.multiply(s1, grad, out=s1)
        np.divide(self.m, 1.0 - b1 ** self.step, out=s1)
        s1 *= config.learning_rate
        np.divide(self.v, 1.0 - b2 ** self.step, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        X -= np.divide(s1, s2, out=s1)


@dataclass
class ProjectionResult:
    dataset: RelaxedDataset
    losses: list[float]  # loss per iterate, index 0 = (normalized) input
    best_loss: float
    best_step: int
    timing: dict = field(default_factory=dict)  # seconds: gradient_s, normalize_s, adam_s

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

    `queries` is a list of compiled queries or a queries.Selection.
    The input is normalized once on entry, then Adam runs for at most
    max_steps, renormalizing after every step. The entry pass may move the
    last bits of an input already in normal form (renormalizing a seeded
    adaptive fit's output moved entries by up to 1.1e-16), and each round of
    a fit starts from the last round's output, so `engine.replay` rebuilds a
    recorded release bit for bit only while the pass is kept. Stops early
    when the relative loss improvement between consecutive steps is
    nonnegative and below EARLY_STOP_REL; a loss increase never triggers the
    stop. A step whose loss is not finite (a diverging learning rate) ends
    the run and is not recorded in `losses`. The best-loss iterate observed
    is returned, so the result is never worse than the (normalized) starting
    point even though Adam is non-monotone.
    The result's timing holds the seconds spent in the gradient, the
    normalization and the Adam update, the entry pass included.
    init.data is not modified; an init with no rows raises SchemaError.
    """
    if len(queries) == 0:
        raise ValueError("cannot project onto an empty query list")
    targets = np.asarray(targets, dtype=np.float64)
    if len(queries) != targets.shape[0]:
        raise ValueError(f"{len(queries)} queries but {targets.shape[0]} targets")
    schema = init.schema
    X = init.data.copy(order="F")
    t0 = perf_counter()
    _normalize_inplace(X, schema)
    t1 = perf_counter()
    normalize_s, adam_s = t1 - t0, 0.0

    evaluator = QueryEvaluator(queries, schema, X.shape[0])
    t0 = perf_counter()
    loss, grad = evaluator.loss_and_gradient(X, targets)
    gradient_s = perf_counter() - t0
    losses = [loss]
    best_loss, best_X, best_step = loss, X.copy(order="F"), 0
    Xt, touched = X.T, evaluator.touched
    X_touched = np.empty((touched.size, X.shape[0]))
    grad_touched = np.empty_like(X_touched)
    adam = AdamState.zeros(X_touched.shape)

    # A diverging step overflows or divides by zero in Adam or sparsemax, and
    # its loss is then not finite: the check below, not a numpy warning, ends it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for step in range(1, config.max_steps + 1):
            t0 = perf_counter()
            # mode="clip" skips take's buffered bounds check; touched is in range.
            np.take(Xt, touched, axis=0, out=X_touched, mode="clip")
            np.take(grad.T, touched, axis=0, out=grad_touched, mode="clip")
            adam.update(X_touched, grad_touched, config)
            Xt[touched] = X_touched
            t1 = perf_counter()
            _normalize_inplace(X, schema)
            t2 = perf_counter()
            new_loss, grad = evaluator.loss_and_gradient(X, targets)
            t3 = perf_counter()
            adam_s += t1 - t0
            normalize_s += t2 - t1
            gradient_s += t3 - t2
            if not np.isfinite(new_loss):
                break
            losses.append(new_loss)
            if new_loss < best_loss:
                best_loss, best_step = new_loss, step
                np.copyto(best_X, X)
            improvement = loss - new_loss
            loss = new_loss
            if improvement >= 0.0 and improvement / max(losses[-2], 1e-30) < EARLY_STOP_REL:
                break

    timing = {"gradient_s": gradient_s, "normalize_s": normalize_s, "adam_s": adam_s}
    return ProjectionResult(RelaxedDataset(schema, best_X), losses, best_loss, best_step, timing)
