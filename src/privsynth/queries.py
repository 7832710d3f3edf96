"""Marginal and threshold query workloads, exact and relaxed evaluation.

A marginal query (S, y) counts the fraction of rows whose features S take the
categories y. On the one-hot layout it becomes a product query over the
column set T = {offset[i] + y_i}: q_T(x) = prod_{c in T} x_c, which extends
the 0/1 query differentiably to real-valued rows. The "at least one of k"
threshold variant is q_T(x) = 1 - prod_{c in T} (1 - x_c).

The marginal is the unit of work. All prod_{i in S} t_i queries of a
marginal are the cells of one answer tensor: the row sum of the row-wise
Khatri-Rao product of S's feature blocks. A Workload stores only its
marginals and the offset of each one's first query; its list of compiled
queries is built on demand, for callers that want one. Evaluation is built on
the marginals:

* Relaxed answers group the query list by (kind, feature set), in one
  grouper over (q, k) arrays of one-hot columns: a compiled list gives its
  queries' columns, a Selection of workload queries has them decoded from the
  marginals. For each marginal the Khatri-Rao product of the first k-1 blocks
  is multiplied by the last block (one matmul), and the requested cells are
  gathered. The threshold kind runs the same computation on 1 - X.
* The gradient applies the same contractions to the residual tensor, a
  bincount of 2/n * residual over the cells, for marginals the query list
  covers densely. Marginals with only a few selected cells (as in adaptive
  rounds) take a per-cell path over the same marginal groups, batched by
  (kind, arity): it gathers each cell's columns, forms the leave-one-out
  products and scatters them with one-hot matmuls, at a cost in proportion
  to the cells instead of the tensor size.
* Exact answers on discrete data count each marginal's joint cells with one
  bincount over cell codes built column-wise from the rows; the threshold
  kind follows by integer inclusion-exclusion. On one-hot rows relaxed and
  exact answers agree bit for bit (count/n).

The relaxed kernels run feature-major, on X.T as a C-contiguous (d', rows)
array: a feature block is a run of contiguous rows, one per category, so the
Khatri-Rao products, contractions and gradient updates all loop along the
rows rather than across a block's few columns. A RelaxedDataset stores its
data column-major, so that array is a free view of it.

Tensor work runs over row chunks under one fixed cell budget, and per-cell
work over query batches under a smaller, cache-sized one, so memory stays
bounded as the rows and the selected cells grow.

Answers are dataset averages (not counts), so each query has sensitivity 1/n
to a one-row change. Workload enumeration is odometer order (last feature
fastest) per marginal, with marginals sorted lexicographically; both choices
are arbitrary but fixed so serialized workloads are reproducible byte for
byte.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .schema import DiscreteDataset, RelaxedDataset, Schema, SchemaError, dump_json, load_json

PRODUCT = "product"
ONE_OUT_OF_K = "one_out_of_k"
QUERY_KINDS = (PRODUCT, ONE_OUT_OF_K)

# Enumerating all C(d, k) feature subsets is fine up to this count; above it,
# subsets are rejection-sampled instead.
_ENUMERATION_LIMIT = 1 << 20


class WorkloadError(ValueError):
    """Invalid workload request (arity, count, or index out of range)."""


#: Largest supported marginal arity. It bounds the cell count of a marginal's
#: answer tensor, which the evaluators allocate in full.
MAX_ARITY = 8


def _check_arity(k: int) -> None:
    if k > MAX_ARITY:
        raise WorkloadError(f"marginal arity above {MAX_ARITY} is not supported")


@dataclass(frozen=True)
class MarginalQuery:
    """A value assignment y to a feature subset S."""

    features: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.features)) != len(self.features):
            raise WorkloadError("marginal features must be distinct")
        if len(self.features) != len(self.values):
            raise WorkloadError("features and values must have equal length")


@dataclass(frozen=True)
class CompiledQuery:
    """A query over one-hot columns: kind plus the column index set T.

    The columns must lie in distinct feature blocks, one category per
    feature, so that the query is a cell of a marginal; the evaluators raise
    WorkloadError otherwise.
    """

    kind: str
    columns: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise WorkloadError(f"unknown query kind {self.kind!r}")
        if len(self.columns) == 0:
            raise WorkloadError("query must touch at least one column")


def compile_marginal(query: MarginalQuery, schema: Schema, kind: str = PRODUCT) -> CompiledQuery:
    """Map (S, y) to its one-hot column set T = {offset[i] + y_i : i in S}."""
    offsets = schema.offsets
    t = schema.cardinalities
    cols = []
    for i, y in zip(query.features, query.values):
        if not 0 <= i < schema.d:
            raise WorkloadError(f"feature index {i} out of range")
        if not 0 <= y < t[i]:
            raise WorkloadError(f"category {y} out of range for feature {i}")
        cols.append(offsets[i] + y)
    return CompiledQuery(kind, tuple(sorted(cols)))


class Workload:
    """An ordered list of marginal query cells, stored as its marginals.

    For each marginal S (in the stored order) every category assignment
    y in prod_i [0, t_i) is enumerated odometer-style, keeping each
    marginal's queries contiguous. Construction keeps only the marginals and
    the offset of each one's first query; `queries`, the list of compiled
    queries, is built on first access.

    This is the one check of what a workload is: at least one marginal, each
    of 1 to MAX_ARITY distinct, in-range features. Anything else raises
    WorkloadError, so the evaluators and the fit take the workload as valid.
    """

    def __init__(self, schema: Schema, marginals, kind: str = PRODUCT, seed: int | None = None):
        if kind not in QUERY_KINDS:
            raise WorkloadError(f"unknown query kind {kind!r}")
        self.schema = schema
        self.kind = kind
        self.seed = seed
        self.marginals = [tuple(int(i) for i in s) for s in marginals]
        if not self.marginals:
            raise WorkloadError("the workload is empty: it lists no marginals")
        t = schema.cardinalities
        starts = [0]
        for s in self.marginals:
            if len(set(s)) != len(s):
                raise WorkloadError(f"marginal {s} has repeated features")
            if not s:
                raise WorkloadError("query must touch at least one column")
            _check_arity(len(s))
            for i in s:
                if not 0 <= i < schema.d:
                    raise WorkloadError(f"feature index {i} out of range")
            starts.append(starts[-1] + math.prod(t[i] for i in s))
        self._starts = starts

    @functools.cached_property
    def queries(self) -> list[CompiledQuery]:
        queries = [None] * self.m
        for cols, pos in _workload_columns(self, np.arange(self.m)):
            cols.sort(axis=1)  # as compile_marginal sorts them
            for j, c in zip(pos.tolist(), cols.tolist()):
                queries[j] = CompiledQuery(self.kind, tuple(c))
        return queries

    @property
    def m(self) -> int:
        return self._starts[-1]

    @property
    def k(self) -> int | None:
        """Common marginal arity, or None when marginals mix arities."""
        sizes = {len(s) for s in self.marginals}
        return sizes.pop() if len(sizes) == 1 else None

    def marginal_sizes(self) -> list[int]:
        return [b - a for a, b in zip(self._starts, self._starts[1:])]

    def select(self, indices=None) -> "Selection":
        """The queries at `indices` (all of them by default) as a query list."""
        return Selection(self, range(self.m) if indices is None else indices)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "seed": self.seed,
            "marginals": [list(s) for s in self.marginals],
        }

    def save(self, path) -> None:
        Path(path).write_text(dump_json(self.to_json_dict()), encoding="utf-8")

    @classmethod
    def from_json_dict(cls, schema: Schema, obj: dict, source: str = "workload") -> "Workload":
        """Inverse of to_json_dict; any other JSON shape is a WorkloadError naming `source`.

        So is every fault the constructor finds, and a "k" that, when not
        null, is not the marginals' common arity.
        """
        if not (
            isinstance(obj, dict) and obj.get("kind") in QUERY_KINDS
            and isinstance(obj.get("marginals"), list)
            and all(
                isinstance(s, list) and all(type(i) is int for i in s) for s in obj["marginals"]
            )
            and (obj.get("seed") is None or type(obj["seed"]) is int and obj["seed"] >= 0)
        ):
            raise WorkloadError(
                f'{source}: a workload must be a JSON object with "kind" one of {QUERY_KINDS}, '
                f'"marginals" a list of lists of integer feature indices, and "seed", if given, '
                f'a non-negative integer or null'
            )
        try:
            workload = cls(schema, obj["marginals"], kind=obj["kind"], seed=obj.get("seed"))
        except WorkloadError as exc:
            raise WorkloadError(f"{source}: {exc}") from None
        k = obj.get("k")
        if k is not None and not (type(k) is int and k == workload.k):
            arity = "mixed" if workload.k is None else workload.k
            raise WorkloadError(
                f'{source}: "k" is {k!r} but the marginals\' arity is {arity}; '
                f'give their common arity, or null'
            )
        return workload

    @classmethod
    def load(cls, schema: Schema, path) -> "Workload":
        return cls.from_json_dict(schema, load_json(path, WorkloadError), str(path))


class Selection:
    """Queries of a workload picked by index, in the given order.

    It stands in for the list [workload.queries[i] for i in indices] wherever
    a query list is taken: the evaluator decodes its columns as arrays from
    the workload's marginals, without building a query object.
    """

    def __init__(self, workload: Workload, indices):
        self.workload = workload
        self.indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        m = workload.m
        bad = (self.indices < 0) | (self.indices >= m)
        if bad.any():
            raise IndexError(
                f"query index {self.indices[bad][0]} out of range for workload of size {m}"
            )

    def __len__(self) -> int:
        return self.indices.size


def _workload_columns(workload: Workload, indices: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The one-hot columns of the workload queries at int64 `indices`, per arity.

    Returns (columns (q, k), positions in `indices`) for each arity k, in
    order of first appearance; positions ascend, and columns follow the
    marginal's stored feature order. A query's categories are the odometer
    digits of its offset within its marginal, last feature fastest. Python
    work runs per marginal, numpy work per query.
    """
    offsets = np.asarray(workload.schema.offsets, dtype=np.int64)
    card = np.asarray(workload.schema.cardinalities, dtype=np.int64)
    starts = np.asarray(workload._starts, dtype=np.int64)
    arities = [len(s) for s in workload.marginals]
    width = max(arities)  # features of each marginal, zero-padded to one width
    features = np.array([s + (0,) * (width - len(s)) for s in workload.marginals], np.int64)
    which = np.searchsorted(starts, indices, side="right") - 1  # marginal of each query
    arity = np.asarray(arities, dtype=np.int64)[which]
    _, first = np.unique(arity, return_index=True)
    batches = []
    for k in arity[np.sort(first)].tolist():
        pos = np.flatnonzero(arity == k)
        feats = features[which[pos], :k]
        rest = indices[pos] - starts[which[pos]]
        cols = np.empty_like(feats)
        for p in range(k - 1, -1, -1):
            rest, cols[:, p] = np.divmod(rest, card[feats[:, p]])
        batches.append((cols + offsets[feats], pos))
    return batches


def random_workload(
    schema: Schema, k: int, num_marginals: int, seed: int, kind: str = PRODUCT
) -> Workload:
    """Sample distinct k-subsets of features uniformly and enumerate them.

    The same (schema, k, num_marginals, seed, kind) always yields the same
    workload; the selected marginals are stored sorted lexicographically.
    """
    if seed < 0:
        raise WorkloadError(f"seed must be a non-negative integer, got {seed}")
    d = schema.d
    if not 1 <= k <= d:
        raise WorkloadError(f"k={k} must be in [1, {d}]")
    _check_arity(k)
    total = math.comb(d, k)
    if not 1 <= num_marginals <= total:
        raise WorkloadError(f"requested {num_marginals} marginals; from 1 to {total} exist")
    rng = np.random.default_rng(seed)
    if total <= _ENUMERATION_LIMIT:
        combos = list(itertools.combinations(range(d), k))
        chosen_idx = rng.choice(total, size=num_marginals, replace=False)
        chosen = [combos[i] for i in sorted(chosen_idx.tolist())]
    else:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < num_marginals:
            s = tuple(sorted(rng.choice(d, size=k, replace=False).tolist()))
            seen.add(s)
        chosen = sorted(seen)
    return Workload(schema, chosen, kind=kind, seed=seed)


# ---------------------------------------------------------------------------
# Exact evaluation on discrete data
# ---------------------------------------------------------------------------


def eval_discrete(workload: Workload, dataset: DiscreteDataset) -> np.ndarray:
    """Exact answers on discrete data, as match fractions count/n.

    Each marginal's joint cells are counted with one bincount over the rows'
    flat cell codes, in the marginal's stored (odometer) order. The codes are
    built by Horner's rule straight on the dataset's contiguous columns (the
    rows' `.T` view), in the narrowest unsigned dtype that holds the largest
    marginal size (intp above uint32, which bincount does not take). For the
    threshold kind, the number of rows matching none of an assignment's pairs
    follows from the joint counts by inclusion-exclusion on every axis (the
    total along the axis minus the cell). All counts are integers, so every
    answer is an exactly representable integer divided by n.
    """
    if dataset.schema != workload.schema:
        raise SchemaError("workload and dataset schemas differ")
    n = dataset.n
    t = workload.schema.cardinalities
    out = np.zeros(workload.m, dtype=np.float64)
    if n == 0:
        return out
    sizes = workload.marginal_sizes()
    # Every multiplier t_i and every code is at most its marginal's size, so
    # the unsigned Horner steps never wrap.
    dtype = np.min_scalar_type(max(sizes))
    if dtype.itemsize > 4:
        dtype = np.dtype(np.intp)
    columns = dataset.rows.T
    code = np.empty(n, dtype=dtype)
    for s, a, size in zip(workload.marginals, workload._starts, sizes):
        np.copyto(code, columns[s[0]])
        for i in s[1:]:
            code *= t[i]
            code += columns[i]
        counts = np.bincount(code, minlength=size)
        if workload.kind == PRODUCT:
            out[a : a + size] = counts / n
        else:
            counts = counts.reshape(tuple(t[i] for i in s))
            for axis in range(len(s)):
                counts = counts.sum(axis=axis, keepdims=True) - counts
            out[a : a + size] = 1.0 - counts.ravel() / n
    return out


# ---------------------------------------------------------------------------
# Relaxed (differentiable) evaluation and hand-derived gradients
# ---------------------------------------------------------------------------

# A marginal's gradient runs on its full answer tensor when the query list
# covers at least this share of the marginal's cells, and on the per-cell
# path below it. The tensor path costs about the same for any coverage; the
# per-cell path grows with the number of selected cells.
_TENSOR_MIN_COVERAGE = 0.25

# Cap on rows * prefix cells per tensor chunk. The prefix Khatri-Rao product
# and the backward contraction each hold one buffer of that size, so rows are
# processed in chunks that shrink as the marginal grows.
_TENSOR_CELL_BUDGET = 1 << 22

# Cap on the slot cells of one per-cell batch: 1 MiB of float64, so a batch's
# slots stay in a typical L2 cache while its passes and scatters reread them.
# CHANGES.md records an adaptive fit at it and at 2^16, 2^18 and 2^22.
_CELL_BATCH_BUDGET = 1 << 17


@dataclass(frozen=True)
class _Marginal:
    """Queries of one kind on one feature set, as cells of its answer tensor."""

    kind: str
    features: tuple[int, ...]  # ascending
    dims: tuple[int, ...]  # cardinalities of `features`
    cells: np.ndarray  # flat cell index of each query, last feature fastest
    cols: np.ndarray  # (queries, k) one-hot columns of each query, ascending
    pos: np.ndarray  # position of each query in the evaluator's list


def _query_batches(queries, schema: Schema) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The query list as (kind, columns (q, k), positions) batches, one per (kind, arity).

    Batches come in order of first appearance, positions ascending. A
    Selection's workload must be on `schema` (SchemaError otherwise).
    """
    if isinstance(queries, Selection):
        if queries.workload.schema != schema:
            raise SchemaError("workload and relaxed dataset schemas differ")
        kind = queries.workload.kind
        return [(kind, c, pos) for c, pos in _workload_columns(queries.workload, queries.indices)]
    by_shape: dict[tuple[str, int], list[int]] = {}
    for j, q in enumerate(queries):
        by_shape.setdefault((q.kind, len(q.columns)), []).append(j)
    return [
        (kind, np.array([queries[j].columns for j in idx], dtype=np.int64), np.array(idx, np.intp))
        for (kind, _), idx in by_shape.items()
    ]


def _group_by_marginal(queries, schema: Schema) -> list[_Marginal]:
    """Split each (kind, arity) batch of the query list into marginal groups.

    Within a batch, groups come by ascending feature set. A query's cell is
    its flat index in the marginal's tensor, last feature fastest, from one
    Horner pass over the batch. Raises WorkloadError, naming the query's
    columns as given, for a column outside the one-hot layout and for two
    columns in one feature block, which is not a marginal cell.
    """
    offsets = np.asarray(schema.offsets, dtype=np.int64)
    card = np.asarray(schema.cardinalities, dtype=np.int64)
    groups = []
    for kind, given, pos in _query_batches(queries, schema):
        _check_arity(given.shape[1])
        cols = np.sort(given, axis=1)
        feats = np.searchsorted(offsets, cols, side="right") - 1
        outside = (cols[:, 0] < 0) | (cols[:, -1] >= schema.d_prime)
        shared = (np.diff(feats, axis=1) == 0).any(axis=1)
        for bad, why in (
            (outside, f"outside [0, {schema.d_prime})"),
            (shared, "put two columns in one feature block; a marginal takes one per feature"),
        ):
            if bad.any():
                raise WorkloadError(f"query columns {tuple(given[np.argmax(bad)].tolist())} {why}")
        values = cols - offsets[feats]
        cells = values[:, 0]
        for p in range(1, given.shape[1]):
            cells = cells * card[feats[:, p]] + values[:, p]
        order = np.lexsort(feats.T[::-1])  # stable, lexicographic by feature set
        feats, cells, cols, pos = feats[order], cells[order], cols[order], pos[order]
        bounds = (np.flatnonzero((feats[1:] != feats[:-1]).any(axis=1)) + 1).tolist()
        for a, b in zip([0, *bounds], [*bounds, len(pos)]):
            fs = tuple(feats[a].tolist())
            dims = tuple(schema.cardinalities[f] for f in fs)
            groups.append(_Marginal(kind, fs, dims, cells[a:b], cols[a:b], pos[a:b]))
    return groups


def _prefix_products(blocks) -> list:
    """pre[i] = Khatri-Rao product of blocks[:i], one (cells, rows) row per cell; pre[0] is None."""
    pre = [None]
    for b in blocks[:-1]:
        p = pre[-1]
        pre.append(b if p is None else (p[:, None, :] * b[None, :, :]).reshape(-1, b.shape[1]))
    return pre


def _tensor_sums(blocks, pre) -> np.ndarray:
    """Row sums of the Khatri-Rao product of all blocks: (prefix cells, t_last)."""
    if pre[-1] is None:
        return blocks[-1].sum(axis=1)[None, :]
    return pre[-1] @ blocks[-1].T


def _block_gradients(blocks, pre, coef) -> list:
    """Gradient of sum_c coef[c] * prod_i blocks[i][c_i, r] in each (t_i, rows) block.

    Blocks are feature-major: one contiguous row per category. coef is the
    residual tensor shaped (prefix cells, t_last). The last block takes one
    matmul with the prefix product; the suffix contraction then peels the
    other blocks off one at a time, last to first; its two contractions sum
    over the short cell axes, so every inner loop runs along the rows.
    """
    if pre[-1] is None:
        return [coef.T]  # arity 1: one column of weights, the same for every row
    rows = blocks[0].shape[1]
    grads = [None] * len(blocks)
    grads[-1] = coef.T @ pre[-1]
    suffix = coef @ blocks[-1]
    for i in range(len(blocks) - 2, -1, -1):
        suffix = suffix.reshape(-1, blocks[i].shape[0], rows)
        if pre[i] is None:
            grads[i] = suffix[0]
        else:
            grads[i] = np.einsum("pr,pvr->vr", pre[i], suffix)
            suffix = np.einsum("pvr,vr->pr", suffix, blocks[i])
    return grads


def _row_spans(n: int, mg: _Marginal) -> list[slice]:
    """Row chunks holding at most _TENSOR_CELL_BUDGET prefix-product cells."""
    step = max(1, _TENSOR_CELL_BUDGET // math.prod(mg.dims[:-1]))
    return [slice(r0, r0 + step) for r0 in range(0, n, step)]


def _chunked_sums(blocks, spans):
    """Tensor sums over every row chunk, plus the prefix products of a lone chunk.

    When one chunk covers all rows the gradient reuses its prefix products;
    otherwise they are recomputed chunk by chunk to stay under the budget.
    """
    sums, pre = 0.0, None
    for span in spans:
        chunk = [b[:, span] for b in blocks]
        pre = _prefix_products(chunk)
        sums = sums + _tensor_sums(chunk, pre)
    return sums, (pre if len(spans) == 1 else None)


class _CellPath:
    """Per-cell gradient for queries on sparsely selected marginals.

    Marginals of one (kind, arity k) form a batch whose q queries are the
    columns of a (k, q) matrix of one-hot column indices: slot p holds the
    category column of the marginal's p-th feature. One np.take gathers all
    k*q slot rows straight from the feature-major data Xt (from 1 - Xt for
    the threshold kind) into a fresh array. A suffix pass into new arrays and
    a prefix pass in place over the slots give each slot's leave-one-out
    product, which one matmul per slot with a one-hot matrix over the slot's
    distinct columns, scaled by the residuals, scatters into rows of the
    (d', rows) gradient. A batch holds at most
    _CELL_BATCH_BUDGET // (k * max(n_rows, d')) queries, so neither its slots
    nor its one-hot matrices exceed the budget, and nothing is kept between
    calls.
    """

    def __init__(self, marginals, d_prime: int, n_rows: int):
        by_shape: dict[tuple[str, int], list[_Marginal]] = {}
        for mg in marginals:
            by_shape.setdefault((mg.kind, len(mg.dims)), []).append(mg)
        self._batches = []  # (kind, cols (k, q), query positions, per-slot scatter)
        for (kind, k), group in by_shape.items():
            cols = np.concatenate([mg.cols.T for mg in group], axis=1)
            pos = np.concatenate([mg.pos for mg in group])
            step = max(1, _CELL_BATCH_BUDGET // (k * max(n_rows, d_prime)))
            for q0 in range(0, cols.shape[1], step):
                sub = cols[:, q0 : q0 + step]
                self._batches.append((kind, sub, pos[q0 : q0 + step], [_one_hot(c) for c in sub]))

    def loss_and_gradient(self, Xt: np.ndarray, Xc, targets) -> tuple[float, np.ndarray]:
        """Loss and (d', rows) gradient of the batched queries on feature-major Xt.

        Xc is 1 - Xt, needed only when a batch holds the threshold kind.
        """
        n = Xt.shape[1]
        grad_t = np.zeros_like(Xt)
        loss = 0.0
        for kind, cols, pos, scatter in self._batches:
            k = cols.shape[0]
            # Column indices were validated when the evaluator was built.
            slots = np.take(Xt if kind == PRODUCT else Xc, cols, axis=0, mode="clip")
            # suffix[p] = product of slots p+1..k-1: the last slot itself for p = k-2,
            # the empty product for arity 1
            suffix = [slots[k - 1] if k > 1 else np.ones_like(slots[0])]
            for p in range(k - 2, 0, -1):
                suffix.insert(0, suffix[0] * slots[p])
            vals = np.einsum("qr,qr->q", suffix[0], slots[0]) / n
            if kind == ONE_OUT_OF_K:
                vals = 1.0 - vals
            res = vals - targets[pos]
            loss += float(res @ res)
            coef = (2.0 / n) * res
            for p, (distinct, onehot) in enumerate(scatter):
                if p > 1:
                    slots[p - 1] *= slots[p - 2]  # now the product of slots 0..p-1
                if p == 0:
                    loo = suffix[0]
                elif p == k - 1:
                    loo = slots[p - 1]
                else:  # at p = k-2 this overwrites the last slot, which nothing reads again
                    loo = np.multiply(suffix[p], slots[p - 1], out=suffix[p])
                grad_t[distinct] += (onehot * coef) @ loo
            del slots, suffix, loo  # free this batch before the next one's take
        return loss, grad_t


def _one_hot(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A slot's distinct columns and the (distinct, queries) 0/1 matrix mapping onto them."""
    distinct, inverse = np.unique(cols, return_inverse=True)
    onehot = np.zeros((distinct.size, cols.size))
    onehot[inverse, np.arange(cols.size)] = 1.0
    return distinct, onehot


class QueryEvaluator:
    """A fixed query list grouped into marginals, built once per use.

    `queries` is a list of compiled queries or a Selection of workload
    queries on `schema`; both give the same groups. Each query is a cell of
    the answer tensor of its (kind, feature set).
    Answers always come from the full tensors; the gradient uses the tensors
    for marginals the list covers densely and the per-cell path for the rest.

    The kernels run feature-major, on Xt = X.T as a C-contiguous (d', rows)
    array: a feature block is a run of contiguous rows, one per category, so
    every elementwise loop runs along the rows. Xt is a free view of a
    RelaxedDataset's column-major data and one copy of any other X.
    The gradient is accumulated in that layout and returned as its transpose,
    a fresh column-major (rows, d') array. Its columns outside `touched`
    are exactly 0.0.
    """

    def __init__(self, queries, schema: Schema, n_rows: int):
        self.m = len(queries)
        self._offsets = schema.offsets
        self._marginals = _group_by_marginal(queries, schema)
        self._tensor, sparse = [], []
        for mg in self._marginals:
            covered = np.unique(mg.cells).size >= _TENSOR_MIN_COVERAGE * math.prod(mg.dims)
            (self._tensor if covered else sparse).append(mg)
        self._cells = _CellPath(sparse, schema.d_prime, n_rows) if sparse else None
        self._threshold = any(mg.kind == ONE_OUT_OF_K for mg in self._marginals)
        # Sorted one-hot columns where the gradient can be nonzero: a dense
        # marginal's whole blocks, a sparse one's cell columns.
        blocks = [
            np.arange(self._offsets[f], self._offsets[f] + t)
            for mg in self._tensor
            for f, t in zip(mg.features, mg.dims)
        ]
        cells = [mg.cols.ravel() for mg in sparse]
        self.touched = np.unique(np.concatenate([*blocks, *cells, np.empty(0, np.int64)]))

    def _feature_major(self, X: np.ndarray):
        """Xt = X.T as a C-contiguous array, and 1 - Xt when a threshold query needs it."""
        Xt = np.ascontiguousarray(X.T)
        return Xt, (1.0 - Xt if self._threshold else None)

    def _blocks(self, Xt: np.ndarray, Xc, mg: _Marginal) -> list:
        """The marginal's (t, rows) feature blocks of Xt, or of 1 - Xt for the threshold kind."""
        base = Xt if mg.kind == PRODUCT else Xc
        offsets = self._offsets
        return [base[offsets[f] : offsets[f] + t] for f, t in zip(mg.features, mg.dims)]

    @staticmethod
    def _cell_values(sums: np.ndarray, mg: _Marginal, n: int) -> np.ndarray:
        vals = sums.ravel()[mg.cells] / n
        return 1.0 - vals if mg.kind == ONE_OUT_OF_K else vals

    def answers(self, X: np.ndarray) -> np.ndarray:
        """Query values averaged over the rows of X; all 0 when X has no rows."""
        n = X.shape[0]
        if n == 0:
            return np.zeros(self.m)
        Xt, Xc = self._feature_major(X)
        out = np.empty(self.m, dtype=np.float64)
        for mg in self._marginals:
            sums, _ = _chunked_sums(self._blocks(Xt, Xc, mg), _row_spans(n, mg))
            out[mg.pos] = self._cell_values(sums, mg, n)
        return out

    def loss_and_gradient(self, X: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Squared-error loss and its gradient in the data matrix.

        loss = sum_j (q_j(X) - a_j)^2. For a product query,
        d q_j / d X[r, c] is the leave-one-out product
        prod_{i in T, i != c} X[r, i] scaled by 1/n_rows; for the threshold
        kind the same leave-one-out form applies to (1 - X), and the two
        minus signs of the chain rule cancel, so both kinds share one sign.
        Entries outside a query's column set contribute zero. On the tensor
        path the residuals 2/n * (q_j - a_j) are summed into their cells
        first, so duplicate queries add up. A table with no rows raises SchemaError.
        """
        n = X.shape[0]
        if n == 0:
            raise SchemaError("the relaxed table has no rows, so it has no loss or gradient")
        Xt, Xc = self._feature_major(X)
        offsets = self._offsets
        if self._cells is not None:
            loss, grad_t = self._cells.loss_and_gradient(Xt, Xc, targets)
        else:
            loss, grad_t = 0.0, np.zeros_like(Xt)
        for mg in self._tensor:
            blocks = self._blocks(Xt, Xc, mg)
            spans = _row_spans(n, mg)
            sums, kept = _chunked_sums(blocks, spans)
            res = self._cell_values(sums, mg, n) - targets[mg.pos]
            loss += float(res @ res)
            coef = np.bincount(mg.cells, weights=(2.0 / n) * res, minlength=sums.size)
            coef = coef.reshape(sums.shape)
            for span in spans:
                chunk = [b[:, span] for b in blocks]
                pre = kept if kept is not None else _prefix_products(chunk)
                for f, t, g in zip(mg.features, mg.dims, _block_gradients(chunk, pre, coef)):
                    grad_t[offsets[f] : offsets[f] + t, span] += g
        return loss, grad_t.T


def eval_relaxed(workload: Workload, relaxed: RelaxedDataset) -> np.ndarray:
    """Differentiable-query values averaged over the relaxed rows.

    On rows that are valid one-hot vectors this agrees exactly with
    eval_discrete on the decoded rows: both reduce to count/n.
    """
    return eval_compiled(workload.select(), relaxed)


def eval_compiled(queries, relaxed: RelaxedDataset) -> np.ndarray:
    """eval_relaxed for an explicit query list (e.g. a selected subset).

    The list is checked against the relaxed schema even when the table has no
    rows, in which case every answer is 0.
    """
    return QueryEvaluator(queries, relaxed.schema, relaxed.n).answers(relaxed.data)


def loss_and_gradient(
    queries, targets: np.ndarray, relaxed: RelaxedDataset
) -> tuple[float, np.ndarray]:
    """One-shot loss/gradient; see QueryEvaluator.loss_and_gradient.

    Loops that evaluate the same query list repeatedly should build one
    QueryEvaluator and reuse it instead.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if len(queries) != targets.shape[0]:
        raise WorkloadError(f"{len(queries)} queries but {targets.shape[0]} targets")
    ev = QueryEvaluator(queries, relaxed.schema, relaxed.n)
    return ev.loss_and_gradient(relaxed.data, targets)
