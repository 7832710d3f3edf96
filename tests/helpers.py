"""Shared toy-data builders for the test suite."""

from __future__ import annotations

import itertools
import json

import numpy as np

from privsynth import DiscreteDataset, Schema, Workload, schema_from_cardinalities


def random_dataset(schema: Schema, n: int, rng) -> DiscreteDataset:
    rows = np.column_stack([rng.integers(0, t, n) for t in schema.cardinalities])
    return DiscreteDataset(schema, rows.reshape(n, schema.d))


def skewed_dataset(n: int, seed: int, cards=(4, 4, 4, 4, 4)) -> DiscreteDataset:
    """Correlated, skewed categorical data so marginal answers are sizable.

    Feature 0 is drawn from a skewed distribution; each later feature copies
    (a transform of) feature 0 half the time and draws fresh otherwise, which
    produces non-trivial 2-way and 3-way marginals.
    """
    rng = np.random.default_rng(seed)
    schema = schema_from_cardinalities(cards)
    probs = {
        2: [0.7, 0.3],
        3: [0.6, 0.3, 0.1],
        4: [0.55, 0.25, 0.15, 0.05],
    }
    base = rng.choice(cards[0], size=n, p=probs[cards[0]])
    cols = [base]
    for t in cards[1:]:
        fresh = rng.choice(t, size=n, p=probs[t])
        copy_mask = rng.random(n) < 0.5
        cols.append(np.where(copy_mask, base % t, fresh))
    return DiscreteDataset(schema, np.column_stack(cols))


def all_k_way_workload(schema: Schema, ks, kind="product") -> Workload:
    """Workload containing every marginal of each arity in `ks`."""
    marginals = []
    for k in ks:
        marginals.extend(itertools.combinations(range(schema.d), k))
    return Workload(schema, marginals, kind=kind)


def reference_eval_discrete(workload: Workload, dataset: DiscreteDataset) -> np.ndarray:
    """Exact answers by np.ravel_multi_index on the rows' strided columns.

    The formula eval_discrete used before it built cell codes column-wise; the
    two must agree bit for bit.
    """
    n = dataset.n
    t = workload.schema.cardinalities
    out = np.zeros(workload.m, dtype=np.float64)
    if n == 0:
        return out
    a = 0
    for s, size in zip(workload.marginals, workload.marginal_sizes()):
        b = a + size
        dims = tuple(t[i] for i in s)
        cells = np.ravel_multi_index(tuple(dataset.rows[:, i] for i in s), dims)
        counts = np.bincount(cells, minlength=b - a).reshape(dims)
        if workload.kind == "product":
            out[a:b] = counts.ravel() / n
        else:
            for axis in range(len(dims)):
                counts = counts.sum(axis=axis, keepdims=True) - counts
            out[a:b] = 1.0 - counts.ravel() / n
        a = b
    return out


def untimed_record(result) -> dict:
    """A fit's result.json record, parsed, without its wall-clock "timing"."""
    record = json.loads(result.to_json())
    del record["timing"]
    return record
