"""Randomized rounding of a normalized relaxed dataset back to categories.

Each relaxed row's feature blocks are treated as category distributions; a
discrete row is produced by sampling one category per feature independently,
with probability proportional to the block values. Oversampling repeats this
r times per source row, which drives sampling error down while preserving the
expected value of every product query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .privacy import NoiseSource
from .schema import DiscreteDataset, RelaxedDataset


class RoundingError(ValueError):
    """Input rows are not normalized (zero or negative block mass, or a non-finite value)."""


@dataclass(frozen=True)
class RoundingConfig:
    oversample: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.oversample < 1:
            raise RoundingError("oversample must be >= 1")
        if self.seed < 0:
            raise RoundingError(f"seed must be a non-negative integer, got {self.seed}")


def randomized_round(relaxed: RelaxedDataset, config: RoundingConfig = RoundingConfig()) -> DiscreteDataset:
    """Sample a discrete dataset of n_rows * oversample rows.

    Block values are renormalized by their sum before sampling, which absorbs
    the ~1e-9 drift simplex projection can leave; a block with zero or
    negative mass, or with a NaN or infinite value, is an error, as it signals
    unnormalized input. Sampling is inverse-CDF over each block in category
    order, and all replicas of a source row are emitted adjacently, so output
    is deterministic given the seed.
    """
    schema = relaxed.schema
    X = relaxed.data
    n, r = relaxed.n, config.oversample
    rng = NoiseSource(config.seed, "rounding")
    u = rng.uniform(size=n * r * schema.d).reshape(n * r, schema.d) if n else np.zeros((0, schema.d))
    rows = np.empty((schema.d, n * r), dtype=schema.id_dtype)  # DiscreteDataset's layout, as .T
    for i, (off, t) in enumerate(zip(schema.offsets, schema.cardinalities)):
        block = X[:, off : off + t]
        if not np.isfinite(block).all():
            raise RoundingError(f"feature {i} has a non-finite value")
        if (block < -1e-9).any():
            raise RoundingError(f"feature {i} has negative mass; normalize the input first")
        mass = np.clip(block, 0.0, None).sum(axis=1)
        if (mass <= 0.0).any():
            raise RoundingError(f"feature {i} has a zero-mass block; normalize the input first")
        cdf = np.cumsum(np.clip(block, 0.0, None) / mass[:, None], axis=1)
        cdf[:, -1] = 1.0  # exact upper edge so u in [0, 1) can never overflow
        cdf_rep = np.repeat(cdf, r, axis=0)
        rows[i] = (u[:, i : i + 1] >= cdf_rep).sum(axis=1)
    return DiscreteDataset(schema, rows.T)
