import itertools

import numpy as np
import pytest

from privsynth import (
    RelaxedDataset,
    RoundingConfig,
    RoundingError,
    Workload,
    eval_discrete,
    eval_relaxed,
    normalize_rows,
    randomized_round,
    schema_from_cardinalities,
)


class TestRandomizedRound:
    def test_degenerate_block_is_deterministic(self):
        s = schema_from_cardinalities((2,))
        relaxed = RelaxedDataset(s, np.array([[1.0, 0.0]]))
        out = randomized_round(relaxed, RoundingConfig(oversample=50, seed=0))
        assert (out.rows[:, 0] == 0).all()

    def test_fair_coin_frequency(self):
        s = schema_from_cardinalities((2,))
        relaxed = RelaxedDataset(s, np.array([[0.5, 0.5]]))
        out = randomized_round(relaxed, RoundingConfig(oversample=10_000, seed=1))
        freq = (out.rows[:, 0] == 0).mean()
        assert 0.485 <= freq <= 0.515

    def test_oversample_row_count(self):
        rng = np.random.default_rng(2)
        s = schema_from_cardinalities((3, 2))
        relaxed = normalize_rows(RelaxedDataset(s, rng.uniform(-1, 1, (1000, 5))))
        out = randomized_round(relaxed, RoundingConfig(oversample=5, seed=2))
        assert out.n == 5000

    def test_rows_decode_under_schema(self):
        rng = np.random.default_rng(3)
        s = schema_from_cardinalities((3, 4, 2))
        relaxed = normalize_rows(RelaxedDataset(s, rng.uniform(-1, 1, (30, 9))))
        out = randomized_round(relaxed, RoundingConfig(oversample=3, seed=3))
        t = np.asarray(s.cardinalities)
        assert (out.rows >= 0).all() and (out.rows < t[None, :]).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        s = schema_from_cardinalities((3, 3))
        relaxed = normalize_rows(RelaxedDataset(s, rng.uniform(-1, 1, (40, 6))))
        a = randomized_round(relaxed, RoundingConfig(oversample=2, seed=5))
        b = randomized_round(relaxed, RoundingConfig(oversample=2, seed=5))
        assert np.array_equal(a.rows, b.rows)
        c = randomized_round(relaxed, RoundingConfig(oversample=2, seed=6))
        assert not np.array_equal(a.rows, c.rows)

    def test_zero_mass_block_rejected(self):
        s = schema_from_cardinalities((2, 2))
        relaxed = RelaxedDataset(s, np.array([[0.5, 0.5, 0.0, 0.0]]))
        with pytest.raises(RoundingError, match="feature 1"):
            randomized_round(relaxed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected(self, bad):
        s = schema_from_cardinalities((2, 2))
        relaxed = RelaxedDataset(s, np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, bad, 0.5]]))
        with pytest.raises(RoundingError, match="feature 1 has a non-finite value"):
            randomized_round(relaxed)

    def test_negative_mass_rejected(self):
        s = schema_from_cardinalities((2,))
        relaxed = RelaxedDataset(s, np.array([[1.2, -0.2]]))
        with pytest.raises(RoundingError, match="negative"):
            randomized_round(relaxed)

    def test_tiny_simplex_drift_tolerated(self):
        s = schema_from_cardinalities((2,))
        relaxed = RelaxedDataset(s, np.array([[0.6 + 4e-10, 0.4 - 8e-10]]))
        out = randomized_round(relaxed, RoundingConfig(oversample=10, seed=7))
        assert out.n == 10

    def test_invalid_oversample(self):
        with pytest.raises(RoundingError):
            RoundingConfig(oversample=0)


class TestExpectationPreservation:
    def test_product_answers_preserved_statistically(self):
        # heavy oversampling pins every rounded answer near its relaxed value
        rng = np.random.default_rng(8)
        s = schema_from_cardinalities((2, 3, 4))
        relaxed = normalize_rows(RelaxedDataset(s, rng.uniform(-1, 1, (50, 9))))
        w = Workload(s, list(itertools.combinations(range(3), 2)))
        assert w.m == 26
        r = 200
        rounded = randomized_round(relaxed, RoundingConfig(oversample=r, seed=9))
        expected = eval_relaxed(w, relaxed)
        observed = eval_discrete(w, rounded)
        bound = 4.0 * np.sqrt(expected * (1.0 - expected) / (relaxed.n * r)) + 0.01
        assert (np.abs(observed - expected) < bound).all()
