import itertools

import numpy as np
import pytest

import privsynth.projection as projection_mod
from privsynth import (
    ONE_OUT_OF_K,
    PRODUCT,
    AdamState,
    FitConfig,
    NoiseSource,
    ProjectionConfig,
    RelaxedDataset,
    Workload,
    eval_relaxed,
    fit,
    normalize_rows,
    one_hot,
    random_init,
    random_workload,
    relaxed_projection,
    sparsemax,
    sparsemax_rows,
    schema_from_cardinalities,
)

from privsynth.projection import EARLY_STOP_REL
from privsynth.queries import QueryEvaluator

from helpers import random_dataset, untimed_record


def brute_force_simplex_projection(z):
    """Exhaustive support search: best feasible affine projection per subset."""
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    best, best_dist = None, np.inf
    for support in range(1, 2**n):
        idx = [i for i in range(n) if support >> i & 1]
        tau = (z[idx].sum() - 1.0) / len(idx)
        x = np.zeros(n)
        x[idx] = z[idx] - tau
        if (x[idx] >= -1e-12).all():
            dist = float(((x - z) ** 2).sum())
            if dist < best_dist:
                best, best_dist = np.maximum(x, 0.0), dist
    return best


class TestSparsemax:
    def test_simplex_points_are_fixed(self):
        np.testing.assert_array_equal(sparsemax([1.0, 0.0]), [1.0, 0.0])

    def test_uniform_shift(self):
        np.testing.assert_allclose(sparsemax([0.3, 0.3]), [0.5, 0.5], atol=1e-15)

    def test_clamps_to_vertex(self):
        np.testing.assert_allclose(sparsemax([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            z = rng.uniform(-3, 3, dim)
            np.testing.assert_allclose(
                sparsemax(z), brute_force_simplex_projection(z), atol=1e-9
            )

    def test_idempotent(self):
        rng = np.random.default_rng(22)
        Z = rng.uniform(-2, 2, (50, 6))
        once = sparsemax_rows(Z)
        np.testing.assert_allclose(sparsemax_rows(once), once, atol=1e-12)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(23)
        out = sparsemax_rows(rng.uniform(-5, 5, (100, 7)))
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sparsemax([])
        with pytest.raises(ValueError):
            sparsemax([np.nan, 0.0])


class TestNormalizeRows:
    def test_one_hot_is_fixed_point(self):
        s = schema_from_cardinalities((2, 3))
        d = random_dataset(s, 10, np.random.default_rng(1))
        relaxed = one_hot(d).as_relaxed()
        out = normalize_rows(relaxed)
        np.testing.assert_array_equal(out.data, relaxed.data)

    def test_sparsemax_per_block(self):
        s = schema_from_cardinalities((2,))
        out = normalize_rows(RelaxedDataset(s, np.array([[0.3, 0.3]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_blocks_sum_to_one(self):
        rng = np.random.default_rng(2)
        s = schema_from_cardinalities((3, 4, 2))
        out = normalize_rows(RelaxedDataset(s, rng.uniform(-1, 1, (20, 9))))
        for off, t in zip(s.offsets, s.cardinalities):
            np.testing.assert_allclose(out.data[:, off : off + t].sum(axis=1), 1.0, atol=1e-9)


class TestRelaxedProjection:
    def _toy(self, seed=0, n=50, cards=(3, 3, 3)):
        rng = np.random.default_rng(seed)
        s = schema_from_cardinalities(cards)
        data = random_dataset(s, n, rng)
        w = Workload(s, list(itertools.combinations(range(len(cards)), 2)))
        return s, data, w

    def test_already_optimal_stops_fast(self):
        s, data, w = self._toy()
        start = one_hot(data).as_relaxed()
        targets = eval_relaxed(w, start)
        result = relaxed_projection(w.queries, targets, start)
        assert result.best_loss == 0.0
        assert result.steps <= 2
        np.testing.assert_array_equal(result.dataset.data, start.data)

    def test_best_iterate_never_worse_than_start(self):
        s, data, w = self._toy(seed=3)
        rng = NoiseSource(4, "init")
        start = random_init(s, 30, rng)
        targets = eval_relaxed(w, one_hot(data).as_relaxed())
        config = ProjectionConfig(max_steps=40)
        result = relaxed_projection(w.queries, targets, start, config)
        assert result.best_loss <= result.losses[0]
        assert all(np.isfinite(l) for l in result.losses)

    def test_loss_decreases_on_recovery_instance(self):
        s, data, w = self._toy(seed=5, n=100)
        start = random_init(s, 100, NoiseSource(6, "init"))
        targets = eval_relaxed(w, one_hot(data).as_relaxed())
        result = relaxed_projection(w.queries, targets, start, ProjectionConfig(max_steps=800))
        assert result.best_loss < 0.05 * result.losses[0]

    def test_blocks_normalized_after_projection(self):
        s, data, w = self._toy(seed=7)
        start = random_init(s, 20, NoiseSource(8, "init"))
        targets = eval_relaxed(w, one_hot(data).as_relaxed())
        result = relaxed_projection(w.queries, targets, start, ProjectionConfig(max_steps=30))
        out = result.dataset.data
        assert (out >= 0).all()
        for off, t in zip(s.offsets, s.cardinalities):
            np.testing.assert_allclose(out[:, off : off + t].sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_given_same_start(self):
        s, data, w = self._toy(seed=9)
        targets = eval_relaxed(w, one_hot(data).as_relaxed())
        config = ProjectionConfig(max_steps=50)
        r1 = relaxed_projection(w.queries, targets, random_init(s, 10, NoiseSource(1, "init")), config)
        r2 = relaxed_projection(w.queries, targets, random_init(s, 10, NoiseSource(1, "init")), config)
        np.testing.assert_array_equal(r1.dataset.data, r2.dataset.data)
        assert r1.losses == r2.losses

    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    def test_memory_order_of_init(self, kind):
        """C- and F-ordered inputs stay put and give the same bits in the column-major layout."""
        s, data, _ = self._toy(seed=12)
        w = Workload(s, list(itertools.combinations(range(s.d), 2)), kind=kind)
        targets = eval_relaxed(w, one_hot(data).as_relaxed())
        start = random_init(s, 15, NoiseSource(2, "init"))
        start.data[0, :] += 0.5  # off the simplex, so the entry normalization changes it
        config = ProjectionConfig(max_steps=20)
        outputs = []
        for data_in in (np.ascontiguousarray(start.data), np.asfortranarray(start.data)):
            before = data_in.copy()
            result = relaxed_projection(w.select(), targets, RelaxedDataset(s, data_in), config)
            assert np.array_equal(data_in, before)
            assert result.dataset.data.T.flags.c_contiguous
            outputs.append((result.dataset.data.tobytes(), result.losses))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("lr", [1e200, 1e308])
    def test_diverging_step_ends_the_run(self, lr):
        """The first non-finite loss stops the run unrecorded; the start is the best iterate."""
        s, data, w = self._toy(seed=10)
        start = random_init(s, 12, NoiseSource(3, "init"))
        targets = eval_relaxed(w, one_hot(data).as_relaxed())
        config = ProjectionConfig(learning_rate=lr, max_steps=20)
        result = relaxed_projection(w.queries, targets, start, config)
        assert result.losses == [result.best_loss] and np.isfinite(result.best_loss)
        assert result.steps == 0 and result.best_step == 0
        np.testing.assert_array_equal(result.dataset.data, normalize_rows(start).data)

    @pytest.mark.parametrize("lr", [np.inf, np.nan, 0.0, -1.0])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            ProjectionConfig(learning_rate=lr)

    def test_empty_queries_rejected(self):
        s = schema_from_cardinalities((2,))
        with pytest.raises(ValueError):
            relaxed_projection([], np.array([]), RelaxedDataset(s, np.ones((1, 2))))


# Reference kernels: the per-block sort kernel and the allocating Adam step
# the optimized code must reproduce bit for bit.


def reference_sparsemax_rows(Z):
    srt = -np.sort(-Z, axis=1)
    css = np.cumsum(srt, axis=1) - 1.0
    ranks = np.arange(1, Z.shape[1] + 1, dtype=np.float64)
    support = np.count_nonzero(srt * ranks > css, axis=1)
    tau = css[np.arange(Z.shape[0]), support - 1] / support
    return np.maximum(Z - tau[:, None], 0.0)


def reference_normalize(X, schema):
    for off, t in zip(schema.offsets, schema.cardinalities):
        X[:, off : off + t] = reference_sparsemax_rows(X[:, off : off + t])


def reference_adam_update(self, X, grad, config):
    self.step += 1
    b1, b2 = projection_mod.ADAM_BETA1, projection_mod.ADAM_BETA2
    self.m = b1 * self.m + (1.0 - b1) * grad
    self.v = b2 * self.v + (1.0 - b2) * grad * grad
    m_hat = self.m / (1.0 - b1 ** self.step)
    v_hat = self.v / (1.0 - b2 ** self.step)
    X -= config.learning_rate * m_hat / (np.sqrt(v_hat) + projection_mod.ADAM_EPS)


def _normalization_inputs(schema, rng):
    """Random rows, rows with ties, one-hot rows and already projected rows."""
    n, w = 40, schema.d_prime
    random = rng.uniform(-2.0, 2.0, (n, w))
    ties = np.round(rng.uniform(-1.0, 1.0, (n, w)), 1)
    ties[::3] = 0.25
    hot = one_hot(random_dataset(schema, n, rng)).as_relaxed().data
    projected = random.copy()
    reference_normalize(projected, schema)
    return np.vstack([random, ties, hot, projected])


class TestBitIdentity:
    SCHEMAS = [(t,) for t in (*range(1, 13), 16, 32)] + [
        tuple(range(1, 13)) + (16, 32),
        (2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7),
        (3, 9, 3, 16, 1, 8, 8),
    ]

    def test_normalization_matches_sort_kernel(self):
        rng = np.random.default_rng(41)
        for cards in self.SCHEMAS:
            s = schema_from_cardinalities(cards)
            X = _normalization_inputs(s, rng)
            expected = X.copy()
            reference_normalize(expected, s)
            got = normalize_rows(RelaxedDataset(s, X)).data
            assert np.array_equal(got, expected), cards

    def test_sparsemax_rows_matches_sort_kernel(self):
        rng = np.random.default_rng(42)
        for t in (*range(1, 13), 16, 32):
            Z = rng.uniform(-3.0, 3.0, (60, t))
            Z[30:] = np.round(Z[30:], 0)  # ties
            assert np.array_equal(sparsemax_rows(Z), reference_sparsemax_rows(Z)), t
            ints = np.round(Z).astype(np.int64)
            for Zi in (ints, ints.astype(np.float32)):
                got = sparsemax_rows(Zi)
                assert got.dtype == np.float64
                assert np.array_equal(got, reference_sparsemax_rows(Zi.astype(np.float64))), t

    def test_adam_matches_reference_formula(self):
        rng = np.random.default_rng(43)
        config = ProjectionConfig(learning_rate=0.01)
        X = rng.random((7, 5))
        ref_X = X.copy()
        adam, ref = AdamState.zeros(X.shape), AdamState.zeros(X.shape)
        for _ in range(5):
            grad = rng.normal(size=X.shape)
            adam.update(X, grad, config)
            reference_adam_update(ref, ref_X, grad, config)
            assert np.array_equal(X, ref_X)
            assert np.array_equal(adam.m, ref.m) and np.array_equal(adam.v, ref.v)
        assert adam.step == ref.step == 5

    @pytest.mark.parametrize("cards", [(2, 3, 4, 3, 5), (2, 9, 3, 12, 4)])
    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    def test_fit_matches_reference_kernels(self, kind, cards, monkeypatch):
        s = schema_from_cardinalities(cards)
        data = random_dataset(s, 200, np.random.default_rng(44))
        w = random_workload(s, 3, 6, seed=2, kind=kind)
        config = FitConfig(
            rounds=3, queries_per_round=4, n_synth=50, seed=3,
            projection=ProjectionConfig(max_steps=40),
        )
        fast = fit(data, w, config)
        monkeypatch.setattr(projection_mod, "_normalize_inplace", reference_normalize)
        monkeypatch.setattr(AdamState, "update", reference_adam_update)
        slow = fit(data, w, config)
        assert untimed_record(fast) == untimed_record(slow)
        assert fast.relaxed.data.tobytes() == slow.relaxed.data.tobytes()


class TestBatcherNetwork:
    @pytest.mark.parametrize("t", range(1, 17))
    def test_sorts_every_zero_one_input(self, t):
        """The 0-1 principle: a comparator network sorts every input if it sorts every 0/1 one."""
        pairs = projection_mod._batcher_comparators(t)
        assert all(0 <= i < j < t for i, j in pairs)
        wires = list(np.array(list(itertools.product((0.0, 1.0), repeat=t))).T)
        expected = -np.sort(-np.array(wires), axis=0)
        for i, j in pairs:
            wires[i], wires[j] = np.maximum(wires[i], wires[j]), np.minimum(wires[i], wires[j])
        assert np.array_equal(np.array(wires), expected)

    def test_comparator_counts(self):
        counts = [len(projection_mod._batcher_comparators(t)) for t in range(4, 9)]
        assert counts == [5, 9, 12, 16, 19]

    @pytest.mark.parametrize("cutoff", [0, 10**9, projection_mod._NETWORK_MAX_T])
    def test_both_kernels_match_sort_at_every_width(self, cutoff, monkeypatch):
        monkeypatch.setattr(projection_mod, "_NETWORK_MAX_T", cutoff)
        rng = np.random.default_rng(45)
        for t in (*range(2, 17), 24, 32, 42):
            Z = rng.uniform(-3.0, 3.0, (50, t))
            Z[25:] = np.round(Z[25:], 0)  # ties
            # The view _normalize_inplace passes: 3 blocks of width t over 1700 rows.
            stacked = rng.uniform(-3.0, 3.0, (t, 3, 1700))
            stacked[:, 1] = np.round(stacked[:, 1], 0)
            for Zi in (Z, stacked.reshape(t, -1).T):
                before = Zi.copy()
                assert sparsemax_rows(Zi).tobytes() == reference_sparsemax_rows(Zi).tobytes(), t
                assert np.array_equal(Zi, before), t


def full_width_projection(queries, targets, init, config):
    """relaxed_projection's loop with reference Adam on all d' columns and the per-block sort."""
    schema = init.schema
    X = init.data.copy()
    reference_normalize(X, schema)
    evaluator = QueryEvaluator(queries, schema, X.shape[0])
    loss, grad = evaluator.loss_and_gradient(X, targets)
    losses, best_X = [loss], X.copy()
    adam = AdamState.zeros(X.shape)
    for _ in range(config.max_steps):
        reference_adam_update(adam, X, grad, config)
        reference_normalize(X, schema)
        new_loss, grad = evaluator.loss_and_gradient(X, targets)
        losses.append(new_loss)
        if new_loss < min(losses[:-1]):
            best_X = X.copy()
        improvement = loss - new_loss
        loss = new_loss
        if improvement >= 0.0 and improvement / max(losses[-2], 1e-30) < EARLY_STOP_REL:
            break
    return best_X, losses


class TestTouchedColumnAdam:
    """Adam on the touched columns gives the bits of Adam on every column."""

    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    @pytest.mark.parametrize("cards", [(2, 3, 4, 3, 5), (2, 9, 3, 12, 4)])
    def test_sparse_selection_matches_full_width_loop(self, kind, cards):
        s = schema_from_cardinalities(cards)
        rng = np.random.default_rng(46)
        w = random_workload(s, 3, 6, seed=2, kind=kind)
        dense = np.arange(w.marginal_sizes()[0])  # one whole marginal: the tensor path
        picks = rng.choice(np.arange(dense.size, w.m), 6, replace=False)
        for indices in (picks, np.concatenate([dense, picks]), np.arange(w.m)):
            queries = w.select(indices)
            if indices.size < w.m:
                assert QueryEvaluator(queries, s, 40).touched.size < s.d_prime
            targets = rng.random(len(queries)) * 0.2
            init = random_init(s, 40, NoiseSource(5, "init"))
            config = ProjectionConfig(learning_rate=0.01, max_steps=60)
            got = relaxed_projection(queries, targets, init, config)
            expected, losses = full_width_projection(queries, targets, init, config)
            assert got.losses == losses
            assert got.dataset.data.tobytes() == expected.tobytes()
