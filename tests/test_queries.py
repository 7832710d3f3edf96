import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsynth import (
    ONE_OUT_OF_K,
    PRODUCT,
    DiscreteDataset,
    FitConfig,
    NoiseSource,
    ProjectionConfig,
    RelaxedDataset,
    SchemaError,
    Workload,
    WorkloadError,
    conjectured_answers,
    eval_discrete,
    eval_relaxed,
    fit,
    load_relaxed_csv,
    loss_and_gradient,
    normalize_rows,
    one_hot,
    random_init,
    random_workload,
    relaxed_projection,
    save_relaxed_csv,
    schema_from_cardinalities,
)

import privsynth.queries as queries_mod
from privsynth.queries import QueryEvaluator, eval_compiled

from helpers import random_dataset, reference_eval_discrete


def query_columns(w):
    """Each workload query's one-hot columns, ascending, in workload order."""
    columns = [None] * w.m
    for cols, pos in queries_mod._workload_columns(w, np.arange(w.m)):
        for j, c in zip(pos.tolist(), np.sort(cols, axis=1).tolist()):
            columns[j] = tuple(c)
    return columns


class TestWorkloadGeneration:
    def test_single_marginal_enumeration(self):
        s = schema_from_cardinalities((2, 3, 4))
        w = Workload(s, [(1, 2)])
        assert w.m == 12

    def test_all_pairwise_count(self):
        s = schema_from_cardinalities((2, 3, 4))
        w = random_workload(s, k=2, num_marginals=3, seed=0)
        assert w.m == 2 * 3 + 2 * 4 + 3 * 4
        t = s.cardinalities
        for subset, size in zip(w.marginals, w.marginal_sizes()):
            assert size == int(np.prod([t[i] for i in subset]))

    def test_same_seed_byte_equal(self):
        s = schema_from_cardinalities((3, 3, 3, 3, 3))
        w1 = random_workload(s, 2, 4, seed=9)
        w2 = random_workload(s, 2, 4, seed=9)
        assert json.dumps(w1.to_json_dict(), sort_keys=True) == json.dumps(
            w2.to_json_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("d, k", [(5, 2), (30, 8)])  # enumerated, rejection-sampled
    def test_negative_marginal_count_rejected(self, d, k):
        s = schema_from_cardinalities((2,) * d)
        with pytest.raises(WorkloadError, match="requested -1 marginals"):
            random_workload(s, k, -1, seed=0)

    @pytest.mark.parametrize("cards, k, total", [((2, 3, 4), 2, 3), ((2,) * 30, 8, 5852925)])
    def test_zero_marginals_rejected_by_own_check(self, cards, k, total):
        """No marginals is refused with the count range, before the empty Workload is built."""
        s = schema_from_cardinalities(cards)
        with pytest.raises(WorkloadError, match=f"requested 0 marginals; from 1 to {total} exist"):
            random_workload(s, k, 0, seed=0)

    def test_rejection_sampled_subsets(self):
        """C(30, 8) = 5 852 925 subsets exceed the enumeration limit, so they are sampled."""
        s = schema_from_cardinalities((2,) * 30)
        assert math.comb(30, 8) > queries_mod._ENUMERATION_LIMIT
        w = random_workload(s, 8, 5, seed=3)
        assert w.m == 5 * 2**8 and w.seed == 3
        assert w.marginals == sorted(w.marginals) and len(set(w.marginals)) == 5
        assert all(list(m) == sorted(set(m)) and len(m) == 8 for m in w.marginals)
        assert random_workload(s, 8, 5, seed=3).marginals == w.marginals
        assert random_workload(s, 8, 5, seed=4).marginals != w.marginals

    def test_sampled_subsets_match_the_listed_ones(self):
        """Unranked subsets are the ones indexed out of the full itertools list, per seed.

        Every (d, k) with d <= 40 and C(d, k) <= 5000 is checked, each rank of
        the list once and random_workload's picks at three seeds.
        """
        for d in range(1, 41):
            s = schema_from_cardinalities((2,) * d)
            for k in range(1, min(d, queries_mod.MAX_ARITY) + 1):
                total = math.comb(d, k)
                if total > 5000:
                    continue
                combos = list(itertools.combinations(range(d), k))
                assert [queries_mod._combination(r, d, k) for r in range(total)] == combos
                count = min(total, 5)
                for seed in range(3):
                    ranks = np.random.default_rng(seed).choice(total, size=count, replace=False)
                    expected = [combos[i] for i in sorted(ranks.tolist())]
                    assert random_workload(s, k, count, seed).marginals == expected

    def test_sampling_from_many_subsets_lists_none(self):
        """5 of C(25, 7) = 480 700 subsets, below the enumeration limit, in well under 10 ms."""
        s = schema_from_cardinalities((2,) * 25)
        assert math.comb(25, 7) <= queries_mod._ENUMERATION_LIMIT
        random_workload(s, 7, 5, seed=0)  # warm
        seconds = []
        for seed in range(5):
            t0 = time.perf_counter()
            random_workload(s, 7, 5, seed=seed)
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.010

    def test_different_seed_differs(self):
        s = schema_from_cardinalities((3,) * 10)
        assert (
            random_workload(s, 2, 5, seed=1).marginals
            != random_workload(s, 2, 5, seed=2).marginals
        )

    def test_too_many_marginals(self):
        s = schema_from_cardinalities((2, 2))
        with pytest.raises(WorkloadError):
            random_workload(s, 2, 2, seed=0)

    def test_odometer_order(self):
        # last feature fastest: (0,0),(0,1),(0,2),(1,0),(1,1),(1,2)
        s = schema_from_cardinalities((2, 3))
        w = Workload(s, [(0, 1)])
        expected = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        assert query_columns(w) == expected

    def test_json_roundtrip(self, tmp_path):
        s = schema_from_cardinalities((2, 3, 4))
        w = random_workload(s, 2, 3, seed=5, kind=ONE_OUT_OF_K)
        w.save(tmp_path / "w.json")
        back = Workload.load(s, tmp_path / "w.json")
        assert query_columns(back) == query_columns(w)
        assert back.kind == ONE_OUT_OF_K
        assert back.seed == 5

    @pytest.mark.parametrize("doc", [
        {"kind": "product", "marginals": [[0, 1]]},
        {"kind": "product", "k": None, "marginals": [[0, 1]]},
        {"kind": "product", "k": 2, "marginals": [[0, 1], [1, 2]]},
        {"kind": "product", "k": None, "marginals": [[0], [1, 2]]},
    ])
    def test_json_k_absent_null_or_the_common_arity(self, doc):
        w = Workload.from_json_dict(schema_from_cardinalities((2, 3, 4)), doc)
        assert w.marginals == [tuple(s) for s in doc["marginals"]]

    def test_compiled_dump(self):
        s = schema_from_cardinalities((2, 2))
        w = Workload(s, [(0,)])
        assert query_columns(w) == [(0,), (1,)]


class TestEvalDiscrete:
    def test_half_match(self):
        s = schema_from_cardinalities((2, 3))
        d = DiscreteDataset(s, np.array([[0, 0], [1, 2]]))
        w = Workload(s, [(0, 1)])
        assert eval_discrete(w, d)[0] == 0.5  # y = (0, 0) is the first query

    def test_no_match_is_zero(self):
        s = schema_from_cardinalities((2, 2))
        d = DiscreteDataset(s, np.array([[0, 0]] * 4))
        w = Workload(s, [(0, 1)])
        answers = eval_discrete(w, d)
        assert answers[-1] == 0.0  # y = (1, 1) matches nothing
        assert answers[0] == 1.0

    def test_threshold_always_fires_on_covering_query(self):
        s = schema_from_cardinalities((2, 3))
        d = DiscreteDataset(s, np.array([[0, 1], [0, 2], [0, 0]]))
        w = Workload(s, [(0,)], kind=ONE_OUT_OF_K)
        assert eval_discrete(w, d)[0] == 1.0  # every row has feature 0 == 0

    def test_other_schema_rejected(self):
        w = Workload(schema_from_cardinalities((2, 3)), [(0, 1)])
        data = DiscreteDataset(schema_from_cardinalities((3, 2)), np.array([[0, 0], [2, 1]]))
        with pytest.raises(SchemaError, match="schemas differ"):
            eval_discrete(w, data)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        s = schema_from_cardinalities((3, 4, 2))
        d = random_dataset(s, 37, rng)
        for kind in (PRODUCT, ONE_OUT_OF_K):
            w = random_workload(s, 2, 3, seed=1, kind=kind)
            a = eval_discrete(w, d)
            assert (a >= 0).all() and (a <= 1).all()


class TestEvalRelaxed:
    def test_matches_discrete_on_one_hot(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d_feats = int(rng.integers(1, 6))
            cards = tuple(int(rng.integers(1, 5)) for _ in range(d_feats))
            s = schema_from_cardinalities(cards)
            data = random_dataset(s, int(rng.integers(1, 51)), rng)
            k = int(rng.integers(1, d_feats + 1))
            w = random_workload(s, k, 1, seed=int(rng.integers(1 << 16)))
            exact = eval_discrete(w, data)
            relaxed = eval_relaxed(w, one_hot(data).as_relaxed())
            assert np.array_equal(exact, relaxed)  # bit-exact, both count/n

    def test_other_schema_of_same_width_rejected(self):
        w = Workload(schema_from_cardinalities((2, 3)), [(0, 1)])
        swapped = RelaxedDataset(schema_from_cardinalities((3, 2)), np.full((2, 5), 0.5))
        with pytest.raises(SchemaError, match="schemas differ"):
            eval_relaxed(w, swapped)

    @pytest.mark.parametrize("cards", [((3, 3), (2, 4)), ((2, 3), (3, 2))])
    def test_selection_on_other_schema_rejected(self, cards):
        w = Workload(schema_from_cardinalities(cards[0]), [(0, 1)])
        schema = schema_from_cardinalities(cards[1])
        other = RelaxedDataset(schema, np.full((2, schema.d_prime), 0.5))
        empty = RelaxedDataset(schema, np.zeros((0, schema.d_prime)))
        full = QueryEvaluator(w.select(), w.schema, 2)
        for table in (other, empty):
            with pytest.raises(SchemaError, match="schemas differ"):
                eval_compiled(w.select(), table)
        for evaluator in (None, full):
            with pytest.raises(SchemaError, match="schemas differ"):
                conjectured_answers(range(w.m), w, other, evaluator)
        with pytest.raises(SchemaError, match="schemas differ"):
            relaxed_projection(w.select(), np.zeros(w.m), other)

    def test_all_ones_row_contributes_one(self):
        s = schema_from_cardinalities((2, 2))
        w = Workload(s, [(0, 1)])
        dp = RelaxedDataset(s, np.ones((1, 4)))
        assert eval_relaxed(w, dp)[0] == 1.0

    def test_threshold_formula(self):
        s = schema_from_cardinalities((2, 2))
        dp = RelaxedDataset(s, np.array([[0.5, 0.0, 0.5, 0.0]]))
        w = Workload(s, [(0, 1)], kind=ONE_OUT_OF_K)
        # T = {0, 2} with x_0 = x_2 = 0.5 -> 1 - 0.25
        assert eval_relaxed(w, dp)[0] == pytest.approx(0.75)

    def test_unit_box_maps_into_unit_interval(self):
        rng = np.random.default_rng(8)
        s = schema_from_cardinalities((3, 3))
        dp = RelaxedDataset(s, rng.random((6, 6)))
        for kind in (PRODUCT, ONE_OUT_OF_K):
            w = random_workload(s, 2, 1, seed=3, kind=kind)
            a = eval_relaxed(w, dp)
            assert (a >= 0).all() and (a <= 1).all()


class TestEmptyRelaxedTable:
    """A relaxed table with no rows answers 0 everywhere, and has no loss to fit."""

    @staticmethod
    def instance():
        s = schema_from_cardinalities((2, 3, 4))
        w = random_workload(s, 2, 2, seed=0)
        queries = w.select([0, 2, w.m - 1])  # one marginal on each gradient path
        return s, queries, RelaxedDataset(s, np.zeros((0, s.d_prime)))

    def test_answers_are_zero(self):
        s, queries, empty = self.instance()
        answers = QueryEvaluator(queries, s, 0).answers(empty.data)
        assert answers.tobytes() == np.zeros(len(queries)).tobytes()

    def test_evaluator_loss_and_gradient_rejected(self):
        s, queries, empty = self.instance()
        with pytest.raises(SchemaError, match="relaxed table has no rows"):
            QueryEvaluator(queries, s, 0).loss_and_gradient(empty.data, np.zeros(len(queries)))

    def test_loss_and_gradient_rejected(self):
        _, queries, empty = self.instance()
        with pytest.raises(SchemaError, match="relaxed table has no rows"):
            loss_and_gradient(queries, np.zeros(len(queries)), empty)

    def test_projection_rejected(self):
        _, queries, empty = self.instance()
        with pytest.raises(SchemaError, match="relaxed table has no rows"):
            relaxed_projection(queries, np.zeros(len(queries)), empty)


def finite_difference_gradient(queries, targets, dp, step=1e-5):
    X = dp.data
    grad = np.zeros_like(X)
    for r in range(X.shape[0]):
        for c in range(X.shape[1]):
            for sign in (1.0, -1.0):
                Xp = X.copy()
                Xp[r, c] += sign * step
                loss, _ = loss_and_gradient(queries, targets, RelaxedDataset(dp.schema, Xp))
                grad[r, c] += sign * loss
            grad[r, c] /= 2 * step
    return grad


class TestLossAndGradient:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(10)
        s = schema_from_cardinalities((2, 3))
        dp = RelaxedDataset(s, rng.random((4, 5)))
        w = random_workload(s, 2, 1, seed=0)
        targets = eval_relaxed(w, dp)
        loss, grad = loss_and_gradient(w.queries, targets, dp)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(dp.data))

    def test_hand_derived_single_query(self):
        s = schema_from_cardinalities((2,))
        dp = RelaxedDataset(s, np.array([[0.3, 0.0]]))
        queries = Workload(s, [(0,)]).queries[:1]  # column 0
        loss, grad = loss_and_gradient(queries, np.array([0.5]), dp)
        assert loss == pytest.approx(0.04)
        assert grad[0, 0] == pytest.approx(-0.4)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d_feats = int(rng.integers(1, 4))
            cards = tuple(int(rng.integers(2, 4)) for _ in range(d_feats))
            s = schema_from_cardinalities(cards)
            if s.d_prime > 12:
                continue
            dp = RelaxedDataset(s, rng.random((int(rng.integers(1, 5)), s.d_prime)))
            kind = PRODUCT if rng.random() < 0.5 else ONE_OUT_OF_K
            w = random_workload(s, min(2, d_feats), 1, seed=int(rng.integers(99)), kind=kind)
            targets = rng.random(w.m)
            _, analytic = loss_and_gradient(w.queries, targets, dp)
            numeric = finite_difference_gradient(w.queries, targets, dp)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    def test_length_mismatch(self):
        s = schema_from_cardinalities((2,))
        dp = RelaxedDataset(s, np.ones((1, 2)))
        with pytest.raises(WorkloadError):
            loss_and_gradient(Workload(s, [(0,)]).queries[:1], np.array([0.1, 0.2]), dp)

    def test_mixed_kinds_in_one_call(self):
        rng = np.random.default_rng(13)
        s = schema_from_cardinalities((2, 2))
        dp = RelaxedDataset(s, rng.random((3, 4)))
        # columns (0, 2) of the product kind and (1, 3) of the threshold kind, from two workloads
        product, threshold = (Workload(s, [(0, 1)], kind) for kind in (PRODUCT, ONE_OUT_OF_K))
        queries = [product.queries[0], threshold.queries[3]]
        targets = np.array([0.2, 0.9])
        _, analytic = loss_and_gradient(queries, targets, dp)
        numeric = finite_difference_gradient(queries, targets, dp)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def _random_query_list(rng):
    """Queries mixing full and partial marginals of both kinds, arity 1-5.

    Cardinality-1 features, duplicate queries and marginals stored unsorted
    are all included.
    """
    d = int(rng.integers(1, 7))
    s = schema_from_cardinalities(tuple(int(rng.integers(1, 4)) for _ in range(d)))
    queries = []
    for kind in (PRODUCT, ONE_OUT_OF_K):
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, min(d, 5) + 1))
            marginal = tuple(int(i) for i in rng.permutation(d)[:k])  # unsorted
            cells = Workload(s, [marginal], kind=kind).queries
            if rng.random() < 0.5:  # partial marginal
                take = rng.choice(len(cells), int(rng.integers(1, len(cells) + 1)))
                cells = [cells[i] for i in take]
            queries.extend(cells)
    queries.extend(queries[i] for i in rng.choice(len(queries), 3))  # duplicates
    order = rng.permutation(len(queries))
    return s, [queries[i] for i in order]


class TestMarginalKernel:
    def test_tensor_and_per_cell_gradients_agree(self, monkeypatch):
        rng = np.random.default_rng(31)
        default = queries_mod._TENSOR_MIN_COVERAGE
        for _ in range(60):
            s, queries = _random_query_list(rng)
            dp = RelaxedDataset(s, rng.random((int(rng.integers(1, 12)), s.d_prime)))
            targets = rng.random(len(queries))
            results = {}
            for coverage in (math.inf, default, 0.0):
                monkeypatch.setattr(queries_mod, "_TENSOR_MIN_COVERAGE", coverage)
                results[coverage] = loss_and_gradient(queries, targets, dp)
            ref_loss, ref_grad = results.pop(math.inf)  # per-cell path only
            scale = max(np.abs(ref_grad).max(), 1e-300)
            for loss, grad in results.values():
                assert abs(loss - ref_loss) <= 1e-12 * ref_loss
                assert np.abs(grad - ref_grad).max() <= 1e-12 * scale

    def test_threshold_discrete_matches_row_loop(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            s = schema_from_cardinalities(tuple(int(rng.integers(1, 4)) for _ in range(4)))
            data = random_dataset(s, int(rng.integers(1, 40)), rng)
            features = tuple(int(i) for i in rng.permutation(4)[: int(rng.integers(1, 5))])
            w = Workload(s, [features], kind=ONE_OUT_OF_K)
            expected = []
            for y in itertools.product(*(range(s.cardinalities[i]) for i in features)):
                none = sum(all(row[i] != v for i, v in zip(features, y)) for row in data.rows)
                expected.append(1.0 - none / data.n)
            assert np.array_equal(eval_discrete(w, data), np.array(expected))

    def test_arity_eight_with_small_row_chunks(self, monkeypatch):
        rng = np.random.default_rng(33)
        s = schema_from_cardinalities((2, 2, 1, 2, 2, 2, 2, 3))
        data = random_dataset(s, 9, rng)
        dp = RelaxedDataset(s, rng.random((9, s.d_prime)))
        for kind in (PRODUCT, ONE_OUT_OF_K):
            w = Workload(s, [tuple(range(8))], kind=kind)
            targets = rng.random(w.m)
            whole = (eval_relaxed(w, dp), loss_and_gradient(w.queries, targets, dp))
            monkeypatch.setattr(queries_mod, "_TENSOR_CELL_BUDGET", 128)  # 2 rows per chunk
            chunked = (eval_relaxed(w, dp), loss_and_gradient(w.queries, targets, dp))
            one_hot_rows = one_hot(data).as_relaxed()
            assert np.array_equal(eval_discrete(w, data), eval_relaxed(w, one_hot_rows))
            monkeypatch.undo()
            np.testing.assert_allclose(chunked[0], whole[0], rtol=1e-12)
            assert chunked[1][0] == pytest.approx(whole[1][0], rel=1e-12)
            np.testing.assert_allclose(chunked[1][1], whole[1][1], rtol=1e-12, atol=1e-15)

    def test_arity_above_eight_rejected(self):
        """A workload refuses the marginal, so no query of arity above 8 reaches an evaluator."""
        s = schema_from_cardinalities((2,) * 9)
        with pytest.raises(WorkloadError, match="arity above 8"):
            Workload(s, [(0,), tuple(range(9))])


class TestCellWorkspace:
    """A per-cell gradient shares no memory with a later call's, so it survives later calls.

    Each later call, at the same row count or another, also matches a fresh evaluator's.
    """

    def _lists(self, s):
        threshold = Workload(s, [(0, 1), (1, 2)], kind=ONE_OUT_OF_K).queries[::3]
        arity_one = Workload(s, [(0,), (2,)]).queries[:3]
        return [threshold, arity_one]

    def test_gradient_survives_later_calls(self, monkeypatch):
        monkeypatch.setattr(queries_mod, "_TENSOR_MIN_COVERAGE", math.inf)
        rng = np.random.default_rng(35)
        s = schema_from_cardinalities((2, 3, 4))
        for queries in self._lists(s):
            targets = rng.random(len(queries))
            X1, X2, X3 = (rng.random((rows, s.d_prime)) for rows in (6, 6, 4))
            ev = QueryEvaluator(queries, s, 6)
            assert ev._cells is not None and not ev._tensor
            loss1, g1 = ev.loss_and_gradient(X1, targets)
            kept = g1.copy()
            for X in (X2, X3):  # same row count, then a different one
                loss, grad = ev.loss_and_gradient(X, targets)
                fresh = QueryEvaluator(queries, s, X.shape[0]).loss_and_gradient(X, targets)
                assert loss == fresh[0] and np.array_equal(grad, fresh[1])
                assert not np.shares_memory(grad, g1)
            assert np.array_equal(g1, kept)
            assert ev.loss_and_gradient(X1, targets)[0] == loss1


class TestFeatureMajorLayout:
    """The kernels read X.T feature-major; the memory order of X must not change a bit."""

    MARGINALS = {1: [(0,), (3,)], 2: [(0, 1), (2, 3)], 3: [(0, 1, 2), (1, 2, 3)], 4: [(0, 1, 2, 3)]}

    @pytest.mark.parametrize("coverage", [0.0, math.inf])  # tensor path only, per-cell path only
    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    @pytest.mark.parametrize("arity", sorted(MARGINALS))
    def test_orders_agree_and_gradients_survive(self, arity, kind, coverage, monkeypatch):
        monkeypatch.setattr(queries_mod, "_TENSOR_MIN_COVERAGE", coverage)
        monkeypatch.setattr(queries_mod, "_TENSOR_CELL_BUDGET", 24)  # row chunks of 1 to 12
        rng = np.random.default_rng(38 + arity)
        s = schema_from_cardinalities((2, 3, 4, 3))
        w = Workload(s, self.MARGINALS[arity], kind=kind)
        queries = [w.queries[i] for i in rng.permutation(w.m)]
        targets = rng.random(len(queries))
        ev = QueryEvaluator(queries, s, 11)
        assert (ev._cells is None) == (coverage == 0.0)
        X1, X2 = rng.random((11, s.d_prime)), rng.random((11, s.d_prime))
        F1 = np.asfortranarray(X1)
        assert X1.flags.c_contiguous and F1.flags.f_contiguous and not F1.flags.c_contiguous
        assert ev.answers(X1).tobytes() == ev.answers(F1).tobytes()
        loss, grad = ev.loss_and_gradient(X1, targets)
        f_loss, f_grad = ev.loss_and_gradient(F1, targets)
        assert loss == f_loss and grad.tobytes() == f_grad.tobytes()
        kept = grad.copy()
        later = ev.loss_and_gradient(X2, targets)[1]
        assert not np.shares_memory(grad, later) and not np.shares_memory(grad, f_grad)
        assert np.array_equal(grad, kept)

    def test_every_relaxed_dataset_is_a_free_view(self, tmp_path):
        """Each way of building a RelaxedDataset gives the kernels X.T with no copy."""
        s = schema_from_cardinalities((2, 3, 4))
        w = Workload(s, [(0, 1), (1, 2)], kind=ONE_OUT_OF_K)
        rng = np.random.default_rng(40)
        c_ordered = RelaxedDataset(s, rng.random((7, s.d_prime)))
        save_relaxed_csv(c_ordered, tmp_path / "relaxed.csv")
        built = {
            "random_init": random_init(s, 7, NoiseSource(1, "init")),
            "normalize_rows": normalize_rows(c_ordered),
            "load_relaxed_csv": load_relaxed_csv(tmp_path / "relaxed.csv", s),
            "as_relaxed": one_hot(random_dataset(s, 7, rng)).as_relaxed(),
            "C-ordered array": c_ordered,
        }
        ev = QueryEvaluator(w.select(), s, 7)
        for how, relaxed in built.items():
            Xt, _ = ev._feature_major(relaxed.data)
            assert relaxed.data.dtype == np.float64 and np.shares_memory(Xt, relaxed.data), how


def reference_cell_loss_and_gradient(path, X, targets):
    """The per-cell kernel on the path's batches, with fresh arrays throughout."""
    n = X.shape[0]
    grad_t = np.zeros((X.shape[1], n))
    loss = 0.0
    for kind, cols, pos, scatter in path._batches:
        k = cols.shape[0]
        base = X.T if kind == PRODUCT else 1.0 - X.T
        slots = [base[c] for c in cols]
        suffix = [np.ones_like(slots[0])]
        for p in range(k - 1, 0, -1):
            suffix.insert(0, suffix[0] * slots[p])
        vals = np.einsum("qr,qr->q", suffix[0], slots[0]) / n
        if kind == ONE_OUT_OF_K:
            vals = 1.0 - vals
        res = vals - targets[pos]
        loss += float(res @ res)
        coef = (2.0 / n) * res
        prefix = np.ones_like(slots[0])
        for p, (distinct, onehot) in enumerate(scatter):
            grad_t[distinct] += (onehot * coef) @ (prefix * suffix[p])
            prefix = prefix * slots[p]
    return loss, grad_t.T.copy()


class TestCellPathBitIdentity:
    """The per-cell path, split into batches or not, gives the allocating loop's exact bits."""

    MARGINALS = {1: [(0,), (3,)], 2: [(0, 1), (2, 3)], 3: [(0, 1, 2), (1, 2, 3)], 4: [(0, 1, 2, 3)]}

    def _lists(self, s, rng):
        lists = []
        for kind in (PRODUCT, ONE_OUT_OF_K):
            for arity, marginals in self.MARGINALS.items():
                cells = Workload(s, marginals, kind=kind).queries
                take = rng.choice(len(cells), min(len(cells), 7), replace=False)
                lists.append([cells[i] for i in take])
        mixed = [q for qs in lists for q in qs[:2]]  # both kinds, every arity
        return lists + [[mixed[i] for i in rng.permutation(len(mixed))]]

    # 1 << 22 values: one batch per (kind, arity) group, as at the shipped budget.
    # 72 values: batches of 6, 3, 2 and 1 queries for arities 1 to 4 (d' = 12 > 9 rows)
    @pytest.mark.parametrize("budget", [1 << 22, 72])
    def test_matches_allocating_loop(self, budget, monkeypatch):
        monkeypatch.setattr(queries_mod, "_TENSOR_MIN_COVERAGE", math.inf)
        monkeypatch.setattr(queries_mod, "_CELL_BATCH_BUDGET", budget)
        rng = np.random.default_rng(36)
        s = schema_from_cardinalities((2, 3, 4, 3))
        for queries in self._lists(s, rng):
            targets = rng.random(len(queries))
            ev = QueryEvaluator(queries, s, 9)
            assert ev._cells is not None and not ev._tensor
            shapes = [(kind, cols.shape[0]) for kind, cols, _, _ in ev._cells._batches]
            if budget == 72 and len(queries) > 6:
                assert len(shapes) > len(set(shapes))  # some (kind, arity) group was split
            for rows in (9, 9, 5):  # the row count the path was built for, then another
                X = rng.random((rows, s.d_prime))
                Xt = np.ascontiguousarray(X.T)
                loss, grad_t = ev._cells.loss_and_gradient(Xt, 1.0 - Xt, targets)
                grad = grad_t.T
                ref_loss, ref_grad = reference_cell_loss_and_gradient(ev._cells, X, targets)
                assert loss == ref_loss
                assert np.array_equal(grad, ref_grad)


class TestTouchedColumns:
    """Every column where the gradient can be nonzero is in the evaluator's `touched`."""

    MARGINALS = [(0, 1), (1, 3), (0, 2, 3), (2,)]

    def _query_lists(self, w, rng):
        """Selections and lists of one-query Selections whose marginals take the tensor path,
        the cell path or both."""
        dense = np.arange(w._starts[1])  # every cell of the first marginal
        sparse = np.sort(rng.choice(np.arange(w._starts[1], w.m), 5, replace=False))
        for indices in (dense, sparse, np.concatenate([dense, sparse])):
            yield w.select(indices)
            yield [w.queries[i] for i in indices]

    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    def test_nonzero_gradient_columns_are_touched(self, kind):
        rng = np.random.default_rng(39)
        s = schema_from_cardinalities((2, 5, 4, 6))
        w = Workload(s, self.MARGINALS, kind=kind)
        paths = set()
        for queries in self._query_lists(w, rng):
            ev = QueryEvaluator(queries, s, 7)
            paths.add((ev._cells is not None, bool(ev._tensor)))
            touched = ev.touched
            assert touched.dtype.kind == "i" and np.array_equal(touched, np.unique(touched))
            assert touched.size < s.d_prime
            for _ in range(3):
                X = rng.uniform(0.05, 0.95, (7, s.d_prime))
                _, grad = ev.loss_and_gradient(X, rng.random(len(queries)))
                nonzero = np.flatnonzero((grad != 0.0).any(axis=0))
                assert np.isin(nonzero, touched).all()
                assert np.array_equal(nonzero, touched)  # and none spare, on generic rows
        assert paths == {(False, True), (True, False), (True, True)}


class TestCellBudget:
    def test_one_row_many_queries(self, monkeypatch):
        """At n_rows = 1 the one-hot matrices, not the rows, bound a batch."""
        budget = 256
        monkeypatch.setattr(queries_mod, "_CELL_BATCH_BUDGET", budget)
        rng = np.random.default_rng(37)
        s = schema_from_cardinalities((3, 4, 5, 3, 4, 2, 5))  # d' = 26
        queries = []
        for kind in (PRODUCT, ONE_OUT_OF_K):
            for k in (2, 3):
                cells = Workload(s, list(itertools.combinations(range(s.d), k)), kind=kind).queries
                queries += [cells[i] for i in rng.choice(len(cells), 150, replace=False)]
        X = rng.random((1, s.d_prime))
        targets = rng.random(len(queries))
        monkeypatch.setattr(queries_mod, "_TENSOR_MIN_COVERAGE", math.inf)
        ev = QueryEvaluator(queries, s, 1)
        loss, grad = ev.loss_and_gradient(X, targets)
        path = ev._cells
        assert not ev._tensor and len(path._batches) > 100
        for _, cols, _, scatter in path._batches:
            assert cols.size <= budget
            assert all(onehot.size <= budget for _, onehot in scatter)
        monkeypatch.setattr(queries_mod, "_TENSOR_MIN_COVERAGE", 0.0)
        ref_loss, ref_grad = QueryEvaluator(queries, s, 1).loss_and_gradient(X, targets)
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_adaptive_fit_losses_agree_across_budgets(self, monkeypatch):
        """Batches only regroup the gradient's sums, so every round's loss agrees to rounding."""
        s = schema_from_cardinalities((2, 3, 4, 3, 5))  # d' = 17
        data = random_dataset(s, 300, np.random.default_rng(43))
        w = random_workload(s, 3, 6, seed=2)
        config = FitConfig(rounds=3, queries_per_round=6, n_synth=40, seed=0,
                           projection=ProjectionConfig(max_steps=40))
        losses = []
        # The shipped budget holds the 18 selected 3-way queries in one batch; 240 slot
        # cells split them into batches of 240 // (3 * 40) = 2.
        for budget, sizes in ((queries_mod._CELL_BATCH_BUDGET, [18]), (240, [2] * 9)):
            monkeypatch.setattr(queries_mod, "_CELL_BATCH_BUDGET", budget)
            result = fit(data, w, config)
            ev = QueryEvaluator(w.select(result.selected), s, config.n_synth)
            assert not ev._tensor and [cols.shape[1] for _, cols, _, _ in ev._cells._batches] == sizes
            losses.append(np.array([r["projection_loss"] for r in result.rounds]))
        shipped, split = losses
        assert len(shipped) == 3 and (shipped > 0).all()
        assert (np.abs(split - shipped) <= 1e-9 * shipped).all()


class TestCellPathMemory:
    def test_gradient_call_keeps_nothing(self):
        """500 sparse cells at 2000 rows: a few batch budgets at peak, only the gradient after."""
        s = schema_from_cardinalities((2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7))  # d' = 68
        w = Workload(s, list(itertools.combinations(range(s.d), 3)))
        rng = np.random.default_rng(41)
        queries = w.select(np.sort(rng.choice(w.m, 500, replace=False)))
        rows = 2000
        ev = QueryEvaluator(queries, s, rows)
        assert ev._cells is not None and not ev._tensor
        X = np.asfortranarray(rng.random((rows, s.d_prime)))  # so X.T is a view, not a copy
        targets = rng.random(len(queries))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, grad = ev.loss_and_gradient(X, targets)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before - grad.nbytes <= 4 * queries_mod._CELL_BATCH_BUDGET * 8
        assert after - before - grad.nbytes <= 4096


class TestLazyWorkload:
    """Workload stores marginals; its list of one-query Selections is built on first access."""

    @pytest.mark.parametrize(
        "marginals, kind, match",
        [
            ([(0, 1), (1, 1)], PRODUCT, "repeated features"),
            ([(0, 3)], PRODUCT, "feature index 3 out of range"),
            ([(-1,)], PRODUCT, "feature index -1 out of range"),
            ([()], PRODUCT, "at least one column"),
            ([(0,)], "neither", "unknown query kind"),
        ],
    )
    def test_errors_raised_without_compiling(self, marginals, kind, match, monkeypatch):
        def no_compile(*args, **kwargs):
            raise AssertionError("a query's columns were decoded")

        monkeypatch.setattr(queries_mod, "_workload_columns", no_compile)
        s = schema_from_cardinalities((2, 3, 4))
        with pytest.raises(WorkloadError, match=match):
            Workload(s, marginals, kind=kind)

    def test_queries_compiled_on_first_access(self):
        s = schema_from_cardinalities((2, 3, 4))
        w = Workload(s, [(2, 0), (1,)])
        assert "queries" not in vars(w)
        assert w.m == 11 and w.marginal_sizes() == [8, 3]
        assert w.queries is w.queries and len(w.queries) == w.m
        for j, q in enumerate(w.queries):
            assert q.workload is w and q.indices.tolist() == [j]
        # (2, 0): feature 2's category a at column 5 + a, feature 0 fastest
        expected = [(b, 5 + a) for a in range(4) for b in range(2)] + [(2 + c,) for c in range(3)]
        assert query_columns(w) == expected

    @pytest.mark.parametrize("entry", [
        lambda w: w.select([0, 1]), lambda w: w.select([]), lambda w: (0, 2), lambda w: 0,
    ], ids=["two queries", "no query", "column tuple", "index"])
    def test_list_entry_other_than_one_query_rejected(self, entry):
        s = schema_from_cardinalities((2, 3))
        w = Workload(s, [(0, 1)])
        dp = RelaxedDataset(s, np.full((2, 5), 0.5))
        queries = [w.queries[0], entry(w)]
        with pytest.raises(WorkloadError, match="entry 1 is not a one-query Selection"):
            QueryEvaluator(queries, s, 2)
        with pytest.raises(WorkloadError, match="entry 1 is not a one-query Selection"):
            eval_compiled(queries, dp)

    def test_selection_rejects_index_outside_workload(self):
        w = Workload(schema_from_cardinalities((2, 3)), [(0, 1)])
        for bad in ([6], [-1], [0, 7]):
            with pytest.raises(IndexError, match="out of range"):
                w.select(bad)
        assert len(w.select()) == 6 and len(w.select([5, 0, 5])) == 3


@st.composite
def workload_selections(draw):
    """A schema, a workload of mixed arities and one kind, and indices into it.

    Marginals may list their features in any order and may repeat; the
    indices come in any order and may repeat.
    """
    cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    d = len(cards)
    feature_sets = st.integers(1, min(4, d)).flatmap(
        lambda k: st.permutations(range(d)).map(lambda p: tuple(p[:k]))
    )
    marginals = draw(st.lists(feature_sets, min_size=1, max_size=6))
    marginals += draw(st.lists(st.sampled_from(marginals), max_size=2))
    marginals = draw(st.permutations(marginals))
    kind = draw(st.sampled_from(queries_mod.QUERY_KINDS))
    w = Workload(schema_from_cardinalities(tuple(cards)), marginals, kind=kind)
    indices = draw(
        st.one_of(
            st.just(list(range(w.m))),
            st.lists(st.integers(0, w.m - 1), max_size=3 * w.m),
            st.permutations(range(w.m)),
        )
    )
    return w, indices



class TestMarginalGroups:
    @settings(max_examples=300, deadline=None)
    @given(case=workload_selections())
    def test_matches_grouping_of_compiled_queries(self, case):
        w, indices = case
        expected = queries_mod._group_by_marginal([w.queries[i] for i in indices], w.schema)
        got = queries_mod._group_by_marginal(w.select(indices), w.schema)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert (a.kind, a.features, a.dims) == (b.kind, b.features, b.dims)
            for name in ("cells", "cols", "pos"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and np.array_equal(x, y)

    @settings(max_examples=100, deadline=None)
    @given(case=workload_selections())
    def test_workload_queries_match_compile_marginal(self, case):
        """The decoded columns are T = {offset[i] + y_i} over every odometer assignment y."""
        w, _ = case
        offsets, t = w.schema.offsets, w.schema.cardinalities
        expected = [
            tuple(sorted(offsets[i] + v for i, v in zip(s, y)))
            for s in w.marginals
            for y in itertools.product(*(range(t[i]) for i in s))
        ]
        assert query_columns(w) == expected

    def test_selection_evaluator_matches_query_list(self):
        rng = np.random.default_rng(38)
        s = schema_from_cardinalities((2, 3, 4, 3))
        w = Workload(s, [(3, 1), (0, 1, 2), (1, 3), (2,)], kind=ONE_OUT_OF_K)
        idx = rng.permutation(w.m)[: w.m // 3]
        X = rng.random((7, s.d_prime))
        targets = rng.random(idx.size)
        ev_sel = QueryEvaluator(w.select(idx), s, 7)
        ev_list = QueryEvaluator([w.queries[i] for i in idx], s, 7)
        assert ev_sel.m == ev_list.m == idx.size
        assert np.array_equal(ev_sel.answers(X), ev_list.answers(X))
        loss, grad = ev_sel.loss_and_gradient(X, targets)
        ref_loss, ref_grad = ev_list.loss_and_gradient(X, targets)
        assert loss == ref_loss and np.array_equal(grad, ref_grad)


class TestEvalDiscreteColumnCodes:
    """eval_discrete against the ravel_multi_index formula it replaced."""

    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    @pytest.mark.parametrize("n", [0, 1, 57])
    def test_matches_reference(self, kind, n):
        rng = np.random.default_rng(39 + n)
        s = schema_from_cardinalities((2, 3, 4, 1, 5))
        w = Workload(s, [(0,), (4, 1), (1, 2, 3), (3, 0, 4, 2), (2, 1)], kind=kind)
        data = random_dataset(s, n, rng)
        assert np.array_equal(eval_discrete(w, data), reference_eval_discrete(w, data))

    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    @pytest.mark.parametrize("marginals, code_dtype", [
        ([(0,), (3, 4)], np.uint8),  # largest marginal 255
        ([(1,), (3, 1), (1, 3)], np.uint16),  # 256, with 256 as a Horner multiplier
        ([(0, 2), (4,)], np.uint16),  # 65535
        ([(1, 2), (2, 1)], np.uint32),  # 65792
        ([(4, 0, 1)], np.uint32),  # 130560
    ])
    def test_code_dtype_boundaries(self, kind, marginals, code_dtype):
        rng = np.random.default_rng(41)
        s = schema_from_cardinalities((255, 256, 257, 1, 2))
        w = Workload(s, marginals, kind=kind)
        assert np.min_scalar_type(max(w.marginal_sizes())) == code_dtype
        data = random_dataset(s, 500, rng)
        assert data.rows.dtype == np.uint16
        assert np.array_equal(eval_discrete(w, data), reference_eval_discrete(w, data))

    def test_counts_without_copying_the_table(self, monkeypatch):
        # 2*10^5 bench-schema rows: a code array and bincount's intp copy of
        # it fit in 16 bytes a row; a (d, n) copy of the table would not.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        n = 200_000
        s = schema_from_cardinalities(workloads.CARDINALITIES)
        data = random_dataset(s, n, np.random.default_rng(42))
        w = random_workload(s, 3, 64, seed=7)
        tracemalloc.start()
        try:
            eval_discrete(w, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n

    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    def test_non_contiguous_rows(self, kind):
        rng = np.random.default_rng(40)
        s = schema_from_cardinalities((3, 4, 2, 5))
        w = random_workload(s, 3, 3, seed=2, kind=kind)
        base = random_dataset(s, 40, rng).rows
        for rows in (np.asfortranarray(base), np.repeat(base, 2, axis=0)[::2]):
            assert not rows.flags.c_contiguous
            data = DiscreteDataset(s, rows)
            assert not data.rows.flags.c_contiguous
            assert np.array_equal(eval_discrete(w, data), reference_eval_discrete(w, data))


@st.composite
def neighbouring_tables(draw):
    """A workload of one kind and one arity in 1-4, and two tables that differ in one row."""
    cards = draw(st.lists(st.integers(1, 4), min_size=4, max_size=6))
    k = draw(st.integers(1, 4))
    subsets = st.permutations(range(len(cards))).map(lambda p: tuple(sorted(p[:k])))
    marginals = draw(st.lists(subsets, min_size=1, max_size=4, unique=True))
    kind = draw(st.sampled_from(queries_mod.QUERY_KINDS))
    w = Workload(schema_from_cardinalities(tuple(cards)), marginals, kind=kind)
    row = st.tuples(*(st.integers(0, t - 1) for t in cards))
    rows = draw(st.lists(row, min_size=1, max_size=20))
    neighbour = list(rows)
    neighbour[draw(st.integers(0, len(rows) - 1))] = draw(row)
    return w, *(DiscreteDataset(w.schema, np.array(r)) for r in (rows, neighbour))


class TestSensitivity:
    """Replacing one row moves each answer by at most 1/n, as gaussian_mechanism assumes."""

    @settings(max_examples=300, deadline=None)
    @given(case=neighbouring_tables())
    def test_replace_one_row(self, case):
        w, data, neighbour = case
        n = data.n
        diff = eval_discrete(w, neighbour) - eval_discrete(w, data)
        assert np.abs(diff).max() <= (1.0 + 1e-12) / n
        if w.kind == PRODUCT:
            # The two rows' cells are the only ones to move, so a whole
            # marginal's answer vector moves by at most sqrt(2)/n in L2.
            for part in np.split(diff, np.cumsum(w.marginal_sizes())[:-1]):
                assert np.linalg.norm(part) <= (1.0 + 1e-12) * math.sqrt(2.0) / n
