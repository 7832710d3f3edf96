import ast
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from privsynth import (
    FitConfig,
    DiscreteDataset,
    InfeasibleConfigError,
    NoiseSource,
    ONE_OUT_OF_K,
    PRODUCT,
    ProjectionConfig,
    RelaxedDataset,
    Workload,
    conjectured_answers,
    eval_discrete,
    eval_relaxed,
    fit,
    load_relaxed_csv,
    loss_and_gradient,
    one_hot,
    random_init,
    random_workload,
    relaxed_projection,
    replay,
    SchemaError,
    save_relaxed_csv,
    schema_from_cardinalities,
)

from privsynth import engine
from privsynth.privacy import BudgetError, PrivacyBudget, gaussian_noise_sigma
from privsynth.queries import QueryEvaluator, eval_compiled

from helpers import all_k_way_workload, random_dataset, skewed_dataset


def toy_instance(seed=0, cards=(4, 4, 4, 4), n=120, k=2, marginals=6):
    rng = np.random.default_rng(seed)
    schema = schema_from_cardinalities(cards)
    data = random_dataset(schema, n, rng)
    workload = random_workload(schema, k, marginals, seed=seed)
    return schema, data, workload


SMALL_PROJ = ProjectionConfig(max_steps=60)


class TestSingleRoundBranch:
    def test_no_noise_reduces_to_pure_projection(self):
        schema, data, workload = toy_instance(seed=1)
        config = FitConfig(no_noise=True, rounds=1, n_synth=30, seed=7, projection=SMALL_PROJ)
        result = fit(data, workload, config)

        start = random_init(schema, 30, NoiseSource(7, "init"))
        exact = eval_discrete(workload, data)
        reference = relaxed_projection(workload.queries, exact, start, SMALL_PROJ)
        np.testing.assert_array_equal(result.relaxed.data, reference.dataset.data)
        assert result.budget.summary()["private"] is False

    def test_ledger_has_m_equal_entries(self):
        _, data, workload = toy_instance(seed=2)
        config = FitConfig(epsilon=1.0, rounds=1, n_synth=20, seed=0, projection=SMALL_PROJ)
        result = fit(data, workload, config)
        ledger = result.budget.ledger
        assert len(ledger) == workload.m
        share = result.budget.rho_total / workload.m
        assert all(rho == share for _, rho in ledger)
        assert result.budget.spent() == pytest.approx(result.budget.rho_total, abs=1e-12)

    def test_beats_naive_baseline_on_toy(self):
        # epsilon=1 on the (2,3,4) toy with all 26 pairwise queries
        schema = schema_from_cardinalities((2, 3, 4))
        data = skewed_dataset(1000, seed=3, cards=(2, 3, 4))
        workload = Workload(schema, list(itertools.combinations(range(3), 2)))
        assert workload.m == 26
        truth = eval_discrete(workload, data)
        baseline = truth.max()
        wins = 0
        for seed in range(5):
            config = FitConfig(
                epsilon=1.0, rounds=1, n_synth=100, seed=seed,
                projection=ProjectionConfig(max_steps=1000),
            )
            result = fit(data, workload, config)
            err = np.abs(eval_relaxed(workload, result.relaxed) - truth).max()
            wins += err < baseline
        assert wins >= 4


class TestAdaptiveBranch:
    def test_budget_split_arithmetic(self):
        # 5 rounds x 10 picks: 50 selection spends + 50 answer spends of rho/100
        schema, data, workload = toy_instance(seed=4, cards=(4, 4, 4, 4), k=2, marginals=6)
        assert workload.m >= 50
        delta = 1.0 / data.n**2
        config = FitConfig(
            epsilon=0.2, delta=delta, rounds=5, queries_per_round=10,
            n_synth=16, seed=1, projection=ProjectionConfig(max_steps=5),
        )
        # epsilon parameter names the budget; the derived rho is what splits
        result = fit(data, workload, config)
        rho = result.budget.rho_total
        ledger = result.budget.ledger
        assert len(ledger) == 100
        assert all(r == pytest.approx(rho / 100, abs=1e-18) for _, r in ledger)
        assert result.budget.spent() == pytest.approx(rho, abs=1e-12)

    def test_no_reselection_and_growth(self):
        _, data, workload = toy_instance(seed=5)
        config = FitConfig(
            epsilon=0.5, rounds=3, queries_per_round=4, n_synth=16, seed=2,
            projection=ProjectionConfig(max_steps=5),
        )
        result = fit(data, workload, config)
        assert len(result.selected) == 12
        assert len(set(result.selected)) == 12
        totals = [r["selected_total"] for r in result.rounds]
        assert totals == [4, 8, 12]

    def test_noiseless_selection_is_true_argmax(self):
        schema, data, workload = toy_instance(seed=6, marginals=3)
        config = FitConfig(
            no_noise=True, rounds=2, queries_per_round=3, n_synth=12, seed=3,
            projection=ProjectionConfig(max_steps=5),
        )
        result = fit(data, workload, config)
        round_datasets = replay(result.to_json_dict(), workload)

        # the k-th pick of round t must be the max-error query in the
        # remaining pool, scored against the previous round's dataset
        truth = eval_discrete(workload, data)
        current = random_init(schema, 12, NoiseSource(3, "init"))
        pool = list(range(workload.m))
        replayed = []
        for t in range(2):
            conj = conjectured_answers(pool, workload, current)
            scores = np.abs(truth[pool] - conj)
            for _ in range(3):
                win = int(np.argmax(scores))
                replayed.append(pool[win])
                pool.pop(win)
                scores = np.delete(scores, win)
            current = round_datasets[t]
        assert replayed == result.selected

    def test_noiseless_answers_are_exact(self):
        _, data, workload = toy_instance(seed=7)
        config = FitConfig(
            no_noise=True, rounds=2, queries_per_round=2, n_synth=10, seed=4,
            projection=ProjectionConfig(max_steps=5),
        )
        result = fit(data, workload, config)
        truth = eval_discrete(workload, data)
        assert result.noisy_answers == [truth[i] for i in result.selected]
        assert result.budget.spent() == 0.0

    def test_warm_start_initial_loss(self):
        _, data, workload = toy_instance(seed=8)
        config = FitConfig(
            epsilon=0.4, rounds=3, queries_per_round=5, n_synth=14, seed=5,
            projection=ProjectionConfig(max_steps=8),
        )
        result = fit(data, workload, config)
        round_datasets = replay(result.to_json_dict(), workload)
        for t in range(1, 3):
            upto = result.rounds[t]["selected_total"]
            queries = [workload.queries[i] for i in result.selected[:upto]]
            targets = np.asarray(result.noisy_answers[:upto])
            loss, _ = loss_and_gradient(queries, targets, round_datasets[t - 1])
            assert result.rounds[t]["projection_initial_loss"] == pytest.approx(loss, rel=1e-12)

    def test_infeasible_rounds_rejected(self):
        _, data, workload = toy_instance(seed=9, marginals=2)
        config = FitConfig(epsilon=1.0, rounds=workload.m, queries_per_round=2, n_synth=8)
        with pytest.raises(InfeasibleConfigError):
            fit(data, workload, config)

    def test_adaptive_needs_k(self):
        with pytest.raises(InfeasibleConfigError):
            FitConfig(rounds=2)


class TestThresholdWorkloads:
    def test_noiseless_fit_on_threshold_queries(self):
        # the whole pipeline runs unchanged on the 1-out-of-k query family
        rng = np.random.default_rng(20)
        schema = schema_from_cardinalities((3, 3, 3))
        data = random_dataset(schema, 150, rng)
        workload = random_workload(schema, 2, 3, seed=1, kind="one_out_of_k")
        config = FitConfig(
            no_noise=True, rounds=1, n_synth=150, seed=0,
            projection=ProjectionConfig(max_steps=2500),
        )
        result = fit(data, workload, config)
        truth = eval_discrete(workload, data)
        err = np.abs(eval_relaxed(workload, result.relaxed) - truth).max()
        assert err < 0.05

    def test_adaptive_on_threshold_queries(self):
        rng = np.random.default_rng(21)
        schema = schema_from_cardinalities((3, 3, 3))
        data = random_dataset(schema, 100, rng)
        workload = random_workload(schema, 2, 3, seed=2, kind="one_out_of_k")
        config = FitConfig(
            epsilon=0.5, rounds=2, queries_per_round=4, n_synth=20, seed=1,
            projection=ProjectionConfig(max_steps=10),
        )
        result = fit(data, workload, config)
        assert len(result.selected) == 8
        assert result.budget.spent() == pytest.approx(result.budget.rho_total, abs=1e-12)


class TestTinyEdges:
    def test_single_query_workload(self):
        schema = schema_from_cardinalities((2,))
        rng = np.random.default_rng(22)
        data = random_dataset(schema, 10, rng)
        workload = Workload(schema, [(0,)])
        config = FitConfig(no_noise=True, rounds=1, n_synth=4, projection=SMALL_PROJ)
        result = fit(data, workload, config)
        assert len(result.noisy_answers) == 2

    def test_single_synth_row(self):
        _, data, workload = toy_instance(seed=23, marginals=2)
        config = FitConfig(no_noise=True, rounds=1, n_synth=1, projection=SMALL_PROJ)
        result = fit(data, workload, config)
        assert result.relaxed.data.shape[0] == 1

    def test_empty_workload_rejected(self):
        schema = schema_from_cardinalities((2,))
        data = random_dataset(schema, 5, np.random.default_rng(0))
        with pytest.raises(InfeasibleConfigError):
            fit(data, Workload(schema, []), FitConfig(no_noise=True))

    def test_empty_table_rejected(self):
        schema = schema_from_cardinalities((2, 3))
        data = DiscreteDataset(schema, np.zeros((0, 2), dtype=np.int64))
        for config in (FitConfig(), FitConfig(delta=1e-6), FitConfig(no_noise=True)):
            with pytest.raises(SchemaError, match="no rows"):
                fit(data, Workload(schema, [(0, 1)]), config)


class TestConjecturedAnswers:
    def test_one_hot_of_private_data_matches_truth(self):
        _, data, workload = toy_instance(seed=10)
        relaxed = one_hot(data).as_relaxed()
        conj = conjectured_answers(list(range(workload.m)), workload, relaxed)
        np.testing.assert_array_equal(conj, eval_discrete(workload, data))

    def test_single_query_pool(self):
        _, data, workload = toy_instance(seed=11)
        relaxed = one_hot(data).as_relaxed()
        assert conjectured_answers([5], workload, relaxed).shape == (1,)

    def test_full_pool_matches_eval_relaxed(self):
        schema, data, workload = toy_instance(seed=12)
        relaxed = random_init(schema, 9, NoiseSource(1, "init"))
        conj = conjectured_answers(list(range(workload.m)), workload, relaxed)
        np.testing.assert_array_equal(conj, eval_relaxed(workload, relaxed))

    def test_partial_pool_matches_pool_only_evaluation(self):
        schema, data, workload = toy_instance(seed=14)
        relaxed = random_init(schema, 9, NoiseSource(2, "init"))
        pool = [7, 0, workload.m - 1, 3]
        full = QueryEvaluator(workload.queries, schema, relaxed.n)
        shared = conjectured_answers(pool, workload, relaxed, full)
        alone = eval_compiled([workload.queries[i] for i in pool], relaxed)
        assert np.array_equal(shared, alone)
        assert np.array_equal(conjectured_answers(pool, workload, relaxed), alone)

    def test_zero_rows_answer_zero(self):
        schema, _, workload = toy_instance(seed=15)
        relaxed = RelaxedDataset(schema, np.zeros((0, schema.d_prime)))
        conj = conjectured_answers([0, 2], workload, relaxed)
        assert np.array_equal(conj, np.zeros(2))

    def test_bad_index(self):
        _, data, workload = toy_instance(seed=13)
        relaxed = one_hot(data).as_relaxed()
        with pytest.raises(IndexError):
            conjectured_answers([workload.m], workload, relaxed)


class TestMeasurementBoundary:
    """Each draw of noise follows its own ledger entries, and only the boundary reaches the data."""

    @pytest.mark.parametrize("rounds, per_round", [(1, None), (3, 4), (4, 8)])
    @pytest.mark.parametrize("no_noise", [False, True])
    def test_every_draw_follows_its_own_ledger_entries(self, monkeypatch, rounds, per_round,
                                                       no_noise):
        _, data, workload = toy_instance(seed=21, marginals=2)  # m = 32: (4, 8) selects every query
        booked, draws = [], []  # draws: (mechanism, ledger length at the call, answers drawn for)
        spend, gaussian, noisy_max = (
            PrivacyBudget.spend, engine.gaussian_mechanism, engine.report_noisy_max
        )

        def recording_spend(budget, label, rho):
            spend(budget, label, rho)
            booked.extend([label] if isinstance(label, str) else label)

        def recording_gaussian(true_answer, *args):
            draws.append(("gaussian", len(booked), np.atleast_1d(true_answer).copy()))
            return gaussian(true_answer, *args)

        def recording_noisy_max(true_answers, *args):
            draws.append(("noisy_max", len(booked), None))
            return noisy_max(true_answers, *args)

        monkeypatch.setattr(PrivacyBudget, "spend", recording_spend)
        monkeypatch.setattr(engine, "gaussian_mechanism", recording_gaussian)
        monkeypatch.setattr(engine, "report_noisy_max", recording_noisy_max)
        config = FitConfig(epsilon=0.5, rounds=rounds, queries_per_round=per_round, n_synth=10,
                           seed=3, no_noise=no_noise, projection=ProjectionConfig(max_steps=5))
        result = fit(data, workload, config)

        assert booked == [label for label, _ in result.budget.ledger]
        truth = eval_discrete(workload, data)
        start, measured = 0, []
        for mechanism, length, answers in draws:
            own = booked[start:length]
            if mechanism == "noisy_max":
                assert len(own) == 1 and own[0].startswith("noisy_max[")
            else:
                qs = [int(label[len("gaussian[q="):-1]) for label in own]
                assert own == [f"gaussian[q={q}]" for q in qs] and len(qs) == answers.size
                np.testing.assert_array_equal(answers, truth[qs])
                measured += qs
            start = length
        assert start == len(booked) > 0
        assert measured == result.selected

    def test_overspend_raises_before_any_noise_is_drawn(self):
        _, data, workload = toy_instance(seed=22)
        private = engine._Measurements(data, workload, FitConfig(epsilon=1.0, seed=5), 1e-4)
        rho = private.budget.rho_total
        private.measure([0, 1], rho / 4)
        private.select([2, 3], np.zeros(2), rho / 4, "noisy_max[round=1,pick=0]")
        ledger = list(private.budget.ledger)
        states = [src._rng.bit_generator.state for src in (private._gaussian, private._gumbel)]
        with pytest.raises(BudgetError):
            private.measure([4], rho)
        with pytest.raises(BudgetError):
            private.select([4, 5], np.zeros(2), rho, "noisy_max[round=1,pick=1]")
        assert private.budget.ledger == ledger
        assert [src._rng.bit_generator.state for src in (private._gaussian, private._gumbel)] \
            == states

    def test_only_the_boundary_names_the_private_calls(self):
        tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
        guarded = {"eval_discrete", "gaussian_mechanism", "report_noisy_max"}

        def private_calls(nodes):
            return sorted(
                f"{getattr(node, 'id', '.spend')}:{node.lineno}" for node in nodes
                if isinstance(node, ast.Name) and node.id in guarded
                or isinstance(node, ast.Attribute) and node.attr == "spend"
            )

        boundary = [node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "_Measurements"]
        assert len(boundary) == 1
        inside = list(ast.walk(boundary[0]))
        assert {name.split(":")[0] for name in private_calls(inside)} == guarded | {".spend"}
        outside = [node for node in ast.walk(tree) if not any(node is n for n in inside)]
        assert private_calls(outside) == []


class TestExactLedger:
    """Every fit's ledger sums, in exact arithmetic, to at most its budget."""

    @staticmethod
    def check(result, calls):
        rho = result.budget.rho_total
        assert len(result.budget.ledger) == calls
        assert sum(Fraction(r) for _, r in result.budget.ledger) <= Fraction(rho)
        assert result.budget.spent() == pytest.approx(rho, rel=1e-15)
        return calls * Fraction(rho / calls) > Fraction(rho)  # would the naive share overspend?

    def test_criterion_04_grid_and_one_shot(self):
        schema = schema_from_cardinalities((4, 4, 4, 4, 4, 4))
        data = random_dataset(schema, 40, np.random.default_rng(1004))
        workload = all_k_way_workload(schema, (5,))  # m = 6144
        base = FitConfig(epsilon=1.0, delta=1.0 / 40**2, n_synth=8, seed=3,
                         projection=ProjectionConfig(max_steps=2))
        naive_overspends = 0
        for per_round in (5, 10, 25, 50, 100):
            for rounds in (2, 5, 10, 25, 50):
                config = replace(base, rounds=rounds, queries_per_round=per_round)
                naive_overspends += self.check(fit(data, workload, config), 2 * rounds * per_round)
        assert naive_overspends == 17
        assert self.check(fit(data, workload, base), workload.m)

    def test_adaptive_fit_of_a_400_row_table(self):
        _, data, workload = toy_instance(seed=23, n=400)
        config = FitConfig(epsilon=0.7, rounds=4, queries_per_round=5, n_synth=10, seed=1,
                           projection=ProjectionConfig(max_steps=5))
        result = fit(data, workload, config)
        assert result.budget.rho_total == 0.009934758719659422  # delta = 1/400^2
        assert self.check(result, 40)
        budget = result.to_json_dict()["budget"]
        assert budget["rho_spent"] <= budget["rho_total"]


class TestReproducibility:
    def test_identical_config_identical_json(self):
        _, data, workload = toy_instance(seed=14)
        config = FitConfig(
            epsilon=0.8, rounds=2, queries_per_round=3, n_synth=12, seed=6,
            projection=ProjectionConfig(max_steps=10),
        )
        a = fit(data, workload, config).to_json(include_timing=False)
        b = fit(data, workload, config).to_json(include_timing=False)
        assert a == b

    def test_seed_changes_output(self):
        _, data, workload = toy_instance(seed=15)
        mk = lambda s: FitConfig(
            epsilon=0.8, rounds=1, n_synth=12, seed=s, projection=ProjectionConfig(max_steps=10)
        )
        a = fit(data, workload, mk(1)).to_json(include_timing=False)
        b = fit(data, workload, mk(2)).to_json(include_timing=False)
        assert a != b

    def test_json_structure(self):
        _, data, workload = toy_instance(seed=16)
        config = FitConfig(no_noise=True, rounds=1, n_synth=8, projection=SMALL_PROJ)
        doc = json.loads(fit(data, workload, config).to_json())
        assert doc["budget"]["private"] is False
        assert doc["config"]["delta"] == 1.0 / data.n**2
        assert len(doc["ledger"]) == workload.m
        assert set(doc["config"]["projection"]) == {"learning_rate", "max_steps"}
        timing = {"wall_s", "projection_s", "gradient_s", "normalize_s", "adam_s"}
        assert set(doc["timing"]) == timing
        assert doc["rounds"][0]["selected_total"] == workload.m

    def test_round_record_keys(self):
        """Round records carry no value computed from the private data."""
        _, data, workload = toy_instance(seed=17)
        keys = {
            "round",
            "selected_total",
            "projection_initial_loss",
            "projection_loss",
            "projection_steps",
        }
        for rounds, per_round in ((1, None), (2, 3)):
            config = FitConfig(
                epsilon=0.8, rounds=rounds, queries_per_round=per_round, n_synth=8,
                projection=ProjectionConfig(max_steps=3),
            )
            doc = json.loads(fit(data, workload, config).to_json())
            assert len(doc["rounds"]) == rounds
            assert all(set(r) == keys for r in doc["rounds"])


class TestReplay:
    """The release is post-processing of the record: replay rebuilds it without the data."""

    @pytest.mark.parametrize("no_noise, seed", [
        pytest.param(False, 8, id="False"),
        pytest.param(True, 8, id="True"),
        pytest.param(False, None, id="unseeded"),  # noise from OS entropy, init from seed 0
    ])
    @pytest.mark.parametrize("kind", [PRODUCT, ONE_OUT_OF_K])
    @pytest.mark.parametrize("rounds, per_round", [(1, None), (3, 4)])
    def test_rebuilds_every_round(self, rounds, per_round, kind, no_noise, seed):
        schema = schema_from_cardinalities((3, 4, 2, 3))
        data = random_dataset(schema, 150, np.random.default_rng(21))
        workload = random_workload(schema, 2, 4, seed=21, kind=kind)
        config = FitConfig(
            epsilon=0.6, rounds=rounds, queries_per_round=per_round, n_synth=15, seed=seed,
            no_noise=no_noise, projection=ProjectionConfig(max_steps=12),
        )
        result = fit(data, workload, config)
        record = json.loads(result.to_json())
        datasets = replay(record, workload)
        assert len(datasets) == rounds
        assert datasets[-1].data.tobytes() == result.relaxed.data.tobytes()
        for relaxed, r in zip(datasets, record["rounds"]):
            upto = r["selected_total"]
            queries = workload.select(record["selected"][:upto])
            loss, _ = loss_and_gradient(queries, record["noisy_answers"][:upto], relaxed)
            assert loss == pytest.approx(r["projection_loss"], rel=1e-12)


def ks_statistic_vs_standard_normal(samples) -> float:
    """Kolmogorov-Smirnov distance between the samples' empirical CDF and N(0, 1)'s."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    k = np.arange(1, x.size + 1)
    return float(max((k / x.size - cdf).max(), (cdf - (k - 1) / x.size).max()))


class TestNoiseAudit:
    """Each released answer's noise has the sigma its ledger entry books."""

    @pytest.mark.parametrize("rounds, per_round", [(1, None), (4, 300)])
    def test_standardized_residuals_are_standard_normal(self, rounds, per_round):
        schema = schema_from_cardinalities((4, 4, 4, 4, 4, 4))
        data = random_dataset(schema, 300, np.random.default_rng(31))
        workload = all_k_way_workload(schema, (3,))  # C(6,3) * 4^3 = 1280 cells
        config = FitConfig(
            epsilon=1.0, rounds=rounds, queries_per_round=per_round, n_synth=8, seed=11,
            projection=ProjectionConfig(max_steps=1),
        )
        result = fit(data, workload, config)
        rho = {
            int(label[len("gaussian[q="):-1]): r
            for label, r in result.budget.ledger if label.startswith("gaussian[")
        }
        assert sorted(rho) == sorted(result.selected) and len(rho) >= 1000
        truth = eval_discrete(workload, data)
        residuals = [
            (noisy - truth[q]) / gaussian_noise_sigma(data.n, rho[q])
            for q, noisy in zip(result.selected, result.noisy_answers)
        ]
        critical = math.sqrt(-0.5 * math.log(0.01 / 2)) / math.sqrt(len(residuals))  # alpha 0.01
        assert ks_statistic_vs_standard_normal(residuals) < critical


class TestRelaxedCsv:
    @staticmethod
    def reference_save(relaxed, path):
        """The former per-element writer."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in relaxed.data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def test_bytes_match_reference(self, tmp_path):
        schema = schema_from_cardinalities((3, 4))
        data = np.random.default_rng(5).normal(size=(20, 7)) * 10.0 ** np.arange(-8, 13, 3)
        data[0] = [-0.0, 5e-324, 1e300, 0.1 + 0.2, -1e-300, 1.0, 0.0]
        data[1, :3] = [np.inf, -np.inf, np.nan]
        relaxed = RelaxedDataset(schema, data)
        save_relaxed_csv(relaxed, tmp_path / "new.csv")
        self.reference_save(relaxed, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = load_relaxed_csv(tmp_path / "new.csv", schema).data
        assert np.array_equal(back, data, equal_nan=True)
        assert np.signbit(back[0, 0])
