import numpy as np
import pytest

from privsynth import (
    DiscreteDataset,
    FitConfig,
    ProjectionConfig,
    RelaxedDataset,
    SchemaError,
    SweepSpec,
    Workload,
    WorkloadError,
    best_of_grid,
    eval_discrete,
    max_error,
    run_sweep,
    schema_from_cardinalities,
)
from privsynth.evaluation import SWEEP_COLUMNS, sweep_rows_to_csv

from helpers import random_dataset, skewed_dataset


class TestMaxError:
    def test_identity_has_zero_error(self):
        rng = np.random.default_rng(0)
        s = schema_from_cardinalities((3, 3))
        data = random_dataset(s, 40, rng)
        w = Workload(s, [(0, 1)])
        report = max_error(w, data, data)
        assert report.max_error == 0.0
        assert report.mean_error == 0.0
        assert report.m == w.m

    def test_zero_answering_synth_hits_naive_baseline(self):
        rng = np.random.default_rng(1)
        s = schema_from_cardinalities((2, 4))
        data = random_dataset(s, 25, rng)
        w = Workload(s, [(0, 1)])
        silent = RelaxedDataset(s, np.zeros((5, s.d_prime)))
        report = max_error(w, data, silent)
        truth = eval_discrete(w, data)
        assert report.naive_baseline == truth.max()
        assert report.max_error == report.naive_baseline

    def test_hand_arithmetic(self):
        s = schema_from_cardinalities((4,))
        data = DiscreteDataset(s, np.array([[0], [0], [1], [2]]))
        w = Workload(s, [(0,)])
        synth = RelaxedDataset(s, np.array([[0.4, 0.25, 0.25, 0.1]]))
        report = max_error(w, data, synth)
        assert report.max_error == pytest.approx(0.1)
        assert report.mean_error == pytest.approx(0.05)

    def test_discrete_and_relaxed_paths_agree_on_one_hot(self):
        from privsynth import one_hot

        rng = np.random.default_rng(2)
        s = schema_from_cardinalities((3, 2, 4))
        data = random_dataset(s, 30, rng)
        synth = random_dataset(s, 18, rng)
        w = Workload(s, [(0, 2), (1,)])
        via_discrete = max_error(w, data, synth)
        via_relaxed = max_error(w, data, one_hot(synth).as_relaxed())
        assert via_discrete.max_error == via_relaxed.max_error
        assert np.array_equal(via_discrete.per_query, via_relaxed.per_query)

    @pytest.mark.parametrize("empty", ["data", "synth", "relaxed synth"])
    def test_empty_table_rejected(self, empty):
        s = schema_from_cardinalities((2, 3))
        rows = DiscreteDataset(s, np.array([[0, 1], [1, 2]]))
        tables = {
            "data": (DiscreteDataset(s, np.zeros((0, 2), np.int64)), rows),
            "synth": (rows, DiscreteDataset(s, np.zeros((0, 2), np.int64))),
            "relaxed synth": (rows, RelaxedDataset(s, np.zeros((0, s.d_prime)))),
        }
        data, synth = tables[empty]
        which = "private" if empty == "data" else "synthetic"
        with pytest.raises(SchemaError, match=f"the {which} table has no rows"):
            max_error(Workload(s, [(0, 1)]), data, synth)

    def test_rejects_unknown_synth_type(self):
        s = schema_from_cardinalities((2,))
        data = DiscreteDataset(s, np.array([[0]]))
        with pytest.raises(TypeError):
            max_error(Workload(s, [(0,)]), data, np.zeros((1, 2)))


FAST_FIT = FitConfig(n_synth=16, projection=ProjectionConfig(max_steps=10))


class TestRunSweep:
    def test_epsilon_axis_row_count(self):
        data = skewed_dataset(100, seed=3, cards=(3, 3, 3))
        spec = SweepSpec(
            axis="epsilon", values=(0.1, 1.0), seeds=(0,), workload_k=2, workload_marginals=2
        )
        rows = run_sweep(data, spec, FAST_FIT)
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)
        assert [r["value"] for r in rows] == [0.1, 1.0]
        assert all(r["max_error"] is not None for r in rows)

    def test_grid_crossing_and_best(self):
        data = skewed_dataset(100, seed=4, cards=(3, 3, 3))
        spec = SweepSpec(
            axis="epsilon", values=(0.5,), seeds=(0, 1), workload_k=2, workload_marginals=3,
            grid_rounds=(1, 2), grid_queries_per_round=(3,),
        )
        rows = run_sweep(data, spec, FAST_FIT)
        assert len(rows) == 4  # 1 value x 2 seeds x 2 grid points
        best = best_of_grid(rows)
        assert len(best) == 2  # one winner per (value, seed)
        assert all(b["selection"] == "non-privately selected" for b in best)
        for b in best:
            group = [r for r in rows if r["seed"] == b["seed"] and r["status"] == "ok"]
            assert b["max_error"] == min(r["max_error"] for r in group)

    def test_workload_axis_regenerates(self):
        data = skewed_dataset(80, seed=5, cards=(3, 3, 3, 3))
        spec = SweepSpec(
            axis="workload", values=(1, 3), seeds=(0,), workload_k=2, workload_marginals=1
        )
        rows = run_sweep(data, spec, FAST_FIT)
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_workload_axis_infeasible_value_raises(self):
        data = skewed_dataset(50, seed=6, cards=(3, 3))
        spec = SweepSpec(axis="workload", values=(99,), seeds=(0,), workload_k=2)
        with pytest.raises(WorkloadError):
            run_sweep(data, spec, FAST_FIT)

    def test_failed_cells_recorded_not_dropped(self):
        data = skewed_dataset(60, seed=7, cards=(3, 3))
        # rounds * queries_per_round exceeds m=9 -> infeasible fit, error row
        spec = SweepSpec(
            axis="epsilon", values=(0.5,), seeds=(0,), workload_k=2, workload_marginals=1,
            grid_rounds=(5,), grid_queries_per_round=(5,),
        )
        rows = run_sweep(data, spec, FAST_FIT)
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error:")
        assert rows[0]["max_error"] is None

    @pytest.mark.parametrize(
        "axis, values, grid_rounds, grid_k, statuses",
        [
            ("n_synth", (5, 0, 6), None, None, ["ok", "error", "ok"]),  # n' = 0
            ("epsilon", (0.5,), (1, 2), None, ["ok", "error"]),  # T = 2 without K
            ("epsilon", (0.5,), (2,), (1, 0), ["ok", "error"]),  # K = 0
        ],
    )
    def test_invalid_config_recorded_as_error_row(
        self, axis, values, grid_rounds, grid_k, statuses
    ):
        data = skewed_dataset(60, seed=12, cards=(3, 3, 3))
        spec = SweepSpec(
            axis=axis, values=values, seeds=(0,), workload_k=2, workload_marginals=2,
            grid_rounds=grid_rounds, grid_queries_per_round=grid_k,
        )
        rows = run_sweep(data, spec, FAST_FIT)
        assert [r["status"].split(":")[0] for r in rows] == statuses
        failed = rows[statuses.index("error")]
        assert failed["max_error"] is None and failed["wall_ms"] >= 0
        if axis == "n_synth":
            assert [r["n_prime"] for r in rows] == list(values)
        assert len(best_of_grid(rows)) == statuses.count("ok")  # one per (value, seed)

    def test_n_synth_axis_and_timing_presence(self):
        data = skewed_dataset(60, seed=8, cards=(3, 3, 3))
        spec = SweepSpec(
            axis="n_synth", values=(8, 16), seeds=(0,), workload_k=2, workload_marginals=2
        )
        rows = run_sweep(data, spec, FAST_FIT)
        assert [r["n_prime"] for r in rows] == [8, 16]
        assert all(r["wall_ms"] > 0 for r in rows)

    def test_deterministic_apart_from_timing(self):
        data = skewed_dataset(70, seed=9, cards=(3, 3, 3))
        spec = SweepSpec(
            axis="epsilon", values=(0.3,), seeds=(0, 1), workload_k=2, workload_marginals=2
        )
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(run_sweep(data, spec, FAST_FIT)) == strip(run_sweep(data, spec, FAST_FIT))

    def test_oversample_axis(self):
        data = skewed_dataset(60, seed=10, cards=(3, 3, 3))
        spec = SweepSpec(
            axis="oversample", values=(1, 5), seeds=(0,), workload_k=2, workload_marginals=2
        )
        rows = run_sweep(data, spec, FAST_FIT)
        assert [r["status"] for r in rows] == ["ok", "ok"]

    def test_csv_round_trip(self, tmp_path):
        data = skewed_dataset(50, seed=11, cards=(3, 3))
        spec = SweepSpec(
            axis="epsilon", values=(0.5,), seeds=(0,), workload_k=2, workload_marginals=1
        )
        rows = run_sweep(data, spec, FAST_FIT)
        out = tmp_path / "sweep.csv"
        sweep_rows_to_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2
