import csv
import errno
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import privsynth
from privsynth import (
    FitConfig, NoiseSource, Schema, Workload, eval_discrete, load_csv, normalize_rows, replay,
    save_csv, save_relaxed_csv,
)
from privsynth import engine
from privsynth.cli import build_parser, main
from privsynth.privacy import gaussian_noise_sigma

from helpers import skewed_dataset


@pytest.fixture
def toy_csv(tmp_path):
    data = skewed_dataset(200, seed=1, cards=(2, 3, 4))
    path = tmp_path / "toy.csv"
    save_csv(data, path)
    return path


def run(args):
    return main([str(a) for a in args])


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWorkloadCommand:
    def test_generates_and_prints_counts(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3,
                    "--seed", 7, "--out", out])
        assert code == 0
        assert "m=26" in capsys.readouterr().out
        assert out.exists()

    def test_same_flags_same_hash(self, toy_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 7, "--out", a])
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 7, "--out", b])
        assert file_hash(a) == file_hash(b)

    def test_arity_too_large_is_usage_error(self, toy_csv, tmp_path):
        code = run(["workload", "--data", toy_csv, "--k", 9, "--marginals", 1,
                    "--out", tmp_path / "w.json"])
        assert code == 2

    def test_arity_above_eight_within_schema_is_usage_error(self, tmp_path, capsys):
        sch = tmp_path / "wide.schema.json"
        privsynth.schema_from_cardinalities((2,) * 10).save(sch)
        out = tmp_path / "w.json"
        assert run(["workload", "--schema", sch, "--k", 9, "--marginals", 1, "--out", out]) == 2
        assert "marginal arity above 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d, k", [(5, 2), (30, 8)])  # enumerated, rejection-sampled
    def test_negative_marginal_count_is_usage_error(self, tmp_path, capsys, d, k):
        sch = tmp_path / "s.schema.json"
        privsynth.schema_from_cardinalities((2,) * d).save(sch)
        out = tmp_path / "w.json"
        assert run(["workload", "--schema", sch, "--k", k, "--marginals", -1, "--out", out]) == 2
        assert "requested -1 marginals" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_marginals_is_usage_error(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 0,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--marginals 0 gives an empty workload" in err and "Traceback" not in err
        assert not out.exists() and not out.with_suffix(".schema.json").exists()

    def test_non_utf8_data_exit_code(self, toy_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(toy_csv.read_bytes() + b"\xff,0,0\n")
        capsys.readouterr()
        code = run(["workload", "--data", bad, "--k", 2, "--marginals", 1,
                    "--out", tmp_path / "w.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.csv" in err and "not valid UTF-8" in err and "Traceback" not in err

    def test_given_schema_does_not_read_data(self, toy_csv, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--seed", 3,
                    "--out", ref]) == 0
        sch = ref.with_suffix(".schema.json")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe,not,a table\n")
        outputs = []
        for data in (toy_csv, bad):
            out = tmp_path / data.stem / "w.json"
            out.parent.mkdir()
            capsys.readouterr()
            assert run(["workload", "--data", data, "--schema", sch, "--k", 2,
                        "--marginals", 2, "--seed", 3, "--out", out]) == 0
            assert capsys.readouterr().err == ""
            outputs.append([out.read_bytes(), out.with_suffix(".schema.json").read_bytes()])
        assert outputs[0] == outputs[1]
        assert outputs[0] == [ref.read_bytes(), sch.read_bytes()]

    def test_schema_without_data(self, toy_csv, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--seed", 3,
                    "--out", ref]) == 0
        sch = ref.with_suffix(".schema.json")
        out = tmp_path / "alone" / "w.json"
        out.parent.mkdir()
        capsys.readouterr()
        assert run(["workload", "--schema", sch, "--k", 2, "--marginals", 2, "--seed", 3,
                    "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == ref.read_bytes()
        assert out.with_suffix(".schema.json").read_bytes() == sch.read_bytes()

    def test_neither_schema_nor_data_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run(["workload", "--k", 2, "--marginals", 2, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--schema" in err and "--data" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "eval", "sweep"])
    def test_other_commands_still_require_data(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command])
        assert exc.value.code == 2
        assert "--data" in capsys.readouterr().err


@pytest.fixture
def fitted(toy_csv, tmp_path):
    wpath = tmp_path / "w.json"
    run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 7, "--out", wpath])
    out_dir = tmp_path / "fit1"
    code = run(["fit", "--data", toy_csv, "--workload", wpath, "--epsilon", 1,
                "--delta", "auto", "--T", 1, "--n-prime", 20, "--seed", 1,
                "--max-steps", 15, "--out-dir", out_dir])
    assert code == 0
    return toy_csv, wpath, out_dir


class TestFitCommand:
    def test_delta_auto_echoed_numerically(self, toy_csv, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--seed", 0,
             "--out", wpath])
        run(["fit", "--data", toy_csv, "--workload", wpath, "--delta", "auto",
             "--n-prime", 8, "--max-steps", 5, "--out-dir", tmp_path / "d"])
        assert f"delta={1.0 / 200**2}" in capsys.readouterr().out

    def test_seeded_summary_names_the_noise(self, toy_csv, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--out", wpath])
        capsys.readouterr()
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--seed", 4, "--n-prime", 8,
                    "--max-steps", 5, "--out-dir", tmp_path / "s"]) == 0
        out = capsys.readouterr().out
        assert "noise=seeded-reproducible-non-private" in out
        assert "private=True" not in out

    def test_infinite_epsilon_is_usage_error(self, toy_csv, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--out", wpath])
        capsys.readouterr()
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--epsilon", "inf",
                    "--out-dir", tmp_path / "inf"]) == 2
        err = capsys.readouterr().err
        assert "epsilon must be finite" in err and "ledger" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--learning-rate", "inf"], "learning_rate must be finite and > 0, got inf"),
        (["--epsilon", "1e-300"], "epsilon 1e-300 at delta 2.5e-05 gives rho 0.0"),
    ])
    def test_unusable_setting_fails_before_the_fit(self, toy_csv, tmp_path, capsys, flags,
                                                   message):
        wpath, out_dir = tmp_path / "w.json", tmp_path / "out"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--out", wpath])
        capsys.readouterr()
        assert run(["fit", "--data", toy_csv, "--workload", wpath, *flags, "--n-prime", 8,
                    "--max-steps", 5, "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_delta_float_recorded(self, toy_csv, tmp_path):
        wpath, out_dir = write_workload(toy_csv, tmp_path / "w.json"), tmp_path / "out"
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--delta", "1e-5",
                    "--n-prime", 8, "--max-steps", 5, "--seed", 0, "--out-dir", out_dir]) == 0
        text = (out_dir / "result.json").read_text()
        assert '"delta":1e-05' in text and json.loads(text)["config"]["delta"] == 1e-05

    def test_delta_not_a_float_is_usage_error(self, toy_csv, tmp_path, capsys):
        wpath, out_dir = write_workload(toy_csv, tmp_path / "w.json"), tmp_path / "out"
        capsys.readouterr()
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--delta", "abc",
                    "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert "delta must be a float or \"auto\", got 'abc'" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_one_row_table_needs_a_delta(self, tmp_path, capsys):
        """On one row the default delta 1/n^2 is 1: exit 3 naming the row count, before config:."""
        one, wpath = one_row_table(tmp_path)
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert run(["fit", "--data", one, "--workload", wpath, "--seed", 0,
                    "--out-dir", out_dir]) == 3
        captured = capsys.readouterr()
        assert "private table has 1 row" in captured.err and "--delta" in captured.err
        assert "config:" not in captured.out and not out_dir.exists()
        assert run(["fit", "--data", one, "--workload", wpath, "--seed", 0, "--delta", "1e-3",
                    "--n-prime", 4, "--max-steps", 5, "--out-dir", out_dir]) == 0
        assert json.loads((out_dir / "result.json").read_text())["config"]["delta"] == 1e-3

    def test_writes_outputs_and_ledger(self, fitted):
        _, _, out_dir = fitted
        doc = json.loads((out_dir / "result.json").read_text())
        assert len(doc["ledger"]) == 26  # one Gaussian call per query
        shares = {e["rho"] for e in doc["ledger"]}
        assert len(shares) == 1
        assert doc["config"]["delta"] == 1.0 / 200**2
        assert (out_dir / "relaxed.csv").exists()
        assert (out_dir / "schema.json").exists()

    def test_no_noise_marked_non_private(self, toy_csv, tmp_path):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--seed", 0,
             "--out", wpath])
        out_dir = tmp_path / "nn"
        code = run(["fit", "--data", toy_csv, "--workload", wpath, "--no-noise",
                    "--n-prime", 10, "--max-steps", 10, "--out-dir", out_dir])
        assert code == 0
        doc = json.loads((out_dir / "result.json").read_text())
        assert doc["budget"]["private"] is False
        assert doc["budget"]["rho_spent"] == 0.0
        assert doc["noise"] == "none"

    def test_no_noise_result_is_strict_json(self, toy_csv, tmp_path):
        """No NaN or Infinity: the non-private budget's infinities are written as null."""
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--seed", 0,
             "--out", wpath])
        out_dir = tmp_path / "nn"
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--no-noise",
                    "--n-prime", 10, "--max-steps", 10, "--out-dir", out_dir]) == 0

        def reject(constant):
            raise AssertionError(f"result.json holds {constant}")

        doc = json.loads((out_dir / "result.json").read_text(), parse_constant=reject)
        assert doc["budget"]["epsilon"] is None and doc["budget"]["rho_total"] is None
        assert doc["budget"]["rho_spent"] == 0.0

    def test_adaptive_ledger_split(self, toy_csv, tmp_path):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 3, "--marginals", 1, "--seed", 0,
             "--out", wpath])  # single 3-way marginal: m = 24
        out_dir = tmp_path / "adapt"
        code = run(["fit", "--data", toy_csv, "--workload", wpath, "--epsilon", 0.1,
                    "--T", 5, "--K", 2, "--n-prime", 10, "--max-steps", 5,
                    "--out-dir", out_dir])
        assert code == 0
        doc = json.loads((out_dir / "result.json").read_text())
        assert len(doc["ledger"]) == 20  # 2 spends per pick x 5 rounds x 2 picks
        rho = doc["budget"]["rho_total"]
        assert all(e["rho"] == pytest.approx(rho / 20, abs=1e-18) for e in doc["ledger"])

    def test_infeasible_config_exit_code(self, toy_csv, tmp_path):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 1, "--seed", 0,
             "--out", wpath])
        code = run(["fit", "--data", toy_csv, "--workload", wpath, "--T", 10, "--K", 10,
                    "--out-dir", tmp_path / "x"])
        assert code == 4

    def test_missing_data_exit_code(self, tmp_path):
        code = run(["fit", "--data", tmp_path / "ghost.csv", "--workload", tmp_path / "w.json",
                    "--out-dir", tmp_path / "x"])
        assert code == 3

    def test_empty_table_exit_code(self, toy_csv, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 1, "--seed", 0,
             "--out", wpath])
        empty = tmp_path / "empty.csv"
        empty.write_text(toy_csv.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        code = run(["fit", "--data", empty, "--schema", wpath.with_suffix(".schema.json"),
                    "--workload", wpath, "--out-dir", tmp_path / "x"])
        assert code == 3
        err = capsys.readouterr().err
        assert "no rows" in err and "Traceback" not in err

    @pytest.mark.parametrize("empty_arg", ["--data", "--synth"])
    def test_eval_empty_table_exit_code(self, fitted, tmp_path, capsys, empty_arg):
        toy_csv, wpath, _ = fitted
        empty = tmp_path / "empty.csv"
        empty.write_text(toy_csv.read_text().splitlines()[0] + "\n")
        files = {"--data": toy_csv, "--synth": toy_csv, empty_arg: empty}
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = run(["eval", "--schema", wpath.with_suffix(".schema.json"), "--workload", wpath,
                    *(arg for pair in files.items() for arg in pair), "--out", report])
        assert code == 3
        err = capsys.readouterr().err
        assert "has no rows" in err and "Traceback" not in err
        assert not report.exists()

    def test_rerun_byte_identical_without_timing(self, fitted, tmp_path):
        toy_csv, wpath, out_dir = fitted
        out2 = tmp_path / "fit2"
        run(["fit", "--data", toy_csv, "--workload", wpath, "--epsilon", 1,
             "--delta", "auto", "--T", 1, "--n-prime", 20, "--seed", 1,
             "--max-steps", 15, "--out-dir", out2])
        strip = lambda p: {
            k: v for k, v in json.loads((p / "result.json").read_text()).items() if k != "timing"
        }
        assert strip(out_dir) == strip(out2)
        assert file_hash(out_dir / "relaxed.csv") == file_hash(out2 / "relaxed.csv")


    def test_adaptive_trace_keeps_every_round(self, toy_csv, tmp_path):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 0,
             "--out", wpath])
        out_dir = tmp_path / "adapt"
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--T", 3, "--K", 2,
                    "--n-prime", 10, "--max-steps", 4, "--out-dir", out_dir]) == 0
        rounds = json.loads((out_dir / "result.json").read_text())["rounds"]
        # The round,step,loss rows README derives from the record.
        rows = [(r["round"], step, loss)
                for r in rounds for step, loss in enumerate(r["projection_losses"])]
        assert [r["round"] for r in rounds] == [1, 2, 3]
        for record in rounds:
            mine = [row for row in rows if row[0] == record["round"]]
            assert [row[1] for row in mine] == list(range(record["projection_steps"] + 1))
            losses = [row[2] for row in mine]
            assert all(type(loss) is float for loss in losses)
            assert losses[0] == record["projection_initial_loss"]
            assert min(losses) == record["projection_loss"]
        assert len(rows) == sum(r["projection_steps"] + 1 for r in rounds)

    @pytest.mark.parametrize("kind", ["product", "one-out-of-k"])
    @pytest.mark.parametrize("rounds", [[], ["--T", 3, "--K", 2]])
    def test_record_holds_each_round_trajectory(self, toy_csv, tmp_path, monkeypatch, kind,
                                                rounds):
        wpath, out_dir = tmp_path / "w.json", tmp_path / "fit"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 0,
             "--kind", kind, "--out", wpath])
        assert run(["fit", "--data", toy_csv, "--workload", wpath, *rounds, "--n-prime", 10,
                    "--max-steps", 6, "--seed", 2, "--out-dir", out_dir]) == 0
        record = json.loads((out_dir / "result.json").read_text())
        for r in record["rounds"]:
            losses = r["projection_losses"]
            assert len(losses) == r["projection_steps"] + 1
            assert losses[0] == r["projection_initial_loss"]
            assert min(losses) == r["projection_loss"]
        # Replay from the released files alone redoes every projection's trajectory.
        projections = []

        def recording(*args):
            projections.append(privsynth.relaxed_projection(*args))
            return projections[-1]

        monkeypatch.setattr(privsynth.engine, "relaxed_projection", recording)
        replay(record, Workload.load(Schema.load(out_dir / "schema.json"), wpath))
        assert [p.losses for p in projections] == [r["projection_losses"] for r in record["rounds"]]

    @pytest.mark.parametrize("learning_rate", ["1e200", "1e308"])
    def test_diverging_learning_rate_keeps_the_start(self, toy_csv, tmp_path, learning_rate):
        wpath, out_dir = tmp_path / "w.json", tmp_path / "fit"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 0,
             "--out", wpath])
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--n-prime", 10,
                    "--max-steps", 5, "--seed", 2, "--learning-rate", learning_rate,
                    "--out-dir", out_dir]) == 0
        # Every step overshoots: none beats the entry loss, and the best iterate is the start.
        record = json.loads((out_dir / "result.json").read_text())
        (only,) = record["rounds"]
        assert only["projection_loss"] == only["projection_losses"][0]
        workload = Workload.load(Schema.load(out_dir / "schema.json"), wpath)
        start = engine._start(workload, FitConfig(n_synth=10, seed=2), record["start"],
                              record["noisy_answers"])
        save_relaxed_csv(normalize_rows(start), tmp_path / "start.csv")  # the entry pass
        assert (out_dir / "relaxed.csv").read_bytes() == (tmp_path / "start.csv").read_bytes()

    @pytest.mark.parametrize("rounds", [[], ["--T", 3, "--K", 2]])
    def test_replay_rebuilds_relaxed_csv(self, toy_csv, tmp_path, rounds):
        wpath, out_dir = tmp_path / "w.json", tmp_path / "fit"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 0,
             "--out", wpath])
        assert run(["fit", "--data", toy_csv, "--workload", wpath, *rounds, "--n-prime", 10,
                    "--max-steps", 6, "--seed", 2, "--out-dir", out_dir]) == 0
        # Only released files: the record, the workload and the schema.
        record = json.loads((out_dir / "result.json").read_text())
        workload = Workload.load(Schema.load(out_dir / "schema.json"), wpath)
        save_relaxed_csv(replay(record, workload)[-1], tmp_path / "replayed.csv")
        assert (tmp_path / "replayed.csv").read_bytes() == (out_dir / "relaxed.csv").read_bytes()


class TestNegativeSeed:
    """A negative --seed is a usage error that names the seed, before any output is written."""

    @pytest.mark.parametrize("command", ["workload", "fit", "round"])
    def test_negative_seed_is_usage_error(self, fitted, tmp_path, capsys, command):
        toy_csv, wpath, out_dir = fitted
        out = tmp_path / "out"
        argv = {
            "workload": ["workload", "--data", toy_csv, "--k", 2, "--marginals", 1,
                         "--out", out],
            "fit": ["fit", "--data", toy_csv, "--workload", wpath, "--n-prime", 8,
                    "--max-steps", 5, "--out-dir", out],
            "round": ["round", "--relaxed", out_dir / "relaxed.csv",
                      "--schema", out_dir / "schema.json", "--out", out],
        }[command]
        capsys.readouterr()
        assert run([*argv, "--seed", -1]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer, got -1" in err and "Traceback" not in err
        assert not out.exists()


class TestConfigFile:
    def fit_with_config(self, fitted, tmp_path, config, name="cfg"):
        toy_csv, wpath, _ = fitted
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / name
        code = run(["fit", "--data", toy_csv, "--workload", wpath, "--config", cfg,
                    "--out-dir", out_dir])
        return code, out_dir

    def test_result_config_round_trips(self, fitted, tmp_path):
        _, _, out_dir = fitted
        config = json.loads((out_dir / "result.json").read_text())["config"]
        code, again = self.fit_with_config(fitted, tmp_path, config)
        assert code == 0
        first, second = (json.loads((d / "result.json").read_text()) for d in (out_dir, again))
        assert second["config"] == config
        assert second["ledger"] == first["ledger"]
        assert file_hash(again / "relaxed.csv") == file_hash(out_dir / "relaxed.csv")

    @pytest.mark.parametrize("config, key", [
        ({"max_step": 3}, "max_step"),
        ({"projection": {"max_step": 3}}, "projection.max_step"),
        ({"projection": {"normalization": {"mode": "clip"}}}, "projection.normalization"),
    ])
    def test_unknown_key_is_usage_error(self, fitted, tmp_path, capsys, config, key):
        capsys.readouterr()
        assert self.fit_with_config(fitted, tmp_path, config)[0] == 2
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("config, key", [
        ({"rounds": "3"}, "rounds"),
        ({"epsilon": True}, "epsilon"),
        ({"no_noise": 1}, "no_noise"),
        ({"delta": "soon"}, "delta"),
        ({"projection": 5}, "projection"),
        ({"projection": {"max_steps": 2.5}}, "projection.max_steps"),
        ({"delta": "0.001"}, "delta"),  # only "auto" is taken as a string
    ])
    def test_wrong_type_is_usage_error(self, fitted, tmp_path, capsys, config, key):
        capsys.readouterr()
        assert self.fit_with_config(fitted, tmp_path, config)[0] == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_delta_auto_accepted(self, fitted, tmp_path, capsys):
        config = {"delta": "auto", "n_synth": 8, "projection": {"max_steps": 5}}
        code, out_dir = self.fit_with_config(fitted, tmp_path, config)
        assert code == 0
        assert f"delta={1.0 / 200**2} " in capsys.readouterr().out
        assert json.loads((out_dir / "result.json").read_text())["config"]["delta"] == 1.0 / 200**2

    def test_flags_override_file(self, fitted, tmp_path, capsys):
        toy_csv, wpath, _ = fitted
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_synth": 8, "projection": {"max_steps": 5}}))
        code = run(["fit", "--data", toy_csv, "--workload", wpath, "--config", cfg,
                    "--max-steps", 3, "--out-dir", tmp_path / "o"])
        assert code == 0
        assert (
            "n_synth=8 seed=None no_noise=False projection.learning_rate=0.001 "
            "projection.max_steps=3"
        ) in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["fit", "--workload", "w.json", "--normalization", "clip"],
        ["sweep", "--axis", "epsilon", "--values", "1", "--trace", "t.csv"],
        ["fit", "--workload", "w.json", "--trace", "t.csv"],
        ["workload", "--k", "1", "--marginals", "1", "--dump-compiled"],
        *(["sweep", "--workload", "w.json", "--axis", "epsilon", "--values", "1", flag, value]
          for flag, value in [("--k", "2"), ("--marginals", "3"), ("--workload-seed", "4"),
                              ("--kind", "product")]),
        ["eval", "--workload", "w.json", "--synth", "s.csv", "--synth-format", "relaxed"],
        *(["sweep", "--workload", "w.json", "--axis", "epsilon", "--values", "1", *flag]
          for flag in [("--epsilon", "1"), ("--delta", "auto"), ("--T", "1"), ("--K", "2"),
                       ("--n-prime", "10"), ("--seed", "0"), ("--no-noise",),
                       ("--max-steps", "5"), ("--learning-rate", "0.1")]),
    ])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run([argv[0], "--data", "d.csv", *argv[1:]])
        assert exc.value.code == 2


class TestRoundAndEvalCommands:
    def test_round_row_count(self, fitted, tmp_path):
        _, _, out_dir = fitted
        synth = tmp_path / "synthetic.csv"
        code = run(["round", "--relaxed", out_dir / "relaxed.csv",
                    "--schema", out_dir / "schema.json", "--oversample", 5,
                    "--seed", 3, "--out", synth])
        assert code == 0
        with synth.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 20 * 5  # header + n_prime * oversample

    def test_eval_identity_is_zero(self, fitted, tmp_path):
        toy_csv, wpath, _ = fitted
        report = tmp_path / "report.json"
        code = run(["eval", "--data", toy_csv, "--workload", wpath, "--synth", toy_csv,
                    "--out", report])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["max_error"] == 0.0
        assert doc["naive_baseline"] > 0

    def test_eval_relaxed_format(self, fitted, tmp_path):
        toy_csv, wpath, out_dir = fitted
        report = tmp_path / "rr.json"
        code = run(["eval", "--data", toy_csv, "--workload", wpath,
                    "--synth", out_dir / "relaxed.csv", "--out", report])
        assert code == 0
        assert json.loads(report.read_text())["m"] == 26

    def test_eval_report_is_tagged_and_compact(self, fitted, tmp_path):
        toy_csv, wpath, out_dir = fitted
        report = tmp_path / "report.json"
        assert run(["eval", "--data", toy_csv, "--workload", wpath,
                    "--synth", out_dir / "relaxed.csv", "--out", report]) == 0
        text = report.read_text()
        assert json.loads(text)["privacy"] == "non-private"
        assert text.count("\n") == 1 and text.endswith("\n")

    def test_eval_wrong_header_names_the_schema_header(self, fitted, tmp_path, capsys):
        """A labelled CSV whose header is not the schema's is refused as a relaxed matrix too."""
        toy_csv, wpath, _ = fitted
        header, *rows = toy_csv.read_text().splitlines(keepends=True)
        bad = tmp_path / "renamed.csv"
        bad.write_text("".join(["x" + header, *rows]))
        names = Schema.load(wpath.with_suffix(".schema.json")).feature_names()
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["eval", "--data", toy_csv, "--workload", wpath, "--synth", bad,
                    "--out", report]) == 3
        err = capsys.readouterr().err
        assert f"schema error: {bad}: " in err and f"the header {names}" in err
        assert "Traceback" not in err and not report.exists()

    @pytest.mark.parametrize("command", ["round", "eval"])
    def test_non_finite_relaxed_input_exit_code(self, fitted, tmp_path, capsys, command):
        toy_csv, wpath, out_dir = fitted
        lines = (out_dir / "relaxed.csv").read_text().splitlines()
        lines[3] = ",".join(["nan"] + lines[3].split(",")[1:])
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = {
            "round": ["round", "--relaxed", bad, "--schema", out_dir / "schema.json",
                      "--out", out],
            "eval": ["eval", "--data", toy_csv, "--workload", wpath, "--synth", bad,
                     "--out", out],
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "non-finite value nan at row 3, column 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_mass_block_exit_code(self, fitted, tmp_path, capsys):
        _, _, out_dir = fitted
        lines = (out_dir / "relaxed.csv").read_text().splitlines()
        lines[0] = ",".join(["0.0", "0.0"] + lines[0].split(",")[2:])  # feature 0 has 2 categories
        bad = tmp_path / "zero.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run(["round", "--relaxed", bad, "--schema", out_dir / "schema.json",
                    "--out", out]) == 3
        err = capsys.readouterr().err
        assert "feature 0 has a zero-mass block" in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_empty_workload_is_usage_error(self, fitted, tmp_path, capsys):
        toy_csv, wpath, _ = fitted
        schema_path = wpath.with_suffix(".schema.json")
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"kind": "product", "k": None, "seed": None, "marginals": []}))
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["eval", "--data", toy_csv, "--schema", schema_path, "--workload", empty,
                    "--synth", toy_csv, "--out", report]) == 2
        err = capsys.readouterr().err
        assert "the workload is empty" in err and "Traceback" not in err
        assert not report.exists()

    def test_zero_oversample_is_usage_error(self, fitted, tmp_path):
        _, _, out_dir = fitted
        assert run(["round", "--relaxed", out_dir / "relaxed.csv",
                    "--schema", out_dir / "schema.json", "--oversample", 0,
                    "--out", tmp_path / "out.csv"]) == 2

    @pytest.mark.parametrize("command", ["round", "eval"])
    def test_empty_relaxed_file_exit_code(self, fitted, tmp_path, command):
        """An empty or malformed relaxed file is a data error that names the file."""
        toy_csv, wpath, out_dir = fitted
        first, second, *rest = (out_dir / "relaxed.csv").read_text().splitlines(keepends=True)
        cells = second.split(",")
        contents = {
            "empty.csv": ("", "no rows"),
            "cell.csv": ("".join([first, ",".join(["abc", *cells[1:]]), *rest]), "'abc'"),
            "short.csv": ("".join([first, ",".join(cells[:-1]) + "\n", *rest]), "columns"),
        }
        # A child process, so that a numpy warning would reach its stderr.
        env = {**os.environ, "PYTHONPATH": str(Path(privsynth.__file__).parents[1])}
        for name, (text, message) in contents.items():
            bad = tmp_path / name
            bad.write_text(text)
            argv = {
                "round": ["round", "--relaxed", bad, "--schema", out_dir / "schema.json"],
                "eval": ["eval", "--data", toy_csv, "--workload", wpath, "--synth", bad],
            }[command]
            proc = subprocess.run(
                [sys.executable, "-m", "privsynth.cli", *map(str, argv), "--out", tmp_path / "out"],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 3, (name, proc.stderr)
            assert f"schema error: {bad}: " in proc.stderr and message in proc.stderr
            assert "UserWarning" not in proc.stderr and "Traceback" not in proc.stderr
            assert not (tmp_path / "out").exists()


def write_workload(toy_csv, path, *flags):
    """Write `privsynth workload --k 2 --marginals 2` (flags override them) to `path`."""
    assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, *flags,
                "--out", path]) == 0
    return path


def one_row_table(tmp_path):
    """A CSV of one row, `f0,f1` / `0,1`, and a one-marginal workload of arity 1 on it."""
    one, wpath = tmp_path / "one.csv", tmp_path / "w1.json"
    one.write_text("f0,f1\n0,1\n")
    assert run(["workload", "--data", one, "--k", 1, "--marginals", 1, "--out", wpath]) == 0
    return one, wpath


def write_config(path, n_synth=10, max_steps=10, **keys):
    """A --config file for a small, fast fit; `keys` adds or overrides top-level keys."""
    path.write_text(json.dumps({"n_synth": n_synth, "projection": {"max_steps": max_steps},
                                **keys}))
    return path


class TestSweepCommand:
    def test_row_counts_and_best_table(self, toy_csv, tmp_path):
        wpath = write_workload(toy_csv, tmp_path / "w.json")
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path / "c.json")
        before = set(tmp_path.iterdir())
        code = run(["sweep", "--data", toy_csv, "--workload", wpath, "--axis", "epsilon",
                    "--values", "0.1,1.0", "--seeds", 2, "--config", cfg, "--out", out])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 values x 2 seeds x 1 grid point
        assert all(r["status"] == "ok" and r["privacy"] == "non-private" for r in rows)
        assert set(tmp_path.iterdir()) - before == {out}
        # README's best-row view: the least max_error per (axis, value, seed), from sweep.csv.
        best = {}
        for r in rows:
            key = (r["axis"], r["value"], r["seed"])
            if r["status"] == "ok" and (
                key not in best or float(r["max_error"]) < float(best[key]["max_error"])
            ):
                best[key] = r
        assert len(best) == 4 and all(r["privacy"] == "non-private" for r in best.values())

    def test_bad_workload_axis_value_is_error_rows(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        save_csv(skewed_dataset(60, seed=2, cards=(2, 2, 2, 2)), data)
        wpath = write_workload(data, tmp_path / "w.json", "--k", 3)
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path / "c.json", n_synth=5, max_steps=2)
        assert run(["sweep", "--data", data, "--workload", wpath, "--axis", "workload",
                    "--values", "2,99", "--seeds", 1, "--config", cfg, "--out", out]) == 0
        assert "2 rows (1 failed, all non-private)" in capsys.readouterr().out
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == [
            "ok", "error: requested 99 marginals; from 1 to 4 exist"
        ]

    def _rows(self, toy_csv, tmp_path, name, workload=(), **config):
        wpath = write_workload(toy_csv, tmp_path / f"{name}.json", *workload)
        cfg = write_config(tmp_path / f"{name}.config.json", **config)
        out = tmp_path / f"{name}.csv"
        assert run(["sweep", "--data", toy_csv, "--workload", wpath, "--axis", "epsilon",
                    "--values", "1", "--seeds", 2, "--config", cfg, "--out", out]) == 0
        with out.open() as fh:
            return [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(fh)]

    def test_seed_offsets_the_seed_range(self, toy_csv, tmp_path):
        default = self._rows(toy_csv, tmp_path, "default")
        assert [r["seed"] for r in default] == ["0", "1"]
        assert self._rows(toy_csv, tmp_path, "zero", seed=0) == default
        assert self._rows(toy_csv, tmp_path, "null", seed=None) == default
        five = self._rows(toy_csv, tmp_path, "five", seed=5)
        nine = self._rows(toy_csv, tmp_path, "nine", seed=9)
        assert [r["seed"] for r in five] == ["5", "6"]
        assert [r["seed"] for r in nine] == ["9", "10"]
        assert [r["max_error"] for r in five] != [r["max_error"] for r in nine]

    @pytest.mark.parametrize("kind", ["product", "one-out-of-k"])
    def test_workload_axis_draws_the_files_arity_kind_and_seed(self, toy_csv, tmp_path, kind):
        """Value 3 on the workload axis fits what `workload --marginals 3` writes."""
        flags = ("--seed", 4, "--kind", kind)
        wpath = write_workload(toy_csv, tmp_path / "w1.json", "--marginals", 1, *flags)
        out = tmp_path / "axis.csv"
        cfg = write_config(tmp_path / "c.json")
        assert run(["sweep", "--data", toy_csv, "--workload", wpath, "--axis", "workload",
                    "--values", 3, "--seeds", 2, "--config", cfg, "--out", out]) == 0
        with out.open() as fh:
            drawn = [(r["seed"], r["max_error"]) for r in csv.DictReader(fh)]
        given = self._rows(toy_csv, tmp_path, "w3", workload=("--marginals", 3, *flags))
        assert drawn == [(r["seed"], r["max_error"]) for r in given]
        flip = {"product": "one-out-of-k", "one-out-of-k": "product"}[kind]
        other = self._rows(toy_csv, tmp_path, "w3o", workload=("--marginals", 3, "--kind", flip))
        assert [r["max_error"] for r in other] != [e for _, e in drawn]

    @pytest.mark.parametrize("doc", [
        {"kind": "product", "marginals": [[0, 1], [1, 2]]},  # no seed
        {"kind": "product", "marginals": [[0], [1, 2]], "seed": 0},  # mixed arities
    ])
    def test_workload_axis_needs_one_arity_and_a_seed(self, toy_csv, tmp_path, capsys, doc):
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", max_steps=5)
        argv = ["sweep", "--data", toy_csv, "--workload", wpath, "--values", 1, "--seeds", 1,
                "--config", cfg, "--out", tmp_path / "sweep.csv"]
        capsys.readouterr()
        assert run([*argv, "--axis", "workload"]) == 2
        assert "needs a workload of one arity with a seed" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
        assert run([*argv, "--axis", "epsilon"]) == 0
        assert "1 rows (0 failed, all non-private)" in capsys.readouterr().out

    def test_echoes_the_resolved_base_config(self, toy_csv, tmp_path, capsys):
        wpath = write_workload(toy_csv, tmp_path / "w.json")
        cfg = write_config(tmp_path / "c.json", n_synth=7, max_steps=3, seed=4, delta="auto")
        capsys.readouterr()
        assert run(["sweep", "--data", toy_csv, "--workload", wpath, "--axis", "epsilon",
                    "--values", 1, "--seeds", 2, "--config", cfg,
                    "--out", tmp_path / "sweep.csv"]) == 0
        [line] = [x for x in capsys.readouterr().out.splitlines() if x.startswith("config: ")]
        assert f" delta={1.0 / 200**2} " in line
        assert " n_synth=7 seed=4 " in line and " projection.max_steps=3 " in line
        assert line.endswith(" seeds=4..5")

    @pytest.mark.parametrize("flags, named", [
        (["--config", "bad.json", "--values", "1"], "n_synth"),
        (["--values", "abc"], "'abc'"),
        (["--values", "1", "--grid-T", "1,x"], "'x'"),
    ])
    def test_bad_config_or_flag_fails_before_loading(self, toy_csv, tmp_path, capsys,
                                                     monkeypatch, flags, named):
        """A bad config, --values or grid exits 2 before the private table is read."""
        wpath = write_workload(toy_csv, tmp_path / "w.json")
        write_config(tmp_path / "bad.json", n_synth="ten")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(privsynth.schema, "load_csv", lambda *a, **k: pytest.fail("loaded"))
        capsys.readouterr()
        assert run(["sweep", "--data", toy_csv, "--workload", wpath, "--axis", "epsilon",
                    *flags, "--out", "sweep.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "warning" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_table_exit_code(self, toy_csv, tmp_path, capsys):
        wpath = write_workload(toy_csv, tmp_path / "w.json")
        empty = tmp_path / "empty.csv"
        empty.write_text(toy_csv.read_text().splitlines()[0] + "\n")
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert run(["sweep", "--data", empty, "--schema", wpath.with_suffix(".schema.json"),
                    "--workload", wpath, "--axis", "epsilon", "--values", 1,
                    "--out", out]) == 3
        assert "no rows" in capsys.readouterr().err and not out.exists()

    def test_one_row_table_needs_a_delta(self, tmp_path, capsys):
        """No error row per cell: exit 3 before config:, and a config's delta still sweeps."""
        one, wpath = one_row_table(tmp_path)
        out = tmp_path / "sweep.csv"
        flags = ["--axis", "epsilon", "--values", "1,2", "--seeds", 1, "--out", out]
        capsys.readouterr()
        assert run(["sweep", "--data", one, "--workload", wpath, *flags]) == 3
        captured = capsys.readouterr()
        assert "private table has 1 row" in captured.err and "--delta" in captured.err
        assert "config:" not in captured.out and not out.exists()
        cfg = write_config(tmp_path / "c.json", delta=1e-3)
        assert run(["sweep", "--data", one, "--workload", wpath, "--config", cfg, *flags]) == 0
        with out.open() as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["ok", "ok"]

    def test_cell_is_fit_then_eval(self, toy_csv, tmp_path):
        """Each cell's max_error is what `fit --config <file> --seed s` then `eval` report."""
        wpath = write_workload(toy_csv, tmp_path / "w.json")
        cfg = write_config(tmp_path / "c.json", seed=3, epsilon=0.5)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--data", toy_csv, "--workload", wpath, "--axis", "epsilon",
                    "--values", 0.5, "--seeds", 2, "--config", cfg, "--out", out]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["3", "4"]
        for row in rows:
            fit_dir, report = tmp_path / f"fit{row['seed']}", tmp_path / f"{row['seed']}.json"
            assert run(["fit", "--data", toy_csv, "--workload", wpath, "--config", cfg,
                        "--seed", row["seed"], "--out-dir", fit_dir]) == 0
            assert run(["eval", "--data", toy_csv, "--workload", wpath,
                        "--synth", fit_dir / "relaxed.csv", "--out", report]) == 0
            assert float(row["max_error"]) == json.loads(report.read_text())["max_error"]


class TestNoiseSecrecy:
    """A default fit's record cannot regenerate its noise; a seeded fit's is labelled as able to."""

    @pytest.fixture(autouse=True)
    def workload(self, toy_csv, tmp_path, capsys):
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 3, "--seed", 0,
             "--out", tmp_path / "w.json"])
        capsys.readouterr()  # the inferred-domain warning; fits below pass --schema

    def fit(self, toy_csv, tmp_path, name, *extra):
        wpath = tmp_path / "w.json"
        out_dir = tmp_path / name
        assert run(["fit", "--data", toy_csv, "--schema", wpath.with_suffix(".schema.json"),
                    "--workload", wpath, "--n-prime", 10, "--max-steps", 3, *extra,
                    "--out-dir", out_dir]) == 0
        return json.loads((out_dir / "result.json").read_text())

    @staticmethod
    def recovery_error(toy_csv, tmp_path, record):
        """Recovered minus true answers, regenerating the noise as seed 0 would have drawn it."""
        sch = Schema.load(tmp_path / "w.schema.json")
        truth = eval_discrete(Workload.load(sch, tmp_path / "w.json"), load_csv(toy_csv, sch))
        sigma = gaussian_noise_sigma(200, record["ledger"][0]["rho"])
        noise = NoiseSource(0, "gaussian").normal(sigma, size=len(truth))
        return np.asarray(record["noisy_answers"]) - noise - truth, sigma

    def test_default_fit_draws_fresh_noise(self, toy_csv, tmp_path, capsys):
        first = self.fit(toy_csv, tmp_path, "a")
        second = self.fit(toy_csv, tmp_path, "b")
        assert capsys.readouterr().err == ""
        assert first["config"]["seed"] is None and first["noise"] == "os-entropy"
        assert first["noisy_answers"] != second["noisy_answers"]
        error, sigma = self.recovery_error(toy_csv, tmp_path, first)
        assert float(np.std(error)) > 0.5 * sigma  # the gap of two independent draws: ~1.4 sigma

    def test_seeded_fit_is_labelled_and_warned(self, toy_csv, tmp_path, capsys):
        record = self.fit(toy_csv, tmp_path, "seeded", "--seed", 0)
        warning = capsys.readouterr().err.splitlines()
        assert len(warning) == 1 and "--seed" in warning[0]
        assert "not differentially private" in warning[0]
        assert record["config"]["seed"] == 0
        assert record["noise"] == "seeded-reproducible-non-private"
        error, _ = self.recovery_error(toy_csv, tmp_path, record)
        assert float(np.abs(error).max()) < 1e-12  # what the label warns of


class TestSchemaSource:
    def test_inferred_domain_labelled_non_private(self, toy_csv, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--seed", 0,
                    "--out", wpath]) == 0
        warning = capsys.readouterr().err.splitlines()
        assert len(warning) == 1
        assert "inferred from the private data" in warning[0]
        assert "not differentially private" in warning[0]
        out_dir = tmp_path / "fit"
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--n-prime", 8,
                    "--max-steps", 5, "--out-dir", out_dir]) == 0
        assert capsys.readouterr().err.splitlines() == warning
        doc = json.loads((out_dir / "result.json").read_text())
        assert doc["schema_source"] == "inferred-non-private"

    def test_given_schema(self, toy_csv, tmp_path, capsys):
        wpath = tmp_path / "w.json"
        run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--seed", 0,
             "--out", wpath])
        capsys.readouterr()
        out_dir = tmp_path / "fit"
        assert run(["fit", "--data", toy_csv, "--schema", wpath.with_suffix(".schema.json"),
                    "--workload", wpath, "--n-prime", 8, "--max-steps", 5,
                    "--out-dir", out_dir]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((out_dir / "result.json").read_text())
        assert doc["schema_source"] == "given"


MALFORMED_WORKLOADS = [
    [],
    {"kind": "product"},
    {"marginals": [[0, 1]]},
    {"kind": "product", "marginals": 5},
    {"kind": "product", "marginals": [[0, 1.7]]},
    {"kind": "product", "marginals": [[True, 2]]},
]
MALFORMED_SCHEMAS = [
    [{"name": "f0"}],
    {"f0": 1},
    [{"name": "f0", "categories": [0, 1, 2]}],
    [{"name": "f0", "categories": "012"}],
]


class TestOversizedCsvField:
    def test_field_over_the_csv_limit_is_a_data_error(self, toy_csv, tmp_path, capsys):
        """A cell longer than csv.field_size_limit() exits 3 naming the file and its line."""
        good = tmp_path / "w.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--out", good]) == 0
        lines = toy_csv.read_text().splitlines(keepends=True)
        lines[2] = "x" * 200_000 + lines[2][lines[2].index(","):]
        bad = tmp_path / "long.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "out"
        for argv in (
            ["workload", "--data", bad, "--k", 2, "--marginals", 2, "--out", out / "w.json"],
            ["fit", "--data", bad, "--workload", good, "--seed", 0, "--out-dir", out],
            ["eval", "--data", bad, "--workload", good, "--synth", toy_csv,
             "--out", out / "report.json"],
            ["eval", "--data", toy_csv, "--workload", good, "--synth", bad,
             "--out", out / "report.json"],
        ):
            capsys.readouterr()
            assert run(argv) == 3, argv
            err = capsys.readouterr().err
            assert f"schema error: {bad}: line 3: field larger than field limit" in err, argv
            assert "Traceback" not in err and not out.exists()


class TestMalformedJsonInput:
    """A workload or schema file of the wrong JSON shape exits with its code and names the file."""

    @pytest.mark.parametrize(
        "kind, doc",
        [("workload", w) for w in MALFORMED_WORKLOADS] + [("schema", s) for s in MALFORMED_SCHEMAS],
    )
    def test_exit_code_names_file(self, toy_csv, tmp_path, capsys, kind, doc):
        good = tmp_path / "w.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--out", good]) == 0
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text(json.dumps(doc))
        if kind == "workload":
            argvs = [["fit", "--data", toy_csv, "--workload", bad, "--seed", 0,
                      "--out-dir", tmp_path / "out"]]
            code, prefix = 2, "error: "
        else:
            argvs = [
                ["workload", "--schema", bad, "--k", 1, "--marginals", 1,
                 "--out", tmp_path / "out" / "w.json"],
                ["fit", "--data", toy_csv, "--schema", bad, "--workload", good, "--seed", 0,
                 "--out-dir", tmp_path / "out"],
                ["eval", "--data", toy_csv, "--schema", bad, "--workload", good,
                 "--synth", toy_csv, "--out", tmp_path / "out" / "report.json"],
            ]
            code, prefix = 3, "schema error: "
        for argv in argvs:
            capsys.readouterr()
            assert run(argv) == code, argv[0]
            assert f"{prefix}{bad}: " in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["4", 1.5, -1, True, [4]])
    def test_bad_workload_seed_names_file(self, toy_csv, tmp_path, capsys, seed):
        bad = tmp_path / "bad_workload.json"
        bad.write_text(json.dumps({"kind": "product", "marginals": [[0, 1]], "seed": seed}))
        for argv in (
            ["fit", "--data", toy_csv, "--workload", bad, "--seed", 0,
             "--out-dir", tmp_path / "out"],
            ["sweep", "--data", toy_csv, "--workload", bad, "--axis", "workload",
             "--values", 1, "--out", tmp_path / "out" / "sweep.csv"],
        ):
            capsys.readouterr()
            assert run(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"error: {bad}: " in err and '"seed"' in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "product", "marginals": []}, "the workload is empty"),
        ({"kind": "product", "k": 3, "marginals": [[0, 1]]}, '"k" is 3 '),
        ({"kind": "product", "k": 2, "marginals": [[0], [1, 2]]}, '"k" is 2 '),
        ({"kind": "product", "k": True, "marginals": [[0]]}, '"k" is True '),
        ({"kind": "product", "k": 2.0, "marginals": [[0, 1]]}, '"k" is 2.0 '),
    ])
    def test_empty_workload_or_wrong_k_names_file(self, toy_csv, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad_workload.json"
        bad.write_text(json.dumps(doc))
        for argv in (
            ["fit", "--data", toy_csv, "--workload", bad, "--seed", 0,
             "--out-dir", tmp_path / "out"],
            ["sweep", "--data", toy_csv, "--workload", bad, "--axis", "epsilon",
             "--values", 1, "--out", tmp_path / "out" / "sweep.csv"],
        ):
            capsys.readouterr()
            assert run(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"error: {bad}: " in err and message in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("marginals, message", [
        ([[0, 10]], "feature index 10 out of range"),
        ([[-1]], "feature index -1 out of range"),
        ([[0, 3, 0]], "marginal (0, 3, 0) has repeated features"),
        ([[0], []], "query must touch at least one column"),
        ([list(range(9))], "marginal arity above 8 is not supported"),
    ])
    def test_workload_constructor_fault_names_file(self, tmp_path, capsys, marginals, message):
        """On a 10-feature table each fault exits 2 when the file is read, before `config:`."""
        data = tmp_path / "ten.csv"
        save_csv(skewed_dataset(40, seed=3, cards=(2,) * 10), data)
        bad = tmp_path / "bad_workload.json"
        bad.write_text(json.dumps({"kind": "product", "marginals": marginals}))
        out = tmp_path / "out"
        for argv in (
            ["fit", "--data", data, "--workload", bad, "--seed", 0, "--out-dir", out],
            ["eval", "--data", data, "--workload", bad, "--synth", data,
             "--out", out / "report.json"],
            ["sweep", "--data", data, "--workload", bad, "--axis", "epsilon", "--values", 1,
             "--out", out / "sweep.csv"],
        ):
            capsys.readouterr()
            assert run(argv) == 2, argv[0]
            printed, err = capsys.readouterr()
            assert f"error: {bad}: {message}" in err and "Traceback" not in err
            assert "config:" not in printed
            assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ([{"name": "f0", "categories": []}], "feature 'f0' has no categories"),
        ([{"name": "f0", "categories": ["a", "a"]}], "feature 'f0' has duplicate categories"),
        ([{"name": "f0", "categories": ["a"]}, {"name": "f0", "categories": ["b"]}],
         "duplicate feature names"),
        ([], "schema has no features"),
    ])
    def test_schema_constructor_fault_names_file(self, toy_csv, tmp_path, capsys, doc, message):
        good = tmp_path / "w.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--out", good]) == 0
        bad = tmp_path / "bad_schema.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for argv in (
            ["workload", "--schema", bad, "--k", 1, "--marginals", 1, "--out", out / "w.json"],
            ["fit", "--data", toy_csv, "--schema", bad, "--workload", good, "--seed", 0,
             "--out-dir", out],
            ["eval", "--data", toy_csv, "--schema", bad, "--workload", good,
             "--synth", toy_csv, "--out", out / "report.json"],
            ["sweep", "--data", toy_csv, "--schema", bad, "--workload", good,
             "--axis", "epsilon", "--values", 1, "--out", out / "sweep.csv"],
            ["round", "--relaxed", toy_csv, "--schema", bad, "--out", out / "synthetic.csv"],
        ):
            capsys.readouterr()
            assert run(argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert f"schema error: {bad}: {message}" in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("kind, code, prefix", [
        ("schema", 3, "schema error: "),
        ("workload", 2, "error: "),
        ("config", 2, "error: "),
    ])
    def test_truncated_json_names_file(self, toy_csv, tmp_path, capsys, kind, code, prefix):
        good = tmp_path / "w.json"
        assert run(["workload", "--data", toy_csv, "--k", 2, "--marginals", 2, "--out", good]) == 0
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text('[{"name":\n')
        argv = {
            "schema": ["workload", "--schema", bad, "--k", 1, "--marginals", 1,
                       "--out", tmp_path / "out" / "w.json"],
            "workload": ["fit", "--data", toy_csv, "--workload", bad, "--seed", 0,
                         "--out-dir", tmp_path / "out"],
            "config": ["fit", "--data", toy_csv, "--workload", good, "--config", bad,
                       "--out-dir", tmp_path / "out"],
        }[kind]
        capsys.readouterr()
        assert run(argv) == code
        assert f"{prefix}{bad}: not a UTF-8 JSON file: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOutputPathErrors:
    @pytest.mark.parametrize("case", [
        "fit --out-dir <file>", "workload --out <dir>", "eval --out <dir>", "eval --data <dir>",
    ])
    def test_os_error_exits_3_with_message(self, fitted, tmp_path, capsys, case):
        toy_csv, wpath, _ = fitted
        argv = {
            "fit --out-dir <file>": ["fit", "--data", toy_csv, "--workload", wpath,
                                     "--n-prime", 5, "--max-steps", 2, "--out-dir", toy_csv],
            "workload --out <dir>": ["workload", "--data", toy_csv, "--k", 1, "--marginals", 1,
                                     "--out", tmp_path],
            "eval --out <dir>": ["eval", "--data", toy_csv, "--workload", wpath,
                                 "--synth", toy_csv, "--out", tmp_path],
            "eval --data <dir>": ["eval", "--data", tmp_path, "--workload", wpath,
                                  "--synth", toy_csv, "--out", tmp_path / "report.json"],
        }[case]
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: [Errno ")

    @pytest.mark.parametrize("under_file", [False, True])
    def test_fit_out_dir_file_fails_before_loading(self, fitted, capsys, monkeypatch, under_file):
        """A file as --out-dir, or as its parent, exits 3 before the data is read or fit."""
        toy_csv, wpath, _ = fitted
        before = toy_csv.read_bytes()
        monkeypatch.setattr(privsynth.schema, "load_csv", lambda *a, **k: pytest.fail("loaded"))
        monkeypatch.setattr(privsynth.engine, "fit", lambda *a, **k: pytest.fail("fit ran"))
        out_dir = toy_csv / "out" if under_file else toy_csv
        capsys.readouterr()
        assert run(["fit", "--data", toy_csv, "--workload", wpath, "--out-dir", out_dir]) == 3
        message = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{toy_csv}'"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert toy_csv.read_bytes() == before


class TestOutOfMemory:
    """An allocation that fails exits 3 with one line, no traceback and no output file."""

    @pytest.mark.parametrize("command", ["fit", "round"])
    def test_memory_error_exits_3(self, fitted, tmp_path, capsys, monkeypatch, command):
        toy_csv, wpath, out_dir = fitted
        argv, method = {
            # fit --n-prime 100000000000: random_init's uniform(-1, 1) matrix
            "fit": (["fit", "--data", toy_csv, "--workload", wpath, "--n-prime", 5,
                     "--max-steps", 2, "--seed", 0, "--out-dir", tmp_path / "out"],
                    "uniform_signed"),
            # round --oversample 1000000000: the rounding uniforms
            "round": (["round", "--relaxed", out_dir / "relaxed.csv",
                       "--schema", out_dir / "schema.json", "--out", tmp_path / "out"],
                      "uniform"),
        }[command]

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.55 TiB for an array")

        monkeypatch.setattr(privsynth.privacy.NoiseSource, method, out_of_memory)
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "error: input too large for memory: Unable to allocate 6.55 TiB for an array"
        )
        assert not (tmp_path / "out").exists()


def readme_commands() -> list[list[str]]:
    """Every `privsynth …` command in README's bash blocks, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("privsynth "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"workload", "fit", "round", "eval", "sweep"}
    for argv in commands:
        build_parser().parse_args(argv)
