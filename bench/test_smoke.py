"""Seconds-long smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

It runs every workload's pipeline on a tiny table, shows that each
correctness check fires on a deliberately broken output, that the
benchmark's own relaxed error agrees with the program's evaluation, that
tracing sees every layer and restores the program afterwards, and that run.py
prints exactly the metrics BENCHMARK.json declares, and still prints a result
line when every repetition fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import relaxed_hash, run_checks  # noqa: E402
from privsynth.privacy import _CAP_SLACK  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

TINY = {name: workloads.tiny(spec) for name, spec in workloads.WORKLOADS.items()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One good repetition of each tiny workload: (spec, outputs)."""
    out = {}
    for name, spec in TINY.items():
        paths = workloads.write_inputs(spec, 3, tmp_path_factory.mktemp(name))
        out[name] = (spec, workloads.run_once(spec, paths).outputs)
    return out


def failing(spec, out, reference=None) -> list[str]:
    return [name for name, ok, _ in run_checks(out, spec, _CAP_SLACK, reference) if not ok]


def test_good_outputs_pass_every_check(outputs):
    for spec, out in outputs.values():
        assert failing(spec, out, relaxed_hash(out.relaxed)) == []


def test_same_seed_same_relaxed_hash(tmp_path):
    spec = TINY["adaptive"]
    paths = workloads.write_inputs(spec, 5, tmp_path)
    first, second = (workloads.run_once(spec, paths).outputs for _ in range(2))
    assert relaxed_hash(first.relaxed) == relaxed_hash(second.relaxed)


@pytest.mark.parametrize("workload", ["oneshot", "adaptive"])
def test_relaxed_error_matches_program_evaluation(tmp_path, workload):
    from privsynth import evaluation, queries, schema

    spec = TINY[workload]
    paths = workloads.write_inputs(spec, 4, tmp_path)
    relaxed = workloads.run_once(spec, paths).outputs.relaxed
    sch = schema.Schema.load(paths.schema)
    wl = queries.random_workload(sch, spec.k, spec.marginals, spec.workload_seed)
    data = schema.load_csv(paths.private, sch)
    want = evaluation.max_error(wl, data, schema.RelaxedDataset(sch, relaxed)).max_error
    got = workloads.RelaxedError(spec, 4, paths.schema)(relaxed)
    assert got == pytest.approx(want, abs=1e-12) and got > 0.0


def _break(out, **changes):
    return dataclasses.replace(out, **changes)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_each_check_fires_on_broken_output(outputs, workload):
    spec, out = outputs[workload]
    ledger = list(out.ledger)
    moved = ledger[:-2] + [ledger[-2] + ledger[-1]]  # same total, one entry short
    relaxed = out.relaxed.copy()
    relaxed[0, 0] += 1e-6
    rounded = out.rounded.copy()
    rounded[0, -1] = spec.cards[-1]
    broken = {
        "ledger_total": _break(out, ledger=[2.0 * ledger[0]] + ledger[1:]),
        "ledger_entries": _break(out, ledger=moved),
        "relaxed_on_simplex": _break(out, relaxed=relaxed),
        "rounded_in_range": _break(out, rounded=rounded),
        "rounded_rows": _break(out, rounded=out.rounded[:-1]),
        "max_error_vs_naive": _break(out, max_error=out.naive_baseline + 0.01),
    }
    if spec.via_cli:
        broken["cli_exit_codes"] = _break(out, exit_codes=[0, 4, 0, 0])
    for check, bad in broken.items():
        assert failing(spec, bad, relaxed_hash(bad.relaxed)) == [check]
    assert failing(spec, out, relaxed_hash(relaxed)) == ["relaxed_hash_stable"]


def test_tracing_sees_every_layer_and_restores(tmp_path):
    import privsynth.engine
    import privsynth.queries

    spec = TINY["cli-large-n"]
    paths = workloads.write_inputs(spec, 1, tmp_path)
    fit, grad = privsynth.engine.fit, privsynth.queries.QueryEvaluator.loss_and_gradient
    tracer = Tracer()
    with tracer.recording(0):
        workloads.run_once(spec, paths)
    assert privsynth.engine.fit is fit
    assert privsynth.queries.QueryEvaluator.loss_and_gradient is grad
    table = tracer.layers(0)
    assert set(table) == {name for name, _, _ in LAYERS}
    assert all(row["calls"] > 0 and row["self_s"] >= 0.0 for row in table.values()), table
    wall = max(s[2] for s in tracer.spans) - min(s[1] for s in tracer.spans)
    assert sum(row["self_s"] for row in table.values()) <= wall + 1e-9
    steps, best = tracer.projection_counts(0)
    assert steps == spec.rounds * spec.max_steps and 0 <= best <= steps


def test_self_time_subtracts_child_coverage():
    from tracing import self_coverage

    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 3.0, 6.0, 0, 0)]
    assert self_coverage(spans) == [5.0, 0.0, 0.0]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_declared_metrics(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "cli-large-n", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_when_every_repetition_fails(monkeypatch, capsys, tmp_path, trace):
    def broken(spec, paths):
        raise RuntimeError("fit failed")

    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(workloads, "run_once", broken)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "adaptive", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    # Every repetition failed; the one other operation is the error measure's set-up.
    assert result["failed"] == run.MIN_REPS + trace == result["attempted"] - 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oneshot", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert compare.verdict(parent, [8.0, 8.1, 7.9, 8.0, 8.2], 0.1, True) == "better"
    assert compare.verdict(parent, [12.0, 12.1, 11.9, 12.0, 12.2], 0.1, True) == "worse"
    assert compare.verdict(parent, [10.1, 10.0, 10.2, 9.9, 10.0], 0.1, True) == "within-bound"
    assert compare.verdict(parent, [6.0, 14.0, 9.0, 12.0, 10.0], 0.1, True) == "unresolved"
    assert compare.verdict([3.0] * 3, [3.0] * 3, None, True) == "within-bound"
    assert np.isclose(compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)
