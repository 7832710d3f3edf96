"""privsynth benchmark: one workload, one client, a closed loop in one process.

    python3 bench/run.py --workload oneshot --seed 1 --seconds 40 --trace 0

Workloads (defined, with the reason each exists, in bench/workloads.py):
oneshot, adaptive and cli-large-n. The private table is generated from
--seed and written as CSV before any timing starts; the program only sees
that CSV. The loop repeats "CSV on disk -> released CSV plus its utility
report" until the next repetition would end after --seconds and at least
three repetitions (four with tracing) are done. It checks every repetition's
outputs, measures the relaxed output's error itself, and prints each metric
with its mean, median, quartiles and sample count. A metric's value in the
result line is its mean over the run's repetitions, that is the time a phase
took over the whole run divided by the repetitions: the host switches between
a fast and a slow speed for seconds to minutes at a time, and with a handful
of repetitions per run the mean varies less from run to run than the median.
BLAS runs on one thread.

With --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json.
With --trace 1, repetitions alternate untraced and traced; traced ones record
a span around every call into a program layer (bench/tracing.py) and give the
per-layer metrics, and the tracing overhead is the traced minus the untraced
mean total_s.

The last stdout line is one JSON object: correct, attempted, failed and
metrics; a metric with no samples, because every repetition failed, is left
out and correct is false. The full record (machine, per-repetition samples,
checks, every layer) goes to bench/out/runs/, and with tracing the spans as
CSV beside it.
bench/series.py runs many seeds into a result set; bench/compare.py compares
two result sets against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REPS = 3  # untraced run; a traced run needs two untraced and two traced
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def one_blas_thread() -> int:
    """Run BLAS on one thread and return the usable cores; must run before numpy is imported.

    The client is one thread. A second BLAS thread spins between calls, on a
    core the host shares with others: runs took 1.5 times the CPU time.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def machine_record(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def summary(values) -> dict:
    from compare import quartiles

    q1, median, q3 = quartiles(values)
    return {"mean": statistics.mean(values), "median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(spec, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the closed loop and return the full record of this run."""
    import workloads
    from checks import relaxed_hash, run_checks
    from privsynth.privacy import _CAP_SLACK
    from tracing import LAYERS, Tracer

    paths = workloads.write_inputs(spec, seed, work)
    attempted = failed = 0
    errors, failed_checks, reps = [], [], []
    tracer = Tracer() if trace else None
    ref_hash = None

    def attempt(fn, *args):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted, reported and survived
            failed += 1
            errors.append(traceback.format_exc())
            return None

    relaxed_error = attempt(workloads.RelaxedError, spec, seed, paths.schema)
    started = time.perf_counter()
    i, last = 0, 0.0
    # Stop before a repetition that would overrun --seconds, once enough are done.
    while i < MIN_REPS + trace or time.perf_counter() - started + last <= seconds:
        rep_start = time.perf_counter()
        traced = trace and i % 2 == 1
        with tracer.recording(i) if traced else nullcontext():
            rep = attempt(workloads.run_once, spec, paths)
        if rep is not None:
            out = rep.outputs
            checks = run_checks(out, spec, _CAP_SLACK, ref_hash)
            ref_hash = ref_hash or relaxed_hash(out.relaxed)
            attempted += len(checks)
            for name, ok, detail in checks:
                if not ok:
                    failed += 1
                    failed_checks.append({"rep": i, "check": name, "detail": detail})
            row = {"rep": i, "traced": traced, **rep.timings, "max_error": out.max_error}
            # Measured by the benchmark, outside the timed phases and the trace.
            if relaxed_error is not None:
                row["relaxed_max_error"] = attempt(relaxed_error, out.relaxed)
            if traced:
                row["layers"] = tracer.layers(i)
                row["steps"], row["best_steps"] = tracer.projection_counts(i)
            reps.append(row)
        i += 1
        last = time.perf_counter() - rep_start

    # A metric with no samples (every repetition failed) is left out.
    stats = {}
    plain = [r for r in reps if not r["traced"]]
    for key in ("setup_s", "fit_s", "eval_s", "total_s", "max_error", "relaxed_max_error"):
        samples = [r[key] for r in plain if r.get(key) is not None]
        if samples:
            stats[key] = summary(samples)
    stats["peak_rss_mb"] = summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])

    traced_reps = [r for r in reps if r["traced"]]
    if traced_reps:
        for layer, _, _ in LAYERS:
            for field in ("calls", "self_s"):
                stats[f"{layer}.{field}"] = summary([r["layers"][layer][field] for r in traced_reps])
        stats["projection.steps"] = summary([r["steps"] for r in traced_reps])
        stats["projection.useful_step_ratio"] = summary(
            [r["best_steps"] / max(1, r["steps"]) for r in traced_reps]
        )
        if "total_s" in stats:
            stats["trace.overhead_s"] = summary(
                [statistics.mean(r["total_s"] for r in traced_reps) - stats["total_s"]["mean"]]
            )
    if trace:
        tracer.write(OUT / "runs" / f"{spec.name}-seed{seed}-trace1-spans.csv")

    return {
        "workload": spec.name,
        "why": spec.why,
        "spec": {k: v for k, v in vars(spec).items() if k != "why"},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "relaxed_hash": ref_hash,
        "reps": reps,
        "stats": stats,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "errors": errors,
    }


def result_line(record: dict, declared: list[dict]) -> dict:
    """The last stdout line: the metrics BENCHMARK.json declares, each that has samples."""
    stats = record["stats"]
    return {
        "correct": record["failed"] == 0 and all(m["name"] in stats for m in declared),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": stats[m["name"]]["mean"], "unit": m["unit"]}
            for m in declared
            if m["name"] in stats
        },
    }


def print_report(record: dict, units: dict) -> None:
    m = record["machine"]
    print(
        f"machine: python {m['python']}, numpy {m['numpy']}, {m['blas']} {m['blas_version']}, "
        f"nproc {m['nproc']}, threads {m['threads']}"
    )
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: {record['why']}")
    print(f"{'metric':40s} {'mean':>14s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}  unit")
    for name, s in record["stats"].items():
        print(
            f"{name:40s} {s['mean']:14.6g} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['n']:4d}  "
            f"{units.get(name, '')}"
        )
    rate = record["failed"] / max(1, record["attempted"])
    print(
        f"error_rate {rate:.6g} ({record['failed']} failed of {record['attempted']} attempted); "
        f"relaxed hash {str(record['relaxed_hash'])[:16]}"
    )
    for fc in record["failed_checks"]:
        print(f"FAILED check {fc['check']} (rep {fc['rep']}): {fc['detail']}")
    for err in record["errors"]:
        print(err, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "privsynth" / "__init__.py").is_file():
        print(f"error: no privsynth sources under {SRC}", file=sys.stderr)
        return 2
    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        print(f"error: {bench_json} not found", file=sys.stderr)
        return 2
    declared = json.loads(bench_json.read_text(encoding="utf-8"))
    nproc = one_blas_thread()
    sys.path.insert(0, str(SRC))
    import privsynth
    import workloads

    if Path(privsynth.__file__).resolve().parent != SRC / "privsynth":
        print(f"error: imported privsynth from {privsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]

    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / f"{spec.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        record = measure(spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["machine"] = machine_record(nproc)
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    record["result"] = result_line(record, metrics)
    run_file = OUT / "runs" / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    run_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print_report(record, units)
    print(f"record: {run_file}")
    print(json.dumps(record["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
