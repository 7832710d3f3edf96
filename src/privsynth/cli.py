"""Command-line front end: workload generation, fitting, rounding, eval, sweeps.

Exit codes: 0 success, 2 usage error, 3 data/schema error, 4 infeasible
configuration. fit draws its noise from OS entropy unless --seed is given;
with it, reruns reproduce outputs byte for byte (timing fields aside), and
fit warns that the noise is removable. Other commands default to seed 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import engine, evaluation, queries, rounding, schema
from .privacy import BudgetError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


def _load_data(args) -> schema.DiscreteDataset:
    if args.schema:
        return schema.load_csv(args.data, schema.Schema.load(args.schema))
    data = schema.load_csv(args.data)
    print("warning: no --schema given: the category domain was inferred from the private data "
          "and is not differentially private", file=sys.stderr)
    return data


def _load_relaxed(path, sch: schema.Schema) -> schema.RelaxedDataset:
    """A relaxed matrix from a CSV file; a NaN or infinite value in it is a SchemaError."""
    relaxed = engine.load_relaxed_csv(path, sch)
    bad = np.argwhere(~np.isfinite(relaxed.data))
    if bad.size:
        row, col = bad[0].tolist()
        raise schema.SchemaError(
            f"{path}: non-finite value {relaxed.data[row, col]} at row {row}, column {col}"
        )
    return relaxed


def _add_data_args(p, data_help="input CSV (header row, categorical cells)", required=True):
    p.add_argument("--data", required=required, help=data_help)
    p.add_argument(
        "--schema",
        help="public schema JSON; omit to infer categories from the data (not private)",
    )


def _parse_delta(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f'delta must be a float or "auto", got {text!r}') from None


def _add_fit_args(p) -> None:
    """The fit flags of fit and sweep. Each given flag overrides its --config key."""
    p.add_argument(
        "--config", help='JSON file with the keys of result.json\'s "config"; flags override it'
    )
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", help='float or "auto" for 1/n^2')
    p.add_argument("--T", dest="rounds", type=int, help="rounds (1 = answer all queries up front)")
    p.add_argument(
        "--K", dest="queries_per_round", type=int, help="queries selected per round when T > 1"
    )
    p.add_argument("--n-prime", dest="n_synth", type=int, help="synthetic rows")
    p.add_argument("--seed", type=int, help="reproducible noise (NOT private; sweep default 0)")
    p.add_argument(
        "--no-noise", action="store_true", default=None, help="noiseless test mode (NOT private)"
    )
    p.add_argument("--max-steps", type=int)
    p.add_argument("--learning-rate", type=float)


def _given(args, keys) -> dict:
    return {key: value for key in keys if (value := getattr(args, key)) is not None}


def _fit_config(args) -> engine.FitConfig:
    obj = {}
    if args.config:
        obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if isinstance(obj, dict) and isinstance(obj.get("delta"), str):
            obj["delta"] = _parse_delta(obj["delta"])
    base = engine.config_from_json(engine.FitConfig, obj)
    flags = _given(args, ("epsilon", "rounds", "queries_per_round", "n_synth", "seed", "no_noise"))
    if args.delta is not None:
        flags["delta"] = _parse_delta(args.delta)
    proj = _given(args, ("max_steps", "learning_rate"))
    return replace(base, **flags, projection=replace(base.projection, **proj))


def _echo_config(config: engine.FitConfig, delta: float) -> None:
    print(
        f"config: epsilon={config.epsilon} delta={delta} T={config.rounds} "
        f"K={config.queries_per_round} n_prime={config.n_synth} seed={config.seed} "
        f"no_noise={config.no_noise} max_steps={config.projection.max_steps} "
        f"learning_rate={config.projection.learning_rate}"
    )


def cmd_workload(args) -> int:
    # A workload depends only on the schema and the flags, so a given schema spares reading --data.
    if not (args.schema or args.data):
        print("error: workload needs --schema (public schema JSON) or --data (input CSV)",
              file=sys.stderr)
        return EXIT_USAGE
    sch = schema.Schema.load(args.schema) if args.schema else _load_data(args).schema
    kind = args.kind.replace("-", "_")
    print(f"config: k={args.k} marginals={args.marginals} seed={args.seed} kind={kind}")
    wl = queries.random_workload(sch, args.k, args.marginals, args.seed, kind=kind)
    out = Path(args.out)
    wl.save(out)
    sch.save(out.with_suffix(".schema.json"))
    if args.dump_compiled:
        out.with_suffix(".compiled.json").write_text(
            json.dumps(wl.compiled_json_dict()) + "\n", encoding="utf-8"
        )
    print(f"workload: m={wl.m} marginals={len(wl.marginals)} -> {out}")
    for s, size in zip(wl.marginals, wl.marginal_sizes()):
        print(f"  S={list(s)}: {size} queries")
    return EXIT_OK


def cmd_fit(args) -> int:
    data = _load_data(args)
    wl = queries.Workload.load(data.schema, args.workload)
    config = _fit_config(args)
    _echo_config(config, engine.resolve_delta(config, data.n))
    if engine.noise_label(config) == "seeded-reproducible-non-private":
        print("warning: --seed makes the noise reproducible: anyone who knows the seed can "
              "remove it, so the output is not differentially private", file=sys.stderr)
    result = engine.fit(data, wl, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = "given" if args.schema else "inferred-non-private"
    record = json.dumps(
        dict(result.to_json_dict(), schema_source=source), sort_keys=True, indent=2, allow_nan=False
    )
    (out_dir / "result.json").write_text(record + "\n", encoding="utf-8")
    engine.save_relaxed_csv(result.relaxed, out_dir / "relaxed.csv")
    data.schema.save(out_dir / "schema.json")
    if args.trace:
        with Path(args.trace).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "step", "loss"])
            for t, losses in enumerate(result.losses, 1):
                writer.writerows((t, i, f"{l!r}") for i, l in enumerate(losses))
    summary = result.budget.summary()
    print(
        f"fit: selected={len(result.selected)} rho_spent={summary['rho_spent']:.6g} "
        f"noise={engine.noise_label(config)} -> {out_dir}"
    )
    return EXIT_OK


def cmd_round(args) -> int:
    print(f"config: oversample={args.oversample} seed={args.seed}")
    config = rounding.RoundingConfig(oversample=args.oversample, seed=args.seed)
    sch = schema.Schema.load(args.schema)
    relaxed = _load_relaxed(args.relaxed, sch)
    try:
        synth = rounding.randomized_round(relaxed, config)
    except rounding.RoundingError as exc:  # unnormalized input: a data error, not a usage one
        raise schema.SchemaError(f"{args.relaxed}: {exc}") from None
    schema.save_csv(synth, args.out)
    print(f"round: {relaxed.n} rows x {args.oversample} -> {synth.n} rows -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    data = _load_data(args)
    wl = queries.Workload.load(data.schema, args.workload)
    if args.synth_format == "relaxed":
        synth = _load_relaxed(args.synth, data.schema)
    else:
        synth = schema.load_csv(args.synth, data.schema)
    report = evaluation.max_error(wl, data, synth)
    Path(args.out).write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"eval: max_error={report.max_error:.6g} mean_error={report.mean_error:.6g} "
        f"naive_baseline={report.naive_baseline:.6g} m={report.m} -> {args.out}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    data = _load_data(args)
    config = _fit_config(args)
    axis = args.axis.replace("-", "_").replace("n_prime", "n_synth")
    values = [float(v) if axis == "epsilon" else int(v) for v in args.values.split(",")]
    spec = evaluation.SweepSpec(
        axis=axis,
        values=tuple(values),
        seeds=tuple(range(config.seed or 0, (config.seed or 0) + args.seeds)),
        workload_k=args.k,
        workload_marginals=args.marginals,
        workload_seed=args.workload_seed,
        kind=args.kind.replace("-", "_"),
        grid_rounds=tuple(int(v) for v in args.grid_T.split(",")) if args.grid_T else None,
        grid_queries_per_round=(
            tuple(int(v) for v in args.grid_K.split(",")) if args.grid_K else None
        ),
    )
    rows = evaluation.run_sweep(data, spec, config)
    evaluation.sweep_rows_to_csv(rows, args.out)
    best = evaluation.best_of_grid(rows)
    best_path = Path(args.out).with_suffix(".best.csv")
    evaluation.sweep_rows_to_csv(best, best_path, extra_columns=("selection",))
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} rows ({failed} failed) -> {args.out}; best-of-grid -> {best_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsynth",
        description="Differentially private synthetic data preserving marginal queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workload", help="sample a marginal workload and write it as JSON")
    _add_data_args(p, data_help="input CSV; not needed, and not read, when --schema is given",
                   required=False)
    p.add_argument("--k", type=int, required=True, help="marginal arity")
    p.add_argument("--marginals", type=int, required=True, help="number of feature subsets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["product", "one-out-of-k"], default="product")
    p.add_argument("--out", default="workload.json")
    p.add_argument(
        "--dump-compiled", action="store_true",
        help="also write the compiled one-hot column sets as JSON",
    )
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("fit", help="fit a relaxed synthetic dataset to a workload")
    _add_data_args(p)
    p.add_argument("--workload", required=True)
    _add_fit_args(p)
    p.add_argument("--trace", default=None, help="write a round,step,loss CSV here")
    p.add_argument("--out-dir", default="fit_out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("round", help="randomized-round a relaxed matrix to a labeled CSV")
    p.add_argument("--relaxed", required=True, help="relaxed matrix CSV from fit")
    p.add_argument("--schema", required=True, help="schema JSON written by fit")
    p.add_argument("--oversample", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="synthetic.csv")
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("eval", help="error report of synthetic data against the real data")
    _add_data_args(p)
    p.add_argument("--workload", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--synth-format", choices=["labels", "relaxed"], default="labels")
    p.add_argument("--out", default="error_report.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a fit per axis value x seed x grid point")
    _add_data_args(p)
    p.add_argument(
        "--axis", choices=["epsilon", "workload", "n-prime", "oversample"], required=True
    )
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument(
        "--seeds", type=int, default=5, help="number of fit seeds: --seed .. --seed+seeds-1"
    )
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--marginals", type=int, default=8)
    p.add_argument("--workload-seed", type=int, default=0)
    p.add_argument("--kind", choices=["product", "one-out-of-k"], default="product")
    p.add_argument("--grid-T", default=None, help="comma-separated rounds grid")
    p.add_argument("--grid-K", default=None, help="comma-separated queries-per-round grid")
    _add_fit_args(p)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except schema.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except engine.InfeasibleConfigError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (queries.WorkloadError, rounding.RoundingError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
