"""Command-line front end: workload generation, fitting, rounding, eval, sweeps.

Exit codes: 0 success, 2 usage error, 3 data/schema error (an input too
large to allocate among them), 4 infeasible configuration. fit draws its
noise from OS entropy unless --seed is given; with it, reruns reproduce
outputs byte for byte (timing fields aside), and fit warns that the noise is
removable. Other commands default to seed 0.
"""

from __future__ import annotations

import argparse
import csv
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

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
    """fit's config flags. Each given flag overrides its --config key."""
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
    p.add_argument("--seed", type=int, help="reproducible noise (NOT private)")
    p.add_argument(
        "--no-noise", action="store_true", default=None, help="noiseless test mode (NOT private)"
    )
    p.add_argument("--max-steps", type=int)
    p.add_argument("--learning-rate", type=float)


def _given(args, keys) -> dict:
    return {key: value for key in keys if (value := getattr(args, key, None)) is not None}


def _fit_config(args) -> engine.FitConfig:
    """The --config file's FitConfig, each given _add_fit_args flag overriding its key."""
    obj = {}
    if args.config:
        obj = schema.load_json(args.config, ValueError)
        if isinstance(obj, dict) and obj.get("delta") == "auto":  # any other string is refused
            obj["delta"] = None
    base = engine.config_from_json(engine.FitConfig, obj)
    flags = _given(args, ("epsilon", "rounds", "queries_per_round", "n_synth", "seed", "no_noise"))
    if getattr(args, "delta", None) is not None:
        flags["delta"] = _parse_delta(args.delta)
    proj = _given(args, ("max_steps", "learning_rate"))
    return replace(base, **flags, projection=replace(base.projection, **proj))


def _config_items(obj: dict, where: str = ""):
    """key=value per leaf of a config_to_json dict, nested keys dotted as in --config."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _config_items(value, f"{where}{key}.")
        else:
            yield f"{where}{key}={value}"


def cmd_workload(args) -> int:
    # A workload depends only on the schema and the flags, so a given schema spares reading --data.
    if not (args.schema or args.data):
        print("error: workload needs --schema (public schema JSON) or --data (input CSV)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.marginals == 0:
        raise queries.WorkloadError("--marginals 0 gives an empty workload, which nothing can fit")
    sch = schema.Schema.load(args.schema) if args.schema else _load_data(args).schema
    kind = args.kind.replace("-", "_")
    print(f"config: k={args.k} marginals={args.marginals} seed={args.seed} kind={kind}")
    wl = queries.random_workload(sch, args.k, args.marginals, args.seed, kind=kind)
    out = Path(args.out)
    wl.save(out)
    sch.save(out.with_suffix(".schema.json"))
    print(f"workload: m={wl.m} marginals={len(wl.marginals)} -> {out}")
    for s, size in zip(wl.marginals, wl.marginal_sizes()):
        print(f"  S={list(s)}: {size} queries")
    return EXIT_OK


def cmd_fit(args) -> int:
    out_dir = Path(args.out_dir)
    # A file as --out-dir, or as its parent, fails before the fit; the directory
    # is made only after it, so a failed fit leaves none behind.
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    config = _fit_config(args)
    data = _load_data(args)
    wl = queries.Workload.load(data.schema, args.workload)
    config = engine.resolved_config(config, data.n)
    print("config:", *_config_items(engine.config_to_json(config)))
    if engine.noise_label(config) == "seeded-reproducible-non-private":
        print("warning: --seed makes the noise reproducible: anyone who knows the seed can "
              "remove it, so the output is not differentially private", file=sys.stderr)
    result = engine.fit(data, wl, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = "given" if args.schema else "inferred-non-private"
    record = dict(result.to_json_dict(), schema_source=source)
    (out_dir / "result.json").write_text(schema.dump_json(record), encoding="utf-8")
    engine.save_relaxed_csv(result.relaxed, out_dir / "relaxed.csv")
    data.schema.save(out_dir / "schema.json")
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
    relaxed = engine.load_relaxed_csv(args.relaxed, sch)
    try:
        synth = rounding.randomized_round(relaxed, config)
    except rounding.RoundingError as exc:  # unnormalized input: a data error, not a usage one
        raise schema.SchemaError(f"{args.relaxed}: {exc}") from None
    schema.save_csv(synth, args.out)
    print(f"round: {relaxed.n} rows x {args.oversample} -> {synth.n} rows -> {args.out}")
    return EXIT_OK


def _load_synth(path, sch: schema.Schema):
    """A labelled CSV when its first row is sch's feature names, else a relaxed matrix."""
    names = sch.feature_names()
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
    try:
        labelled = next(csv.reader([first])) == names
    except csv.Error:  # a NUL in the line, on Python 3.10
        labelled = False
    if labelled:
        return schema.load_csv(path, sch)
    try:
        return engine.load_relaxed_csv(path, sch)
    except schema.SchemaError as exc:
        raise schema.SchemaError(
            f"{str(exc).rstrip('.')}; a labelled CSV would have the header {names}"
        ) from None


def cmd_eval(args) -> int:
    data = _load_data(args)
    wl = queries.Workload.load(data.schema, args.workload)
    synth = _load_synth(args.synth, data.schema)
    report = evaluation.max_error(wl, data, synth)
    Path(args.out).write_text(schema.dump_json(report.to_json_dict()), encoding="utf-8")
    print(
        f"eval: max_error={report.max_error:.6g} mean_error={report.mean_error:.6g} "
        f"naive_baseline={report.naive_baseline:.6g} m={report.m} -> {args.out}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    # The config and the flags are checked before the private table is read.
    config = _fit_config(args)
    axis = args.axis.replace("-", "_").replace("n_prime", "n_synth")
    grid = (tuple(map(int, g.split(","))) if g else None for g in (args.grid_T, args.grid_K))
    spec = evaluation.SweepSpec(
        axis, tuple(map(float if axis == "epsilon" else int, args.values.split(","))),
        tuple(range(config.seed or 0, (config.seed or 0) + args.seeds)), *grid,
    )
    data = _load_data(args)
    wl = queries.Workload.load(data.schema, args.workload)
    config = engine.resolved_config(config, data.n)
    print("config:", *_config_items(engine.config_to_json(config)),
          f"seeds={spec.seeds[0]}..{spec.seeds[-1]}")
    rows = evaluation.run_sweep(data, wl, spec, config)
    evaluation.sweep_rows_to_csv(rows, args.out)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} rows ({failed} failed, all non-private) -> {args.out}")
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
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("fit", help="fit a relaxed synthetic dataset to a workload")
    _add_data_args(p)
    p.add_argument("--workload", required=True)
    _add_fit_args(p)
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
    p.add_argument(
        "--synth", required=True,
        help="round's labelled CSV, or fit's relaxed.csv (told apart by the header row)",
    )
    p.add_argument("--out", default="error_report.json")
    p.set_defaults(func=cmd_eval)

    # No prefix matching: a --seed meant for fit must not be read as --seeds.
    p = sub.add_parser("sweep", help="run a fit per axis value x seed x grid point",
                       allow_abbrev=False)
    _add_data_args(p)
    p.add_argument(
        "--workload", required=True,
        help="the workload fitted; --axis workload draws its own of this arity, kind and seed",
    )
    p.add_argument("--axis", required=True,
                   choices=["epsilon", "workload", "n-prime", "oversample"])
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--seeds", type=int, default=5,
                   help='number of fit seeds, counted up from the config\'s "seed" (0 if null)')
    p.add_argument("--grid-T", default=None, help="comma-separated rounds grid")
    p.add_argument("--grid-K", default=None, help="comma-separated queries-per-round grid")
    p.add_argument("--config", help='every fit\'s base: JSON with result.json\'s "config" keys')
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a missing input, or an output path that is a directory or a file
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
    except MemoryError as exc:  # no size bound caught the input before it was allocated
        print(f"error: input too large for memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
