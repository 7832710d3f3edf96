"""Check the peak memory of loading and counting a 10^6-row private table.

    PYTHONPATH=src python3 scripts/large_table_memory.py

The script writes two CSVs of 10^6 uniform random rows over 15 features,
each with its schema JSON, to a temporary directory: one over the benchmark's
cardinalities (bench/workloads.CARDINALITIES), whose single-digit labels make
every line the same length, and one with labels "0" to "15" in every column,
whose lines vary in length. The loader reads the first by byte position and
the second through its hash tables. Then, for each table once with the
schema given and once with it inferred, a fresh Python process runs
schema.load_csv on the file and queries.eval_discrete over 64 random 3-way
marginals. Each process reports how far the two calls raised its peak
resident set size (ru_maxrss), measured after its imports. The script prints
the four growths against each file's size and fails when any exceeds 2.5
times that size.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

# Rows of the private table, and the seed of its random rows.
ROWS = 1_000_000
SEED = 0
# Largest allowed growth of peak RSS, as a multiple of the CSV's size.
MAX_GROWTH = 2.5


def write_table(root: str) -> None:
    """Write digits.csv (single-digit labels), wide.csv (labels "0" to "15") and their schemas."""
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import CARDINALITIES

    names = [f"f{i}" for i in range(len(CARDINALITIES))]
    rng = np.random.default_rng(SEED)
    for name, cards in (("digits", CARDINALITIES), ("wide", (16,) * len(names))):
        values = np.column_stack([rng.integers(0, t, ROWS, dtype=np.uint8) for t in cards])
        # Each cell takes a slot of a tens digit, left 0 below 10, its units
        # digit and a comma (a newline last in the row); the 0 bytes are dropped.
        slots = np.zeros((ROWS, len(names), 3), np.uint8)
        slots[:, :, 0][values >= 10] = ord("1")
        slots[:, :, 1] = values % 10 + ord("0")
        slots[:, :, 2] = ord(",")
        slots[:, -1, 2] = ord("\n")
        with open(Path(root) / f"{name}.csv", "wb") as fh:
            fh.write((",".join(names) + "\n").encode())
            fh.write(slots[slots != 0].data)
        (Path(root) / f"{name}.schema.json").write_text(json.dumps(
            [{"name": f, "categories": [str(v) for v in range(t)]} for f, t in zip(names, cards)]
        ))


def measure(csv_path: str, schema_path: str | None) -> None:
    """Print the rows loaded and the peak RSS growth of load_csv plus eval_discrete, in bytes."""
    from privsynth import Schema, eval_discrete, load_csv, random_workload

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    data = load_csv(csv_path, Schema.load(schema_path) if schema_path else None)
    eval_discrete(random_workload(data.schema, 3, 64, seed=7), data)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rows": data.n, "growth_bytes": (after - before) * 1024}))  # KiB on Linux


def child(*argv) -> str:
    """The stdout of this script run in a fresh Python process with `argv`."""
    return subprocess.run(
        [sys.executable, __file__, *map(str, argv)], check=True, capture_output=True, text=True
    ).stdout


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--measure", nargs="+", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        write_table(args.write)
        return
    if args.measure:  # the CSV path, then the schema path if given
        measure(args.measure[0], args.measure[1] if len(args.measure) > 1 else None)
        return

    # Linux carries a process's ru_maxrss across exec, so a child's reading
    # starts at this process's peak. This process therefore imports no numpy
    # and leaves the writing to a child of its own.
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        child("--write", tmp)
        for table, what in (("digits", "single-digit labels"), ("wide", 'labels "0" to "15"')):
            csv_path, schema_path = Path(tmp) / f"{table}.csv", Path(tmp) / f"{table}.schema.json"
            size = csv_path.stat().st_size
            print(f"{ROWS} rows of {what}: {size / 1e6:.1f} MB of CSV")
            for label, paths in (("schema given", [csv_path, schema_path]), ("inferred", [csv_path])):
                report = json.loads(child("--measure", *paths).splitlines()[-1])
                if report["rows"] != ROWS:
                    raise SystemExit(f"{table}, {label}: loaded {report['rows']} rows, wrote {ROWS}")
                ratio = report["growth_bytes"] / size
                print(f"load_csv + eval_discrete, {label}: peak RSS +{report['growth_bytes'] / 1e6:.1f}"
                      f" MB = {ratio:.2f} x the file (at most {MAX_GROWTH})")
                failed |= ratio > MAX_GROWTH
    if failed:
        raise SystemExit(f"peak RSS grew by more than {MAX_GROWTH} x the CSV's size")


if __name__ == "__main__":
    main()
