"""Categorical dataset schemas, CSV ingestion, one-hot encoding, and binning.

A dataset is a table of categorical features. Each feature i has a fixed,
ordered list of t_i category labels; a row stores one category index per
feature. The one-hot layout concatenates, per feature, a block of t_i binary
columns, so the encoded width is d_prime = sum(t_i). Column offsets into that
layout are owned by the Schema, computed once per instance, and shared by
every module downstream.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class SchemaError(ValueError):
    """Data does not conform to the schema (bad label, ragged row, ...)."""


@dataclass(frozen=True)
class FeatureSpec:
    """One categorical feature: a name plus its ordered category labels."""

    name: str
    categories: tuple[str, ...]

    def __post_init__(self):
        if len(self.categories) < 1:
            raise SchemaError(f"feature {self.name!r} has no categories")
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"feature {self.name!r} has duplicate categories")

    @property
    def cardinality(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class Schema:
    """Ordered feature list with the derived one-hot column layout."""

    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        if len(self.features) == 0:
            raise SchemaError("schema has no features")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")

    @property
    def d(self) -> int:
        return len(self.features)

    # Query compilation reads the layout once per query. cached_property
    # writes the instance __dict__ directly, which a frozen dataclass allows;
    # equality, hashing and repr still see only `features`.
    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(f.cardinality for f in self.features)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Starting one-hot column of each feature block."""
        out, acc = [], 0
        for f in self.features:
            out.append(acc)
            acc += f.cardinality
        return tuple(out)

    @cached_property
    def d_prime(self) -> int:
        return sum(self.cardinalities)

    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    def to_json_dict(self) -> list[dict]:
        return [{"name": f.name, "categories": list(f.categories)} for f in self.features]

    @classmethod
    def from_json_dict(cls, obj: list[dict]) -> "Schema":
        return cls(tuple(FeatureSpec(e["name"], tuple(e["categories"])) for e in obj))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Schema":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def schema_from_cardinalities(t, prefix: str = "f") -> Schema:
    """Convenience constructor: features named f0, f1, ... with integer labels."""
    feats = []
    for i, ti in enumerate(t):
        feats.append(FeatureSpec(f"{prefix}{i}", tuple(str(v) for v in range(ti))))
    return Schema(tuple(feats))


@dataclass(frozen=True)
class DiscreteDataset:
    """n rows of per-feature category indices under a Schema."""

    schema: Schema
    rows: np.ndarray  # (n, d) integer category indices

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != self.schema.d:
            raise SchemaError(f"rows must be (n, {self.schema.d}), got {rows.shape}")
        t = np.asarray(self.schema.cardinalities)
        if rows.size and ((rows < 0).any() or (rows >= t[None, :]).any()):
            raise SchemaError("category index out of range for its feature")

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class OneHotDataset:
    """One-hot encoded rows: per feature block, exactly one 1 per row."""

    schema: Schema
    bits: np.ndarray  # (n, d_prime) in {0, 1}

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", bits)
        if bits.ndim != 2 or bits.shape[1] != self.schema.d_prime:
            raise SchemaError(f"bits must be (n, {self.schema.d_prime}), got {bits.shape}")

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    def as_relaxed(self) -> "RelaxedDataset":
        return RelaxedDataset(self.schema, self.bits.astype(np.float64))


@dataclass(frozen=True)
class RelaxedDataset:
    """Real-valued stand-in for a one-hot dataset: an (n_rows, d_prime) matrix.

    Rows are interpretable per feature block as (sparse) probability
    distributions once normalized; see privsynth.projection.normalize_rows.
    """

    schema: Schema
    data: np.ndarray  # (n_rows, d_prime) float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[1] != self.schema.d_prime:
            raise SchemaError(f"data must be (n, {self.schema.d_prime}), got {data.shape}")

    @property
    def n(self) -> int:
        return self.data.shape[0]


def one_hot(dataset: DiscreteDataset) -> OneHotDataset:
    """Encode category indices to the concatenated one-hot layout."""
    schema = dataset.schema
    n = dataset.n
    bits = np.zeros((n, schema.d_prime), dtype=np.uint8)
    offsets = np.asarray(schema.offsets)
    cols = dataset.rows + offsets[None, :]
    bits[np.arange(n)[:, None], cols] = 1
    return OneHotDataset(schema, bits)


def decode_row(bits_row, schema: Schema) -> np.ndarray:
    """Invert one-hot encoding for a single row.

    Raises SchemaError (naming the feature) if any block does not contain
    exactly one 1.
    """
    bits_row = np.asarray(bits_row)
    if bits_row.shape != (schema.d_prime,):
        raise SchemaError(f"expected length-{schema.d_prime} row, got {bits_row.shape}")
    out = np.empty(schema.d, dtype=np.int64)
    for i, (off, ti) in enumerate(zip(schema.offsets, schema.cardinalities)):
        block = bits_row[off : off + ti]
        hot = np.flatnonzero(block == 1)
        if hot.size != 1 or block.sum() != 1:
            raise SchemaError(f"feature {i} block has {block.sum()} ones, expected exactly 1")
        out[i] = hot[0]
    return out


def decode(encoded: OneHotDataset) -> DiscreteDataset:
    """Invert one-hot encoding for a whole dataset."""
    rows = np.stack([decode_row(r, encoded.schema) for r in encoded.bits]) if encoded.n else np.zeros((0, encoded.schema.d), dtype=np.int64)
    return DiscreteDataset(encoded.schema, rows)


# Rows per chunk of the byte path; bounds its separator and key arrays.
_CHUNK_ROWS = 1 << 11
# _MASKS[w] keeps the first w bytes of a big-endian 8-byte window.
_MASKS = np.array([((1 << 8 * w) - 1) << (64 - 8 * w) for w in range(9)], np.uint64)


def load_csv(path, schema: Schema | None = None) -> DiscreteDataset:
    """Load a categorical dataset from a UTF-8 CSV file with a header row.

    Without a schema, categories are inferred per column as the sorted
    distinct labels (lexicographic), which makes inference reproducible.
    With a schema, the header must match the schema's feature names and every
    cell must be a known label. Empty cells are rejected; this pipeline
    assumes complete categorical data.

    Errors are reported in this order: bytes that are not UTF-8; then the
    first faulty row in file order (a row with the wrong number of cells, else
    its first empty cell); then a header that does not match the schema; then
    the first unknown label in row-major order.

    The bytes are parsed with numpy when they hold no `"`, no NUL and no `\\r`
    outside a `\\r\\n`, the header line is not empty, and every label in the
    file and the schema is at most 8 bytes long. Any other file, and any
    fault past the UTF-8 check, goes to `csv.reader`, which alone reports it.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    parsed = _load_bytes(path, schema)
    return parsed if parsed is not None else _load_text(path, schema)


def _load_bytes(path: Path, schema: Schema | None) -> DiscreteDataset | None:
    """Check the file is UTF-8 and parse it with numpy, or return None for csv.reader.

    A cell's key is its bytes, zero padded to 8 and read big-endian (unique, as
    no cell holds a NUL). Per chunk, searchsorted maps each column's keys to ids
    of its known labels: the schema's, or else those seen so far, ranked at the end.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        raise SchemaError(
            f"{path}: not valid UTF-8: byte 0x{data[at]:02x} at position {at} ({exc.reason})"
        ) from None
    if b'"' in data or b"\0" in data:
        return None
    if b"\r" in data:  # csv.reader ends a line at a lone \r too; take only CRLF
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    # End the last line; the zero pad keeps every cell's 8-byte window in the buffer.
    end = b"" if data.endswith(b"\n") else b"\n"
    buf = np.frombuffer(data + end + bytes(8), np.uint8)
    del data  # one copy of the file is enough
    nl = np.flatnonzero(buf == 10)
    if not 0 < nl[0] <= csv.field_size_limit():
        return None
    header = buf[: nl[0]].tobytes().decode("utf-8").split(",")
    n, d = nl.size - 1, len(header)
    known = [np.empty(0, np.uint64)] * d
    if schema is not None:
        labels = [[lab.encode("utf-8") for lab in f.categories] for f in schema.features]
        if header != schema.feature_names() or any(
            len(lab) > 8 or b"\0" in lab for col in labels for lab in col
        ):
            return None
        known = [np.array([int.from_bytes(lab.ljust(8, b"\0"), "big") for lab in col], np.uint64)
                 for col in labels]

    windows = np.ndarray((buf.size - 7,), ">u8", buf, strides=(1,))  # one at every byte
    rows = np.empty((n, d), np.int64)
    for a in range(0, n, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, n)
        lo = nl[a] + 1
        chunk = buf[lo : nl[b] + 1]
        sep = np.flatnonzero((chunk == 44) | (chunk == 10))
        sep += lo
        # Exactly d separators per line, the d-th being its newline.
        if sep.size != (b - a) * d or not np.array_equal(sep[d - 1 :: d], nl[a + 1 : b + 1]):
            return None
        starts = np.concatenate(([lo], sep[:-1] + 1))
        width = np.subtract(sep, starts, out=sep)
        if width.min() < 1 or width.max() > 8:
            return None
        keys = windows[starts].astype(np.uint64).reshape(b - a, d)
        keys &= _MASKS[width.reshape(b - a, d)]
        for c in range(d):
            if not known[c].size:
                known[c] = np.unique(keys[:, c])
            ids, hit = _match(known[c], keys[:, c])
            if not hit.all():
                if schema is not None:
                    return None  # an unknown label
                known[c] = np.concatenate((known[c], np.unique(keys[~hit, c])))
                ids, _ = _match(known[c], keys[:, c])
            rows[a:b, c] = ids

    if schema is None:
        feats = []
        for c, name in enumerate(header):
            labels = [k.to_bytes(8, "big").rstrip(b"\0").decode("utf-8") for k in known[c].tolist()]
            cats = sorted(labels) or ["0"]  # ["0"]: placeholder for a file with no rows
            rank = {lab: i for i, lab in enumerate(cats)}
            ids = np.array([rank[lab] for lab in labels], np.int64)
            if (ids != np.arange(ids.size)).any():
                rows[:, c] = ids[rows[:, c]]
            feats.append(FeatureSpec(name, tuple(cats)))
        schema = Schema(tuple(feats))
    return DiscreteDataset(schema, rows)


def _match(known: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index in `known` of each key, and whether the key is there at all."""
    order = np.argsort(known)
    ids = order[np.minimum(np.searchsorted(known[order], keys), known.size - 1)]
    return ids, known[ids] == keys


def _load_text(path: Path, schema: Schema | None) -> DiscreteDataset:
    """The csv.reader path of load_csv: quoted input, and every fault report."""
    cells: list[str] = []
    widths: list[int] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row")
        for row in reader:
            widths.append(len(row))
            cells += row

    n, d = len(widths), len(header)
    ragged = None if widths.count(d) == n else next(r for r, w in enumerate(widths) if w != d)
    # Rows before the first ragged one hold exactly d cells each, so a flat
    # position p there is row p // d, column p % d.
    try:
        p = cells.index("", 0, len(cells) if ragged is None else ragged * d)
    except ValueError:
        if ragged is not None:
            w = widths[ragged]
            raise SchemaError(f"{path}: row {ragged} has {w} cells, expected {d}") from None
    else:
        raise SchemaError(f"{path}: missing value at row {p // d}, column {header[p % d]!r}")

    if schema is None:
        feats = []
        for c, name in enumerate(header):
            labels = sorted(set(cells[c::d]))
            if not labels:
                labels = ["0"]  # empty data file: single placeholder category
            feats.append(FeatureSpec(name, tuple(labels)))
        schema = Schema(tuple(feats))
    else:
        if header != schema.feature_names():
            raise SchemaError(
                f"{path}: header {header} does not match schema features {schema.feature_names()}"
            )

    lookup = [{lab: j for j, lab in enumerate(f.categories)} for f in schema.features]
    rows = np.empty((n, d), dtype=np.int64)
    try:
        for c in range(d):
            rows[:, c] = np.fromiter(map(lookup[c].__getitem__, cells[c::d]), np.int64, count=n)
    except KeyError:
        for p, cell in enumerate(cells):
            if cell not in lookup[p % d]:
                raise SchemaError(
                    f"{path}: unknown label {cell!r} at row {p // d}, column {header[p % d]!r}"
                ) from None
    return DiscreteDataset(schema, rows)


def save_csv(dataset: DiscreteDataset, path) -> None:
    """Write a dataset as CSV using the schema's category labels."""
    schema = dataset.schema
    columns = [
        np.array(f.categories, dtype=object)[dataset.rows[:, i]] for i, f in enumerate(schema.features)
    ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.feature_names())
        writer.writerows(zip(*columns))


def bin_numeric(values, num_bins: int, name: str = "binned") -> tuple[np.ndarray, FeatureSpec]:
    """Bucket real values into equal-width bins over [min, max].

    The maximum value maps to the last bin. A constant column collapses to a
    single bin regardless of num_bins. Bin labels record the interval
    endpoints.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if not np.isfinite(vals).all():
        raise ValueError("values must all be finite")
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        spec = FeatureSpec(name, (f"[{lo:.6g}, {hi:.6g}]",))
        return np.zeros(vals.shape[0], dtype=np.int64), spec
    scaled = (vals - lo) / (hi - lo) * num_bins
    idx = np.clip(scaled.astype(np.int64), 0, num_bins - 1)
    edges = lo + (hi - lo) * np.arange(num_bins + 1) / num_bins
    labels = [f"[{edges[b]:.6g}, {edges[b + 1]:.6g})" for b in range(num_bins - 1)]
    labels.append(f"[{edges[num_bins - 1]:.6g}, {edges[num_bins]:.6g}]")
    return idx, FeatureSpec(name, tuple(labels))
