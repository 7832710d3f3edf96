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
    def from_json_dict(cls, obj: list[dict], source: str = "schema") -> "Schema":
        """Inverse of to_json_dict; any other JSON shape is a SchemaError naming `source`."""
        if not isinstance(obj, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("categories"), list)
            and all(isinstance(c, str) for c in e["categories"])
            for e in obj
        ):
            raise SchemaError(
                f'{source}: a schema must be a JSON list of objects, each with a string "name" '
                f'and a list of string "categories"'
            )
        return cls(tuple(FeatureSpec(e["name"], tuple(e["categories"])) for e in obj))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Schema":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")), str(path))


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
        t = np.asarray(self.schema.cardinalities, dtype=np.uint64)
        if (rows.view(np.uint64) >= t).any():  # a negative index wraps above every cardinality
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


# Rows per chunk of the byte path; bounds its separator, key and slot arrays.
_CHUNK_ROWS = 1 << 11
# _MASKS[w] keeps the first w bytes of a big-endian 8-byte window.
_MASKS = np.array([((1 << 8 * w) - 1) << (64 - 8 * w) for w in range(9)], np.uint64)
# Odd multipliers a column's hash table picks from: the first that gives its
# labels the fewest shared home slots, so that most lookups need no probing.
_MULTIPLIERS = np.random.default_rng(0x5EED).integers(0, 1 << 64, 16, np.uint64) | 1


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
    file and the schema is at most 8 bytes long; each chunk of rows is then
    mapped to category ids with one lookup in per-column hash tables. Any
    other file, and any fault past the UTF-8 check, goes to `csv.reader`,
    which alone reports it.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    parsed = _load_bytes(path, schema)
    return parsed if parsed is not None else _load_text(path, schema)


def _load_bytes(path: Path, schema: Schema | None) -> DiscreteDataset | None:
    """Check the file is UTF-8 and parse it with numpy, or return None for csv.reader.

    A cell's key is its bytes, zero padded to 8 and read big-endian (unique and
    never 0, as no cell is empty or holds a NUL). Per chunk, one lookup in the
    columns' hash tables (`_LabelTable`) maps the (rows, d) key block to ids of
    each column's known labels: the schema's, or else those seen so far, with
    a chunk's new labels added to the tables and the ids ranked at the end.
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
    columns = [_LabelTable(labels) for labels in known]
    tables = _layout(columns)

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
        unknown = _lookup(tables, keys, rows[a:b])
        if unknown.size:
            if schema is not None:
                return None  # an unknown label
            col = unknown % d
            for c in np.unique(col).tolist():
                columns[c].add(np.unique(keys.flat[unknown[col == c]]))
            tables = _layout(columns)
            _lookup(tables, keys, rows[a:b])

    if schema is None:
        feats = []
        for c, name in enumerate(header):
            keys = columns[c].labels.tolist()
            labels = [k.to_bytes(8, "big").rstrip(b"\0").decode("utf-8") for k in keys]
            cats = sorted(labels) or ["0"]  # ["0"]: placeholder for a file with no rows
            rank = {lab: i for i, lab in enumerate(cats)}
            ids = np.array([rank[lab] for lab in labels], np.int64)
            if (ids != np.arange(ids.size)).any():
                rows[:, c] = ids[rows[:, c]]
            feats.append(FeatureSpec(name, tuple(cats)))
        schema = Schema(tuple(feats))
    return DiscreteDataset(schema, rows)


class _LabelTable:
    """A linear-probing hash table of one column's label keys.

    The id stored beside a key is its index in `labels`. There are 2**bits >=
    2 * len(labels) home slots, so at most half are full, and key k's home slot
    is k * mult mod 2**64 >> (64 - bits). Behind the home slots is room for the
    longest probe run plus an empty slot, so every probe ends inside the table.
    A slot key of 0 marks an empty slot; the empty label has key 0 and no slot,
    as no cell on the byte path is empty.
    """

    def __init__(self, labels: np.ndarray):
        self._build(labels)

    def add(self, new: np.ndarray) -> None:
        """Append labels the table lacks; the ids of the others stay."""
        labels = np.concatenate((self.labels, new))
        if 2 * labels.size > 1 << self.bits:
            self._build(labels)
        else:
            self.labels = labels
            self._place(labels.size - new.size)

    def _build(self, labels: np.ndarray) -> None:
        self.labels = labels
        self.bits = max(1, (2 * labels.size - 1).bit_length())
        most = -1
        for mult in _MULTIPLIERS:
            home = labels * mult >> np.uint64(64 - self.bits)
            distinct = np.count_nonzero(np.bincount(home.astype(np.intp)))
            if distinct > most:
                most, self.mult = distinct, mult
            if distinct == labels.size:
                break
        self.keys = np.zeros(3 << (self.bits - 1), np.uint64)
        self.ids = np.zeros(self.keys.size, np.int64)
        self._place(0)

    def _place(self, first: int) -> None:
        """Insert labels[first:], one vectorized round per slot of their probe runs."""
        todo = np.arange(first, self.labels.size)[self.labels[first:] != 0]
        at = (self.labels[todo] * self.mult >> np.uint64(64 - self.bits)).astype(np.intp)
        while todo.size:
            free = self.keys[at] == 0
            slots, first_claim = np.unique(at[free], return_index=True)
            won = todo[free][first_claim]
            self.keys[slots], self.ids[slots] = self.labels[won], won
            left = self.keys[at] != self.labels[todo]
            todo, at = todo[left], at[left] + 1


def _layout(columns: list[_LabelTable]) -> tuple[np.ndarray, ...]:
    """The columns' tables laid end to end, as `_lookup` reads them.

    Returns (mult, shift, base, slot_keys, slot_ids): column c's key k has its
    home slot at base[c] + (k * mult[c] mod 2**64 >> shift[c]).
    """
    sizes = [t.keys.size for t in columns]
    return (
        np.array([t.mult for t in columns], np.uint64),
        np.array([64 - t.bits for t in columns], np.uint64),
        np.cumsum([0] + sizes[:-1], dtype=np.uint64),
        np.concatenate([t.keys for t in columns]),
        np.concatenate([t.ids for t in columns]),
    )


def _lookup(tables: tuple[np.ndarray, ...], keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Write into `ids` the id of each key of the (rows, d) block `keys`.

    `ids` is a C-contiguous (rows, d) int64 array. Returns the flat positions
    of the keys their column does not know; their ids are left unset. Every
    cell reads its home slot; only cells whose slot holds another label probe
    on, in one vectorized round per further slot.
    """
    mult, shift, base, slot_keys, slot_ids = tables
    slot = keys * mult
    slot >>= shift
    slot += base
    slot = slot.view(np.intp).reshape(-1)
    keys, ids = keys.reshape(-1), ids.reshape(-1)
    np.take(slot_ids, slot, out=ids, mode="clip")  # every slot is in range; "raise" buffers out
    seen = np.take(slot_keys, slot)
    cells = np.flatnonzero(seen != keys)
    unknown = [np.empty(0, np.intp)]
    while cells.size:
        empty = seen[cells] == 0
        unknown.append(cells[empty])
        cells = cells[~empty]
        at = slot[cells] + 1
        slot[cells] = at
        seen[cells] = np.take(slot_keys, at)
        hit = seen[cells] == keys[cells]
        ids[cells[hit]] = np.take(slot_ids, at[hit])
        cells = cells[~hit]
    return np.concatenate(unknown)


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
