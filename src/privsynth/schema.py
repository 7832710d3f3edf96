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

    # Query compilation reads the layout once per query, and normalization its
    # block groups once per Adam step. cached_property writes the instance
    # __dict__ directly, which a frozen dataclass allows; equality, hashing and
    # repr still see only `features`.
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
    def blocks_by_cardinality(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(t, cols) per distinct block width t; cols[i, j] is column i of the j-th such block."""
        by_t: dict[int, list[int]] = {}
        for off, t in zip(self.offsets, self.cardinalities):
            by_t.setdefault(t, []).append(off)
        groups = tuple((t, np.add.outer(np.arange(t), offs)) for t, offs in by_t.items())
        for _, cols in groups:
            cols.setflags(write=False)
        return groups

    @cached_property
    def d_prime(self) -> int:
        return sum(self.cardinalities)

    @cached_property
    def id_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype holding every category id: uint8 up to 256 categories."""
        return _narrowest_ids(max(self.cardinalities))

    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    def to_json_dict(self) -> list[dict]:
        return [{"name": f.name, "categories": list(f.categories)} for f in self.features]

    @classmethod
    def from_json_dict(cls, obj: list[dict], source: str = "schema") -> "Schema":
        """Inverse of to_json_dict; any other JSON shape is a SchemaError naming `source`.

        So is every fault FeatureSpec or Schema finds: a feature without
        categories or with repeated ones, repeated names, or no features.
        """
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
        try:
            return cls(tuple(FeatureSpec(e["name"], tuple(e["categories"])) for e in obj))
        except SchemaError as exc:
            raise SchemaError(f"{source}: {exc}") from None

    def save(self, path) -> None:
        Path(path).write_text(dump_json(self.to_json_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Schema":
        return cls.from_json_dict(load_json(path, SchemaError), str(path))


def dump_json(obj) -> str:
    """The one JSON encoding of every file privsynth writes: sorted keys, compact, strict."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def load_json(path, error: type[ValueError]):
    """The JSON value in a UTF-8 file; a file that is not UTF-8 JSON raises `error` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise error(f"{path}: not a UTF-8 JSON file: {exc}") from None


def schema_from_cardinalities(t, prefix: str = "f") -> Schema:
    """Convenience constructor: features named f0, f1, ... with integer labels."""
    feats = []
    for i, ti in enumerate(t):
        feats.append(FeatureSpec(f"{prefix}{i}", tuple(str(v) for v in range(ti))))
    return Schema(tuple(feats))


@dataclass(frozen=True)
class DiscreteDataset:
    """n rows of per-feature category indices under a Schema.

    `rows` is an (n, d) array of dtype `schema.id_dtype`, stored column-major:
    it is the `.T` view of a C-contiguous (d, n) buffer, so each feature's
    column is contiguous. Every input is range-checked, and a non-integral
    value is rejected. Input already in that layout is kept without a copy;
    any other is narrowed into a new buffer.
    """

    schema: Schema
    rows: np.ndarray  # (n, d) category indices, column-major in schema.id_dtype

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != self.schema.d:
            raise SchemaError(f"rows must be (n, {self.schema.d}), got {rows.shape}")
        if rows.dtype.kind not in "biu" or not rows.dtype.isnative:
            with np.errstate(invalid="ignore"):
                ints = rows.astype(np.int64)
            if not (ints == rows).all():
                raise SchemaError("category indices must be integers")
            rows = ints
        # Viewed unsigned, a negative index is at least 2**(bits - 1), and every
        # valid one is below both that and its cardinality.
        ids = rows.view(f"u{rows.itemsize}")
        t = np.asarray(self.schema.cardinalities, dtype=np.uint64)
        if rows.dtype.kind == "i":
            t = np.minimum(t, np.uint64(1 << (8 * rows.itemsize - 1)))
        keep = rows.dtype == self.schema.id_dtype and rows.T.flags.c_contiguous
        columns = rows.T if keep else np.empty(rows.shape[::-1], self.schema.id_dtype)
        # Row chunks keep the transposing copy in cache.
        for a in range(0, rows.shape[0], _CHUNK_ROWS):
            block = ids[a : a + _CHUNK_ROWS]
            if (block.max(axis=0) >= t).any():
                raise SchemaError("category index out of range for its feature")
            if not keep:
                columns[:, a : a + _CHUNK_ROWS] = block.T
        object.__setattr__(self, "rows", columns.T)

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
        return RelaxedDataset(self.schema, self.bits.astype(np.float64, order="F"))


@dataclass(frozen=True)
class RelaxedDataset:
    """Real-valued stand-in for a one-hot dataset: an (n_rows, d_prime) matrix.

    Rows are interpretable per feature block as (sparse) probability
    distributions once normalized; see privsynth.projection.normalize_rows.

    `data` is float64, the `.T` view of a C-contiguous (d_prime, n_rows)
    buffer (the query kernels' layout); other input is copied into it once.
    """

    schema: Schema
    data: np.ndarray  # (n_rows, d_prime) float64, column-major

    def __post_init__(self):
        data = np.asfortranarray(self.data, dtype=np.float64)
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


# Rows per chunk of the byte path, which bounds its separator, key and slot
# arrays, and of DiscreteDataset's narrowing copy.
_CHUNK_ROWS = 1 << 11
# Bytes searched for newlines at a time, so no file-sized mask is built.
_SCAN_BYTES = 1 << 20
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
    mapped to category ids with one lookup in per-column hash tables. A chunk
    whose cells are all one byte, as in a table of single-character labels
    such as the digits 0-9, skips the separator search and the hash tables:
    its ids are read by position, with one lookup in a per-column table of
    byte values. Any other file, and any fault past the UTF-8 check, goes to
    `csv.reader`, which alone reports it.
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
    The ids go straight into the column-major (d, n) table DiscreteDataset
    keeps, in the narrowest dtype the labels known so far need.

    A chunk whose lines are all 2 * d bytes with their d - 1 commas at the odd
    offsets holds only one-byte cells; its ids are one lookup of its even
    bytes in `_byte_ids`, the known labels' table by byte value, which the
    hash tables' rebuild drops. That chunk needs no separator search, key
    gather or hash probe. A chunk that fails a check, or holds a byte its
    column's table lacks, takes the hash path above, which alone finds faults
    and new labels.
    """
    size = path.stat().st_size
    data = bytearray(size + 9)  # room to end the last line, then 8 zero bytes of pad
    with path.open("rb") as fh:
        size = fh.readinto(memoryview(data)[:size])
    if not data.isascii():  # the zero pad is ASCII too
        try:
            str(memoryview(data)[:size], "utf-8")
        except UnicodeDecodeError as exc:
            at = exc.start
            raise SchemaError(
                f"{path}: not valid UTF-8: byte 0x{data[at]:02x} at position {at} ({exc.reason})"
            ) from None
    if data.find(b'"', 0, size) >= 0 or data.find(b"\0", 0, size) >= 0:
        return None
    if data.find(b"\r", 0, size) >= 0:  # csv.reader ends a line at a lone \r too; take only CRLF
        if data.count(b"\r", 0, size) != data.count(b"\r\n", 0, size):
            return None
        data = data[:size].replace(b"\r\n", b"\n")
        size = len(data)
        data += bytes(9)
    if size == 0 or data[size - 1] != 10:  # end the last line
        data[size] = 10
    buf = np.frombuffer(data, np.uint8)  # the zero pad keeps every cell's 8-byte window in it
    nl = np.concatenate([np.flatnonzero(buf[i : i + _SCAN_BYTES] == 10) + i
                         for i in range(0, buf.size, _SCAN_BYTES)])
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
    tables, by_byte = _layout(columns), None
    rows = np.empty((d, n), tables[-1].dtype)  # an inferred column's new labels may widen it

    column_base = np.arange(0, 256 * d, 256, _narrowest_ids(256 * d))
    windows = np.ndarray((buf.size - 7,), ">u8", buf, strides=(1,))  # one at every byte
    for a in range(0, n, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, n)
        lo = nl[a] + 1
        chunk = buf[lo : nl[b] + 1]
        # One-byte cells only (see above); the chunk's length alone turns most
        # chunks of wider cells away.
        if nl[b] - nl[a] == 2 * d * (b - a) and (np.diff(nl[a : b + 1]) == 2 * d).all():
            if by_byte is None:
                by_byte = _byte_ids(columns)
            ids = np.take(by_byte, chunk[::2].reshape(b - a, d) + column_base)
            # by_byte maps no comma and each line ends at its newline, so d - 1
            # commas per line, counted over the chunk, are those between cells.
            if (ids.max() < np.iinfo(ids.dtype).max
                    and np.count_nonzero(chunk == 44) == (b - a) * (d - 1)):
                rows[:, a:b] = ids.T
                continue
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
        ids, unknown = _lookup(tables, keys)
        if unknown.size:
            if schema is not None:
                return None  # an unknown label
            col = unknown % d
            for c in np.unique(col).tolist():
                columns[c].add(np.unique(keys.flat[unknown[col == c]]))
            tables, by_byte = _layout(columns), None
            rows = rows.astype(tables[-1].dtype, copy=False)
            ids, _ = _lookup(tables, keys)
        rows[:, a:b] = ids.T

    if schema is None:
        feats = []
        for c, name in enumerate(header):
            keys = columns[c].labels.tolist()
            labels = [k.to_bytes(8, "big").rstrip(b"\0").decode("utf-8") for k in keys]
            cats = _inferred_categories(labels)
            rank = {lab: i for i, lab in enumerate(cats)}
            ids = np.array([rank[lab] for lab in labels], rows.dtype)
            if (ids != np.arange(ids.size)).any():
                rows[c] = ids[rows[c]]
            feats.append(FeatureSpec(name, cats))
        schema = Schema(tuple(feats))
    return DiscreteDataset(schema, rows.T)


def _inferred_categories(labels) -> tuple[str, ...]:
    """A column's inferred categories: its sorted distinct labels, or "0" if it has no rows."""
    return tuple(sorted(set(labels))) or ("0",)


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


def _narrowest_ids(count: int) -> np.dtype:
    """The narrowest unsigned dtype holding ids 0 to count - 1: uint8 up to 256 of them."""
    return np.min_scalar_type(max(count, 1) - 1)


def _layout(columns: list[_LabelTable]) -> tuple[np.ndarray, ...]:
    """The columns' tables laid end to end, as `_lookup` reads them.

    Returns (mult, shift, base, slot_keys, slot_ids): column c's key k has its
    home slot at base[c] + (k * mult[c] mod 2**64 >> shift[c]). Slot ids are
    in the narrowest dtype that holds the ids of every column's labels.
    """
    sizes = [t.keys.size for t in columns]
    return (
        np.array([t.mult for t in columns], np.uint64),
        np.array([64 - t.bits for t in columns], np.uint64),
        np.cumsum([0] + sizes[:-1], dtype=np.uint64),
        np.concatenate([t.keys for t in columns]),
        np.concatenate([t.ids for t in columns]).astype(
            _narrowest_ids(max(t.labels.size for t in columns))
        ),
    )


def _byte_ids(columns: list[_LabelTable]) -> np.ndarray:
    """The ids of each column's one-byte labels by byte value: a (d, 256) table, flattened.

    Entry 256 * c + v is the id of column c's label `bytes([v])`; every other
    entry is the largest value of the dtype, above every id. Bytes 10 and 44
    never map, whatever the labels, so no separator is read as a cell, and
    neither does byte 0, the key of the empty label.
    """
    dtype = _narrowest_ids(max(t.labels.size for t in columns) + 1)
    table = np.full((len(columns), 256), np.iinfo(dtype).max, dtype)
    for c, t in enumerate(columns):
        one = np.flatnonzero(t.labels << np.uint64(8) == 0)  # keys with no second byte
        table[c, t.labels[one] >> np.uint64(56)] = one
    table[:, [0, 10, 44]] = np.iinfo(dtype).max
    return table.reshape(-1)


def _lookup(tables: tuple[np.ndarray, ...], keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The id of each key of the (rows, d) block `keys`.

    Returns the (rows, d) ids, in the slot ids' dtype, and the flat positions
    of the keys their column does not know; their ids are unset. Every cell
    reads its home slot; only cells whose slot holds another label probe on,
    in one vectorized round per further slot.
    """
    mult, shift, base, slot_keys, slot_ids = tables
    slot = keys * mult
    slot >>= shift
    slot += base
    slot = slot.view(np.intp).reshape(-1)
    shape, keys = keys.shape, keys.reshape(-1)
    ids = np.take(slot_ids, slot, mode="clip")  # every slot is in range; "clip" skips the check
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
    return ids.reshape(shape), np.concatenate(unknown)


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
        schema = Schema(tuple(
            FeatureSpec(name, _inferred_categories(cells[c::d])) for c, name in enumerate(header)
        ))
    else:
        if header != schema.feature_names():
            raise SchemaError(
                f"{path}: header {header} does not match schema features {schema.feature_names()}"
            )

    lookup = [{lab: j for j, lab in enumerate(f.categories)} for f in schema.features]
    rows = np.empty((d, n), dtype=schema.id_dtype)
    try:
        for c in range(d):
            rows[c] = np.fromiter(map(lookup[c].__getitem__, cells[c::d]), rows.dtype, count=n)
    except KeyError:
        for p, cell in enumerate(cells):
            if cell not in lookup[p % d]:
                raise SchemaError(
                    f"{path}: unknown label {cell!r} at row {p // d}, column {header[p % d]!r}"
                ) from None
    return DiscreteDataset(schema, rows.T)


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
