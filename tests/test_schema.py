import csv
import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsynth import (
    DiscreteDataset,
    FeatureSpec,
    Schema,
    SchemaError,
    bin_numeric,
    decode,
    decode_row,
    load_csv,
    one_hot,
    save_csv,
    schema_from_cardinalities,
)

from privsynth import schema as schema_module

from helpers import random_dataset


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestSchema:
    def test_offsets_and_width(self):
        s = schema_from_cardinalities((2, 3, 4))
        assert s.d == 3
        assert s.d_prime == 9
        assert s.offsets == (0, 2, 5)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSpec("f", ("a", "a"))

    def test_json_roundtrip(self, tmp_path):
        s = schema_from_cardinalities((2, 5))
        s.save(tmp_path / "schema.json")
        assert Schema.load(tmp_path / "schema.json") == s


class TestLoadCsv:
    def test_inference_shapes(self, tmp_path):
        p = write(tmp_path, "toy.csv", "u,v\na,x\nb,y\na,z\n")
        d = load_csv(p)
        assert d.schema.cardinalities == (2, 3)
        assert d.schema.d_prime == 5
        # lexicographic category order, row order preserved
        assert d.schema.features[0].categories == ("a", "b")
        assert d.rows.tolist() == [[0, 0], [1, 1], [0, 2]]

    def test_deterministic(self, tmp_path):
        p = write(tmp_path, "toy.csv", "u,v\nb,x\na,y\n")
        d1, d2 = load_csv(p), load_csv(p)
        assert d1.schema == d2.schema
        assert np.array_equal(d1.rows, d2.rows)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/path.csv")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "bad.csv", "u,v\na\n")
        with pytest.raises(SchemaError, match="row 0"):
            load_csv(p)

    def test_missing_value_rejected(self, tmp_path):
        p = write(tmp_path, "bad.csv", "u,v\na,\n")
        with pytest.raises(SchemaError, match="row 0.*'v'"):
            load_csv(p)

    def test_unknown_label_under_schema(self, tmp_path):
        schema = Schema((FeatureSpec("u", ("a",)), FeatureSpec("v", ("x", "y"))))
        p = write(tmp_path, "bad.csv", "u,v\na,zzz\n")
        with pytest.raises(SchemaError, match="'zzz' at row 0, column 'v'"):
            load_csv(p, schema)

    def test_save_load_roundtrip(self, tmp_path):
        s = schema_from_cardinalities((3, 2))
        d = random_dataset(s, 20, np.random.default_rng(0))
        save_csv(d, tmp_path / "out.csv")
        back = load_csv(tmp_path / "out.csv", s)
        assert np.array_equal(back.rows, d.rows)

    def test_quoted_fields(self, tmp_path):
        p = write(tmp_path, "quoted.csv", 'u,v\n"a,b",x\nc,"y z"\n')
        d = load_csv(p)
        assert d.schema.features[0].categories == ("a,b", "c")
        assert d.schema.features[1].categories == ("x", "y z")

    def test_header_mismatch_under_schema(self, tmp_path):
        schema = Schema((FeatureSpec("u", ("a",)),))
        p = write(tmp_path, "bad.csv", "wrong\na\n")
        with pytest.raises(SchemaError, match="does not match schema"):
            load_csv(p, schema)


def reference_load_csv(path, schema=None):
    """The former row-by-row loader, kept as the oracle for the columnar one."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row")
        raw = list(reader)

    d = len(header)
    for r, row in enumerate(raw):
        if len(row) != d:
            raise SchemaError(f"{path}: row {r} has {len(row)} cells, expected {d}")
        for c, cell in enumerate(row):
            if cell == "":
                raise SchemaError(f"{path}: missing value at row {r}, column {header[c]!r}")

    if schema is None:
        feats = []
        for c, name in enumerate(header):
            labels = sorted({row[c] for row in raw})
            if not labels:
                labels = ["0"]
            feats.append(FeatureSpec(name, tuple(labels)))
        schema = Schema(tuple(feats))
    else:
        if header != schema.feature_names():
            raise SchemaError(
                f"{path}: header {header} does not match schema features {schema.feature_names()}"
            )

    lookup = [{lab: j for j, lab in enumerate(f.categories)} for f in schema.features]
    rows = np.empty((len(raw), d), dtype=np.int64)
    for r, row in enumerate(raw):
        for c, cell in enumerate(row):
            try:
                rows[r, c] = lookup[c][cell]
            except KeyError:
                raise SchemaError(
                    f"{path}: unknown label {cell!r} at row {r}, column {header[c]!r}"
                ) from None
    return DiscreteDataset(schema, rows)


def reference_save_csv(dataset, path):
    """The former row-by-row writer."""
    schema = dataset.schema
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.feature_names())
        for row in dataset.rows:
            writer.writerow([schema.features[i].categories[v] for i, v in enumerate(row)])


def outcome(loader, path, schema):
    try:
        data = loader(path, schema)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return data


# "zz" is never in a generated schema; "" is a missing value.
LABELS = ["a", "b", "c", "a,b", 'q"x', " s", "zz", ""]
NAMES = ["u", "v", "w"]


def csv_field(draw, text):
    if any(ch in text for ch in ',"\r\n') or draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_inputs(draw):
    """CSV text plus an optional schema, with none, one or several kinds of fault."""
    d = draw(st.integers(1, 3))
    faults = draw(st.sets(st.sampled_from(["ragged", "missing", "unknown", "header"])))
    header = NAMES[:d]
    if "header" in faults:
        header = draw(st.lists(st.sampled_from(NAMES + ["x"]), min_size=d, max_size=d))
    pool = LABELS[:6] + ["zz"] * ("unknown" in faults) + [""] * ("missing" in faults)
    row = st.lists(st.sampled_from(pool), min_size=d, max_size=d)
    if "ragged" in faults:
        row = row | st.lists(st.sampled_from(pool), max_size=4)  # ragged, or blank when empty
    lines = [header] + draw(st.lists(row, max_size=8))
    text = "".join(
        ",".join(csv_field(draw, cell) for cell in line) + draw(st.sampled_from(["\n", "\r\n"]))
        for line in lines
    )
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    schema = None
    if "unknown" in faults or draw(st.booleans()):
        cats = st.permutations(LABELS[:6])
        if "unknown" in faults:
            cats = cats | st.lists(st.sampled_from(LABELS[:6]), min_size=1, max_size=6, unique=True)
        schema = Schema(tuple(FeatureSpec(n, tuple(draw(cats))) for n in NAMES[:d]))
    return text, schema


class TestColumnarLoader:
    """The columnar loader agrees with the row-by-row reference on every input."""

    @settings(max_examples=300, deadline=None)
    @given(case=csv_inputs())
    def test_matches_reference(self, tmp_path_factory, case):
        text, schema = case
        self.check(tmp_path_factory, text, schema)

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet='ab,"\r\n ', max_size=40), with_schema=st.booleans())
    def test_matches_reference_on_raw_text(self, tmp_path_factory, text, with_schema):
        schema = Schema((FeatureSpec("a", ("a", "b")),)) if with_schema else None
        self.check(tmp_path_factory, text, schema)

    @staticmethod
    def check(tmp_path_factory, text, schema):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(reference_load_csv, path, schema)
        got = outcome(load_csv, path, schema)
        if isinstance(want, DiscreteDataset):
            assert isinstance(got, DiscreteDataset), got
            assert got.schema == want.schema
            assert got.rows.dtype == want.rows.dtype and np.array_equal(got.rows, want.rows)
        else:
            assert got == want

    def test_missing_value_before_ragged_row(self, tmp_path):
        p = write(tmp_path, "bad.csv", "u,v\na,x\na,\na\n")
        with pytest.raises(SchemaError, match="missing value at row 1, column 'v'"):
            load_csv(p)

    def test_ragged_row_before_missing_value(self, tmp_path):
        p = write(tmp_path, "bad.csv", "u,v\na,x\na\na,\n")
        with pytest.raises(SchemaError, match="row 1 has 1 cells, expected 2"):
            load_csv(p)

    def test_ragged_row_beats_its_own_missing_value(self, tmp_path):
        p = write(tmp_path, "bad.csv", "u,v,w\na,\n")
        with pytest.raises(SchemaError, match="row 0 has 2 cells, expected 3"):
            load_csv(p)

    def test_faulty_row_beats_header_mismatch(self, tmp_path):
        schema = Schema((FeatureSpec("u", ("a",)), FeatureSpec("v", ("x",))))
        p = write(tmp_path, "bad.csv", "u,wrong\na\n")
        with pytest.raises(SchemaError, match="row 0 has 1 cells"):
            load_csv(p, schema)

    def test_unknown_labels_reported_row_major(self, tmp_path):
        schema = Schema((FeatureSpec("u", ("a",)), FeatureSpec("v", ("x",))))
        p = write(tmp_path, "bad.csv", "u,v\na,x\na,zz\nyy,x\n")
        with pytest.raises(SchemaError, match="'zz' at row 1, column 'v'"):
            load_csv(p, schema)

    def test_crlf_and_quoted_newline(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b'u,v\r\n"a\r\nb",x\r\nc,"y,z"\r\n')
        d = load_csv(p)
        assert d.schema.features[0].categories == ("a\r\nb", "c")
        assert d.schema.features[1].categories == ("x", "y,z")
        assert d.rows.tolist() == [[0, 0], [1, 1]]

    def test_non_utf8_names_file_and_byte(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"u,v\na,b\n\xffc,d\n")
        with pytest.raises(SchemaError, match=r"bad\.csv: not valid UTF-8: byte 0xff at position 8"):
            load_csv(p)

    def test_non_utf8_position_is_absolute(self, tmp_path):
        # Far past the text layer's first read, so a chunk-relative offset would differ.
        head = b"u,v\n" + b"a,b\n" * 5000
        p = tmp_path / "late.csv"
        p.write_bytes(head + b"a,\xc3(\n")
        with pytest.raises(SchemaError, match=f"byte 0xc3 at position {len(head) + 2} "):
            load_csv(p)


# Unquoted labels of 1 to 9 UTF-8 bytes ("é" is 2 bytes, "€" is 3), to
# straddle the byte path's 8-byte key; "zz" is never in a generated schema.
BYTE_LABELS = ["a", "b", "é", "€", " s", "abcdefg", "abcdefgh", "abcdefghi", "éééé", "€€€"]
CHUNK_ROWS = [1, 2, 3, schema_module._CHUNK_ROWS]


@st.composite
def unquoted_inputs(draw):
    """Unquoted CSV text plus an optional schema, with none, one or two kinds of fault."""
    d = draw(st.integers(1, 3))
    kinds = st.sampled_from(["ragged", "blank", "missing", "unknown", "header"])
    faults = draw(st.sets(kinds, max_size=2))
    header = NAMES[:d]
    if "header" in faults:
        header = draw(st.lists(st.sampled_from(NAMES + ["x"]), min_size=d, max_size=d))
    labels = draw(st.lists(st.sampled_from(BYTE_LABELS), min_size=1, max_size=4, unique=True))
    pool = labels + ["zz"] * ("unknown" in faults) + [""] * ("missing" in faults)
    row = st.lists(st.sampled_from(pool), min_size=d, max_size=d)
    if "ragged" in faults:
        row = row | st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    lines = [",".join(cells) for cells in [header] + draw(st.lists(row, max_size=8))]
    if "blank" in faults:
        lines.insert(draw(st.integers(0, len(lines))), "")
    ends = st.sampled_from(draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]])))
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    schema = None
    if "unknown" in faults or draw(st.booleans()):
        extra = draw(st.lists(st.sampled_from(BYTE_LABELS + ["a,b", 'q"x']), max_size=2))
        cats = st.permutations(sorted(set(labels + extra)))
        if "unknown" in faults:
            cats = cats | st.lists(st.sampled_from(labels), min_size=1, unique=True)
        schema = Schema(tuple(FeatureSpec(n, tuple(draw(cats))) for n in NAMES[:d]))
    return text, schema


def no_reader(*args, **kwargs):
    raise AssertionError("csv.reader was called")


class TestBytePath:
    """The numpy byte path agrees with the row-by-row reference, chunk borders anywhere."""

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    @settings(max_examples=150, deadline=None)
    @given(case=unquoted_inputs())
    def test_matches_reference(self, tmp_path_factory, chunk_rows, case):
        text, schema = case
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            TestColumnarLoader.check(tmp_path_factory, text, schema)

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    @settings(max_examples=100, deadline=None)
    @given(text=st.text(alphabet="ab,\r\n é€\x00", max_size=40), with_schema=st.booleans())
    def test_matches_reference_on_raw_text(self, tmp_path_factory, chunk_rows, text, with_schema):
        schema = Schema((FeatureSpec("a", ("a", "b", "é")),)) if with_schema else None
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            TestColumnarLoader.check(tmp_path_factory, text, schema)

    def test_ragged_rows_that_balance_in_a_chunk(self, tmp_path):
        # 3 + 1 cells in two rows is the 2 x 2 a chunk expects, but not row by row.
        p = write(tmp_path, "bad.csv", "u,v\na,b,a\nb\n")
        with pytest.raises(SchemaError, match="row 0 has 3 cells, expected 2"):
            load_csv(p)

    def test_plain_and_crlf_files_skip_csv_reader(self, tmp_path, monkeypatch):
        # Labels "0".."11" infer in string order: "0", "1", "10", "11", "2", ...
        schema = schema_from_cardinalities((3, 2, 12))
        data = random_dataset(schema, 40, np.random.default_rng(0))
        crlf, plain = tmp_path / "crlf.csv", tmp_path / "plain.csv"
        save_csv(data, crlf)
        assert crlf.read_bytes().count(b"\r\n") == 41
        plain.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        inferred = reference_load_csv(plain)
        monkeypatch.setattr(csv, "reader", no_reader)
        for path in (plain, crlf):
            assert np.array_equal(load_csv(path, schema).rows, data.rows)
            got = load_csv(path)
            assert got.schema == inferred.schema and np.array_equal(got.rows, inferred.rows)

    def test_quoted_file_goes_through_csv_reader(self, tmp_path, monkeypatch):
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(a) or reader(*a, **k))
        p = write(tmp_path, "quoted.csv", 'u,v\n"a",x\n')
        assert load_csv(p).rows.tolist() == [[0, 0]]
        assert len(calls) == 1

    @staticmethod
    def check_byte_path(path, schema):
        """load_csv parses `path` without csv.reader and agrees with the reference."""
        want = reference_load_csv(path, schema)
        with mock.patch.object(csv, "reader", no_reader):
            got = load_csv(path, schema)
        assert got.schema == want.schema
        assert np.array_equal(got.rows, want.rows)

    @staticmethod
    def home_and_slot(labels):
        keys = np.array([int.from_bytes(lab.encode().ljust(8, b"\0"), "big") for lab in labels],
                        np.uint64)
        table = schema_module._LabelTable(keys)
        assert 2 * len(labels) <= 1 << table.bits  # at most half the home slots full
        home = (keys * table.mult >> np.uint64(64 - table.bits)).astype(np.intp)
        slot = np.array([np.flatnonzero(table.keys == key)[0] for key in keys])
        assert np.array_equal(table.ids[slot], np.arange(len(labels)))
        return home, slot

    def test_bench_size_columns_need_no_probing(self):
        for k in range(1, 8):
            home, slot = self.home_and_slot([str(v) for v in range(k)])
            assert np.array_equal(home, slot)

    def test_300_labels_need_probe_rounds(self, tmp_path):
        labels = [str(v) for v in range(300)]
        home, slot = self.home_and_slot(labels)
        assert (slot > home).any()  # some labels sit past their home slot
        rows = np.random.default_rng(0).permutation(np.repeat(np.arange(300), 3))
        p = write(tmp_path, "many.csv", "u,v\n" + "".join(
            f"{labels[a]},{labels[b]}\n" for a, b in zip(rows, rows[::-1])))
        self.check_byte_path(p, None)
        self.check_byte_path(p, Schema((FeatureSpec("u", tuple(labels)),
                                        FeatureSpec("v", tuple(labels[::-1])))))

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_columns_of_1_to_300_labels(self, tmp_path_factory, chunk_rows, data):
        k = data.draw(st.integers(1, 300), label="k")
        labels = data.draw(st.lists(st.integers(0, 10**8 - 1).map(str), min_size=k,
                                    max_size=k, unique=True), label="labels")
        order = data.draw(st.permutations(range(k)), label="order")
        rng = np.random.default_rng(k)
        cells = [labels[i] for i in order] + [labels[i] for i in rng.integers(0, k, 50)]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_text("u,v\n" + "".join(f"{c},{c[::-1]}\n" for c in cells), encoding="utf-8")
        schema = Schema((FeatureSpec("u", tuple(labels)),
                         FeatureSpec("v", tuple(lab[::-1] for lab in labels))))
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            self.check_byte_path(path, None)
            self.check_byte_path(path, schema)

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_lookalike_labels(self, tmp_path_factory, chunk_rows, data):
        # Prefixes of one another, 7 shared bytes, 8 bytes, multi-byte UTF-8.
        pool = ["1", "10", "100", "1000", "10000000", "abcdefg", "abcdefgh", "abcdefgi",
                "abcdefgz", "é", "éé", "éééé", "€", "€€", "a€€", "ab€€", "é€", "€é"]
        d = data.draw(st.integers(1, 3), label="d")
        cols = [data.draw(st.lists(st.sampled_from(pool), min_size=1, unique=True), label="col")
                for _ in range(d)]
        rows = data.draw(st.lists(st.tuples(*(st.sampled_from(c) for c in cols)), max_size=12))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_text("".join(",".join(r) + "\n" for r in [NAMES[:d]] + rows), encoding="utf-8")
        schema = Schema(tuple(FeatureSpec(NAMES[c], tuple(data.draw(st.permutations(cols[c]))))
                              for c in range(d)))
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            self.check_byte_path(path, None)
            self.check_byte_path(path, schema)

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    def test_inferred_labels_first_seen_in_late_chunks(self, tmp_path, chunk_rows):
        # Past two default chunks; "u" gains labels all along, "v" only in its last row.
        n = 2 * schema_module._CHUNK_ROWS + 700
        rng = np.random.default_rng(chunk_rows)
        first = np.arange(n) * 300 // n  # label i of "u" first appears at row ceil(i * n / 300)
        u = rng.integers(0, first + 1)
        u[np.searchsorted(first, np.arange(300))] = np.arange(300)
        v = ["x"] * (n - 1) + ["y"]
        p = write(tmp_path, "late.csv", "u,v,w\n" + "".join(
            f"{a * 7919},{b},{'pq'[a % 2]}\n" for a, b in zip(u.tolist(), v)))
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            self.check_byte_path(p, None)

    def test_bench_table_parity(self, tmp_path, monkeypatch):
        # The benchmark's 10^5-row table, LF and CRLF, with and without its schema.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        paths = workloads.write_inputs(workloads.WORKLOADS["cli-large-n"], 11, tmp_path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(paths.private.read_bytes().replace(b"\n", b"\r\n"))
        for given in (Schema.load(paths.schema), None):
            want = schema_module._load_text(paths.private, given)
            assert want.rows.shape == (100_000, 15)
            for path in (paths.private, crlf):
                with mock.patch.object(csv, "reader", no_reader):
                    got = load_csv(path, given)
                assert got.schema == want.schema and np.array_equal(got.rows, want.rows)


class TestWriters:
    def test_save_csv_matches_reference_bytes(self, tmp_path):
        schema = Schema((
            FeatureSpec("plain", ("a", "b")),
            FeatureSpec("needs,quotes", ("x,y", 'say "hi"', " pad ", "line\nbreak")),
            FeatureSpec("empty-ish", ("0", "-0.0", "é")),
        ))
        data = random_dataset(schema, 50, np.random.default_rng(3))
        save_csv(data, tmp_path / "new.csv")
        reference_save_csv(data, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert np.array_equal(load_csv(tmp_path / "new.csv", schema).rows, data.rows)

    def test_save_csv_zero_rows(self, tmp_path):
        schema = schema_from_cardinalities((2, 3))
        data = DiscreteDataset(schema, np.zeros((0, 2), dtype=np.int64))
        save_csv(data, tmp_path / "new.csv")
        reference_save_csv(data, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSchemaLayout:
    def test_layout_computed_once(self):
        s = schema_from_cardinalities((3, 1, 4, 2))
        assert s.cardinalities == (3, 1, 4, 2)
        assert s.offsets == (0, 3, 4, 8)
        assert s.d_prime == 10
        assert s.cardinalities is s.cardinalities
        assert s.offsets is s.offsets

    def test_cache_invisible_to_equality_hash_repr_and_json(self, tmp_path):
        a, b = schema_from_cardinalities((2, 5)), schema_from_cardinalities((2, 5))
        a.offsets, a.d_prime  # populate a's cache only
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != schema_from_cardinalities((5, 2))
        assert a.to_json_dict() == b.to_json_dict()
        a.save(tmp_path / "schema.json")
        back = Schema.load(tmp_path / "schema.json")
        assert back == a and back.offsets == a.offsets
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.features = ()


class TestBinNumeric:
    def test_midpoint_split(self):
        idx, spec = bin_numeric([0, 1, 2, 3], 2)
        assert idx.tolist() == [0, 0, 1, 1]
        assert spec.cardinality == 2

    def test_constant_column_collapses(self):
        idx, spec = bin_numeric([7.5] * 5, 10)
        assert idx.tolist() == [0] * 5
        assert spec.cardinality == 1

    def test_quarter_edges(self):
        # edges at 0.25 / 0.5 / 0.75; the max lands in the last bin
        idx, spec = bin_numeric([0, 0.4, 0.6, 1.0], 4)
        assert idx.tolist() == [0, 1, 2, 3]
        assert spec.cardinality == 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bin_numeric([1.0, float("nan")], 2)
        with pytest.raises(ValueError):
            bin_numeric([1.0], 0)
        with pytest.raises(ValueError):
            bin_numeric([], 2)


class TestOneHot:
    def test_single_row(self):
        s = schema_from_cardinalities((2, 2))
        d = DiscreteDataset(s, np.array([[1, 0]]))
        assert one_hot(d).bits.tolist() == [[0, 1, 1, 0]]

    def test_all_first_categories(self):
        s = schema_from_cardinalities((2, 3, 4))
        d = DiscreteDataset(s, np.zeros((1, 3), dtype=int))
        bits = one_hot(d).bits[0]
        assert np.flatnonzero(bits).tolist() == list(s.offsets)

    def test_hand_enumeration(self):
        s = schema_from_cardinalities((2, 3))
        d = DiscreteDataset(s, np.array([[0, 2], [1, 0], [1, 2]]))
        assert one_hot(d).bits.tolist() == [
            [1, 0, 0, 0, 1],
            [0, 1, 1, 0, 0],
            [0, 1, 0, 0, 1],
        ]

    def test_row_structure(self):
        rng = np.random.default_rng(3)
        s = schema_from_cardinalities((3, 2, 5))
        bits = one_hot(random_dataset(s, 40, rng)).bits
        assert (bits.sum(axis=1) == s.d).all()
        for off, t in zip(s.offsets, s.cardinalities):
            assert (bits[:, off : off + t].sum(axis=1) == 1).all()


class TestDecode:
    def test_inverse_of_one_hot_example(self):
        s = schema_from_cardinalities((2, 2))
        assert decode_row(np.array([0, 1, 1, 0]), s).tolist() == [1, 0]

    def test_all_first(self):
        s = schema_from_cardinalities((2, 3))
        assert decode_row(np.array([1, 0, 1, 0, 0]), s).tolist() == [0, 0]

    def test_invalid_block_names_feature(self):
        s = schema_from_cardinalities((2, 2))
        with pytest.raises(SchemaError, match="feature 0"):
            decode_row(np.array([1, 1, 1, 0]), s)

    def test_round_trip_random_datasets(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = rng.integers(1, 6)
            cards = tuple(int(rng.integers(1, 5)) for _ in range(d))
            data = random_dataset(schema_from_cardinalities(cards), int(rng.integers(1, 30)), rng)
            back = decode(one_hot(data))
            assert np.array_equal(back.rows, data.rows)
