import csv
import dataclasses
import tracemalloc
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


# Labels of one byte each, which the fixed-layout read maps by byte value;
# "z" is never in a generated schema.
ONE_BYTE_LABELS = ["a", "b", "0", "9", " ", "~"]


@st.composite
def one_byte_inputs(draw):
    """CSV text of one-byte cells plus an optional schema, with faults inside 2*d-byte lines.

    The schema may hold the wide label "ab" and the label ",", which no cell can match.
    """
    d = draw(st.integers(1, 3))
    faults = draw(st.sets(st.sampled_from(["unknown", "separators", "wide"]), max_size=2))
    cols = [draw(st.lists(st.sampled_from(ONE_BYTE_LABELS), min_size=1, unique=True))
            for _ in range(d)]
    row = st.tuples(*(st.sampled_from(c) for c in cols)).map(list)
    lines = [",".join(cells) for cells in draw(st.lists(row, max_size=10))]
    faulty = []
    if "unknown" in faults:  # an unknown byte in a cell slot
        cells = draw(row)
        cells[draw(st.integers(0, d - 1))] = "z"
        faulty.append(",".join(cells))
    if "separators" in faults:  # 2*d - 1 bytes of cells and commas: "a,,", ",a,", "ab," for d = 2
        faulty.append(draw(st.text(alphabet="ab,", min_size=2 * d - 1, max_size=2 * d - 1)))
    if "wide" in faults:  # one line with a two-byte cell
        cells = draw(row)
        cells[draw(st.integers(0, d - 1))] = "ab"
        faulty.append(",".join(cells))
    for line in faulty:
        lines.insert(draw(st.integers(0, len(lines))), line)
    ends = st.sampled_from(draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]])))
    text = "".join(line + draw(ends) for line in [",".join(NAMES[:d])] + lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    schema = None
    if "unknown" in faults or draw(st.booleans()):
        extra = draw(st.lists(st.sampled_from(["ab", ","]), max_size=2, unique=True))
        schema = Schema(tuple(FeatureSpec(NAMES[c], tuple(draw(st.permutations(cols[c] + extra))))
                              for c in range(d)))
    return text, schema


def no_reader(*args, **kwargs):
    raise AssertionError("csv.reader was called")


def no_lookup(*args, **kwargs):
    raise AssertionError("schema._lookup was called")


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

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    @settings(max_examples=150, deadline=None)
    @given(case=one_byte_inputs())
    def test_one_byte_cells_match_reference(self, tmp_path_factory, chunk_rows, case):
        text, schema = case
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            TestColumnarLoader.check(tmp_path_factory, text, schema)

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    @pytest.mark.parametrize("line", ["a,,", ",a,", "ab,", "a,z", ",,,", "ab,a", "a,b,a\nb"])
    def test_faults_among_fixed_layout_lines(self, tmp_path_factory, chunk_rows, line):
        # Every other line is 4 bytes of two one-byte cells, and so is `line`
        # but for the lone wide one and the ragged pair, whose 8 bytes hold 4
        # one-byte cells as 3 + 1; "," is a label of the schema.
        text = "u,v\n" + "a,b\n" * 3 + line + "\n" + "b,a\n" * 3
        schema = Schema((FeatureSpec("u", (",", "a", "b", "ab")), FeatureSpec("v", ("b", "a", ","))))
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            for given in (schema, None):
                TestColumnarLoader.check(tmp_path_factory, text, given)

    def test_one_byte_labels_skip_the_hash_lookup(self, tmp_path, monkeypatch):
        schema = schema_from_cardinalities((3, 2, 10))  # labels "0".."9"
        data = random_dataset(schema, 40, np.random.default_rng(0))
        path = tmp_path / "t.csv"
        save_csv(data, path)
        monkeypatch.setattr(csv, "reader", no_reader)
        monkeypatch.setattr(schema_module, "_lookup", no_lookup)
        assert np.array_equal(load_csv(path, schema).rows, data.rows)

    def test_two_digit_labels_take_the_hash_lookup(self, tmp_path, monkeypatch):
        schema = schema_from_cardinalities((3, 2, 12))  # "10" and "11" are two bytes
        data = random_dataset(schema, 40, np.random.default_rng(0))
        assert (data.rows[:, 2] >= 10).any()
        path = tmp_path / "t.csv"
        save_csv(data, path)
        calls, lookup = [], schema_module._lookup
        monkeypatch.setattr(csv, "reader", no_reader)
        monkeypatch.setattr(schema_module, "_lookup", lambda *a: calls.append(a) or lookup(*a))
        assert np.array_equal(load_csv(path, schema).rows, data.rows)
        assert calls

    def test_header_only_file_infers_the_same_schema(self, tmp_path, monkeypatch):
        p = write(tmp_path, "empty.csv", "u,v\n")
        want = schema_module._load_text(p, None)
        monkeypatch.setattr(csv, "reader", no_reader)
        got = load_csv(p)
        placeholder = Schema((FeatureSpec("u", ("0",)), FeatureSpec("v", ("0",))))
        assert got.schema == want.schema == placeholder
        assert got.n == want.n == 0

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


@st.composite
def category_tables(draw):
    """(cardinalities, rows, dtype): cells drawn around each feature's bounds -1, 0, t-1, t."""
    cards = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = draw(st.integers(0, 6))
    rows = [[draw(st.sampled_from([-1, 0, t - 1, t, draw(st.integers(-3, t + 2))])) for t in cards]
            for _ in range(n)]
    return cards, rows, draw(st.sampled_from([np.int32, np.int64]))


class TestDiscreteDatasetRange:
    @staticmethod
    def reference_in_range(cards, rows) -> bool:
        """The range check as two comparisons: no negative index, none at or above its t."""
        t = np.asarray(cards)
        return not (rows.size and ((rows < 0).any() or (rows >= t[None, :]).any()))

    @settings(max_examples=300, deadline=None)
    @given(case=category_tables())
    def test_matches_two_comparison_reference(self, case):
        cards, rows, dtype = case
        rows = np.asarray(rows, dtype=dtype).reshape(len(rows), len(cards))
        schema = schema_from_cardinalities(cards)
        if self.reference_in_range(cards, rows):
            assert DiscreteDataset(schema, rows).rows.tolist() == rows.tolist()
        else:
            with pytest.raises(SchemaError, match="category index out of range for its feature"):
                DiscreteDataset(schema, rows)


class TestColumnMajorRows:
    """Rows are the .T view of a C-contiguous (d, n) buffer in the narrowest unsigned dtype."""

    @pytest.mark.parametrize("top, dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
    ])
    def test_dtype_ladder(self, top, dtype):
        s = schema_from_cardinalities((2, top))
        data = DiscreteDataset(s, np.array([[1, top - 1], [0, 0]]))
        assert s.id_dtype == dtype and data.rows.dtype == dtype
        assert data.rows.T.flags.c_contiguous
        assert data.rows.tolist() == [[1, top - 1], [0, 0]]

    def test_bench_schema_takes_one_byte_per_cell(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        s = schema_from_cardinalities(workloads.CARDINALITIES)
        data = random_dataset(s, 1000, np.random.default_rng(5))
        save_csv(data, tmp_path / "t.csv")
        for got in (data, load_csv(tmp_path / "t.csv", s), load_csv(tmp_path / "t.csv")):
            assert got.rows.dtype == np.uint8 and got.rows.nbytes == 1000 * s.d
            assert got.rows.T.flags.c_contiguous

    def test_input_in_layout_is_kept(self):
        s = schema_from_cardinalities((3, 4))
        columns = np.array([[0, 2, 1], [3, 0, 1]], np.uint8)
        assert np.shares_memory(DiscreteDataset(s, columns.T).rows, columns)
        for other in (columns.T.copy(), columns.T.astype(np.int64), columns.astype(np.uint16).T):
            data = DiscreteDataset(s, other)
            assert not np.shares_memory(data.rows, other)
            assert data.rows.dtype == np.uint8 and data.rows.T.flags.c_contiguous
            assert data.rows.tolist() == columns.T.tolist()

    @pytest.mark.parametrize("dtype, top", [(np.int8, 200), (np.int16, 65500)])
    def test_negatives_of_narrow_signed_input_rejected(self, dtype, top):
        # Viewed unsigned, -100 reads as a valid id at these cardinalities.
        s = schema_from_cardinalities((top,))
        with pytest.raises(SchemaError, match="category index out of range"):
            DiscreteDataset(s, np.array([[1], [-100]], dtype))
        assert DiscreteDataset(s, np.array([[1], [100]], dtype)).rows.tolist() == [[1], [100]]

    @pytest.mark.parametrize("value", [1.7, -0.5, 2.5, np.nan, np.inf])
    def test_non_integral_values_rejected(self, value):
        s = schema_from_cardinalities((3,))
        with pytest.raises(SchemaError, match="category indices must be integers"):
            DiscreteDataset(s, np.array([[1.0], [value]]))
        assert DiscreteDataset(s, np.array([[1.0], [2.0]])).rows.tolist() == [[1], [2]]

    @pytest.mark.parametrize("chunk_rows", [5, 2048])
    def test_inferred_csv_past_256_labels_loads_as_uint16(self, tmp_path, chunk_rows):
        labels = [f"L{i}" for i in range(300)]
        p = write(tmp_path, "wide.csv", "u,v\n" + "".join(f"{lab},x\n" for lab in labels))
        with mock.patch.object(schema_module, "_CHUNK_ROWS", chunk_rows):
            with mock.patch.object(csv, "reader", no_reader):
                got = load_csv(p)
        want = schema_module._load_text(p, None)
        assert got.schema == want.schema and got.schema.cardinalities == (300, 1)
        for data in (got, want):
            assert data.rows.dtype == np.uint16 and data.rows.T.flags.c_contiguous
            assert np.array_equal(data.rows[:, 0], [sorted(labels).index(lab) for lab in labels])

    def test_load_holds_one_copy_of_the_file(self, tmp_path, monkeypatch):
        # The bytes (30 a row), their newline offsets (8) and the table (15),
        # plus one chunk's scratch; a decode, a padded copy or a file-sized
        # newline mask beside the bytes would pass 2x the file.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        s = schema_from_cardinalities(workloads.CARDINALITIES)
        n = 500_000
        rng = np.random.default_rng(6)
        line = np.full((n, 2 * s.d), ord(","), np.uint8)
        for c, t in enumerate(s.cardinalities):
            line[:, 2 * c] = rng.integers(0, t, n, dtype=np.uint8) + ord("0")
        line[:, -1] = ord("\n")
        p = tmp_path / "big.csv"
        p.write_bytes((",".join(s.feature_names()) + "\n").encode() + line.tobytes())
        del line
        tracemalloc.start()
        try:
            data = load_csv(p, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.n == n and data.rows.dtype == np.uint8
        assert peak <= 2 * p.stat().st_size


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
