import base64
import json
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spc import (FileFormatError, LabeledRecord, LabelRegistry, PrototypeSet,
                 ReportTable, SpcError, normalize, read_prototypes, read_records,
                 render_report, write_manifest, write_prototypes,
                 write_records, write_report)
from spc import data_io
from spc.data_io import _read_lines, _write_lines


def make_records(n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    reg = LabelRegistry()
    recs = [LabeledRecord(user=f"u{i % 2}", t=i // 2 + 1,
                          class_id=reg.intern(f"c{i % 3}"),
                          vec=normalize(rng.standard_normal(dim)))
            for i in range(n)]
    return recs, reg


def b64(values) -> str:
    """A vector as a version 2 line spells it."""
    return base64.b64encode(np.asarray(values, "<f4").tobytes()).decode()


def assert_same_bits(a, b):
    np.testing.assert_array_equal(np.asarray(a, np.float32).view(np.uint32),
                                  np.asarray(b, np.float32).view(np.uint32))


class TestRecordsRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        recs, reg = make_records(10)
        path = tmp_path / "a.records"
        write_records(recs, path, registry=reg)
        back, reg2 = read_records(path)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert a.user == b.user and a.t == b.t
            assert reg.resolve(a.class_id) == reg2.resolve(b.class_id)
            np.testing.assert_array_equal(a.vec.view(np.uint32),
                                          b.vec.view(np.uint32))

    def test_negative_zero_and_subnormal_survive(self, tmp_path):
        vec = np.array([0.6, -0.0, 1e-45, 0.8], dtype=np.float32)
        path = tmp_path / "a.records"
        write_records([LabeledRecord("u", 1, 0, vec)], path)
        back, _ = read_records(path)
        np.testing.assert_array_equal(back[0].vec.view(np.uint32),
                                      vec.view(np.uint32))

    def test_files_in_the_earlier_format_read_the_same(self, tmp_path):
        """Version 1 files, whose vectors are JSON lists, read back to the
        records of the version 2 file the writer makes of the same data, in
        both spellings of a component that version 1 files hold."""
        recs, reg = make_records(6, dim=16)
        recs.append(LabeledRecord("u0", 9, 0, np.array(
            [0.6, -0.0, 1e-45, 0.8] + [0.0] * 12, dtype=np.float32)))
        new, old = tmp_path / "new.records", tmp_path / "old.records"
        write_records(recs, new, registry=reg)
        assert json.loads(new.read_text().splitlines()[0])["version"] == 2
        got_new, reg_new = read_records(new)
        header = {"format": "spc-records", "version": 1, "dim": 16,
                  "normalize": False}
        for spell in (lambda x: "%.9g" % x if x else repr(x),  # keeps -0.0
                      repr):  # the shortest repr of the float64 value
            old.write_text("\n".join(
                [json.dumps(header)]
                + [json.dumps({"user": r.user, "t": r.t,
                               "label": reg.resolve(r.class_id)},
                              separators=(",", ":"))[:-1]
                   + ',"vec":[' + ",".join(map(spell, r.vec.tolist())) + "]}"
                   for r in recs]) + "\n")
            got_old, reg_old = read_records(old)
            assert len(got_new) == len(got_old) == len(recs)
            for a, b in zip(got_new, got_old):
                assert (a.user, a.t, reg_new.resolve(a.class_id)) == \
                    (b.user, b.t, reg_old.resolve(b.class_id))
                assert_same_bits(a.vec, b.vec)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_component_refused_at_write(self, tmp_path, bad):
        recs, reg = make_records(4, dim=3)
        vec = recs[3].vec.copy()
        vec[1] = bad
        recs[3] = LabeledRecord(recs[3].user, recs[3].t, recs[3].class_id,
                                vec)
        path = tmp_path / "a.records"
        with pytest.raises(SpcError, match=re.escape(
                f"record of user {recs[3].user!r} at t={recs[3].t}: vector "
                f"is not unit-normalized")):
            write_records(recs, path, registry=reg)
        assert not path.exists()

    @pytest.mark.parametrize("vec", [[1.0, 0.0], [0.6, 0.8, 0.0, 0.0, 0.0]])
    def test_wrong_length_refused_at_write(self, tmp_path, vec):
        recs, reg = make_records(4, dim=4)
        recs[2] = LabeledRecord(recs[2].user, recs[2].t, recs[2].class_id,
                                np.array(vec, dtype=np.float32))
        path = tmp_path / "a.records"
        with pytest.raises(SpcError, match=re.escape(
                f"record of user {recs[2].user!r} at t={recs[2].t}: vector "
                f"shape ({len(vec)},), expected (4,)")):
            write_records(recs, path, registry=reg)
        assert not path.exists()

    def test_explicit_dim_that_disagrees_refused_at_write(self, tmp_path):
        recs, reg = make_records(3, dim=4)
        path = tmp_path / "a.records"
        with pytest.raises(SpcError, match=re.escape(
                f"record of user {recs[0].user!r} at t={recs[0].t}: vector "
                f"shape (4,), expected (2,)")):
            write_records(recs, path, registry=reg, dim=2)
        assert not path.exists()

    def test_non_unit_refused_at_write(self, tmp_path):
        recs, reg = make_records(4, dim=2)
        recs[1] = LabeledRecord(recs[1].user, recs[1].t, recs[1].class_id,
                                np.array([3.0, 4.0], dtype=np.float32))
        path = tmp_path / "a.records"
        with pytest.raises(SpcError, match=re.escape(
                f"record of user {recs[1].user!r} at t={recs[1].t}: vector "
                f"is not unit-normalized within 1e-06")):
            write_records(recs, path, registry=reg)
        assert not path.exists()

    def test_unknown_class_id_refused_before_the_file_opens(self, tmp_path):
        recs, reg = make_records(4, dim=2)
        recs[2] = LabeledRecord(recs[2].user, recs[2].t, 3, recs[2].vec)
        path = tmp_path / "a.records"
        with pytest.raises(SpcError, match="class id 3 has no label"):
            write_records(recs, path, registry=reg)
        assert not path.exists()

    def test_numpy_integer_t_round_trips(self, tmp_path):
        """LabeledRecord takes a numpy integer t, as check_int does, and
        the writer writes it, and a numpy integer dim, as the integers
        they are."""
        vec = np.array([0.6, 0.8], dtype=np.float32)
        path = tmp_path / "a.records"
        write_records([LabeledRecord("u", np.int64(7), 0, vec)], path,
                      dim=np.int64(2))
        back, _ = read_records(path)
        assert back[0].t == 7 and type(back[0].t) is int
        assert_same_bits(back[0].vec, vec)

    def test_a_field_the_reader_refuses_leaves_no_file(self, tmp_path):
        """A record that is not a LabeledRecord, whose t read_records would
        refuse, fails before the file is opened."""
        vec = np.array([0.6, 0.8], dtype=np.float32)
        recs = [LabeledRecord("u", 1, 0, vec),
                SimpleNamespace(user="u", t=2.5, class_id=0, vec=vec)]
        path = tmp_path / "a.records"
        with pytest.raises(SpcError, match=re.escape(
                "t must be an integer from 1 to 2**63 - 1, got 2.5")):
            write_records(recs, path)
        assert not path.exists()

    def test_empty_record_list_with_dim_writes_a_header(self, tmp_path):
        path = tmp_path / "a.records"
        write_records([], path, dim=3)
        assert read_records(path)[0] == []

    @pytest.mark.parametrize("dim", [0, -1, 2.0])
    def test_a_dim_the_reader_refuses_leaves_no_file(self, tmp_path, dim):
        path = tmp_path / "a.records"
        with pytest.raises(SpcError, match=re.escape(
                f"dim must be an integer from 1 to 2**63 - 1, got {dim!r}")):
            write_records([], path, dim=dim)
        assert not path.exists()

    def test_shared_registry_keeps_ids(self, tmp_path):
        recs, reg = make_records(6)
        path = tmp_path / "a.records"
        write_records(recs, path, registry=reg)
        back, _ = read_records(path, registry=reg)
        assert [r.class_id for r in back] == [r.class_id for r in recs]

    def test_normalize_on_load(self, tmp_path):
        path = tmp_path / "a.records"
        header = {"format": "spc-records", "version": 1, "dim": 2,
                  "normalize": True}
        line = {"user": "u", "t": 1, "label": "c", "vec": [3.0, 4.0]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n")
        back, _ = read_records(path)
        np.testing.assert_allclose(back[0].vec, [0.6, 0.8], atol=1e-6)

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [float("nan"), 1.0]])
    def test_normalize_on_load_cites_the_line(self, tmp_path, bad):
        path = tmp_path / "a.records"
        header = {"format": "spc-records", "version": 1, "dim": 2,
                  "normalize": True}
        good = {"user": "u", "t": 1, "label": "c", "vec": [3.0, 4.0]}
        line = {"user": "u", "t": 2, "label": "c", "vec": bad}
        path.write_text("\n".join(json.dumps(x) for x in (header, good, line))
                        + "\n")
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}:3: cannot normalize zero or non-finite vector")):
            read_records(path)

    def test_non_unit_rejected_without_normalize_flag(self, tmp_path):
        path = tmp_path / "a.records"
        header = {"format": "spc-records", "version": 1, "dim": 2,
                  "normalize": False}
        line = {"user": "u", "t": 1, "label": "c", "vec": [3.0, 4.0]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_records(path)

    def test_nan_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "a.records"
        header = {"format": "spc-records", "version": 1, "dim": 2,
                  "normalize": False}
        good = {"user": "u", "t": 1, "label": "c", "vec": [0.6, 0.8]}
        bad = {"user": "u", "t": 2, "label": "c", "vec": [float("nan")] * 2}
        path.write_text("\n".join(json.dumps(x) for x in (header, good, bad))
                        + "\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_records(path)

    def test_errors_cite_line_numbers(self, tmp_path):
        recs, reg = make_records(4, dim=2)
        path = tmp_path / "a.records"
        write_records(recs, path, registry=reg)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=":4:"):
            read_records(path)

    def test_wrong_dim_rejected(self, tmp_path):
        path = tmp_path / "a.records"
        header = {"format": "spc-records", "version": 1, "dim": 3,
                  "normalize": False}
        line = {"user": "u", "t": 1, "label": "c", "vec": [1.0, 0.0]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_records(path)

    def test_wrong_format_name_rejected(self, tmp_path):
        path = tmp_path / "a.records"
        path.write_text(json.dumps({"format": "other", "version": 1,
                                    "dim": 2}) + "\n")
        with pytest.raises(FileFormatError, match=":1:"):
            read_records(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "a.records"
        path.write_text(json.dumps({"format": "spc-records", "version": 3,
                                    "dim": 2}) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}:1: unsupported version 3")):
            read_records(path)

    @pytest.mark.parametrize("field,value", [
        ("version", True), ("version", 1.0), ("dim", True), ("dim", 2.0),
        ("normalize", "false"), ("normalize", 0)])
    def test_header_field_of_wrong_type_rejected(self, tmp_path, field,
                                                 value):
        """A header value equal to a legal one but of another type is
        refused: "normalize": "false" would otherwise turn normalizing on."""
        path = tmp_path / "a.records"
        header = {"format": "spc-records", "version": 1, "dim": 2,
                  "normalize": False, field: value}
        line = {"user": "u", "t": 1, "label": "c", "vec": [3.0, 4.0]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{path}:1: {field} must be")):
            read_records(path)

    @pytest.mark.parametrize("header", ["[1, 2]", '"spc-records"', ""])
    def test_header_that_is_no_object_rejected(self, tmp_path, header):
        path = tmp_path / "a.records"
        path.write_text(header + "\n")
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{path}:1: malformed header")):
            read_records(path)


class TestPrototypesRoundTrip:
    def test_round_trip_with_counts(self, tmp_path):
        rng = np.random.default_rng(1)
        reg = LabelRegistry()
        ids = [reg.intern(f"c{i}") for i in range(5)]
        protos = PrototypeSet(
            8, class_ids=ids,
            vectors=np.stack([normalize(rng.standard_normal(8))
                              for _ in range(5)]),
            counts={c: 10 + c for c in ids})
        path = tmp_path / "p.protos"
        write_prototypes(protos, path, registry=reg)
        back, reg2 = read_prototypes(path)
        np.testing.assert_array_equal(protos.matrix, back.matrix)
        assert {reg.resolve(c): n for c, n in protos.counts.items()} == \
            {reg2.resolve(c): n for c, n in back.counts.items()}

    def test_unknown_class_id_refused_before_the_file_opens(self, tmp_path):
        reg = LabelRegistry()
        ids = [reg.intern("c0"), 1]
        protos = PrototypeSet(2, class_ids=ids,
                              vectors=np.eye(2, dtype=np.float32))
        path = tmp_path / "p.protos"
        with pytest.raises(SpcError, match="class id 1 has no label"):
            write_prototypes(protos, path, registry=reg)
        assert not path.exists()

    def test_empty_set_round_trip(self, tmp_path):
        path = tmp_path / "p.protos"
        write_prototypes(PrototypeSet(4), path)
        back, _ = read_prototypes(path)
        assert len(back.class_ids) == 0 and back.dim == 4

    def test_duplicate_label_rejected(self, tmp_path):
        path = tmp_path / "p.protos"
        header = {"format": "spc-prototypes", "version": 1, "dim": 2}
        line = {"label": "c", "count": 1, "vec": [1.0, 0.0]}
        path.write_text(json.dumps(header) + "\n"
                        + json.dumps(line) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_prototypes(path)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_float32_values_survive_exactly(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 32))
        protos = PrototypeSet(dim, class_ids=[0],
                              vectors=normalize(
                                  rng.standard_normal(dim))[None, :])
        path = tmp_path_factory.mktemp("rt") / "p.protos"
        write_prototypes(protos, path)
        back, _ = read_prototypes(path)
        np.testing.assert_array_equal(protos.matrix.view(np.uint32),
                                      back.matrix.view(np.uint32))

    def test_wrong_dim_names_length_and_dim(self, tmp_path):
        path = tmp_path / "p.protos"
        header = {"format": "spc-prototypes", "version": 1, "dim": 3}
        line = {"label": "c", "count": 1, "vec": [1.0, 0.0]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}:2: vec length 2 does not match dim 3")):
            read_prototypes(path)

    def test_non_unit_vector_cites_the_line(self, tmp_path):
        path = tmp_path / "p.protos"
        header = {"format": "spc-prototypes", "version": 1, "dim": 2}
        good = {"label": "a", "count": 1, "vec": [0.6, 0.8]}
        bad = {"label": "b", "count": 1, "vec": [1.0, 1.0]}
        path.write_text("\n".join(json.dumps(x) for x in (header, good, bad))
                        + "\n")
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}:3: vector norm 1.4142135623730951 is not 1 within "
                f"1e-06")):
            read_prototypes(path)


FLT_MAX_BITS = 0x7F7FFFFF
SMALLEST_SUBNORMAL_BITS = 0x00000001
SIGN_BIT = 0x80000000


@given(bits=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64))
@example(bits=[0, SIGN_BIT])
@example(bits=[SMALLEST_SUBNORMAL_BITS, SIGN_BIT | SMALLEST_SUBNORMAL_BITS])
@example(bits=[FLT_MAX_BITS, SIGN_BIT | FLT_MAX_BITS])
@example(bits=[int(np.float32(331719808.0).view(np.uint32))])
@settings(max_examples=300, deadline=None)
def test_vector_format_is_bit_exact_for_finite_float32(tmp_path_factory,
                                                       bits):
    """Any finite float32 vector survives the line writer and reader that
    both file kinds share. The unit vector made of its values of magnitude
    below 1/8 (at most 64 of them, so their squares sum to at most 1) and
    one completing component survives each kind's public writer and
    reader."""
    vec = np.array(bits, dtype=np.uint32).view(np.float32)
    vec = vec[np.isfinite(vec)]
    assume(vec.size)
    path = tmp_path_factory.getbasetemp() / "bit-exact"
    _write_lines(path, "spc-prototypes", {"dim": vec.size}, ['"label":"c"'],
                 vec[None, :])
    back = []
    _read_lines(path, "spc-prototypes",
                lambda objs, vecs, check: back.extend(zip(map(list, objs),
                                                          vecs)))
    assert back[0][0] == ["label", "vec"]
    assert_same_bits(back[0][1], vec)

    small = vec[np.abs(vec) < 0.125]
    rest = 1.0 - np.dot(small.astype(np.float64), small.astype(np.float64))
    unit = np.append(small, np.float32(np.sqrt(rest)))
    write_records([LabeledRecord("u", 1, 0, unit)], path)
    assert_same_bits(read_records(path)[0][0].vec, unit)
    write_prototypes(PrototypeSet(unit.size, [0], unit[None, :]), path)
    assert_same_bits(read_prototypes(path)[0].matrix[0], unit)


LINES = {"records": (read_records, "spc-records",
                     {"user": "u", "t": 1, "label": "c"}),
         "prototypes": (read_prototypes, "spc-prototypes",
                        {"label": "c", "count": 3})}
# per kind: the reader, a header and a good line, as a version 1 file and,
# under "<kind>-v2", as a version 2 file
READERS = {kind + suffix: (read, {"format": fmt, "version": version,
                                  "dim": 2}, {**fields, "vec": vec})
           for kind, (read, fmt, fields) in LINES.items()
           for suffix, version, vec in (("", 1, [0.6, 0.8]),
                                        ("-v2", 2, b64([0.6, 0.8])))}
BAD_FIELDS = [
    ("records", "t", "x"), ("records", "t", 0), ("records", "t", 1.7),
    ("records", "t", True), ("records", "label", 5), ("records", "label", ""),
    ("records", "user", 5), ("records", "t", 2**63),
    ("prototypes", "count", "x"), ("prototypes", "count", 2**63),
    ("prototypes", "count", 0), ("prototypes", "count", -3),
    ("prototypes", "count", 2.5), ("prototypes", "count", True),
    ("prototypes", "label", 5), ("prototypes", "label", ["c"]),
]


# The block reader. A fault at FAULT_LINE, read in 512-byte blocks, is in
# a later block than the first: GOOD_BEFORE good lines ahead of it fill
# more than a block, and good lines after it share its block. A fault at
# line 2 or 3 is in the first block.
GOOD_BEFORE = 20
FAULT_LINE = 2 + GOOD_BEFORE


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(data_io, "READ_BLOCK", 512)


def write_with_fault(path, header, good, bad, lineno=FAULT_LINE):
    """A file whose line lineno is bad (bytes, or an object to dump): the
    header, good lines ahead of it and five after it, labeled g0, g1, ...
    and h0, h1, ... so that no two good lines share a label."""
    def dump(obj):
        return obj if isinstance(obj, bytes) else json.dumps(obj).encode()
    lines = ([dump(header)]
             + [dump({**good, "label": f"g{i}"}) for i in range(lineno - 2)]
             + [dump(bad)]
             + [dump({**good, "label": f"h{i}"}) for i in range(5)])
    path.write_bytes(b"\n".join(lines) + b"\n")


def labels(registry):
    """A registry's labels in id order."""
    out = []
    while True:
        try:
            out.append(registry.resolve(len(out)))
        except SpcError:
            return out


# each case as line 2, as line 3 after one good line and in a later
# block, in both versions
BAD_FIELD_CASES = [(kind + suffix, field, value, lineno)
                   for suffix in ("", "-v2") for lineno in (2, 3, FAULT_LINE)
                   for kind, field, value in BAD_FIELDS]
AT = {2: "", 3: "-after-a-good-line", FAULT_LINE: "-in-a-later-block"}


@pytest.mark.parametrize(
    "kind,field,value,lineno", BAD_FIELD_CASES,
    ids=[f"{k}-{f}={v!r}" + AT[lineno]
         for k, f, v, lineno in BAD_FIELD_CASES])
def test_bad_field_fails_with_line_number(tmp_path, small_blocks, kind,
                                          field, value, lineno):
    read, header, good = READERS[kind]
    path = tmp_path / "bad"
    write_with_fault(path, header, good, {**good, field: value}, lineno)
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}:{lineno}: {field} must be")):
        read(path)


MISSING_KEYS = [("records", "user"), ("records", "t"), ("records", "label"),
                ("records", "vec"), ("prototypes", "label"),
                ("prototypes", "vec")]
MISSING_KEY_CASES = [(kind + suffix, key, lineno)
                     for lineno in (3, FAULT_LINE) for suffix in ("", "-v2")
                     for kind, key in MISSING_KEYS]


@pytest.mark.parametrize(
    "kind,key,lineno", MISSING_KEY_CASES,
    ids=[f"{k}-{key}" + ("" if lineno == 3 else "-in-a-later-block")
         for k, key, lineno in MISSING_KEY_CASES])
def test_missing_key_is_a_malformed_line(tmp_path, small_blocks, kind, key,
                                         lineno):
    read, header, good = READERS[kind]
    path = tmp_path / "bad"
    write_with_fault(path, header, good,
                     {k: v for k, v in good.items() if k != key}, lineno)
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}:{lineno}: malformed line: missing key {key!r}")):
        read(path)


# a byte that is not UTF-8 in the header, the first body line, a later one
# or one in a later block
@pytest.mark.parametrize("kind", READERS)
@pytest.mark.parametrize("lineno", [1, 2, 3, FAULT_LINE])
def test_non_utf8_byte_is_malformed(tmp_path, small_blocks, kind, lineno):
    read, header, good = READERS[kind]

    def spoil(obj):
        return json.dumps(obj).encode().replace(b'"', b'"\xff', 1)
    path = tmp_path / "bad"
    if lineno == 1:
        write_with_fault(path, spoil(header), good, good, 2)
    else:
        write_with_fault(path, header, good, spoil(good), lineno)
    what = "header" if lineno == 1 else "line"
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}:{lineno}: malformed {what}: 'utf-8' codec can't decode "
            "byte 0xff")):
        read(path)


# a bad vec: (version, vec, message)
BAD_VECS = {
    "bad-alphabet": (2, "@@", "malformed line: Only base64 data is allowed"),
    "bad-padding": (2, "QUI", "malformed line: Incorrect padding"),
    "6-bytes": (2, "AAAAAAAA", "malformed line: "),  # 1.5 float32 values
    "3-floats-at-dim-2": (2, b64([0.6, 0.8, 0.0]),
                          "vec length 3 does not match dim 2"),
    "list-in-v2": (2, [0.6, 0.8], "malformed line: vec must be a string in "
                                  "a version 2 file"),
    "string-in-v1": (1, b64([0.6, 0.8]), "malformed line: vec must be a list "
                                         "in a version 1 file"),
    "nan-bits": (2, b64([float("nan")] * 2),
                 "vector norm nan is not 1 within 1e-06"),
}
# each as line 3 after one good line, then in a later block
BAD_VEC_CASES = [(*case, lineno) for lineno in (3, FAULT_LINE)
                 for case in BAD_VECS.values()]


@pytest.mark.parametrize("kind", LINES)
@pytest.mark.parametrize(
    "version,vec,message,lineno", BAD_VEC_CASES,
    ids=[name + ("" if lineno == 3 else "-in-a-later-block")
         for lineno in (3, FAULT_LINE) for name in BAD_VECS])
def test_bad_vec_fails_with_line_number(tmp_path, small_blocks, kind,
                                        version, vec, message, lineno):
    read, header, good = READERS[kind + ("-v2" if version == 2 else "")]
    path = tmp_path / "bad"
    write_with_fault(path, header, good, {**good, "vec": vec}, lineno)
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}:{lineno}: {message}")):
        read(path)


# (kind, the header's normalize, vec, message) for a vector whose norm
# the reader refuses; prototype files take no normalize
NORM_CASES = [
    ("records", True, [0.0, 0.0],
     "cannot normalize zero or non-finite vector"),
    ("records", True, [float("nan"), 1.0],
     "cannot normalize zero or non-finite vector"),
    ("records", True, [float("inf"), 1.0],
     "cannot normalize zero or non-finite vector"),
    ("records", False, [3.0, 4.0], "vector norm 5.0 is not 1 within 1e-06"),
    ("records", False, [float("nan")] * 2,
     "vector norm nan is not 1 within 1e-06"),
    ("prototypes", True, [1.0, 1.0],
     "vector norm 1.4142135623730951 is not 1 within 1e-06"),
]


@pytest.mark.parametrize("lineno", [3, FAULT_LINE])
@pytest.mark.parametrize("suffix", ["", "-v2"])
@pytest.mark.parametrize("kind,renorm,vec,message", NORM_CASES)
def test_norm_fault_fails_with_line_number(tmp_path, small_blocks, suffix,
                                           kind, renorm, vec, message,
                                           lineno):
    read, header, good = READERS[kind + suffix]
    header = {**header, "normalize": renorm}
    path = tmp_path / "bad"
    write_with_fault(path, header, good,
                     {**good, "vec": b64(vec) if suffix else vec}, lineno)
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}:{lineno}: {message}")):
        read(path)


# the label of line 2, again in the next line and in a later block
@pytest.mark.parametrize("lineno", [3, FAULT_LINE])
@pytest.mark.parametrize("suffix", ["", "-v2"])
def test_duplicate_label_fails_with_line_number(tmp_path, small_blocks,
                                                suffix, lineno):
    read, header, good = READERS["prototypes" + suffix]
    path = tmp_path / "bad"
    write_with_fault(path, header, good, {**good, "label": "g0"}, lineno)
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}:{lineno}: duplicate label 'g0'")):
        read(path)


def joins(*objs, cut=None):
    """Record lines as JSON text, the last cut where given: a tail of one
    line that, with the separators of a block's JSON, could go on the
    next."""
    text = ",".join(json.dumps({"user": "u", "t": 1, "label": "c",
                                "vec": b64([0.6, 0.8]), **o}) for o in objs)
    return text[:cut]


# lines that are no one object alone, though they could join into valid
# JSON with the lines around them: (faulty lines, message)
JOINED_LINES = [
    ([joins({})[:-1], '"extra":1}'],
     "malformed line: Expecting ',' delimiter"),
    ([joins({}, {"t": 2})], "malformed line: Extra data"),
    ([joins({}, {"t": 2})[:-1], '"extra":1}'], "malformed line: Extra data"),
    ([joins({})[:-1] + ',"x":[[1', '2]]}'],
     "malformed line: Expecting ',' delimiter"),
    ([joins({}) + "],[" + joins({})], "malformed line: Extra data"),
    ([joins({"label": "a\nb"})], "malformed line: Invalid control "
                                  "character"),
    (["[" + joins({}) + "]"], "malformed line: list indices must be "
                             "integers"),
    (['"' + "A" * 10 + '"'], "malformed line: string indices must be "
                             "integers"),
]


@pytest.mark.parametrize("block", [512, None], ids=["512-bytes", "default"])
@pytest.mark.parametrize("faulty,message", JOINED_LINES)
def test_a_line_is_read_alone(tmp_path, monkeypatch, block, faulty,
                              message):
    """A block is read at once only where each line alone is one object:
    every faulty line above fails at its own line, as read line by
    line."""
    if block is not None:
        monkeypatch.setattr(data_io, "READ_BLOCK", block)
    read, header, good = READERS["records-v2"]
    lines = ([json.dumps(header)] + [joins({})] * GOOD_BEFORE
             + [line.replace("\\n", "\n") for line in faulty]
             + [joins({})] * 5)
    path = tmp_path / "bad"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}:{FAULT_LINE}: {message}")):
        read(path)


# (kind, the faulty line's fields, whether the reader interns its label
# before it finds the fault): records look up user and t, intern the
# label, check the vector, then build the record; prototype lines intern
# the label, then check count, duplicates and the vector
REGISTRY_CASES = [
    ("records", {"t": 0}, True),
    ("records", {"vec": [3.0, 4.0]}, True),
    ("records", {"user": 5}, True),
    ("records", {"label": ""}, False),
    ("records", {"user": None}, False),  # None: the key is missing
    ("records", {"vec": "@@"}, False),
    ("prototypes", {"count": 0}, True),
    ("prototypes", {"vec": [1.0, 1.0]}, True),
    ("prototypes", {"label": 5}, False),
    ("prototypes", {"vec": "@@"}, False),
]


@pytest.mark.parametrize("suffix", ["", "-v2"])
@pytest.mark.parametrize("kind,change,interned", REGISTRY_CASES)
@pytest.mark.parametrize("block", [1, 512, None], ids=["1-byte", "512-bytes",
                                                       "default"])
def test_registry_after_a_failed_read(tmp_path, monkeypatch, suffix, kind,
                                      change, interned, block):
    """A failed read leaves the registry holding the labels of the lines
    before the fault and, where the reader interns it before it finds
    the fault, the faulty line's; none of a later line's."""
    if block is not None:
        monkeypatch.setattr(data_io, "READ_BLOCK", block)
    read, header, good = READERS[kind + suffix]
    bad = {**good, "label": "f", **change}
    if suffix and isinstance(bad["vec"], list):
        bad["vec"] = b64(bad["vec"])
    path = tmp_path / "bad"
    write_with_fault(path, header, good,
                     {k: v for k, v in bad.items() if v is not None})
    registry = LabelRegistry()
    registry.intern("before")
    with pytest.raises(FileFormatError, match=f":{FAULT_LINE}: "):
        read(path, registry=registry)
    assert labels(registry) == (["before"]
                                + [f"g{i}" for i in range(GOOD_BEFORE)]
                                + ["f"] * interned)


def write_rows(path, kind, version, dim, renorm, rows, blanks, crlf):
    """A file of rows, (fields, float32 vector) pairs, with a blank line
    (one of blanks, a (position, text) pair) ahead of each row numbered
    as its position, and CRLF line ends where crlf."""
    header = {"format": f"spc-{kind}", "version": version, "dim": dim}
    if kind == "records":
        header["normalize"] = renorm
    lines = [json.dumps(header)]
    lines += [json.dumps({**fields, "vec": b64(vec) if version == 2
                          else vec.astype(np.float64).tolist()})
              for fields, vec in rows]
    for pos, text in sorted(blanks, reverse=True):
        lines.insert(1 + pos, text)
    end = "\r\n" if crlf else "\n"
    path.write_bytes((end.join(lines) + end).encode())


def what_is_read(read, path):
    """Everything a read gives, bits of every vector included, or its
    error message."""
    try:
        got, registry = read(path)
    except SpcError as e:
        return str(e)
    if isinstance(got, PrototypeSet):
        return ([registry.resolve(c) for c in got.class_ids.tolist()],
                {registry.resolve(c): k for c, k in got.counts.items()},
                got.dim, got.matrix.tobytes())
    return [(r.user, r.t, registry.resolve(r.class_id), r.vec.dtype,
             r.vec.tobytes()) for r in got]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_block_size_does_not_change_what_is_read(tmp_path_factory, data):
    """Any file reads the same at READ_BLOCK 1 (a line or two per block),
    at a size between and at the default, in version 1, which is read
    line by line, and in version 2. One vector may sit at the edge of the
    unit-norm tolerance, where every reading must agree whether it
    passes. A label may hold a bracket, which sends its block to the
    per-line code."""
    kind = data.draw(st.sampled_from(["records", "prototypes"]))
    tag = data.draw(st.sampled_from(["c", "rice [cooked] ", "c]"]))
    dim = data.draw(st.integers(1, 300))
    n = data.draw(st.integers(0, 12))
    renorm = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vecs = rng.standard_normal((n, dim))
    if not (renorm and kind == "records"):
        vecs /= np.sqrt(np.einsum("ij,ij->i", vecs, vecs))[:, None]
    if n:
        vecs[data.draw(st.integers(0, n - 1))] *= 1.0 + data.draw(
            st.sampled_from([0.0, 5e-7, 9.9e-7, 1e-6, 1.01e-6, -1e-6,
                             -1.01e-6, 3e-6]))
    vecs = vecs.astype(np.float32)
    if kind == "records":
        fields = [{"user": f"u{i % 3}", "t": i // 3 + 1,
                   "label": f"{tag}{rng.integers(0, 5)}"} for i in range(n)]
    else:
        fields = [{"label": f"{tag}{i}",
                   "count": None if i % 4 == 3 else int(rng.integers(1, 9))}
                  for i in range(n)]
    blanks = data.draw(st.lists(st.tuples(
        st.integers(0, n), st.sampled_from(["", " ", "\t", "\r", " \r"])),
        max_size=4))
    crlf = data.draw(st.booleans())
    mid = data.draw(st.integers(2, 8 * dim + 200))
    read = read_records if kind == "records" else read_prototypes
    path = tmp_path_factory.mktemp("blocks") / "f"
    seen = []
    for version in (1, 2):
        write_rows(path, kind, version, dim, renorm, list(zip(fields, vecs)),
                   blanks, crlf)
        for size in (1, mid, data_io.READ_BLOCK):
            with mock.patch.object(data_io, "READ_BLOCK", size):
                seen.append(what_is_read(read, path))
    assert all(got == seen[0] for got in seen[1:])


class TestReports:
    def table(self):
        return ReportTable(
            columns=["1-50 @1", "1-50 @5"],
            rows=[("model", [0.314, 0.546]), ("empty", [None, 0.5])],
            notes=["seed=42"])

    def test_tsv_percent_rendering(self):
        out = render_report(self.table(), fmt="tsv")
        lines = out.splitlines()
        assert lines[0].split("\t") == ["method", "1-50 @1", "1-50 @5"]
        assert lines[1].split("\t") == ["model", "31.4", "54.6"]
        assert lines[2].split("\t") == ["empty", "-", "50.0"]
        assert lines[3] == "# seed=42"

    def test_markdown_rendering(self):
        out = render_report(self.table(), fmt="markdown")
        assert "| model | 31.4 | 54.6 |" in out
        assert "| empty | - | 50.0 |" in out

    def test_precise_adds_exact_columns(self):
        out = render_report(self.table(), fmt="tsv", precise=True)
        assert "0.314" in out and "0.546" in out

    def test_write_report(self, tmp_path):
        path = tmp_path / "r.tsv"
        write_report(self.table(), path)
        assert path.read_text() == render_report(self.table())

    def test_unknown_format_rejected(self):
        with pytest.raises(SpcError):
            render_report(self.table(), fmt="csv")


class TestManifest:
    def test_stable_serialization(self, tmp_path):
        m = {"b": 1, "a": [1, 2], "nested": {"y": 0.5, "x": "s"}}
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(m, p1)
        write_manifest(dict(reversed(list(m.items()))), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == m
