import base64
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spc import (FileFormatError, LabeledRecord, LabelRegistry, PrototypeSet,
                 ReportTable, SpcError, normalize, read_prototypes, read_records,
                 render_report, write_manifest, write_prototypes,
                 write_records, write_report)
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
                lambda header, obj, v: back.append((list(obj), v)))
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


# each case as line 2, then as line 3 after one good line, in both versions
BAD_FIELD_CASES = [(kind + suffix, field, value, lineno)
                   for suffix in ("", "-v2") for lineno in (2, 3)
                   for kind, field, value in BAD_FIELDS]


@pytest.mark.parametrize(
    "kind,field,value,lineno", BAD_FIELD_CASES,
    ids=[f"{k}-{f}={v!r}" + ("" if lineno == 2 else "-after-a-good-line")
         for k, f, v, lineno in BAD_FIELD_CASES])
def test_bad_field_fails_with_line_number(tmp_path, kind, field, value,
                                          lineno):
    read, header, good = READERS[kind]
    lines = [header] + [{**good, "label": "g"}] * (lineno - 2)
    lines.append({**good, field: value})
    path = tmp_path / "bad"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}:{lineno}: {field} must be")):
        read(path)


MISSING_KEYS = [("records", "user"), ("records", "t"), ("records", "label"),
                ("records", "vec"), ("prototypes", "label"),
                ("prototypes", "vec")]


@pytest.mark.parametrize("kind,key", [
    (kind + suffix, key) for suffix in ("", "-v2")
    for kind, key in MISSING_KEYS])
def test_missing_key_is_a_malformed_line(tmp_path, kind, key):
    read, header, good = READERS[kind]
    bad = {k: v for k, v in good.items() if k != key}
    path = tmp_path / "bad"
    path.write_text("\n".join(json.dumps(x) for x in (
        header, {**good, "label": "g"}, bad)) + "\n")
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}:3: malformed line: missing key {key!r}")):
        read(path)


# a byte that is not UTF-8 in the header, the first body line or a later one
@pytest.mark.parametrize("kind", READERS)
@pytest.mark.parametrize("lineno", [1, 2, 3])
def test_non_utf8_byte_is_malformed(tmp_path, kind, lineno):
    read, header, good = READERS[kind]
    lines = [json.dumps(x).encode() for x in (header, {**good, "label": "g"},
                                              good)]
    lines[lineno - 1] = lines[lineno - 1].replace(b'"', b'"\xff', 1)
    path = tmp_path / "bad"
    path.write_bytes(b"\n".join(lines) + b"\n")
    what = "header" if lineno == 1 else "line"
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}:{lineno}: malformed {what}: 'utf-8' codec can't decode "
            "byte 0xff")):
        read(path)


# a bad vec as line 3, after one good line: (version, vec, message)
BAD_VECS = [
    (2, "@@", "malformed line: Only base64 data is allowed"),
    (2, "QUI", "malformed line: Incorrect padding"),
    (2, "AAAAAAAA", "malformed line: "),  # 6 bytes, 1.5 float32 values
    (2, b64([0.6, 0.8, 0.0]), "vec length 3 does not match dim 2"),
    (2, [0.6, 0.8], "malformed line: vec must be a string in a version 2 "
                    "file"),
    (1, b64([0.6, 0.8]), "malformed line: vec must be a list in a version "
                         "1 file"),
    (2, b64([float("nan")] * 2), "vector norm nan is not 1 within 1e-06"),
]


@pytest.mark.parametrize("kind", LINES)
@pytest.mark.parametrize(
    "version,vec,message", BAD_VECS,
    ids=["bad-alphabet", "bad-padding", "6-bytes", "3-floats-at-dim-2",
         "list-in-v2", "string-in-v1", "nan-bits"])
def test_bad_vec_fails_with_line_number(tmp_path, kind, version, vec,
                                        message):
    read, header, good = READERS[kind + ("-v2" if version == 2 else "")]
    path = tmp_path / "bad"
    path.write_text("\n".join(json.dumps(x) for x in (
        header, {**good, "label": "g"}, {**good, "vec": vec})) + "\n")
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}:3: {message}")):
        read(path)


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
