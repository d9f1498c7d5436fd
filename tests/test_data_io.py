import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc import (FileFormatError, LabeledRecord, LabelRegistry, PrototypeSet,
                 ReportTable, SpcError, normalize, read_prototypes, read_records,
                 render_report, write_manifest, write_prototypes,
                 write_records, write_report)


def make_records(n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    reg = LabelRegistry()
    recs = [LabeledRecord(user=f"u{i % 2}", t=i // 2 + 1,
                          class_id=reg.intern(f"c{i % 3}"),
                          vec=normalize(rng.standard_normal(dim)))
            for i in range(n)]
    return recs, reg


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
            np.testing.assert_array_equal(a.vec, b.vec)

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
        path.write_text(json.dumps({"format": "spc-records", "version": 99,
                                    "dim": 2}) + "\n")
        with pytest.raises(FileFormatError, match=":1:"):
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
        np.testing.assert_array_equal(protos.matrix, back.matrix)


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
