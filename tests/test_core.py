import enum
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import spc
from spc import (DimensionMismatchError, LabeledRecord, LabelRegistry,
                 NormalizationError, PrototypeSet, SpcError, UserStore,
                 normalize)
from spc.core import check_int, check_unit, stack_records


def test_every_export_resolves():
    assert [name for name in spc.__all__ if not hasattr(spc, name)] == []


def test_spc_is_imported_from_this_checkout():
    # pytest's pythonpath puts this checkout's src/ first, so an installed
    # copy of the package is never what the suite tests
    src = Path(__file__).resolve().parents[1] / "src" / "spc"
    assert Path(spc.__file__).resolve().parent == src


class TestLabelRegistry:
    def test_intern_idempotent(self):
        reg = LabelRegistry()
        assert reg.intern("rice") == reg.intern("rice")

    def test_distinct_labels_distinct_ids(self):
        reg = LabelRegistry()
        assert reg.intern("rice") != reg.intern("natto")

    def test_empty_label_rejected(self):
        with pytest.raises(SpcError):
            LabelRegistry().intern("")

    def test_resolve_refuses_unknown_ids(self):
        reg = LabelRegistry()
        for s in ("rice", "natto"):
            reg.intern(s)
        assert reg.resolve(1) == "natto"
        for bad in (-1, 2):
            with pytest.raises(SpcError, match=f"class id {bad} has no label"):
                reg.resolve(bad)

    def test_ids_are_dense(self):
        reg = LabelRegistry()
        ids = [reg.intern(s) for s in ("a", "b", "c")]
        assert ids == [0, 1, 2]

    def test_byte_exact_no_case_folding(self):
        reg = LabelRegistry()
        assert reg.intern("Rice") != reg.intern("rice")

    @given(st.lists(st.text(min_size=1), min_size=1, max_size=30))
    def test_round_trip(self, labels):
        reg = LabelRegistry()
        for s in labels:
            assert reg.resolve(reg.intern(s)) == s


unit_vectors = arrays(
    np.float64, st.integers(min_value=2, max_value=32),
    elements=st.floats(-10, 10, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-3)


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8],
                                   atol=1e-7)

    def test_already_unit(self):
        np.testing.assert_allclose(normalize([0.0, 0.0, 1.0]), [0, 0, 1],
                                   atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            normalize([0.0, 0.0])

    @given(unit_vectors)
    def test_unit_norm(self, v):
        out = normalize(v)
        assert abs(np.linalg.norm(out.astype(np.float64)) - 1.0) <= 1e-6

    @given(unit_vectors)
    def test_idempotent(self, v):
        once = normalize(v)
        np.testing.assert_allclose(normalize(once), once, atol=1e-6)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 64))
    def test_dot_bounded(self, seed, dim):
        rng = np.random.default_rng(seed)
        e1 = normalize(rng.standard_normal(dim))
        e2 = normalize(rng.standard_normal(dim))
        d = float(e1.astype(np.float64) @ e2.astype(np.float64))
        assert -1.0 - 1e-6 <= d <= 1.0 + 1e-6

    def test_storage_is_float32(self):
        assert normalize([1.0, 2.0]).dtype == np.float32

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0],
                                     [np.inf, 0.0], [1.0, 1.0]])
    def test_check_unit_rejects_nan_and_non_unit(self, bad):
        with pytest.raises(NormalizationError):
            check_unit(np.array(bad))


class TestUserStore:
    def test_append_grows_and_tracks_classes(self):
        store = UserStore(2)
        store.append(normalize([1, 0]), 3)
        assert len(store) == 1 and set(store.classes.tolist()) == {3}
        store.append(normalize([0, 1]), 3)
        assert len(store) == 2 and set(store.classes.tolist()) == {3}

    def test_dimension_mismatch(self):
        store = UserStore(3)
        with pytest.raises(DimensionMismatchError):
            store.append(normalize([1.0, 0.0]), 0)

    def test_non_unit_rejected(self):
        store = UserStore(2)
        with pytest.raises(NormalizationError):
            store.append(np.array([1.0, 1.0], dtype=np.float32), 0)

    def test_nan_rejected(self):
        store = UserStore(2)
        with pytest.raises(NormalizationError):
            store.append(np.array([np.nan, np.nan], dtype=np.float32), 0)
        assert len(store) == 0

    def test_negative_class_id_rejected(self):
        store = UserStore(2)
        with pytest.raises(SpcError,
                           match="class id must be an integer from 0"):
            store.append(normalize([1.0, 0.0]), -1)
        assert len(store) == 0

    # 32 rows fill the first capacity, so the 33rd append doubles it
    @pytest.mark.parametrize("n_before", [0, 5, 32])
    @pytest.mark.parametrize("vec, class_id, error", [
        (normalize([1.0, 0.0, 0.0]), 0, DimensionMismatchError),
        (np.array([1.0, 1.0], dtype=np.float32), 0, NormalizationError),
        (np.array([np.nan, 0.0], dtype=np.float32), 0, NormalizationError),
        (normalize([1.0, 0.0]), -1, SpcError),
        (normalize([1.0, 0.0]), 1.5, SpcError),
        (normalize([1.0, 0.0]), 2**63, SpcError),
        (normalize([1.0, 0.0]), True, SpcError)])
    def test_rejected_append_changes_nothing(self, n_before, vec, class_id,
                                             error):
        rng = np.random.default_rng(n_before)
        store = UserStore(2)
        for i in range(n_before):
            store.append(normalize(rng.standard_normal(2)), i % 3)
        vecs, classes = store.vectors64.copy(), store.classes.copy()
        with pytest.raises(error):
            store.append(vec, class_id)
        assert len(store) == n_before
        np.testing.assert_array_equal(store.vectors64, vecs)
        np.testing.assert_array_equal(store.classes, classes)
        store.append(normalize([0.0, 1.0]), 7)
        assert len(store) == n_before + 1
        np.testing.assert_array_equal(store.vectors64[-1], [0.0, 1.0])
        assert store.classes[-1] == 7

    def test_append_never_mutates_prior_entries(self):
        rng = np.random.default_rng(0)
        store = UserStore(4)
        snapshots = []
        for i in range(100):
            store.append(normalize(rng.standard_normal(4)), i % 7)
            snapshots.append((store.vectors64, store.vectors64.copy(),
                              store.classes.copy()))
        for i, (view, vecs64, classes) in enumerate(snapshots):
            np.testing.assert_array_equal(view, vecs64)
            np.testing.assert_array_equal(store.vectors64[: i + 1], vecs64)
            np.testing.assert_array_equal(store.classes[: i + 1], classes)
        np.testing.assert_array_equal(
            store.vectors64, store.vectors64.astype(np.float32))


class TestPrototypeSet:
    def test_duplicate_class_rejected(self):
        v = normalize([1.0, 0.0])
        with pytest.raises(SpcError):
            PrototypeSet(2, class_ids=[1, 1], vectors=np.stack([v, v]))

    def test_non_unit_rejected(self):
        with pytest.raises(NormalizationError):
            PrototypeSet(2, class_ids=[0],
                         vectors=np.array([[1.0, 1.0]], dtype=np.float32))

    def test_nan_rejected(self):
        with pytest.raises(NormalizationError):
            PrototypeSet(2, class_ids=[0],
                         vectors=np.array([[np.nan, np.nan]]))

    def test_error_names_the_first_bad_row(self):
        with pytest.raises(NormalizationError, match="row 1 .class 7."):
            PrototypeSet(2, class_ids=[3, 7, 9],
                         vectors=[[1.0, 0.0], [1.0, 1.0], [np.nan, 0.0]])

    def test_empty_set_is_legal(self):
        assert len(PrototypeSet(8)) == 0
        # read_prototypes passes [] for a header-only file
        assert PrototypeSet(8, [], []).matrix.shape == (0, 8)

    @pytest.mark.parametrize("dim, class_ids, vectors, shape", [
        (4, [1, 2], np.eye(4)[:3], (3, 4)),
        # two rows' worth of values in one row is a dimension fault, not
        # a norm fault
        (2, [0, 1], np.eye(4)[:1], (1, 4)),
        (3, [5], None, (0,)),
        # ragged rows: the message goes on to name the first bad row
        (2, [0, 1], [[1.0, 0.0], [1.0]], "(2, ?)")])
    def test_wrong_shape_rejected(self, dim, class_ids, vectors, shape):
        want = f"shape {shape}, expected ({len(class_ids)}, {dim})"
        with pytest.raises(DimensionMismatchError, match=re.escape(want)):
            PrototypeSet(dim, class_ids, vectors)

    def test_negative_class_id_rejected(self):
        with pytest.raises(SpcError,
                           match="class id must be an integer from 0"):
            PrototypeSet(2, class_ids=[-1, 3],
                         vectors=[[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("class_ids, counts", [
        ([1.5], None), ([np.float64(2.0)], None), ([1], {1.5: 3}),
        ([True], None)])
    def test_non_integer_class_id_rejected(self, class_ids, counts):
        with pytest.raises(SpcError, match="class id must be an integer"):
            PrototypeSet(2, class_ids=class_ids, vectors=[[1.0, 0.0]],
                         counts=counts)

    def test_a_row_that_is_not_numeric_is_named(self):
        with pytest.raises(SpcError, match=re.escape(
                "prototype row 1 is not numeric: could not convert string "
                "to float")):
            PrototypeSet(2, [0, 1], [[1.0, 0.0], np.array(["a", "b"])])
        for row in (np.array(["a", "b"]), [[1.0], [1.0, 0.0]]):
            with pytest.raises(SpcError,
                               match="^prototype row 0 is not numeric"):
                PrototypeSet(2, [0], [row])

    @pytest.mark.parametrize("count", [0, -3, 2.5, True])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(SpcError, match="count must be an integer from 1"):
            PrototypeSet(2, class_ids=[0], vectors=[[1.0, 0.0]],
                         counts={0: count})


class TestLabeledRecord:
    def test_negative_class_id_rejected(self):
        with pytest.raises(SpcError,
                           match="class id must be an integer from 0"):
            LabeledRecord(user="u", t=1, class_id=-1,
                          vec=normalize([1.0, 0.0]))

    @pytest.mark.parametrize("t, class_id, field", [
        (2.5, 1, "t"), (1, 1.9, "class id"),
        (2, np.float64(1.0), "class id"), (True, 1, "t"),
        (1, False, "class id")])
    def test_non_integer_rejected(self, t, class_id, field):
        with pytest.raises(SpcError, match=f"^{field} must be an integer"):
            LabeledRecord(user="u", t=t, class_id=class_id,
                          vec=normalize([1.0, 0.0]))

    @pytest.mark.parametrize("user", [5, None, b"u"])
    def test_non_string_user_rejected(self, user):
        with pytest.raises(SpcError,
                           match=f"user must be a string, got {user!r}"):
            LabeledRecord(user=user, t=1, class_id=0,
                          vec=normalize([1.0, 0.0]))


def test_stack_records_names_a_vector_that_is_not_numeric():
    records = [LabeledRecord("u", 1, 0, normalize([0.6, 0.8])),
               LabeledRecord("u", 2, 0, np.array(["a", "b"]))]
    with pytest.raises(SpcError, match=re.escape(
            "record of user 'u' at t=2: vector is not numeric: could not "
            "convert string to float")):
        stack_records(records, 2)
    # the first of two is named, a ragged list included
    records.append(LabeledRecord("v", 3, 0, np.array([{}, 1.0])))
    records.insert(0, LabeledRecord("w", 4, 0, [[0.6], [0.8, 0.0]]))
    for first, t in ((2, 2), (0, 4)):
        with pytest.raises(SpcError, match=f"^record of user '.' at t={t}: "
                                           "vector is not numeric"):
            stack_records(records[first:], 2)


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize("value", [3, Level.LOW, np.int64(5), np.uint8(2)])
def test_check_int_takes_int_like_values(value):
    got = check_int(value, "x", 1)
    assert got == value and type(got) is int


@pytest.mark.parametrize("value,low", [
    (True, 0), (False, 0), (0, 1), (-1, 0), (2**63, 0), (1.0, 0),
    (np.int64(-2), 0), ("3", 0)])
def test_check_int_refuses_with_one_message(value, low):
    with pytest.raises(SpcError, match=re.escape(
            f"x must be an integer from {low} to 2**63 - 1, got {value!r}")):
        check_int(value, "x", low)


@pytest.mark.parametrize("make", [UserStore, PrototypeSet])
@pytest.mark.parametrize("dim", [0, 2.5, True])
def test_dim_must_be_a_positive_integer(make, dim):
    with pytest.raises(SpcError, match="dim must be an integer from 1"):
        make(dim)
