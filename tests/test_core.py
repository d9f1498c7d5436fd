import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spc import (DimensionMismatchError, LabelRegistry, NormalizationError,
                 PrototypeSet, SpcError, UserStore, normalize)
from spc.core import check_unit


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
        assert len(store) == 1 and store.class_set == {3}
        store.append(normalize([0, 1]), 3)
        assert len(store) == 2 and store.class_set == {3}

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

    def test_append_never_mutates_prior_entries(self):
        rng = np.random.default_rng(0)
        store = UserStore(4)
        snapshots = []
        for i in range(100):
            store.append(normalize(rng.standard_normal(4)), i % 7)
            snapshots.append((store.vectors, store.vectors64.copy(),
                              store.classes.copy()))
        for i, (vecs, vecs64, classes) in enumerate(snapshots):
            np.testing.assert_array_equal(store.vectors[: i + 1], vecs)
            np.testing.assert_array_equal(store.vectors64[: i + 1], vecs64)
            np.testing.assert_array_equal(store.classes[: i + 1], classes)
        assert store.vectors.dtype == np.float32
        np.testing.assert_array_equal(
            store.vectors, store.vectors64.astype(np.float32))

    def test_class_set_matches_entries(self):
        rng = np.random.default_rng(1)
        store = UserStore(3)
        for i in range(50):
            store.append(normalize(rng.standard_normal(3)),
                         int(rng.integers(0, 5)))
            assert store.class_set == set(store.classes.tolist())


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
