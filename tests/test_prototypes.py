import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc import (LabeledRecord, SpcError, SubsetSpec, TrainIndex,
                 build_prototypes, coverage, normalize, select_classes)


def make_records(counts, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for c, n in counts.items():
        for i in range(n):
            out.append(LabeledRecord(user="train", t=i + 1, class_id=c,
                                     vec=normalize(rng.standard_normal(dim))))
    return out


class TestSelectClasses:
    def test_threshold_filters_rare_classes(self):
        index = TrainIndex(counts={0: 30, 1: 5, 2: 12, 3: 1})
        assert select_classes(index, SubsetSpec(min_records=10)) == {0, 2}
        assert select_classes(index, SubsetSpec(min_records=1)) == {0, 1, 2, 3}

    def test_empty_index_rejected(self):
        with pytest.raises(SpcError):
            select_classes(TrainIndex(counts={}), SubsetSpec())

    @pytest.mark.parametrize("field, value, low", [
        ("min_records", 0, 1), ("min_records", 1.5, 1),
        ("per_class_cap", 0, 1), ("per_class_cap", True, 1)])
    def test_spec_settings_checked(self, field, value, low):
        with pytest.raises(SpcError, match=re.escape(
                f"{field} must be an integer from {low} to 2**63 - 1, "
                f"got {value!r}")):
            SubsetSpec(**{field: value})

    def test_from_records(self):
        records = make_records({3: 2, 7: 1})
        index = TrainIndex.from_records(records)
        assert index.counts == {3: 2, 7: 1}
        assert index.total == 3


class TestCoverage:
    def test_fraction_of_training_mass(self):
        index = TrainIndex(counts={0: 60, 1: 30, 2: 10})
        assert coverage({0, 1}, index) == pytest.approx(0.9)
        assert coverage({0, 1, 2}, index) == pytest.approx(1.0)

    def test_unknown_class_rejected(self):
        with pytest.raises(SpcError):
            coverage({9}, TrainIndex(counts={0: 1}))

    @given(st.dictionaries(st.integers(0, 20), st.integers(1, 100),
                           min_size=1, max_size=10))
    @settings(deadline=None)
    def test_monotone_in_subset(self, counts):
        index = TrainIndex(counts=counts)
        classes = sorted(counts)
        prev = 0.0
        for i in range(1, len(classes) + 1):
            cov = coverage(set(classes[:i]), index)
            assert cov >= prev - 1e-12
            prev = cov
        assert prev == pytest.approx(1.0)


def estimate_real_world_accuracy(acc_within: float, cov: float) -> float:
    """Accuracy within the subset discounted by the subset's coverage."""
    for name, v in (("acc_within", acc_within), ("coverage", cov)):
        if not (0.0 <= v <= 1.0):
            raise SpcError(f"{name} must be in [0, 1], got {v}")
    return acc_within * cov


class TestRealWorldEstimate:
    def test_product(self):
        # 90% within covered classes at 80% coverage -> 72% overall
        assert estimate_real_world_accuracy(0.9, 0.8) == pytest.approx(0.72)

    def test_range_checked(self):
        for bad in ((1.2, 0.5), (0.5, -0.1), (-0.5, 0.5), (0.5, 1.2)):
            with pytest.raises(SpcError):
                estimate_real_world_accuracy(*bad)


class TestBuildPrototypes:
    def test_mean_of_members_renormalized(self):
        records = [
            LabeledRecord("train", 1, 0, normalize([1.0, 0.0])),
            LabeledRecord("train", 2, 0, normalize([0.0, 1.0])),
            LabeledRecord("train", 3, 1, normalize([-1.0, 0.0])),
        ]
        protos = build_prototypes(records, {0, 1}, SubsetSpec())
        i = list(protos.class_ids).index(0)
        np.testing.assert_allclose(protos.matrix[i],
                                   normalize([0.5, 0.5]), atol=1e-6)
        assert protos.counts == {0: 2, 1: 1}

    def test_only_selected_classes_kept(self):
        records = make_records({0: 3, 1: 3, 2: 3})
        protos = build_prototypes(records, {0, 2}, SubsetSpec())
        assert set(protos.class_ids.tolist()) == {0, 2}

    @pytest.mark.parametrize("cap", [None, 2])
    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_seed_checked(self, cap, seed):
        records = make_records({0: 5})
        with pytest.raises(SpcError, match=re.escape(
                f"seed must be an integer from 0 to 2**63 - 1, "
                f"got {seed!r}")):
            build_prototypes(records, {0}, SubsetSpec(per_class_cap=cap),
                             seed=seed)

    def test_missing_class_rejected(self):
        records = make_records({0: 3})
        with pytest.raises(SpcError):
            build_prototypes(records, {0, 5}, SubsetSpec())

    def test_cap_changes_nothing_when_above_count(self):
        records = make_records({0: 4, 1: 6}, seed=3)
        full = build_prototypes(records, {0, 1}, SubsetSpec())
        capped = build_prototypes(records, {0, 1},
                                  SubsetSpec(per_class_cap=10))
        np.testing.assert_array_equal(full.matrix, capped.matrix)

    def test_cap_subsamples_deterministically(self):
        records = make_records({0: 50}, seed=4)
        a = build_prototypes(records, {0}, SubsetSpec(per_class_cap=5),
                             seed=11)
        b = build_prototypes(records, {0}, SubsetSpec(per_class_cap=5),
                             seed=11)
        c = build_prototypes(records, {0}, SubsetSpec(per_class_cap=5),
                             seed=12)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)
        assert a.counts == {0: 5}

    def test_unit_norm_output(self):
        records = make_records({i: 7 for i in range(6)}, dim=9, seed=5)
        protos = build_prototypes(records, set(range(6)), SubsetSpec())
        norms = np.linalg.norm(protos.matrix.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_opposing_vectors_zero_mean_rejected(self):
        records = [
            LabeledRecord("train", 1, 0, normalize([1.0, 0.0])),
            LabeledRecord("train", 2, 0, normalize([-1.0, 0.0])),
        ]
        with pytest.raises(SpcError):
            build_prototypes(records, {0}, SubsetSpec())
