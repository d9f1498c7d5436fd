import re
import tracemalloc

import numpy as np
import pytest

from spc import (SpcError, Strategy, SubsetSpec, SynthConfig, TrainIndex,
                 build_prototypes, generate_synthetic, group_by_user,
                 run_streams, select_classes, write_records)

from . import reference_synth

SMALL = dict(dim=16, num_common_classes=12, users=4, records_per_user=30,
             novel_classes_per_user=2, confusable_group_count=2, group_size=2,
             train_records_per_class=4, train_modes_per_class=2, seed=7)


@pytest.fixture(scope="module")
def small():
    train, stream, registry, manifest = generate_synthetic(SynthConfig(**SMALL))
    return train, group_by_user(stream), registry, manifest


class TestShape:
    def test_stream_sizes_and_order(self, small):
        train, streams, registry, manifest = small
        assert len(streams) == SMALL["users"]
        for user, recs in streams.items():
            assert len(recs) == SMALL["records_per_user"]
            assert [r.t for r in recs] == list(range(1, len(recs) + 1))
            assert all(r.user == user for r in recs)

    def test_train_covers_all_common_classes(self, small):
        train, streams, registry, manifest = small
        index = TrainIndex.from_records(train)
        common_ids = {registry.intern(lbl)
                      for lbl in manifest["common_labels"]}
        assert set(index.counts) == common_ids
        assert all(n == SMALL["train_records_per_class"]
                   for n in index.counts.values())

    def test_all_vectors_unit_norm(self, small):
        train, streams, registry, manifest = small
        recs = train + [r for s in streams.values() for r in s]
        mat = np.stack([r.vec for r in recs]).astype(np.float64)
        np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0,
                                   atol=1e-6)

    def test_novel_classes_are_user_private(self, small):
        train, streams, registry, manifest = small
        common_ids = {registry.intern(lbl)
                      for lbl in manifest["common_labels"]}
        for user, recs in streams.items():
            novel_ids = {registry.intern(lbl)
                         for lbl in manifest["novel_labels_by_user"][user]}
            assert len(novel_ids) == SMALL["novel_classes_per_user"]
            seen = {r.class_id for r in recs}
            assert seen <= common_ids | novel_ids
            for other, other_recs in streams.items():
                if other != user:
                    assert not novel_ids & {r.class_id for r in other_recs}

    def test_novel_mass_roughly_matches_config(self, small):
        train, streams, registry, manifest = small
        common_ids = {registry.intern(lbl)
                      for lbl in manifest["common_labels"]}
        recs = [r for s in streams.values() for r in s]
        frac = sum(r.class_id not in common_ids for r in recs) / len(recs)
        assert abs(frac - 0.3) < 0.1


class TestDeterminism:
    def test_same_seed_identical_output(self):
        a = generate_synthetic(SynthConfig(**SMALL))
        b = generate_synthetic(SynthConfig(**SMALL))
        for ra, rb in zip(a[0], b[0]):
            assert (ra.user, ra.t, ra.class_id) == (rb.user, rb.t, rb.class_id)
            np.testing.assert_array_equal(ra.vec, rb.vec)
        for ra, rb in zip(a[1], b[1]):
            assert (ra.user, ra.t, ra.class_id) == (rb.user, rb.t, rb.class_id)
            np.testing.assert_array_equal(ra.vec, rb.vec)
        assert a[3] == b[3]

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthConfig(**SMALL))
        b = generate_synthetic(SynthConfig(**{**SMALL, "seed": 8}))
        mats = [np.stack([r.vec for r in x[0]]) for x in (a, b)]
        assert not np.array_equal(mats[0], mats[1])


class TestValidation:
    def test_bad_config_rejected(self):
        for override in ({"dim": 0}, {"users": 0}, {"zipf_exponent": -1.0},
                         {"novel_mass": 1.5}, {"sigma_user": -0.1},
                         {"group_size": 1}):
            with pytest.raises(SpcError):
                generate_synthetic(SynthConfig(**{**SMALL, **override}))
        # every integer field, the seed too, takes core.check_int's rule
        for name, value, low in (("seed", -1, 0), ("users", 2.5, 1),
                                 ("users", True, 1), ("dim", 1, 2),
                                 ("seed", 2**63, 0)):
            with pytest.raises(SpcError, match=re.escape(
                    f"{name} must be an integer from {low} to 2**63 - 1, "
                    f"got {value!r}")):
                generate_synthetic(SynthConfig(**{**SMALL, name: value}))
        for name in ("zipf_exponent", "novel_mass", "sigma_user",
                     "sigma_sample", "group_tightness"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(SpcError, match=f"^{name} must be"):
                    generate_synthetic(SynthConfig(**{**SMALL, name: bad}))
        # finite, but so large that a draw overflows; SMALL draws all four
        for name in ("zipf_exponent", "sigma_user", "sigma_sample",
                     "group_tightness"):
            with pytest.raises(SpcError, match=re.escape(
                    f"{name} is so large that a draw overflows, got 1e+308")):
                generate_synthetic(SynthConfig(**{**SMALL, name: 1e308}))

    def test_more_groups_than_classes_rejected(self):
        with pytest.raises(SpcError):
            generate_synthetic(SynthConfig(
                **{**SMALL, "confusable_group_count": 10, "group_size": 3}))


class TestCalibration:
    def test_zero_noise_is_perfectly_separable(self):
        # every sample sits exactly on its class direction, so the
        # prototype-only classifier is exact from the first record
        cfg = SynthConfig(**{**SMALL, "sigma_user": 0.0, "sigma_sample": 0.0,
                             "group_tightness": 0.5,
                             "novel_classes_per_user": 0, "novel_mass": 0.0})
        train, stream, registry, manifest = generate_synthetic(cfg)
        streams = group_by_user(stream)
        protos = build_prototypes(
            train, select_classes(TrainIndex.from_records(train),
                                  SubsetSpec()), SubsetSpec())
        outcomes = run_streams(streams, protos, Strategy(kind="ncm-fixed"))
        acc = np.mean([o.hits[1] for s in outcomes.values() for o in s])
        assert acc == 1.0

    def test_high_noise_degrades_prototype_accuracy(self):
        cfg = SynthConfig(**{**SMALL, "sigma_user": 3.0, "sigma_sample": 3.0})
        train, stream, registry, manifest = generate_synthetic(cfg)
        streams = group_by_user(stream)
        protos = build_prototypes(
            train, select_classes(TrainIndex.from_records(train),
                                  SubsetSpec()), SubsetSpec())
        outcomes = run_streams(streams, protos, Strategy(kind="ncm-fixed"))
        acc = np.mean([o.hits[1] for s in outcomes.values() for o in s])
        assert acc < 0.8


def assert_same_output(got, want):
    """Two generate_synthetic results agree bit for bit: every record's
    fields and vector bits, the labels in id order, the manifest."""
    for recs, ref in zip(got[:2], want[:2]):
        assert len(recs) == len(ref)
        for a, b in zip(recs, ref):
            assert (a.user, a.t, a.class_id) == (b.user, b.t, b.class_id)
            assert a.vec.dtype == b.vec.dtype == np.float32
            np.testing.assert_array_equal(a.vec.view(np.uint32),
                                          b.vec.view(np.uint32))
    assert got[2]._label_of == want[2]._label_of
    assert got[3] == want[3]


class TestMatchesReference:
    """The block draws give what the per-vector loop gives, bit for bit,
    and fail where it fails, with its message."""

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("override", [
        {}, {"sigma_user": 0.0}, {"sigma_sample": 0.0},
        {"group_tightness": 0.0},
        {"sigma_user": 0.0, "sigma_sample": 0.0, "group_tightness": 0.0},
        {"dim": 2}, {"dim": 1024, "records_per_user": 140},
        {"novel_classes_per_user": 0, "novel_mass": 0.0},
        {"confusable_group_count": 0},
        {"records_per_user": 1}, {"records_per_user": 127},
        {"records_per_user": 128}, {"records_per_user": 129},
        {"records_per_user": 257}])
    def test_same_records(self, override, seed):
        cfg = SynthConfig(**{**SMALL, "records_per_user": 60, **override,
                             "seed": seed})
        assert_same_output(generate_synthetic(cfg),
                           reference_synth.generate_synthetic(cfg))

    def test_first_fault_in_draw_order_is_raised(self):
        """At dim 2 and sigma near sqrt(float max), some draws overflow and
        some do not, so the setting named is the one whose row comes first
        in the per-vector order, which interleaves modes and samples."""
        seen = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            sigmas = rng.choice([0.5, 8e153, 1.1e154], size=3)
            cfg = SynthConfig(
                dim=2, num_common_classes=6, users=2,
                records_per_user=int(rng.integers(1, 300)),
                novel_classes_per_user=1, confusable_group_count=1,
                group_size=2, train_records_per_class=1,
                train_modes_per_class=1, seed=seed,
                sigma_user=float(sigmas[0]), sigma_sample=float(sigmas[1]),
                group_tightness=float(sigmas[2]) / 2)
            outcome = []
            for generate in (generate_synthetic,
                             reference_synth.generate_synthetic):
                try:
                    generate(cfg)
                    outcome.append(None)
                except SpcError as e:
                    outcome.append(str(e))
            assert outcome[0] == outcome[1]
            seen.add(outcome[0] and outcome[0].split()[0])
        assert seen == {None, "sigma_user", "sigma_sample"}


class TestSetupMemory:
    """Set-up works a block at a time: neither the generator nor the
    writer holds an array or a text that spans a stream."""

    CFG = SynthConfig(dim=1024, users=2, records_per_user=2000,
                      train_records_per_class=2)

    def test_generator_peak_is_the_records_plus_blocks(self):
        tracemalloc.start()
        try:
            train, stream, _, _ = generate_synthetic(self.CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(train) + len(stream)
        # the vectors' bytes, a generous 1 KB of objects per record, and
        # 8 float64 blocks of 128 rows (a fixed bound, not SYNTH_BLOCK,
        # which a whole-stream draw would raise); one float64 matrix of a
        # whole stream alone is 16 MB
        bound = n * (self.CFG.dim * 4 + 1024) + 8 * 128 * self.CFG.dim * 8
        assert peak < bound

    def test_writer_peak_is_the_matrix_plus_a_few_lines(self, tmp_path):
        _, stream, registry, _ = generate_synthetic(self.CFG)
        path = tmp_path / "s.records"
        tracemalloc.start()
        try:
            write_records(stream, path, registry=registry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        line = max(map(len, path.read_text().splitlines()))
        # the float32 matrix of the file, each line's fields (under 256
        # bytes) and a few lines; the whole file's text alone is 22 MB
        bound = len(stream) * (self.CFG.dim * 4 + 256) + 8 * line
        assert peak < bound
