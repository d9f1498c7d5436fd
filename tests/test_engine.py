import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc import (DimensionMismatchError, DotCounter, MeanState, PrototypeSet,
                 SpcConfig, SpcError, SumConfig, UserStore, class_similarity,
                 ncm_rank, ncm_update, normalize, register, spc_rank,
                 spc_sum_rank)

from .oracle import brute_force_rank


def unit2(x, y):
    return normalize([x, y])


def embed_with_dot(q, d, dim=2):
    """A unit vector whose dot with unit q is exactly d (2-d construction)."""
    assert dim == 2
    ortho = np.array([-q[1], q[0]], dtype=np.float64)
    return normalize(d * np.asarray(q, dtype=np.float64)
                     + math.sqrt(1.0 - d * d) * ortho)


@pytest.fixture
def q():
    return unit2(1, 0)


RANKERS = [(spc_rank, SpcConfig(0.85)), (spc_sum_rank, SumConfig(0.5))]
RANKER_IDS = ["spc_rank", "spc_sum_rank"]


class TestConfigs:
    def test_w_range(self):
        SpcConfig(1.0)
        SpcConfig(0.01)
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(SpcError):
                SpcConfig(bad)

    def test_ws_range(self):
        SumConfig(0.0)
        SumConfig(1.0)
        for bad in (-0.1, 1.1):
            with pytest.raises(SpcError):
                SumConfig(bad)


class TestClassSimilarity:
    def test_absent_class_scores_zero(self, q):
        store = UserStore(2)
        store.append(unit2(0, 1), 7)
        assert class_similarity(3, q, store) == 0.0

    def test_self_similarity(self, q):
        store = UserStore(2)
        store.append(q, 1)
        assert class_similarity(1, q, store) == pytest.approx(1.0, abs=1e-6)

    def test_max_over_class_vectors(self, q):
        store = UserStore(2)
        store.append(unit2(0.6, 0.8), 4)
        store.append(unit2(0, 1), 4)
        assert class_similarity(4, q, store) == pytest.approx(0.6, abs=1e-6)

    def test_prototype_store(self, q):
        protos = PrototypeSet(2, class_ids=[2], vectors=[unit2(0.6, 0.8)])
        assert class_similarity(2, q, protos) == pytest.approx(0.6, abs=1e-6)
        assert class_similarity(9, q, protos) == 0.0

    def test_dimension_mismatch(self):
        store = UserStore(3)
        store.append(normalize([1, 0, 0]), 0)
        with pytest.raises(DimensionMismatchError):
            class_similarity(0, unit2(1, 0), store)


class TestSpcRank:
    A, B = 0, 1

    def make(self, q, du, dm):
        store = UserStore(2)
        store.append(embed_with_dot(q, du), self.A)
        protos = PrototypeSet(2, class_ids=[self.B],
                              vectors=[embed_with_dot(q, dm)])
        return store, protos

    def test_weighting_favors_user_class(self, q):
        # user dot 0.9 beats 0.99 * 0.85 = 0.8415
        store, protos = self.make(q, 0.9, 0.99)
        r = spc_rank(q, store, protos, SpcConfig(0.85))
        assert r.top1() == self.A
        assert r.scores[0] == pytest.approx(0.9, abs=1e-6)
        assert r.scores[1] == pytest.approx(0.99 * 0.85, abs=1e-6)

    def test_w_one_is_plain_nearest_neighbor(self, q):
        store, protos = self.make(q, 0.9, 0.99)
        r = spc_rank(q, store, protos, SpcConfig(1.0))
        assert r.top1() == self.B

    def test_empty_user_store_matches_ncm_order(self):
        # non-negative vectors: every prototype dot is >= 0, so scaling by w
        # preserves the order (an absent user class contributes exactly 0,
        # which would otherwise outrank negative prototype scores)
        rng = np.random.default_rng(3)
        protos = PrototypeSet(
            8, class_ids=range(10),
            vectors=np.stack([normalize(np.abs(rng.standard_normal(8)))
                              for _ in range(10)]))
        query = normalize(np.abs(rng.standard_normal(8)))
        ncm_order = ncm_rank(query, protos).class_ids
        for w in (0.1, 0.5, 0.85, 1.0):
            r = spc_rank(query, UserStore(8), protos, SpcConfig(w))
            np.testing.assert_array_equal(r.class_ids, ncm_order)

    @pytest.mark.parametrize("rank,cfg", RANKERS, ids=RANKER_IDS)
    @pytest.mark.parametrize("store,protos", [
        (None, None), (UserStore(2), None), (None, PrototypeSet(2)),
        (UserStore(2), PrototypeSet(2))],
        ids=["none", "empty-store", "empty-prototypes", "both-empty"])
    def test_empty_everything_is_an_error(self, q, rank, cfg, store, protos):
        with pytest.raises(SpcError, match="nothing to predict"):
            rank(q, store, protos, cfg)

    @pytest.mark.parametrize("rank,cfg", RANKERS, ids=RANKER_IDS)
    def test_store_prototype_dim_mismatch(self, q, rank, cfg):
        store = UserStore(2)
        store.append(q, 0)
        protos = PrototypeSet(3, class_ids=[1],
                              vectors=[normalize([1.0, 0.0, 0.0])])
        with pytest.raises(DimensionMismatchError):
            rank(q, store, protos, cfg)

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(5)
        store = UserStore(4)
        for i in range(20):
            store.append(normalize(rng.standard_normal(4)),
                         int(rng.integers(0, 6)))
        protos = PrototypeSet(
            4, class_ids=range(4, 10),
            vectors=np.stack([normalize(rng.standard_normal(4))
                              for _ in range(6)]))
        r = spc_rank(normalize(rng.standard_normal(4)), store, protos,
                     SpcConfig(0.85))
        assert all(a >= b for a, b in zip(r.scores, r.scores[1:]))
        assert len(set(r.class_ids.tolist())) == len(r)

    def test_tie_rule_prefers_user_class_then_smaller_id(self, q):
        # orthogonal queries: user classes 5 and 2 score 0, proto class 1 scores 0
        store = UserStore(2)
        store.append(unit2(0, 1), 5)
        store.append(unit2(0, -1), 2)
        protos = PrototypeSet(2, class_ids=[1], vectors=[unit2(0, 1)])
        r = spc_rank(q, store, protos, SpcConfig(0.85))
        assert r.class_ids.tolist() == [2, 5, 1]


class TestSpcSumRank:
    def test_ws_zero_matches_user_only_order(self):
        rng = np.random.default_rng(7)
        store = UserStore(4)
        for i in range(12):
            store.append(normalize(rng.standard_normal(4)),
                         int(rng.integers(0, 4)))
        protos = PrototypeSet(
            4, class_ids=[10, 11],
            vectors=np.stack([normalize(rng.standard_normal(4))
                              for _ in range(2)]))
        query = normalize(rng.standard_normal(4))
        r = spc_sum_rank(query, store, protos, SumConfig(0.0))
        user_scores = {c: class_similarity(c, query, store)
                       for c in store.class_set}
        for c, s in r.pairs():
            if c in store.class_set:
                assert s == pytest.approx(user_scores[c], abs=1e-12)
            else:
                assert s == 0.0

    def test_ws_one_is_prototype_only_scores(self, q):
        store = UserStore(2)
        store.append(unit2(0, 1), 9)
        protos = PrototypeSet(2, class_ids=[1], vectors=[unit2(0.6, 0.8)])
        r = spc_sum_rank(q, store, protos, SumConfig(1.0))
        scores = dict(r.pairs())
        assert scores[1] == pytest.approx(0.6, abs=1e-6)
        assert scores[9] == 0.0

    def test_hand_computed_combination(self, q):
        store = UserStore(2)
        store.append(embed_with_dot(q, 0.9), 0)
        protos = PrototypeSet(2, class_ids=[1],
                              vectors=[embed_with_dot(q, 0.99)])
        r = spc_sum_rank(q, store, protos, SumConfig(0.5))
        scores = dict(r.pairs())
        assert scores[0] == pytest.approx(0.45, abs=1e-6)
        assert scores[1] == pytest.approx(0.495, abs=1e-6)
        assert r.top1() == 1


class TestNcmRank:
    def test_exact_prototype_query(self):
        v = unit2(0.6, 0.8)
        protos = PrototypeSet(2, class_ids=[3, 4],
                              vectors=np.stack([v, unit2(0, 1)]))
        r = ncm_rank(v, protos)
        assert r.top1() == 3
        assert r.scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_hand_computed_order(self):
        protos = PrototypeSet(2, class_ids=[0, 1],
                              vectors=np.stack([unit2(1, 0), unit2(0, 1)]))
        r = ncm_rank(unit2(0.6, 0.8), protos)
        assert r.class_ids.tolist() == [1, 0]

    def test_orthogonal_tie_broken_by_id(self):
        protos = PrototypeSet(2, class_ids=[8, 2],
                              vectors=np.stack([unit2(0, 1), unit2(0, -1)]))
        r = ncm_rank(unit2(1, 0), protos)
        assert r.class_ids.tolist() == [2, 8]

    def test_empty_error(self):
        with pytest.raises(SpcError):
            ncm_rank(unit2(1, 0), PrototypeSet(2))


class TestRegister:
    def test_register_new_and_existing_class(self):
        store = UserStore(2)
        register(store, unit2(1, 0), 0)
        assert len(store) == 1 and store.class_set == {0}
        register(store, unit2(0, 1), 0)
        assert len(store) == 2 and store.class_set == {0}

    def test_self_retrieval_after_register(self):
        rng = np.random.default_rng(11)
        protos = PrototypeSet(
            8, class_ids=range(5),
            vectors=np.stack([normalize(rng.standard_normal(8))
                              for _ in range(5)]))
        store = UserStore(8)
        e = normalize(rng.standard_normal(8))
        register(store, e, 99)
        for w in (0.3, 0.85, 1.0):
            assert spc_rank(e, store, protos, SpcConfig(w)).top1() == 99


class TestMeanState:
    def test_update_with_identical_vector_keeps_mean(self):
        m = unit2(1, 0)
        protos = PrototypeSet(2, class_ids=[0], vectors=[m])
        state = MeanState.from_prototypes(protos, MeanState.MEAN_AS_ONE)
        ncm_update(state, m, 0)
        np.testing.assert_allclose(state.prototype(0), m, atol=1e-7)

    def test_mean_as_one_moves_halfway(self):
        protos = PrototypeSet(2, class_ids=[0], vectors=[unit2(1, 0)])
        state = MeanState.from_prototypes(protos, MeanState.MEAN_AS_ONE)
        ncm_update(state, unit2(0, 1), 0)
        np.testing.assert_allclose(state.prototype(0),
                                   [math.sqrt(0.5), math.sqrt(0.5)],
                                   atol=1e-6)

    def test_novel_class_starts_at_sample(self):
        state = MeanState(2)
        v = unit2(0.6, 0.8)
        ncm_update(state, v, 5)
        assert state.count(5) == 1
        np.testing.assert_allclose(state.prototype(5), v, atol=1e-7)

    def test_full_history_seeding_uses_training_counts(self):
        protos = PrototypeSet(2, class_ids=[0], vectors=[unit2(1, 0)],
                              counts={0: 800})
        state = MeanState.from_prototypes(protos, MeanState.FULL_HISTORY)
        assert state.count(0) == 800
        ncm_update(state, unit2(0, 1), 0)
        assert state.count(0) == 801

    def test_full_history_requires_counts(self):
        protos = PrototypeSet(2, class_ids=[0], vectors=[unit2(1, 0)])
        with pytest.raises(SpcError):
            MeanState.from_prototypes(protos, MeanState.FULL_HISTORY)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mean_as_one_drifts_farther_than_full_history(self, seed):
        # same new sample; count-1 seeding must move the prototype strictly
        # farther from the old mean than count-800 seeding
        rng = np.random.default_rng(seed)
        dim = 16
        old = normalize(rng.standard_normal(dim))
        sample = normalize(rng.standard_normal(dim))
        protos = PrototypeSet(dim, class_ids=[0], vectors=[old],
                              counts={0: 800})
        heavy = MeanState.from_prototypes(protos, MeanState.FULL_HISTORY)
        light = MeanState.from_prototypes(protos, MeanState.MEAN_AS_ONE)
        ncm_update(heavy, sample, 0)
        ncm_update(light, sample, 0)
        old64 = old.astype(np.float64)
        angle_heavy = math.acos(np.clip(heavy.prototype(0) @ old64, -1, 1))
        angle_light = math.acos(np.clip(light.prototype(0) @ old64, -1, 1))
        assert angle_light > angle_heavy


class TestCostCounter:
    def test_dot_count_is_store_plus_prototypes(self):
        rng = np.random.default_rng(13)
        protos = PrototypeSet(
            4, class_ids=range(7),
            vectors=np.stack([normalize(rng.standard_normal(4))
                              for _ in range(7)]))
        store = UserStore(4)
        counter = DotCounter()
        for t in range(1, 20):
            spc_rank(normalize(rng.standard_normal(4)), store, protos,
                     SpcConfig(0.85), counter)
            assert counter.per_call[-1] == 7 + (t - 1)
            store.append(normalize(rng.standard_normal(4)),
                         int(rng.integers(0, 9)))


class TestLocalAdaptation:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_new_vector_only_changes_its_own_class_score(self, seed):
        rng = np.random.default_rng(seed)
        dim = 8
        protos = PrototypeSet(
            dim, class_ids=range(5),
            vectors=np.stack([normalize(rng.standard_normal(dim))
                              for _ in range(5)]))
        store = UserStore(dim)
        for _ in range(10):
            store.append(normalize(rng.standard_normal(dim)),
                         int(rng.integers(0, 7)))
        query = normalize(rng.standard_normal(dim))
        before = dict(spc_rank(query, store, protos, SpcConfig(0.85)).pairs())
        seen = set(store.class_set)
        new_class = int(rng.integers(0, 7))
        store.append(normalize(rng.standard_normal(dim)), new_class)
        after = dict(spc_rank(query, store, protos, SpcConfig(0.85)).pairs())
        for c, s in before.items():
            if c != new_class:
                assert after[c] == s
            elif c in seen:
                # a new vector can only raise a max over existing vectors
                assert after[c] >= s


class TestOracleAgreement:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_weighted_max_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 24))
        n_store = int(rng.integers(0, 40))
        n_protos = int(rng.integers(0, 10))
        if n_store + n_protos == 0:
            n_protos = 1
        signed = bool(rng.integers(0, 2))

        def vec():
            v = rng.standard_normal(dim)
            return normalize(v if signed else np.abs(v))

        store = UserStore(dim)
        user_pairs = []
        for _ in range(n_store):
            v, c = vec(), int(rng.integers(0, 12))
            store.append(v, c)
            user_pairs.append((v, c))
        proto_ids = rng.choice(30, size=n_protos, replace=False)
        proto_vecs = [vec() for _ in range(n_protos)]
        protos = PrototypeSet(dim, class_ids=proto_ids,
                              vectors=np.stack(proto_vecs)
                              if n_protos else None)
        query = vec()
        w = float(rng.uniform(0.05, 1.0))
        got = spc_rank(query, store, protos, SpcConfig(w)).pairs()
        want = brute_force_rank(query, user_pairs,
                                list(zip(proto_ids.tolist(), proto_vecs)),
                                w=w)
        assert [c for c, _ in got] == [c for c, _ in want]
        np.testing.assert_allclose([s for _, s in got],
                                   [s for _, s in want], atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_linear_sum_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 16))
        store = UserStore(dim)
        user_pairs = []
        for _ in range(int(rng.integers(1, 25))):
            v = normalize(rng.standard_normal(dim))
            c = int(rng.integers(0, 8))
            store.append(v, c)
            user_pairs.append((v, c))
        n_protos = int(rng.integers(1, 6))
        proto_ids = rng.choice(20, size=n_protos, replace=False)
        proto_vecs = [normalize(rng.standard_normal(dim))
                      for _ in range(n_protos)]
        protos = PrototypeSet(dim, class_ids=proto_ids,
                              vectors=np.stack(proto_vecs))
        query = normalize(rng.standard_normal(dim))
        ws = float(rng.uniform(0.0, 1.0))
        got = spc_sum_rank(query, store, protos, SumConfig(ws)).pairs()
        want = brute_force_rank(query, user_pairs,
                                list(zip(proto_ids.tolist(), proto_vecs)),
                                w_s=ws)
        assert [c for c, _ in got] == [c for c, _ in want]
