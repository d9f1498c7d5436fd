import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spc import (DimensionMismatchError, DotCounter, PrototypeSet, SpcConfig,
                 SpcError, SumConfig, UserStore, normalize, register,
                 spc_rank)
from spc.core import check_unit

from .oracle import brute_force_rank, ranked_pairs
from .reference_means import RunningMeans, ncm_rank
from .reference_rank import id_indexed_rank


def class_similarity(class_id: int, query, store) -> float:
    """Max dot product between query and stored vectors of one class.

    Returns exactly 0.0 when the store holds no vector of that class.
    `store` may be a UserStore or a PrototypeSet.
    """
    q = check_unit(query, store.dim)
    vecs, classes = ((store.matrix64, store.class_ids)
                     if isinstance(store, PrototypeSet)
                     else (store.vectors64, store.classes))
    mask = classes == class_id
    if not mask.any():
        return 0.0
    return float(np.max(vecs[mask] @ q))


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


# spc_rank under each rule; the ids name the weighted max and the linear sum
CONFIGS = [SpcConfig(0.85), SumConfig(0.5)]
CONFIG_IDS = ["spc_rank", "spc_sum_rank"]


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

    def test_combine_is_the_scoring_rule(self):
        su = np.array([0.5, 0.0, -0.25])
        sm = np.array([0.25, 0.75, 0.5])
        np.testing.assert_array_equal(SpcConfig(0.5).combine(su, sm, True),
                                      [0.5, 0.375, 0.25])
        # with no prototype set at all, the user similarities themselves
        np.testing.assert_array_equal(SpcConfig(0.5).combine(su, sm, False),
                                      su)
        np.testing.assert_array_equal(SumConfig(0.25).combine(su, sm, True),
                                      0.75 * su + 0.25 * sm)


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
        assert r.class_ids[0] == self.A
        assert r.scores[0] == pytest.approx(0.9, abs=1e-6)
        assert r.scores[1] == pytest.approx(0.99 * 0.85, abs=1e-6)

    def test_w_one_is_plain_nearest_neighbor(self, q):
        store, protos = self.make(q, 0.9, 0.99)
        r = spc_rank(q, store, protos, SpcConfig(1.0))
        assert r.class_ids[0] == self.B

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

    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("store,protos", [
        (None, None), (UserStore(2), None), (None, PrototypeSet(2)),
        (UserStore(2), PrototypeSet(2))],
        ids=["none", "empty-store", "empty-prototypes", "both-empty"])
    def test_empty_everything_is_an_error(self, q, cfg, store, protos):
        with pytest.raises(SpcError, match="nothing to predict"):
            spc_rank(q, store, protos, cfg)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    def test_store_prototype_dim_mismatch(self, q, cfg):
        store = UserStore(2)
        store.append(q, 0)
        protos = PrototypeSet(3, class_ids=[1],
                              vectors=[normalize([1.0, 0.0, 0.0])])
        with pytest.raises(DimensionMismatchError):
            spc_rank(q, store, protos, cfg)

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
        assert len(set(r.class_ids.tolist())) == len(r.class_ids)

    def test_tie_rule_prefers_user_class_then_smaller_id(self, q):
        # orthogonal queries: user classes 5 and 2 score 0, proto class 1 scores 0
        store = UserStore(2)
        store.append(unit2(0, 1), 5)
        store.append(unit2(0, -1), 2)
        protos = PrototypeSet(2, class_ids=[1], vectors=[unit2(0, 1)])
        r = spc_rank(q, store, protos, SpcConfig(0.85))
        assert r.class_ids.tolist() == [2, 5, 1]


class TestClassLayout:
    """spc_rank over a store's class layout against the id-indexed
    reference it replaced, which makes the same matrix products: the same
    Ranking, bit for bit."""

    @staticmethod
    def assert_equal(got, want):
        assert got.class_ids.dtype == want.class_ids.dtype
        np.testing.assert_array_equal(got.class_ids, want.class_ids)
        assert got.scores.tobytes() == want.scores.tobytes()

    def assert_same(self, query, store, protos, cfg):
        self.assert_equal(spc_rank(query, store, protos, cfg),
                          id_indexed_rank(query, store, protos, cfg))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_id_indexed_reference(self, seed):
        # class ids arrive out of id order; the two prototype sets overlap
        # in part, and some classes are store-only or prototype-only;
        # signed vectors give negative dots, so many scores tie at 0, and
        # a small pool repeats vectors, so equal scores tie too
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 12))
        signed = bool(rng.integers(0, 2))
        pool = [normalize(v if signed else np.abs(v))
                for v in rng.standard_normal((6, dim))]

        def vec():
            return pool[rng.integers(0, len(pool))] if rng.integers(0, 3) \
                else normalize(rng.standard_normal(dim) if signed
                               else np.abs(rng.standard_normal(dim)))

        def proto_set(ids):
            return PrototypeSet(dim, class_ids=ids,
                                vectors=np.stack([vec() for _ in ids])
                                if len(ids) else None)

        sets = [proto_set(rng.choice(30, size=int(rng.integers(1, 12)),
                                     replace=False)),
                proto_set(rng.choice(30, size=int(rng.integers(0, 12)),
                                     replace=False)),
                None]
        cfgs = [SpcConfig(float(rng.uniform(0.05, 1.0))), SpcConfig(1.0),
                SumConfig(float(rng.uniform(0.0, 1.0))), SumConfig(1.0)]
        store, empty = UserStore(dim), PrototypeSet(dim)
        for _ in range(int(rng.integers(1, 60))):
            q = vec()
            # the same store ranked alternately against both sets and
            # alone, then appended to between calls; the empty set and
            # the empty store rank as None does
            for protos in sets:
                if len(store) or (protos is not None and len(protos)):
                    cfg = cfgs[rng.integers(0, len(cfgs))]
                    self.assert_same(q, store, protos, cfg)
                    if protos is None:
                        self.assert_equal(spc_rank(q, store, empty, cfg),
                                          spc_rank(q, store, None, cfg))
            for protos in sets[:2]:
                if len(protos):
                    cfg = cfgs[rng.integers(0, len(cfgs))]
                    self.assert_same(q, None, protos, cfg)
                    self.assert_equal(spc_rank(q, UserStore(dim), protos, cfg),
                                      spc_rank(q, None, protos, cfg))
            # a numpy id and the same Python id must share one slot
            c = int(rng.integers(0, 40))
            store.append(vec(), np.int64(c) if len(store) % 2 else c)

    def test_sparse_ids_rank_in_little_memory(self):
        # arrays sized by the largest id would take 16 MB each here
        rng = np.random.default_rng(17)
        store = UserStore(8)
        for c in (2_000_000, 0, 2_000_000):
            store.append(normalize(rng.standard_normal(8)), c)
        protos = PrototypeSet(8, class_ids=[2_000_000, 0],
                              vectors=np.stack([normalize(
                                  rng.standard_normal(8)) for _ in range(2)]))
        q = normalize(rng.standard_normal(8))
        tracemalloc.start()
        try:
            rankings = [spc_rank(q, s, p, cfg)
                        for s, p in ((store, protos), (store, None),
                                     (None, protos), (store, PrototypeSet(8)),
                                     (UserStore(8), protos))
                        for cfg in (SpcConfig(0.85), SumConfig(0.5))]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        for r in rankings:
            assert sorted(r.class_ids.tolist()) == [0, 2_000_000]
        # the empty set and the empty store rank as None does
        for got, want in zip(rankings[6:], rankings[2:6]):
            self.assert_equal(got, want)

    def test_store_alone_keeps_its_layout(self):
        # None stands for one empty set per dim, so a store ranked without
        # prototypes extends its layout across calls instead of rebuilding
        store = UserStore(2)
        store.append(unit2(1, 0), 3)
        spc_rank(unit2(1, 0), store, None, SpcConfig())
        layout = store._layout
        store.append(unit2(0, 1), 5)
        r = spc_rank(unit2(0, 1), store, None, SpcConfig())
        assert store._layout is layout
        assert layout.ids.tolist() == [3, 5] and r.class_ids.tolist() == [5, 3]


class TestRepeatedVectors:
    """One vector held at many rows, in the store and in the prototype set,
    gets one dot wherever its row falls in the matrix products, so its
    classes tie and the tie rule orders them, as in the oracle."""

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_copies_tie(self, dim):
        # a BLAS matrix-vector product may round a row's dot by the row's
        # place (seen at dim 8 with 3 rows), so many draws are made
        rng = np.random.default_rng(dim)
        for _ in range(100):
            v, q = (normalize(rng.standard_normal(dim)) for _ in range(2))
            # a positive dot, so no class's absent side outscores it
            v = v if np.dot(v, q) > 0 else -v
            n_user, n_proto = (int(k) for k in rng.integers(1, 9, 2))
            protos = PrototypeSet(dim, class_ids=range(n_proto),
                                  vectors=np.tile(v, (n_proto, 1)))
            # user classes in falling id order, then prototype-only ones;
            # grown is ranked after each append, so its layout notes one
            # new row per call
            store, grown = UserStore(dim), UserStore(dim)
            for c in range(n_user + 5, 5, -1):
                store.append(v, c)
                grown.append(v, c)
                spc_rank(q, grown, protos, SpcConfig(1.0))
            user_pairs = list(zip(store.vectors64, store.classes.tolist()))
            proto_pairs = list(zip(range(n_proto), protos.matrix))
            for scored, pairs in ((protos, proto_pairs), (None, [])):
                want = brute_force_rank(q, user_pairs, pairs, w=1.0)
                for ranked in (store, grown):
                    got = spc_rank(q, ranked, scored, SpcConfig(1.0))
                    assert got.class_ids.tolist() == [c for c, _ in want]
                    assert len(set(got.scores.tolist())) == 1
            got = spc_rank(q, None, protos, SumConfig(1.0))
            assert got.class_ids.tolist() == list(range(n_proto))
            assert len(set(got.scores.tolist())) == 1

    @pytest.mark.parametrize("zero_at", [0, 3])
    @pytest.mark.parametrize("dim", range(4, 10))
    def test_signed_zero_copies_tie(self, dim, zero_at):
        # v and neg, v with -0.0 for its 0.0, are one vector by value. A
        # zero first component keys them alike; at index 3 a different
        # vector w takes their first component first, so they are keyed
        # by their bytes, which must not tell 0.0 from -0.0. neg comes
        # last of 5 rows, where a product may round its dot apart
        rng = np.random.default_rng(dim)
        for _ in range(100):
            v = rng.standard_normal(dim)
            v[zero_at] = 0.0
            v = normalize(v)
            neg = v.copy()
            neg[zero_at] = -0.0
            w = v.copy()
            w[[1, 2]] = w[[2, 1]]
            q = normalize(rng.standard_normal(dim))
            if np.dot(v, q) < 0:
                v, neg, w = -neg, -v, -w
            store = UserStore(dim)
            for c, u in ((9, w), (8, v), (7, v), (6, v), (5, neg)):
                store.append(u, c)
            protos = PrototypeSet(dim, class_ids=[9, 1, 0],
                                  vectors=np.stack([w, v, neg]))
            for scored in (protos, None):
                got = spc_rank(q, store, scored, SpcConfig(1.0))
                ref = id_indexed_rank(q, store, scored, SpcConfig(1.0))
                assert got.class_ids.tolist() == ref.class_ids.tolist()
                np.testing.assert_array_equal(got.scores, ref.scores)
                tied = [s for c, s in zip(got.class_ids.tolist(),
                                          got.scores.tolist()) if c != 9]
                assert len(set(tied)) == 1


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
        r = spc_rank(query, store, protos, SumConfig(0.0))
        user_scores = {c: class_similarity(c, query, store)
                       for c in store.classes.tolist()}
        for c, s in ranked_pairs(r):
            if c in user_scores:
                assert s == pytest.approx(user_scores[c], abs=1e-12)
            else:
                assert s == 0.0

    def test_ws_one_is_prototype_only_scores(self, q):
        store = UserStore(2)
        store.append(unit2(0, 1), 9)
        protos = PrototypeSet(2, class_ids=[1], vectors=[unit2(0.6, 0.8)])
        r = spc_rank(q, store, protos, SumConfig(1.0))
        scores = dict(ranked_pairs(r))
        assert scores[1] == pytest.approx(0.6, abs=1e-6)
        assert scores[9] == 0.0

    def test_hand_computed_combination(self, q):
        store = UserStore(2)
        store.append(embed_with_dot(q, 0.9), 0)
        protos = PrototypeSet(2, class_ids=[1],
                              vectors=[embed_with_dot(q, 0.99)])
        r = spc_rank(q, store, protos, SumConfig(0.5))
        scores = dict(ranked_pairs(r))
        assert scores[0] == pytest.approx(0.45, abs=1e-6)
        assert scores[1] == pytest.approx(0.495, abs=1e-6)
        assert r.class_ids[0] == 1


class TestNcmRank:
    def test_exact_prototype_query(self):
        v = unit2(0.6, 0.8)
        protos = PrototypeSet(2, class_ids=[3, 4],
                              vectors=np.stack([v, unit2(0, 1)]))
        r = ncm_rank(v, protos)
        assert r.class_ids[0] == 3
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

    @pytest.mark.parametrize("seed", range(20))
    def test_is_nearest_prototype_by_dot_then_id(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 40))
        n = int(rng.integers(1, 30))
        vecs = [normalize(rng.standard_normal(dim)) for _ in range(n)]
        # duplicated vectors tie, and the tie goes to the smaller id
        vecs[-1] = vecs[0]
        ids = rng.choice(100, size=n, replace=False)
        protos = PrototypeSet(dim, class_ids=ids, vectors=np.stack(vecs))
        q = normalize(rng.standard_normal(dim))
        counter = DotCounter()
        r = ncm_rank(q, protos, counter)
        dots = protos.matrix64 @ q.astype(np.float64)
        # the product may round the copy's dot by its row; the copy ties
        dots[-1] = dots[0]
        order = np.lexsort((ids, -dots))
        assert r.class_ids.tolist() == ids[order].tolist()
        np.testing.assert_array_equal(r.scores, dots[order])
        assert counter.per_call == [n]


class TestRegister:
    def test_register_new_and_existing_class(self):
        store = UserStore(2)
        register(store, unit2(1, 0), 0)
        assert len(store) == 1 and set(store.classes.tolist()) == {0}
        register(store, unit2(0, 1), 0)
        assert len(store) == 2 and set(store.classes.tolist()) == {0}

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
            assert spc_rank(e, store, protos, SpcConfig(w)).class_ids[0] == 99


class TestMeanState:
    def test_update_with_identical_vector_keeps_mean(self):
        m = unit2(1, 0)
        protos = PrototypeSet(2, class_ids=[0], vectors=[m])
        state = RunningMeans.from_prototypes(protos, "mean-as-one")
        state.update(m, 0)
        np.testing.assert_allclose(state.prototype(0), m, atol=1e-7)

    def test_mean_as_one_moves_halfway(self):
        protos = PrototypeSet(2, class_ids=[0], vectors=[unit2(1, 0)])
        state = RunningMeans.from_prototypes(protos, "mean-as-one")
        state.update(unit2(0, 1), 0)
        np.testing.assert_allclose(state.prototype(0),
                                   [math.sqrt(0.5), math.sqrt(0.5)],
                                   atol=1e-6)

    def test_novel_class_starts_at_sample(self):
        state = RunningMeans(2)
        v = unit2(0.6, 0.8)
        state.update(v, 5)
        assert state.count(5) == 1
        np.testing.assert_allclose(state.prototype(5), v, atol=1e-7)

    def test_full_history_seeding_uses_training_counts(self):
        protos = PrototypeSet(2, class_ids=[0], vectors=[unit2(1, 0)],
                              counts={0: 800})
        state = RunningMeans.from_prototypes(protos, "full-history")
        assert state.count(0) == 800
        state.update(unit2(0, 1), 0)
        assert state.count(0) == 801

    def test_full_history_requires_counts(self):
        protos = PrototypeSet(2, class_ids=[0], vectors=[unit2(1, 0)])
        with pytest.raises(SpcError):
            RunningMeans.from_prototypes(protos, "full-history")

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
        heavy = RunningMeans.from_prototypes(protos, "full-history")
        light = RunningMeans.from_prototypes(protos, "mean-as-one")
        heavy.update(sample, 0)
        light.update(sample, 0)
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
        before = dict(ranked_pairs(
            spc_rank(query, store, protos, SpcConfig(0.85))))
        seen = set(store.classes.tolist())
        new_class = int(rng.integers(0, 7))
        store.append(normalize(rng.standard_normal(dim)), new_class)
        after = dict(ranked_pairs(
            spc_rank(query, store, protos, SpcConfig(0.85))))
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
        got = ranked_pairs(spc_rank(query, store, protos, SpcConfig(w)))
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
        got = ranked_pairs(spc_rank(query, store, protos, SumConfig(ws)))
        want = brute_force_rank(query, user_pairs,
                                list(zip(proto_ids.tolist(), proto_vecs)),
                                w_s=ws)
        assert [c for c, _ in got] == [c for c, _ in want]
