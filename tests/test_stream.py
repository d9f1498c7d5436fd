import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spc.stream as stream_module
from spc.core import UNIT_NORM_TOL
from spc.cli import STRATEGIES
from spc import (BucketReport, DimensionMismatchError, DotCounter,
                 LabeledRecord, NormalizationError, PrototypeSet,
                 ReportTable, SpcConfig,
                 SpcError, Strategy, SumConfig, SynthConfig, UserStore,
                 bucket_report, cross_validate_w, evaluate,
                 generate_synthetic, group_by_user, normalize, register,
                 render_report, run_streams, run_user_stream, spc_rank,
                 sweep_table, sweep_w, sweep_ws)

from .oracle import brute_force_rank
from .reference_means import reference_mean_replay
from .reference_report import (columns, mean_accuracy,
                               reference_bucket_report, user_results)

SMALL = dict(dim=16, num_common_classes=12, users=6, records_per_user=40,
             novel_classes_per_user=2, confusable_group_count=2, group_size=2,
             train_records_per_class=4, train_modes_per_class=2, seed=9)


def rec(user, t, cls, vec):
    return LabeledRecord(user=user, t=t, class_id=cls, vec=normalize(vec))


@pytest.fixture(scope="module")
def synth():
    from spc import SubsetSpec, TrainIndex, build_prototypes, select_classes
    train, stream, registry, manifest = generate_synthetic(SynthConfig(**SMALL))
    protos = build_prototypes(
        train, select_classes(TrainIndex.from_records(train), SubsetSpec()),
        SubsetSpec())
    return group_by_user(stream), protos


class TestProtocol:
    """Hand-traced three-record stream against a one-class prototype set."""

    def setup_method(self):
        self.protos = PrototypeSet(2, class_ids=[0], vectors=[[1.0, 0.0]])
        self.records = [rec("u", 1, 0, [1.0, 0.0]),
                        rec("u", 2, 1, [0.0, 1.0]),
                        rec("u", 3, 1, [0.0, 1.0])]

    def test_predict_before_learn(self):
        out = run_user_stream(self.records, self.protos,
                              Strategy(kind="spc", w=0.85))
        assert [o.predicted for o in out] == [0, 0, 1]
        assert [o.hits[1] for o in out] == [True, False, True]

    def test_initial_and_union_flags(self):
        out = run_user_stream(self.records, self.protos,
                              Strategy(kind="spc", w=0.85))
        assert out.true_class.tolist() == [0, 1, 1]
        assert out.in_initial.tolist() == [True, False, False]
        # class 1 first appears at t=2, so it joins the union at t=3
        assert out.in_union.tolist() == [True, False, True]

    def test_cold_start_without_prototypes(self):
        out = list(run_user_stream(self.records, None,
                                   Strategy(kind="1nn-star")))
        assert out[0].predicted is None
        assert not out[0].hits[1] and not out[0].hits[5]
        assert [o.predicted for o in out[1:]] == [0, 1]

    def test_learn_disabled_never_improves(self):
        out = run_user_stream(self.records, self.protos,
                              Strategy(kind="spc", w=0.85, learn=False))
        assert [o.predicted for o in out] == [0, 0, 0]

    def test_non_contiguous_t_rejected(self):
        bad = [self.records[0], self.records[2]]
        with pytest.raises(SpcError, match="contiguous"):
            run_user_stream(bad, self.protos, Strategy(kind="spc"))

    def test_empty_stream(self):
        assert list(run_user_stream([], self.protos,
                                    Strategy(kind="spc"))) == []


def raw(user, t, cls, vec):
    """A record whose vector is taken as given, unit or not."""
    return LabeledRecord(user=user, t=t, class_id=cls,
                         vec=np.array(vec, np.float32))


class TestCheckOrder:
    """A stream with two faults fails on the one checked first: t order,
    then each vector's shape and norm, then the prototype set."""

    @pytest.mark.parametrize("kind, protos, records, error, message", [
        ("spc", PrototypeSet(2, class_ids=[0], vectors=[[1.0, 0.0]]),
         [raw("u", 1, 0, [1.0, 0.0]), raw("u", 3, 0, [1.0, 1.0])],
         SpcError, "user 'u': stream t values not contiguous "
                   "(expected 2, got 3)"),
        ("spc", PrototypeSet(2, class_ids=[0], vectors=[[1.0, 0.0]]),
         [raw("u", 1, 0, [1.0, 0.0, 0.0]), raw("u", 2, 0, [1.0, 1.0, 0.0])],
         NormalizationError, "record of user 'u' at t=2: vector is not "
                             f"unit-normalized within {UNIT_NORM_TOL}"),
        ("ncm-fixed", None,
         [raw("u", 1, 0, [1.0, 0.0]), raw("u", 2, 0, [1.0, 0.0, 0.0])],
         DimensionMismatchError, "record of user 'u' at t=2: vector shape "
                                 "(3,), expected (2,)"),
    ], ids=["t-before-norm", "norm-before-proto-dim",
            "shape-before-empty-protos"])
    def test_first_check_wins(self, kind, protos, records, error, message):
        with pytest.raises(error) as got:
            run_user_stream(records, protos, Strategy(kind=kind))
        assert str(got.value) == message

    @pytest.mark.parametrize("kind", ["spc", "spc-sum", "1nn", "1nn-star"])
    def test_empty_prototype_set_of_another_dim(self, kind):
        # 1nn-star does not score the set, so its dim does not matter
        records = [rec("u", 1, 0, [1.0, 0.0])]
        if kind == "1nn-star":
            assert len(run_user_stream(records, PrototypeSet(8),
                                       Strategy(kind=kind))) == 1
            return
        with pytest.raises(DimensionMismatchError,
                           match=r"^stream dim 2 != prototype dim 8$"):
            run_user_stream(records, PrototypeSet(8), Strategy(kind=kind))


class TestInvariants:
    def test_hit1_implies_hit5(self, synth):
        streams, protos = synth
        for kind in ("spc", "ncm-fixed", "1nn", "1nn-star", "spc-sum"):
            outcomes = run_streams(streams, protos, Strategy(kind=kind))
            for user_out in outcomes.values():
                for o in user_out:
                    assert not o.hits[1] or o.hits[5]
                assert not (user_out.in_initial & ~user_out.in_union).any()

    def test_dot_count_is_prototypes_plus_history(self, synth):
        streams, protos = synth
        user = sorted(streams)[0]
        counter = DotCounter()
        run_user_stream(streams[user], protos, Strategy(kind="spc"),
                        counter=counter)
        n = len(streams[user])
        assert counter.per_call == [len(protos) + t for t in range(n)]
        assert counter.total == sum(counter.per_call)

    def test_users_evaluated_independently(self, synth):
        streams, protos = synth
        user = sorted(streams)[0]
        alone = run_user_stream(streams[user], protos, Strategy(kind="spc"))
        together = run_streams(streams, protos, Strategy(kind="spc"))
        # run_streams takes no top-1, so every other column is compared
        assert together[user].predicted is None
        assert columns({user: dataclasses.replace(alone, predicted=None)}) \
            == columns({user: together[user]})


class TestReductionIdentities:
    """Different strategy labels that must traverse identical outcomes,
    top-1 included, so each user is replayed by run_user_stream."""

    def assert_same(self, streams, protos_a, a, protos_b, b):
        out_a = user_results(streams, protos_a, a)
        out_b = user_results(streams, protos_b, b)
        assert columns(out_a) == columns(out_b)

    def test_w_one_equals_plain_nearest_neighbor(self, synth):
        streams, protos = synth
        self.assert_same(streams, protos, Strategy(kind="spc", w=1.0),
                         protos, Strategy(kind="1nn"))

    def test_no_prototypes_equals_user_only(self, synth):
        streams, protos = synth
        self.assert_same(streams, None, Strategy(kind="spc", w=0.85),
                         None, Strategy(kind="1nn-star"))

    def test_user_only_scoring_ignores_prototypes(self, synth):
        # 1nn-star keeps the prototype set for the initial-class bookkeeping
        # but never scores against it
        streams, protos = synth
        with_p = user_results(streams, protos, Strategy(kind="1nn-star"))
        without = user_results(streams, None, Strategy(kind="1nn-star"))
        for user in with_p:
            assert [o.predicted for o in with_p[user]] == \
                [o.predicted for o in without[user]]
            assert [o.hits for o in with_p[user]] == \
                [o.hits for o in without[user]]

    def test_sum_weight_zero_equals_user_only(self, synth):
        streams, _ = synth
        self.assert_same(streams, None, Strategy(kind="spc-sum", w_s=0.0),
                         None, Strategy(kind="1nn-star"))

    def test_sum_weight_one_equals_prototype_only(self, synth):
        streams, protos = synth
        out_a = user_results(streams, protos,
                             Strategy(kind="spc-sum", w_s=1.0))
        out_b = user_results(streams, protos, Strategy(kind="ncm-fixed"))
        for user in out_a:
            assert [o.predicted for o in out_a[user]] == \
                [o.predicted for o in out_b[user]]
            assert [o.hits[1] for o in out_a[user]] == \
                [o.hits[1] for o in out_b[user]]

    def test_learn_disabled_equals_fixed_prototypes(self, synth):
        streams, protos = synth
        self.assert_same(streams, protos,
                         Strategy(kind="spc", w=0.85, learn=False),
                         protos, Strategy(kind="ncm-fixed"))


class TestNcmIncrModes:
    def test_modes_diverge_on_real_streams(self, synth):
        streams, protos = synth
        full = run_streams(streams, protos,
                           Strategy(kind="ncm-incr", mean_mode="full-history"))
        one = run_streams(streams, protos,
                          Strategy(kind="ncm-incr", mean_mode="mean-as-one"))
        assert columns(full) != columns(one)

    def test_needs_prototypes(self, synth):
        streams, _ = synth
        with pytest.raises(SpcError):
            run_streams(streams, None, Strategy(kind="ncm-incr"))


class TestMeanAccuracy:
    def outcomes(self, synth):
        streams, protos = synth
        return run_streams(streams, protos, Strategy(kind="spc"))

    def test_matches_direct_average(self, synth):
        outcomes = self.outcomes(synth)
        outs = [list(result) for result in outcomes.values()]
        for t in (1, 7, 40):
            want = np.mean([o[t - 1].hits[1] for o in outs])
            assert mean_accuracy(outcomes, t, 1) == pytest.approx(want)

    def test_excludes_short_streams(self, synth):
        streams, protos = synth
        short_user = sorted(streams)[0]
        short = {**streams, short_user: streams[short_user][:5]}
        outcomes = run_streams(short, protos, Strategy(kind="spc"))
        others = [u for u in outcomes if u != short_user]
        want = np.mean([list(outcomes[u])[9].hits[1] for u in others])
        assert mean_accuracy(outcomes, 10, 1) == pytest.approx(want)

    def test_beyond_every_stream_is_an_error(self, synth):
        with pytest.raises(SpcError):
            mean_accuracy(self.outcomes(synth), 1000, 1)


class TestBucketReport:
    def test_bucket_boundaries_and_flags(self, synth):
        outcomes = self.make(synth)
        report = bucket_report(outcomes, bucket_width=15)
        assert report.buckets == [(1, 15), (16, 30), (31, 40)]
        assert report.partial_final_bucket and not report.ragged
        even = bucket_report(outcomes, bucket_width=10)
        assert not even.partial_final_bucket

    def make(self, synth):
        streams, protos = synth
        return run_streams(streams, protos, Strategy(kind="spc"))

    def test_accuracy_is_mean_of_per_t_means(self, synth):
        outcomes = self.make(synth)
        report = bucket_report(outcomes, bucket_width=10)
        want = np.mean([mean_accuracy(outcomes, t, 1) for t in range(1, 11)])
        assert report.accuracy[1][0] == pytest.approx(want)

    def test_union_upper_limit_dominates_initial(self, synth):
        report = bucket_report(self.make(synth), bucket_width=10)
        for b in range(len(report.buckets)):
            assert report.in_union[b] >= report.in_initial[b] - 1e-12
            for k in report.k_list:
                assert report.accuracy[k][b] <= report.in_union[b] + 1e-12

    def test_ragged_flagged(self, synth):
        streams, protos = synth
        u = sorted(streams)[0]
        outcomes = run_streams({**streams, u: streams[u][:12]}, protos,
                               Strategy(kind="spc"))
        assert bucket_report(outcomes, bucket_width=10).ragged

    def test_table_shape(self, synth):
        report = bucket_report(self.make(synth), bucket_width=20)
        table = report.to_table("spc (w=0.85)")
        assert len(table.columns) == len(report.buckets) * len(report.k_list)
        labels = [name for name, _ in table.rows]
        assert labels == ["spc (w=0.85)", "upper limit (initial)",
                          "upper limit (union)", "within initial classes",
                          "outside initial classes"]

    def test_empty_rejected(self):
        with pytest.raises(SpcError):
            bucket_report({})


class TestStrategyConfig:
    @pytest.mark.parametrize("kind, config", [
        ("spc", SpcConfig(0.3)), ("spc-sum", SumConfig(0.4)),
        ("1nn", SpcConfig(1.0)), ("1nn-star", SpcConfig(1.0)),
        ("ncm-fixed", SumConfig(1.0)), ("ncm-incr", SumConfig(1.0))])
    def test_each_kind_is_a_setting_of_the_engine(self, kind, config):
        assert Strategy(kind=kind, w=0.3, w_s=0.4).config == config

    def test_the_setting_checks_the_weights(self):
        with pytest.raises(SpcError, match="w_s must be in"):
            Strategy(kind="spc-sum", w_s=1.5)
        # a weight the kind does not use is checked too
        for fields, message in (
                (dict(kind="1nn", w=0.0), r"w must be in \(0, 1\], got 0.0"),
                (dict(kind="spc-sum", w=-3.0), r"w must be in \(0, 1\]"),
                (dict(kind="spc", w_s=5.0), r"w_s must be in \[0, 1\]")):
            with pytest.raises(SpcError, match=message):
                Strategy(**fields)

    def test_unknown_mean_mode_is_refused(self):
        # whatever the kind, though only ncm-incr reads the mode
        for kind in ("ncm-incr", "1nn"):
            with pytest.raises(SpcError, match="unknown mean mode 'bogus'"):
                Strategy(kind=kind, mean_mode="bogus")


class TestSweeps:
    def test_sweep_w_rejects_zero(self, synth):
        streams, protos = synth
        with pytest.raises(SpcError, match=r"w must be in \(0, 1\], got 0.0"):
            sweep_w(streams, protos, [0.0, 0.5])

    def test_empty_grid_rejected(self, synth):
        streams, protos = synth
        for sweep in (sweep_w, sweep_ws, cross_validate_w):
            with pytest.raises(SpcError, match="empty parameter grid"):
                sweep(streams, protos, [])

    @pytest.mark.parametrize("other", [
        Strategy(kind="ncm-fixed"), Strategy(kind="1nn"),
        Strategy(kind="spc", learn=False),
        Strategy(kind="spc", mean_mode="mean-as-one")],
        ids=["kind", "1nn", "learn", "mean_mode"])
    def test_replayed_strategies_differ_only_in_weights(self, synth, other):
        streams, protos = synth
        with pytest.raises(SpcError,
                           match="strategies may differ only in w or w_s"):
            stream_module._sweep(streams, protos, [Strategy("spc"), other])
        swept = stream_module._sweep(
            streams, protos, [Strategy("spc-sum", w=0.5, w_s=0.2),
                              Strategy("spc-sum", w=0.9, w_s=0.7)])
        assert len(swept) == 2

    def test_sweep_ws_allows_zero(self, synth):
        streams, protos = synth
        results = sweep_ws(streams, protos, [0.0, 1.0], bucket_width=20)
        assert [v for v, _ in results] == [0.0, 1.0]

    def test_sweep_matches_single_evaluation(self, synth):
        streams, protos = synth
        for w, report in sweep_w(streams, protos, [0.5, 0.7, 1.0],
                                 bucket_width=20):
            assert report == evaluate(streams, protos,
                                      Strategy(kind="spc", w=w),
                                      bucket_width=20)

    def test_sweep_ws_matches_single_evaluation(self, synth):
        streams, protos = synth
        for ws, report in sweep_ws(streams, protos, [0.0, 0.4, 1.0],
                                   k_list=(1, 3), bucket_width=15):
            assert report == evaluate(streams, protos,
                                      Strategy(kind="spc-sum", w_s=ws),
                                      k_list=(1, 3), bucket_width=15)

    def test_sweep_table_rows(self, synth):
        streams, protos = synth
        results = sweep_w(streams, protos, [0.7, 0.85], bucket_width=20)
        table = sweep_table(results, "w", k_list=(1, 5), bucket_width=20)
        assert [name for name, _ in table.rows] == ["w=0.7", "w=0.85"]


class TestCrossValidation:
    GRID = [0.5, 0.85, 1.0]

    def test_deterministic_and_in_grid(self, synth):
        streams, protos = synth
        a = cross_validate_w(streams, protos, self.GRID, seed=3)
        b = cross_validate_w(streams, protos, self.GRID, seed=3)
        assert a == b
        assert a.chosen_w in self.GRID
        assert sorted(u for f in a.folds for u in f) == sorted(streams)

    def test_choice_matches_recomputed_objective(self, synth):
        streams, protos = synth
        result = cross_validate_w(streams, protos, self.GRID, seed=3)
        # independent recomputation: per-user mean top-1 hit rate, averaged
        # over the held-out users of each fold, then across folds
        per_user = {}
        for w in self.GRID:
            outs = run_streams(streams, protos, Strategy(kind="spc", w=w))
            per_user[w] = {u: np.mean([o.hits[1] for o in outs[u]])
                           for u in outs}
        mean_held = {}
        for w in self.GRID:
            fold_means = [np.mean([per_user[w][u] for u in fold])
                          for fold in result.folds]
            mean_held[w] = np.mean(fold_means)
            for i, fold in enumerate(result.folds):
                assert result.heldout_accuracy[i][w] == \
                    np.mean([per_user[w][u] for u in fold])
        best = min(self.GRID, key=lambda w: (-mean_held[w], w))
        assert result.chosen_w == best

    @pytest.mark.parametrize("k", [0, -1])
    def test_objective_k_validated(self, synth, k):
        streams, protos = synth
        with pytest.raises(SpcError, match="objective_k must be >= 1"):
            cross_validate_w(streams, protos, self.GRID, objective_k=k)

    def test_fold_count_validated(self, synth):
        streams, protos = synth
        with pytest.raises(SpcError):
            cross_validate_w(streams, protos, self.GRID, folds=1)
        with pytest.raises(SpcError):
            cross_validate_w(streams, protos, self.GRID,
                             folds=len(streams) + 1)


# Vectors whose pairwise dot products are exact in any summation order, so
# every tie they produce is a tie on every path.
EXACT_POOL = [normalize(v) for v in (
    [1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1],
    [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [-0.5, -0.5, -0.5, -0.5],
    [0.5, 0.5, -0.5, -0.5])]


@st.composite
def replay_cases(draw):
    """A stream, a prototype set and a strategy, drawn to hit ties,
    negative similarities, empty sides and the cold start.

    General vectors are drawn at dim 2-64, eight to a pool, so streams
    and prototype sets repeat them. A matrix-vector product may round one
    vector's dot differently by its row (seen at dim 8), so a repeated
    vector's ties test that each path gives its copies one dot; the exact
    pool's dots are exact on every path.
    """
    if draw(st.booleans()):
        pool = EXACT_POOL
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dim = draw(st.integers(2, 64))
        pool = [normalize(rng.standard_normal(dim)) for _ in range(8)]
    n = draw(st.integers(1, 24))
    n_classes = draw(st.integers(1, 6))
    pick = st.integers(0, len(pool) - 1)
    vecs = draw(st.lists(pick, min_size=n, max_size=n))
    classes = draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                            max_size=n))
    records = [LabeledRecord(user="u", t=t + 1, class_id=c, vec=pool[v])
               for t, (v, c) in enumerate(zip(vecs, classes))]
    mode = draw(st.sampled_from(["none", "empty", "some"]))
    protos = None
    if mode == "empty":
        protos = PrototypeSet(len(pool[0]))
    elif mode == "some":
        ids = sorted(draw(st.sets(st.integers(0, n_classes + 1),
                                  min_size=1)))
        protos = PrototypeSet(
            len(pool[0]), class_ids=ids,
            vectors=np.stack([pool[draw(pick)] for _ in ids]))
    learn = draw(st.booleans())
    kind = draw(st.sampled_from(["spc", "1nn", "1nn-star", "spc-sum"]))
    weight = st.sampled_from([0.5, 0.85, 1.0]) | st.floats(0.01, 1.0)
    if kind == "spc":
        strategy = Strategy(kind="spc", w=draw(weight), learn=learn)
    elif kind == "spc-sum":
        ws = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        strategy = Strategy(kind="spc-sum", w_s=ws, learn=learn)
    else:
        strategy = Strategy(kind=kind, learn=learn)
    return records, protos, strategy, draw(st.sampled_from([1, 2, 5, 256]))


def per_call_replay(records, protos, strategy, counter):
    """The prequential loop over the per-call engine: rank, then register."""
    scored = None if strategy.kind == "1nn-star" else protos
    store = UserStore(len(records[0].vec))
    out = []
    for rec in records:
        if len(store) == 0 and (scored is None or len(scored) == 0):
            ranking = None
        elif strategy.kind == "spc-sum":
            ranking = spc_rank(rec.vec, store, scored,
                               SumConfig(strategy.w_s), counter)
        else:
            w = strategy.w if strategy.kind == "spc" else 1.0
            ranking = spc_rank(rec.vec, store, scored, SpcConfig(w), counter)
        ids = [] if ranking is None else ranking.class_ids.tolist()
        out.append(ids)
        if strategy.learn:
            register(store, rec.vec, rec.class_id)
    return out


def oracle_replay(records, protos, strategy):
    """The same loop over the brute-force oracle."""
    proto_pairs = [] if protos is None or strategy.kind == "1nn-star" else \
        list(zip(protos.class_ids.tolist(), protos.matrix))
    user_pairs, out = [], []
    for rec in records:
        if not user_pairs and not proto_pairs:
            out.append([])
        else:
            if strategy.kind == "spc-sum":
                ranked = brute_force_rank(rec.vec, user_pairs, proto_pairs,
                                          w_s=strategy.w_s)
            else:
                w = strategy.w if strategy.kind == "spc" else 1.0
                ranked = brute_force_rank(rec.vec, user_pairs, proto_pairs,
                                          w=w)
            out.append([c for c, _ in ranked])
        if strategy.learn:
            user_pairs.append((rec.vec, rec.class_id))
    return out


def replay_with_block(records, protos, strategy, block, counter=None):
    saved = stream_module.GRAM_BLOCK
    stream_module.GRAM_BLOCK = block
    try:
        return run_user_stream(records, protos, strategy, counter=counter)
    finally:
        stream_module.GRAM_BLOCK = saved


class TestEvaluatorDifferential:
    """The whole-stream evaluator against the per-call engine and the
    oracle, record by record."""

    # a tie at the top between a user class and a smaller prototype-only
    # class: the user class is predicted
    @example((
        [LabeledRecord(user="u", t=1, class_id=1, vec=EXACT_POOL[0]),
         LabeledRecord(user="u", t=2, class_id=0, vec=EXACT_POOL[0])],
        PrototypeSet(4, class_ids=[0], vectors=[EXACT_POOL[0]]),
        Strategy(kind="1nn"), 256))
    @settings(max_examples=300, deadline=None)
    @given(replay_cases())
    def test_matches_per_call_and_oracle(self, case):
        records, protos, strategy, block = case
        counter = DotCounter()
        got = replay_with_block(records, protos, strategy, block, counter)
        want_counter = DotCounter()
        per_call = per_call_replay(records, protos, strategy, want_counter)
        oracle = oracle_replay(records, protos, strategy)
        assert counter.per_call == want_counter.per_call
        initial = (set(protos.class_ids.tolist()) if protos is not None
                   else set())
        seen = set()
        assert got.true_class.tolist() == [rec.class_id for rec in records]
        for o, rec, ids, ids_oracle, in_initial, in_union in zip(
                got, records, per_call, oracle, got.in_initial.tolist(),
                got.in_union.tolist()):
            assert ids == ids_oracle
            assert o.predicted == (ids[0] if ids else None)
            assert o.hits == {k: rec.class_id in ids[:k] for k in (1, 5)}
            assert in_initial == (rec.class_id in initial)
            assert in_union == (rec.class_id in initial | seen)
            seen.add(rec.class_id)

    def test_nan_record_rejected(self):
        records = [rec("u", 1, 0, [1.0, 0.0]),
                   LabeledRecord(user="u", t=2, class_id=0,
                                 vec=np.array([np.nan, np.nan], np.float32))]
        with pytest.raises(SpcError, match="t=2"):
            run_user_stream(records, None, Strategy(kind="spc"))

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_copies_tie(self, dim):
        # copies of one vector under falling class ids, in the stream and
        # the prototype set: a BLAS product may round a row's dot by the
        # row's place (seen at dim 8), so many draws are made
        rng = np.random.default_rng(dim)
        for _ in range(60):
            v = normalize(rng.standard_normal(dim))
            n_user, n_proto = (int(k) for k in rng.integers(1, 9, 2))
            records = [LabeledRecord(user="u", t=t + 1, class_id=c, vec=v)
                       for t, c in enumerate(range(n_user + 5, 5, -1))]
            records += [LabeledRecord(user="u", t=n_user + 1 + t,
                                      class_id=0, vec=q)
                        for t, q in enumerate(
                            normalize(rng.standard_normal(dim))
                            for _ in range(4))]
            protos = PrototypeSet(dim, class_ids=range(n_proto),
                                  vectors=np.tile(v, (n_proto, 1)))
            proto_pairs = list(zip(range(n_proto), protos.matrix))
            for kind in ("1nn", "1nn-star", "ncm-fixed"):
                strategy = Strategy(kind=kind)
                want = [[c for c, _ in brute_force_rank(
                    rec.vec, [], proto_pairs, w_s=1.0)] for rec in records] \
                    if kind == "ncm-fixed" else \
                    oracle_replay(records, protos, strategy)
                got = run_user_stream(records, protos, strategy)
                assert [o.predicted for o in got] == \
                    [ids[0] if ids else None for ids in want]


@st.composite
def mean_cases(draw):
    """A stream, a non-empty prototype set with training counts and a mean
    baseline, drawn to hit classes new to the stream, classes seen many
    times and negative similarities.

    Vectors are drawn at dim 2-64, eight to a pool, so means repeat. A
    matrix-vector product may round one mean's dot differently by its row
    (seen at dim 7), so repeated means test that the replay and the
    reference each give equal means one dot.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 64))
    pool = [normalize(rng.standard_normal(dim)) for _ in range(8)]
    n = draw(st.integers(1, 30))
    n_classes = draw(st.integers(1, 6))
    pick = st.integers(0, len(pool) - 1)
    vecs = draw(st.lists(pick, min_size=n, max_size=n))
    classes = draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                            max_size=n))
    records = [LabeledRecord(user="u", t=t + 1, class_id=c, vec=pool[v])
               for t, (v, c) in enumerate(zip(vecs, classes))]
    ids = sorted(draw(st.sets(st.integers(0, n_classes + 1), min_size=1)))
    protos = PrototypeSet(
        dim, class_ids=ids, vectors=np.stack([pool[draw(pick)] for _ in ids]),
        counts={c: draw(st.integers(1, 50)) for c in ids})
    strategy = Strategy(
        kind=draw(st.sampled_from(["ncm-fixed", "ncm-incr"])),
        mean_mode=draw(st.sampled_from(["full-history", "mean-as-one"])),
        learn=draw(st.booleans()))
    return records, protos, strategy, draw(st.sampled_from([1, 2, 5, 256]))


# every similarity is negative and the smaller id scores lower, so clipping
# the scores at 0 would predict class 0 instead of class 1
NEGATIVE = (
    [LabeledRecord(user="u", t=1, class_id=1, vec=normalize([1.0, 0.0]))],
    PrototypeSet(2, class_ids=[0, 1],
                 vectors=[normalize([-1.0, 0.2]), normalize([-0.2, 1.0])],
                 counts={0: 3, 1: 5}))
# a training count at the top of int64: the record of that class takes
# its running count past it
HUGE_COUNT = (
    [LabeledRecord(user="u", t=1, class_id=0, vec=normalize([0.6, 0.8]))],
    PrototypeSet(2, class_ids=[0, 1],
                 vectors=[normalize([1.0, 0.0]), normalize([0.0, 1.0])],
                 counts={0: 2**63 - 1, 1: 5}))


class TestMeanReplayMatchesReference:
    """The whole-stream replay of ncm-fixed and ncm-incr against the
    per-step loop over ncm_rank, RunningMeans.rank and
    RunningMeans.update."""

    @example((*NEGATIVE, Strategy(kind="ncm-fixed"), 256))
    @example((*NEGATIVE, Strategy(kind="ncm-incr"), 1))
    @example((*HUGE_COUNT, Strategy(kind="ncm-incr"), 256))
    @settings(max_examples=300, deadline=None)
    @given(mean_cases())
    def test_outcomes_and_dot_counts(self, case):
        records, protos, strategy, block = case
        counter = DotCounter()
        got = replay_with_block(records, protos, strategy, block, counter)
        want_counter = DotCounter()
        positions, predicted = reference_mean_replay(records, protos,
                                                     strategy, want_counter)
        assert [o.predicted for o in got] == predicted
        for k in (1, 5):
            assert [o.hits[k] for o in got] == [p < k for p in positions]
        assert counter.per_call == want_counter.per_call

    def test_long_synthetic_streams(self, synth):
        streams, protos = synth
        for strategy in (Strategy(kind="ncm-fixed"),
                         Strategy(kind="ncm-incr", mean_mode="full-history"),
                         Strategy(kind="ncm-incr", mean_mode="mean-as-one")):
            for recs in streams.values():
                positions, predicted = reference_mean_replay(recs, protos,
                                                             strategy)
                got = replay_with_block(recs, protos, strategy, 7)
                assert [o.predicted for o in got] == predicted
                assert [o.hits[5] for o in got] == [p < 5 for p in positions]

    @pytest.mark.parametrize("mode", stream_module.MEAN_MODES)
    def test_repeated_means_tie(self, mode):
        # copies of one vector at varied prototype rows under falling ids,
        # at one count, so their means are equal: a product may round a
        # row's dot by its place (seen at dim 8), and the smallest id must
        # win; short streams make the products matrix-vector shaped
        strategy = Strategy(kind="ncm-incr", mean_mode=mode, learn=False)
        for dim in range(2, 65):
            rng = np.random.default_rng(dim)
            for _ in range(12):
                v = normalize(rng.standard_normal(dim))
                n_copy, n_other = (int(k) for k in rng.integers(2, 8, 2))
                others = []  # far from v, so a copy is the top-1
                while len(others) < n_other:
                    u = normalize(rng.standard_normal(dim))
                    if abs(float(u.dot(v))) < 0.5:
                        others.append(u)
                copy = set(rng.choice(n_copy + n_other, n_copy,
                                      replace=False).tolist())
                ids = range(n_copy + n_other - 1, -1, -1)
                protos = PrototypeSet(
                    dim, class_ids=ids,
                    vectors=[v if r in copy else others.pop()
                             for r in range(len(ids))],
                    counts={c: 7 if r in copy else int(rng.integers(1, 50))
                            for r, c in enumerate(ids)})
                want = min(ids[r] for r in copy)
                records = [
                    LabeledRecord(user="u", t=t + 1, class_id=want,
                                  vec=normalize(v + 0.05 * rng.standard_normal(
                                      dim)))
                    for t in range(int(rng.integers(1, 3)))]
                got = run_user_stream(records, protos, strategy)
                assert got.predicted.tolist() == [want] * len(records)
                _, predicted = reference_mean_replay(records, protos,
                                                     strategy)
                assert predicted == [want] * len(records)

    def errors(self, records, protos, strategy):
        """The reference's error and the replay's, both SpcErrors."""
        with pytest.raises(SpcError) as want:
            reference_mean_replay(records, protos, strategy)
        with pytest.raises(SpcError) as got:
            run_user_stream(records, protos, strategy)
        return want.value, got.value

    @pytest.mark.parametrize("kind", ["ncm-fixed", "ncm-incr"])
    @pytest.mark.parametrize("empty", [None, PrototypeSet(2)])
    def test_empty_prototype_set(self, kind, empty):
        records = [rec("u", 1, 0, [1.0, 0.0])]
        want, got = self.errors(records, empty, Strategy(kind=kind))
        assert str(got) == str(want)

    def test_missing_training_counts(self):
        protos = PrototypeSet(2, class_ids=[0], vectors=[[1.0, 0.0]])
        records = [rec("u", 1, 0, [1.0, 0.0])]
        want, got = self.errors(records, protos, Strategy(kind="ncm-incr"))
        assert str(got) == str(want) == \
            "full-history seeding needs per-class training counts"

    @pytest.mark.parametrize("mode", ["full-history", "mean-as-one"])
    def test_mean_cancelling_to_zero(self, mode):
        protos = PrototypeSet(2, class_ids=[0, 3],
                              vectors=[[1.0, 0.0], [0.0, 1.0]],
                              counts={0: 1, 3: 2})
        # class 3 cancels at t=3; class 5 would cancel at t=5
        records = [rec("u", 1, 3, [0.0, -1.0]), rec("u", 2, 5, [1.0, 0.0]),
                   rec("u", 3, 3, [0.0, -1.0]), rec("u", 4, 0, [0.6, 0.8]),
                   rec("u", 5, 5, [-1.0, 0.0])]
        strategy = Strategy(kind="ncm-incr", mean_mode=mode)
        if mode == "mean-as-one":
            # the seed of class 3 counts once, so class 3 cancels at t=1
            records = records[:1]
        want, got = self.errors(records, protos, strategy)
        assert str(got) == str(want) == "mean of class 3 cancelled to zero"
        frozen = dataclasses.replace(strategy, learn=False)
        assert len(run_user_stream(records, protos, frozen)) == len(records)

    @pytest.mark.parametrize("kind", ["ncm-fixed", "ncm-incr"])
    def test_non_unit_record_names_its_t(self, kind):
        protos = PrototypeSet(2, class_ids=[0], vectors=[[1.0, 0.0]],
                              counts={0: 4})
        records = [rec("u", 1, 0, [1.0, 0.0]),
                   LabeledRecord(user="u", t=2, class_id=0,
                                 vec=np.array([1.0, 1.0], np.float32))]
        _, got = self.errors(records, protos, Strategy(kind=kind))
        assert "t=2" in str(got)

    @pytest.mark.parametrize("kind", ["ncm-fixed", "ncm-incr"])
    def test_dim_mismatch(self, kind):
        protos = PrototypeSet(2, class_ids=[0], vectors=[[1.0, 0.0]],
                              counts={0: 4})
        records = [rec("u", 1, 0, [1.0, 0.0, 0.0])]
        want, got = self.errors(records, protos, Strategy(kind=kind))
        assert isinstance(want, DimensionMismatchError)
        assert isinstance(got, DimensionMismatchError)


class TestBucketReportMatchesReference:
    @pytest.mark.parametrize("width", [1, 7, 15, 40, 1000])
    @pytest.mark.parametrize("kind", ["spc", "1nn-star", "ncm-incr"])
    def test_field_by_field(self, synth, kind, width):
        streams, protos = synth
        outcomes = run_streams(streams, protos, Strategy(kind=kind))
        short = sorted(streams)[0]
        ragged = run_streams({**streams, short: streams[short][:23]}, protos,
                             Strategy(kind=kind))
        for outs, k_list in ((outcomes, (1, 5)), (ragged, (1, 2, 5))):
            got = bucket_report(outs, bucket_width=width, k_list=k_list)
            want = reference_bucket_report(outs, bucket_width=width,
                                           k_list=k_list)
            for f in dataclasses.fields(BucketReport):
                assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestColumnarResults:
    """evaluate, the sweep path, the per-t reference report and iteration
    report the same thing."""

    @pytest.fixture(scope="class")
    def ragged(self, synth):
        streams, protos = synth
        first, second = sorted(streams)[:2]
        return {first: streams[first],
                second: streams[second][:23]}, protos

    @pytest.mark.parametrize("learn", [True, False])
    @pytest.mark.parametrize("strategy", list(STRATEGIES.values()),
                             ids=list(STRATEGIES))
    def test_evaluate_matches_sweep_and_outcome_view(self, ragged, strategy,
                                                     learn):
        streams, protos = ragged
        strategy = dataclasses.replace(strategy, learn=learn)
        k_list, width = (1, 3), 7
        report = evaluate(streams, protos, strategy, k_list=k_list,
                          bucket_width=width)
        assert report.ragged
        swept = stream_module._sweep(streams, protos, [strategy])
        assert report == bucket_report(swept[0], width, k_list)
        outs = run_streams(streams, protos, strategy)
        assert report == reference_bucket_report(outs, width, k_list)

    @pytest.mark.parametrize("strategy", list(STRATEGIES.values()),
                             ids=list(STRATEGIES))
    def test_iteration_matches_columns(self, synth, strategy):
        streams, protos = synth
        user = sorted(streams)[0]
        result = run_user_stream(streams[user], protos, strategy)
        outs = list(result)
        assert len(outs) == len(result) == len(streams[user])
        assert result.true_class.tolist() == [rec.class_id
                                              for rec in streams[user]]
        for o, pos, top in zip(outs, result.rank, result.predicted):
            assert o.predicted == (None if top < 0 else top)
            assert o.hits == {1: pos < 1, 5: pos < 5}

    @pytest.mark.parametrize("strategy", list(STRATEGIES.values()),
                             ids=list(STRATEGIES))
    def test_sweep_results_give_outcome_views(self, ragged, strategy):
        # a sweep skips the top-1, so its Outcomes hold no prediction
        streams, protos = ragged
        swept = stream_module._sweep(streams, protos, [strategy])[0]
        for user, records in streams.items():
            want = [dataclasses.replace(o, predicted=None) for o in
                    run_user_stream(records, protos, strategy)]
            got = swept[user]
            assert got.predicted is None
            assert list(got) == want


class TestSweepTableArguments:
    def test_mismatch_raises_and_match_renders_the_reports(self, synth):
        streams, protos = synth
        results = sweep_w(streams, protos, [0.7, 0.85], k_list=(1, 3),
                          bucket_width=15)
        for k_list, width in (((1, 5), 15), ((1, 3), 50), ((7,), 999)):
            with pytest.raises(SpcError, match="bucket width"):
                sweep_table(results, "w", k_list, width)
        buckets = [(1, 15), (16, 30), (31, 40)]
        want = ReportTable(
            columns=[f"t{lo}-t{hi} top-{k}" for lo, hi in buckets
                     for k in (1, 3)],
            rows=[(f"w={w:g}", [report.accuracy[k][b] for b in range(3)
                                for k in (1, 3)])
                  for w, report in results])
        got = sweep_table(results, "w", [1, 3], 15)
        for fmt in ("tsv", "markdown"):
            assert render_report(got, fmt=fmt) == render_report(want, fmt=fmt)


class TestBlockBoundaries:
    """The column-blocked evaluator at block widths that split streams
    unevenly, against the per-step loops over the per-call engine, and the
    sweep and cross-validation against per-value replays."""

    GRID = ((0.7, 0.0), (0.85, 0.5), (1.0, 1.0))  # (w, w_s)

    @pytest.fixture(scope="class")
    def ragged(self):
        from spc import SubsetSpec, TrainIndex, build_prototypes, \
            select_classes
        train, stream, _, _ = generate_synthetic(SynthConfig(
            **dict(SMALL, users=2, records_per_user=150)))
        protos = build_prototypes(
            train, select_classes(TrainIndex.from_records(train),
                                  SubsetSpec()), SubsetSpec())
        first, second = sorted(group_by_user(stream).items())
        # neither length is a multiple of 7 or 128
        return {first[0]: first[1], second[0]: second[1][:61]}, protos

    @pytest.fixture(scope="class")
    def reference(self, ragged):
        """(rank positions, predictions) of the per-step loop, by user,
        strategy name and learn flag."""
        streams, protos = ragged
        want = {}
        for user, records in streams.items():
            for name, strategy in STRATEGIES.items():
                for learn in (True, False):
                    s = dataclasses.replace(strategy, learn=learn)
                    if s.kind in ("ncm-fixed", "ncm-incr"):
                        want[user, name, learn] = reference_mean_replay(
                            records, protos, s)
                        continue
                    ids = per_call_replay(records, protos, s, None)
                    want[user, name, learn] = (
                        [i.index(r.class_id) if r.class_id in i
                         else stream_module.MISS
                         for i, r in zip(ids, records)],
                        [i[0] if i else -1 for i in ids])
        return want

    @pytest.mark.parametrize("block", [1, 7, 128])
    @pytest.mark.parametrize("learn", [True, False])
    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_replay_and_sweep(self, ragged, reference, monkeypatch, block,
                              learn, name):
        streams, protos = ragged
        monkeypatch.setattr(stream_module, "GRAM_BLOCK", block)
        grid = [dataclasses.replace(STRATEGIES[name], w=w, w_s=w_s,
                                    learn=learn) for w, w_s in self.GRID]
        swept = stream_module._sweep(streams, protos, grid)
        for user, records in streams.items():
            for strategy, results in zip(grid, swept):
                got = run_user_stream(records, protos, strategy)
                assert list(results[user]) == list(
                    dataclasses.replace(got, predicted=None))
            # the grid value the reference replays
            got = run_user_stream(records, protos, dataclasses.replace(
                STRATEGIES[name], learn=learn))
            rank, predicted = reference[user, name, learn]
            assert got.rank.tolist() == rank
            assert got.predicted.tolist() == predicted

    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_cross_validation(self, ragged, monkeypatch, block):
        streams, protos = ragged
        monkeypatch.setattr(stream_module, "GRAM_BLOCK", block)
        grid = [w for w, _ in self.GRID]
        cv = cross_validate_w(streams, protos, grid, folds=2)
        acc = {w: {user: float(np.mean(run_user_stream(
                   records, protos, Strategy(kind="spc", w=w)).rank < 1))
                   for user, records in streams.items()}
               for w in grid}
        assert cv.heldout_accuracy == [
            {w: float(np.mean([acc[w][u] for u in fold])) for w in grid}
            for fold in cv.folds]


class TestReplayMemory:
    @pytest.mark.parametrize("kind", ["spc", "spc-sum"])
    def test_peak_is_bounded_by_the_blocks(self, kind):
        """A stream where every record brings a new class, so |U| = T: no
        replay array may span both classes and steps."""
        T, dim = 1500, 8
        rng = np.random.default_rng(0)
        records = [LabeledRecord(user="u", t=t + 1, class_id=t,
                                 vec=normalize(rng.standard_normal(dim)))
                   for t in range(T)]
        B = stream_module.GRAM_BLOCK
        # O(|U| B + T (B + dim)) float64 cells, at 5 arrays' worth; one
        # |U| x T float64 array alone is 18 MB
        bound = 5 * 8 * (T * B + T * (B + dim))
        tracemalloc.start()
        try:
            run_user_stream(records, None, Strategy(kind=kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
