"""Acceptance gate: nine end-to-end checks over the default seed-42
benchmark, the ranking oracle, and the command-line pipeline. Each test
prints one PASS/FAIL line (visible with -s or in captured output)."""

import contextlib
import time

import numpy as np
import pytest

from spc import (DotCounter, LabeledRecord, PrototypeSet, SpcConfig, Strategy,
                 SubsetSpec, SumConfig, SynthConfig, TrainIndex,
                 bucket_report, build_prototypes, cli, generate_synthetic,
                 group_by_user, normalize, run_streams, run_user_stream,
                 select_classes, spc_rank, sweep_w, sweep_ws)

from .oracle import brute_force_rank, ranked_pairs
from .reference_report import columns, user_results

W_GRID = [round(0.70 + 0.05 * i, 2) for i in range(7)]     # 0.70 .. 1.00
WS_GRID = [round(0.1 * i, 1) for i in range(11)]           # 0.0 .. 1.0


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


@pytest.fixture(scope="session")
def bench():
    """The default synthetic benchmark and its prototype set."""
    train, stream, registry, _ = generate_synthetic(SynthConfig())
    protos = build_prototypes(
        train, select_classes(TrainIndex.from_records(train), SubsetSpec()),
        SubsetSpec())
    return group_by_user(stream), protos


@pytest.fixture(scope="session")
def reports(bench):
    streams, protos = bench
    out, timings = {}, {}
    for kind in ("spc", "ncm-fixed", "1nn-star"):
        t0 = time.perf_counter()
        out[kind] = bucket_report(
            run_streams(streams, protos, Strategy(kind=kind)))
        timings[kind] = time.perf_counter() - t0
    return out, timings


@pytest.fixture(scope="session")
def w_results(bench):
    streams, protos = bench
    return sweep_w(streams, protos, W_GRID)


def test_criterion_1_oracle_equivalence():
    desc = "ranking matches a brute-force oracle on 10,000 random instances"
    with criterion(1, desc):
        rng = np.random.default_rng(20260826)
        t0 = time.perf_counter()
        for i in range(10_000):
            dim = int(rng.integers(8, 129))
            n_store = int(rng.integers(0, 501))
            n_protos = int(rng.integers(0, 61))
            if n_store + n_protos == 0:
                n_protos = 1
            signed = bool(rng.integers(0, 2))

            def sample(n):
                m = rng.standard_normal((n, dim))
                if not signed:
                    m = np.abs(m)
                return m / np.linalg.norm(m, axis=1, keepdims=True)

            store_vecs = sample(n_store)
            store_cls = rng.integers(0, 60, size=n_store)
            from spc import UserStore
            store = UserStore(dim)
            for v, c in zip(store_vecs, store_cls):
                store.append(normalize(v), int(c))
            proto_ids = rng.choice(60, size=n_protos, replace=False)
            proto_vecs = sample(n_protos)
            proto_vecs = np.stack([normalize(v) for v in proto_vecs]) \
                if n_protos else None
            protos = PrototypeSet(dim, class_ids=proto_ids,
                                  vectors=proto_vecs)
            query = normalize(sample(1)[0])
            user_pairs = list(zip(store.vectors64, store_cls.tolist()))
            proto_pairs = list(zip(proto_ids.tolist(),
                                   proto_vecs)) if n_protos else []
            if rng.integers(0, 2):
                w = float(rng.uniform(0.05, 1.0))
                got = ranked_pairs(
                    spc_rank(query, store, protos, SpcConfig(w)))
                want = brute_force_rank(query, user_pairs, proto_pairs, w=w)
            else:
                ws = float(rng.uniform(0.0, 1.0))
                got = ranked_pairs(
                    spc_rank(query, store, protos, SumConfig(ws)))
                want = brute_force_rank(query, user_pairs, proto_pairs,
                                        w_s=ws)
            assert [c for c, _ in got] == [c for c, _ in want], \
                f"instance {i}: order mismatch"
            np.testing.assert_allclose([s for _, s in got],
                                       [s for _, s in want], atol=1e-9)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_reduction_identities(bench):
    desc = "baseline strategies reduce to the unified engine bit-exactly"
    streams, protos = bench
    sub = {u: streams[u] for u in sorted(streams)[:25]}
    with criterion(2, desc):
        # no prototypes is None or the empty set, on either side
        empty = PrototypeSet(protos.dim)
        pairs = [
            ((protos, Strategy(kind="spc", w=1.0)),
             (protos, Strategy(kind="1nn"))),
            *(((pa, user_only), (pb, Strategy(kind="1nn-star")))
              for user_only in (Strategy(kind="spc", w=0.85),
                                Strategy(kind="spc-sum", w_s=0.0))
              for pa, pb in ((None, None), (empty, empty), (empty, None),
                             (None, empty))),
            ((protos, Strategy(kind="spc", w=0.85, learn=False)),
             (protos, Strategy(kind="ncm-fixed"))),
        ]
        # run_user_stream per user, so the top-1 is compared too
        for (pa, sa), (pb, sb) in pairs:
            assert columns(user_results(sub, pa, sa)) == columns(
                user_results(sub, pb, sb)), f"{sa.label()} != {sb.label()}"
        # the all-prototype linear combination ranks exactly like the
        # prototype-only classifier
        out_a = user_results(sub, protos, Strategy(kind="spc-sum", w_s=1.0))
        out_b = user_results(sub, protos, Strategy(kind="ncm-fixed"))
        for user in out_a:
            assert [(o.predicted, o.hits) for o in out_a[user]] == \
                [(o.predicted, o.hits) for o in out_b[user]]


def test_criterion_3_protocol_invariants(bench):
    desc = "hit@1 implies hit@5, upper limits dominate, dot count is exact"
    streams, protos = bench
    with criterion(3, desc):
        user = sorted(streams)[0]
        counter = DotCounter()
        run_user_stream(streams[user], protos, Strategy(kind="spc"),
                        counter=counter)
        assert counter.per_call == [len(protos) + (t - 1)
                                    for t in range(1, len(streams[user]) + 1)]
        sub = {u: streams[u] for u in sorted(streams)[:25]}
        outcomes = run_streams(sub, protos, Strategy(kind="spc"))
        for user_out in outcomes.values():
            for o in user_out:
                assert not o.hits[1] or o.hits[5]
            assert not (user_out.in_initial & ~user_out.in_union).any()
        from spc import bucket_report
        report = bucket_report(outcomes)
        for b in range(len(report.buckets)):
            for k in report.k_list:
                assert report.accuracy[k][b] <= report.in_union[b] + 1e-12


def test_criterion_4_zero_noise_calibration():
    desc = "a zero-noise benchmark is classified perfectly from t=1"
    with criterion(4, desc):
        t0 = time.perf_counter()
        # no confusable groups: with zero noise every query sits exactly on
        # its class direction, and well-separated directions keep every
        # cross-class dot below the prototype down-weighting
        cfg = SynthConfig(dim=32, num_common_classes=50, users=20,
                          records_per_user=100, novel_classes_per_user=0,
                          novel_mass=0.0, sigma_user=0.0, sigma_sample=0.0,
                          confusable_group_count=0,
                          train_records_per_class=5, seed=1)
        train, stream, _, _ = generate_synthetic(cfg)
        protos = build_prototypes(
            train, select_classes(TrainIndex.from_records(train),
                                  SubsetSpec()), SubsetSpec())
        outcomes = run_streams(group_by_user(stream), protos,
                               Strategy(kind="spc"))
        assert all(o.hits[1] for out in outcomes.values() for o in out)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_5_qualitative_benchmark_pattern(reports):
    desc = ("default benchmark: personalization beats fixed prototypes, "
            "improves over time, and the union limit rises over a flat "
            "initial limit")
    out, timings = reports
    with criterion(5, desc):
        assert sum(timings.values()) < 120.0
        spc_acc = out["spc"].accuracy[1]
        ncm_acc = out["ncm-fixed"].accuracy[1]
        nn_acc = out["1nn-star"].accuracy[1]
        # (a) at least ten points over the fixed prototypes at the end
        assert spc_acc[-1] - ncm_acc[-1] >= 0.10
        # (b) per-user learning: non-decreasing within one point per bucket
        for prev, cur in zip(spc_acc, spc_acc[1:]):
            assert cur >= prev - 0.01
        # (c) prototypes rescue the cold start
        assert spc_acc[0] > nn_acc[0]
        # (d) the union limit rises; the initial limit stays flat within
        # two points
        limits = out["spc"]
        assert limits.in_union[-1] - limits.in_union[0] > 0.05
        assert max(limits.in_initial) - min(limits.in_initial) <= 0.02


def test_criterion_6_interior_weight_optimum(w_results):
    desc = "final-bucket accuracy peaks strictly inside the weight grid"
    with criterion(6, desc):
        finals = [(w, report.accuracy[1][-1]) for w, report in w_results]
        best_w = max(finals, key=lambda p: p[1])[0]
        assert best_w not in (W_GRID[0], W_GRID[-1]), \
            f"argmax {best_w} is on the grid boundary"


def test_criterion_7_weighted_max_beats_linear_sum(bench, w_results):
    desc = "best linear combination never beats the best weighted max"
    streams, protos = bench
    with criterion(7, desc):
        ws_results = sweep_ws(streams, protos, WS_GRID)
        best_sum = max(r.accuracy[1][-1] for _, r in ws_results)
        best_max = max(r.accuracy[1][-1] for _, r in w_results)
        assert best_sum <= best_max + 1e-12


def test_criterion_8_end_to_end_determinism(tmp_path, capsys):
    desc = "the full pipeline is byte-identical across repeated runs"
    with criterion(8, desc):
        outputs = []
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            argv_synth = ["synth", "--users", "20", "--records", "100",
                          "--dim", "32", "--classes", "40",
                          "--novel-per-user", "4", "--confusable-groups",
                          "8", "--seed", "42", "--out-dir", str(d)]
            assert cli.main(argv_synth) == 0
            assert cli.main(["build-prototypes", "--train",
                             str(d / "train.records"), "--out",
                             str(d / "common.protos"), "--seed", "7"]) == 0
            assert cli.main(["eval", "--strategy", "spc",
                             "--prototypes", str(d / "common.protos"),
                             "--stream", str(d / "stream.records"),
                             "--bucket", "25", "--precise",
                             "--out", str(d / "report.tsv")]) == 0
            assert cli.main(["cv", "--w-grid", "0.7,0.85,1.0",
                             "--prototypes", str(d / "common.protos"),
                             "--stream", str(d / "stream.records"),
                             "--seed", "3",
                             "--out", str(d / "cv.tsv")]) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(d.iterdir())})
        capsys.readouterr()
        assert sorted(outputs[0]) == sorted(outputs[1])
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], \
                f"{name} differs between runs"


def test_criterion_9_throughput(reports):
    desc = "one 300-record user at dim 1024 with 213 prototypes under 50 ms"
    _, timings = reports
    with criterion(9, desc):
        rng = np.random.default_rng(99)
        dim, n_protos, n_records = 1024, 213, 300

        def unit(n):
            m = rng.standard_normal((n, dim))
            return (m / np.linalg.norm(m, axis=1, keepdims=True)) \
                .astype(np.float32)

        protos = PrototypeSet(dim, class_ids=range(n_protos),
                              vectors=unit(n_protos))
        vecs = unit(n_records)
        classes = rng.integers(0, 250, size=n_records)
        records = [LabeledRecord(user="u", t=t + 1, class_id=int(classes[t]),
                                 vec=vecs[t]) for t in range(n_records)]
        strategy = Strategy(kind="spc")
        run_user_stream(records, protos, strategy)  # warm up
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            run_user_stream(records, protos, strategy)
            times.append(time.perf_counter() - t0)
        assert sorted(times)[len(times) // 2] < 0.050
        # and the full default benchmark stays inside its runtime budget
        assert timings["spc"] < 120.0
