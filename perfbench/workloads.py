"""The benchmark's workloads: inputs made from a seed, the timed stages, the
correctness checks, and the metrics taken from them.

Every workload runs the same stages on its own data shape, so every metric
exists on every workload while a different layer dominates each one:

  setup   synth.generate_synthetic, data_io.write_records (train and
          stream files), prototypes.build_prototypes, write_prototypes
  load    data_io.read_prototypes, data_io.read_records, group_by_user
  eval    stream.run_streams and stream.bucket_report for each strategy of
          the workload, data_io.write_report for each report
  sweep   stream.sweep_w over the workload's w grid, and its report
  cv      stream.cross_validate_w over the same grid, and its report
  online  one closed-loop client: core.normalize, engine.spc_rank and
          engine.register for each record, in arrival order

A pass runs load, eval, sweep and cv, each followed by one segment of
client calls, so every stage is sampled across the whole run and a slow
spell of the host lands on a few samples of each metric rather than on
every sample of one. A host probe runs after every sample, and each time
metric is scaled to the speed at which the probe takes PROBE_S.

Importing this module needs `spc` importable; `run.py` arranges that.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spc import (DotCounter, LabeledRecord, SpcConfig, Strategy, SubsetSpec,
                 SynthConfig, TrainIndex, UserStore, bucket_report,
                 build_prototypes, cross_validate_w, generate_synthetic,
                 group_by_user, normalize, read_prototypes, read_records,
                 register, run_streams, run_user_stream, select_classes,
                 spc_rank, sweep_table, sweep_w, write_prototypes,
                 write_records, write_report)

from spans import NullTracer, Tracer

DEFAULT_SEED = 42
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

PAPER_GRID = tuple(round(0.70 + 0.05 * i, 2) for i in range(7))
SHORT_GRID = (0.85, 1.0)
ONLINE_W = 0.85
# engine.spc_rank latency bands, by the number of records already stored
SMALL_STORE = 64        # stores holding fewer records than this
LARGE_STORE = 256       # stores holding at least this many records

ALL_STRATEGIES = (
    ("spc", Strategy(kind="spc", w=0.85)),
    ("spc-sum", Strategy(kind="spc-sum", w_s=0.5)),
    ("1nn", Strategy(kind="1nn")),
    ("1nn-star", Strategy(kind="1nn-star")),
    ("ncm-fixed", Strategy(kind="ncm-fixed")),
    ("ncm-incr-full", Strategy(kind="ncm-incr", mean_mode="full-history")),
    ("ncm-incr-one", Strategy(kind="ncm-incr", mean_mode="mean-as-one")),
)
NN_STRATEGIES = ALL_STRATEGIES[0:1] + ALL_STRATEGIES[3:4]


@dataclass(frozen=True)
class Workload:
    name: str
    synth: SynthConfig           # its seed is replaced by the run's seed
    strategies: tuple
    grid: tuple
    online_prefix: int | None    # records per user the client drives
    setups: int                  # set-ups per run; setup_s is their median
    # rounds of the host probe at the workload's dim: a probe takes about
    # PROBE_S at this host's fast speed
    probe_rounds: int = 200


WORKLOADS = {
    # The paper's job: SynthConfig defaults (dim 64, 300 records per user,
    # 213 classes), all seven strategies and the 7-value w grid. Four users
    # keep a pass near two seconds, so a run holds a dozen passes.
    "paper": Workload("paper", SynthConfig(users=4), ALL_STRATEGIES,
                      PAPER_GRID, None, setups=7),
    # Few long, wide streams: wide-row parsing, BLAS and the T x T Gram
    # matrix; the client drives a prefix because each call at dim 1024
    # reads the whole store.
    "long-stream": Workload(
        "long-stream",
        SynthConfig(dim=1024, users=2, records_per_user=2000,
                    train_records_per_class=2),
        NN_STRATEGIES, SHORT_GRID, 500, setups=3, probe_rounds=90),
    # A deployed classifier: stores grow to 2000 records per user at dim 64
    # and the per-call path (normalize, spc_rank, register) is timed call
    # by call.
    "online": Workload("online", SynthConfig(users=2, records_per_user=2000),
                       NN_STRATEGIES, SHORT_GRID, None, setups=5),
}

# Tiny sizes for --smoke; each still reaches the large spc_rank band.
SMOKE_WORKLOADS = {
    "paper": replace(WORKLOADS["paper"], synth=SynthConfig(users=2), setups=1),
    "long-stream": replace(
        WORKLOADS["long-stream"],
        synth=replace(WORKLOADS["long-stream"].synth, records_per_user=300),
        online_prefix=300, setups=1),
    "online": replace(
        WORKLOADS["online"],
        synth=replace(WORKLOADS["online"].synth, records_per_user=300),
        setups=1),
}

# A pass runs SEGMENT_CALLS client calls after each of its four stages; the
# latency percentiles are taken over every call of the run.
SEGMENT_CALLS = 1000
# Loads repeat within a pass until they add up to this, so a load of tens
# of milliseconds is still sampled many times.
LOAD_MIN_S = 0.2
# metric -> (row of a segment's latency array, percentile)
LATENCY_PERCENTILES = {"predict_p50_us": (1, 50), "predict_p99_us": (1, 99),
                       "register_p50_us": (2, 50)}
SEGMENT_METRICS = (*LATENCY_PERCENTILES, "online_records_per_s")
# name -> unit; the order is the order of printing
END_TO_END = {
    "setup_s": "s", "load_s": "s", "eval_s": "s", "sweep_s": "s",
    "cv_s": "s", "peak_rss_mb": "MB", "predict_p50_us": "us",
    "predict_p99_us": "us", "register_p50_us": "us",
    "online_records_per_s": "1/s",
}
# per-layer metrics every workload produces (the ones BENCHMARK.json lists)
PER_LAYER = {
    "synth.generate_synthetic.s": "s",
    "data_io.write_records.s": "s",
    "prototypes.build_prototypes.s": "s",
    "data_io.read_records.s": "s",
    "data_io.read_records.us_per_record": "us",
    "data_io.read_prototypes.s": "s",
    "stream.run_streams.spc.s": "s",
    "stream.run_streams.1nn-star.s": "s",
    "stream.bucket_report.s": "s",
    "data_io.write_report.s": "s",
    "stream.sweep_w.s": "s",
    "stream.cross_validate_w.s": "s",
    "stream.run_user_stream.spc.peak_mb": "MB",
    "stream.run_user_stream.1nn-star.peak_mb": "MB",
    "engine.spc_rank.small_store.p50_us": "us",
    "engine.spc_rank.large_store.p50_us": "us",
    "engine.register.p50_us": "us",
    "core.normalize.p50_us": "us",
    "engine.dots": "count",
    "stream.dots": "count",
    "stream.records_replayed": "count",
}
LOAD_SPANS = ("data_io.read_prototypes", "data_io.read_records",
              "stream.group_by_user")
# A probe is a fixed burst of interpreter and small numpy work, timed before
# and after every sample; a run's time metrics are scaled to the host speed
# at which a probe takes PROBE_S (see HostProbe).
PROBE_S = 0.002
# fewer adjacent untraced/traced pairs than this leave an overhead unresolved
MIN_OVERHEAD_PAIRS = 3
# records per user in the short replay that prices the fixed per-step work
FIXED_STEP_PREFIX = 300


def workload(name: str, smoke: bool = False) -> Workload:
    table = SMOKE_WORKLOADS if smoke else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(table)}")
    return table[name]


def synth_config(wl: Workload, seed: int) -> SynthConfig:
    return replace(wl.synth, seed=seed)


def client_scales(seed: int, n: int) -> np.ndarray:
    """Positive factors that turn unit vectors into the client's raw input."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    return rng.uniform(0.25, 4.0, size=n)


def expected_dots(lengths, n_protos: int) -> int:
    """Dot products of a prequential replay: the sum of |V_m| + t - 1."""
    return sum(n * n_protos + n * (n - 1) // 2 for n in lengths)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record_digests(records, resolve) -> list[bytes]:
    """One digest per record of its user, t, label and vector values."""
    return [hashlib.blake2b(
        f"{r.user}\t{r.t}\t{resolve(r.class_id)}\t".encode()
        + np.asarray(r.vec, dtype=np.float64).tobytes(),
        digest_size=16).digest() for r in records]


def prototype_digest(protos, resolve) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update("\t".join(resolve(int(c)) for c in protos.class_ids).encode())
    h.update(np.asarray(protos.matrix, dtype=np.float64).tobytes())
    return h.digest()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostProbe:
    """Times a fixed burst of work like the program's own: a loop of small
    numpy calls made from Python on vectors of the workload's dim, namely a
    norm, dtype conversions, row writes, a 64 x dim matrix-vector product,
    an argsort and a dict update.

    The host runs this benchmark at two speeds, 1.6 to 1.9x apart, and the
    mix drifts from run to run. The program slows about as much as the
    probe does, so a run's time divided by the probe's time over the same
    samples is steady where either alone is not. Each sample is paired
    with the mean of the probes just before and after it."""

    def __init__(self, dim: int, rounds: int) -> None:
        rng = np.random.default_rng(0)
        self.rounds = rounds
        self.matrix = rng.standard_normal((64, dim))
        self.rows32 = np.zeros((64, dim), dtype=np.float32)
        self.rows64 = np.zeros((64, dim))
        self.last = self.measure()

    def measure(self) -> float:
        m, rows32, rows64 = self.matrix, self.rows32, self.rows64
        seen = {}
        t0 = time.perf_counter()
        for k in range(self.rounds):
            v = m[k & 63]
            n = float(np.linalg.norm(np.asarray(v, dtype=np.float64)))
            w = np.asarray(v / n, dtype=np.float32)
            rows32[k & 63] = w
            rows64[k & 63] = w.astype(np.float64)
            top = np.argsort(-(rows64 @ v))[:5]
            seen[k % 17] = (int(top[0]), abs(n - 1.0) > 1e-3)
        return time.perf_counter() - t0

    def bracket(self) -> float:
        """The reference for the sample that just ended: the mean of the
        probe before it and a new one after it."""
        before, self.last = self.last, self.measure()
        return (before + self.last) / 2


def sample_key(name: str) -> str:
    """Where a pass keeps the samples of an end-to-end metric."""
    return "client" if name in SEGMENT_METRICS else name


def adjusted(samples) -> float:
    """Time of a sample at the reference speed, over (seconds, reference)
    samples: PROBE_S times their total time over their total reference."""
    return PROBE_S * sum(t for t, _ in samples) / sum(r for _, r in samples)


class Client:
    """The closed loop with one client: for each request, in arrival order,
    normalize the raw embedding, rank it with spc_rank, then register it. A
    round replays every request from empty stores; finished rounds wait in
    `finished` until the caller checks them. The first round keeps its
    queries, for the batched replay that checks every round."""

    def __init__(self, requests, protos) -> None:
        self.requests = requests     # (user, t, class, unit vector, scale)
        self.protos = protos
        self.cfg = SpcConfig(ONLINE_W)
        self.keep_queries = True
        self.finished: list[dict] = []
        self._new_round()

    def _new_round(self) -> None:
        n = len(self.requests)
        self.pos = 0
        self.stores = {r[0]: UserStore(self.protos.dim) for r in self.requests}
        self.counter = DotCounter()
        self.pred = np.empty(n, dtype=np.int64)
        self.hit1 = np.empty(n, dtype=bool)
        self.hit5 = np.empty(n, dtype=bool)
        self.queries = [] if self.keep_queries else None

    def run(self, tr, calls: int) -> np.ndarray:
        """Make `calls` calls; return their normalize, spc_rank and register
        latencies in nanoseconds, one row each."""
        lat = np.empty((3, calls), dtype=np.int64)
        clock = time.perf_counter_ns
        for j in range(calls):
            i = self.pos
            user, _, cid, vec, scale = self.requests[i]
            raw = np.multiply(vec, scale, dtype=np.float64)
            store = self.stores[user]
            stored = len(store)
            a = clock()
            q = normalize(raw)
            b = clock()
            ranking = spc_rank(q, store, self.protos, self.cfg, self.counter)
            c = clock()
            register(store, q, cid)
            d = clock()
            lat[0, j], lat[1, j], lat[2, j] = b - a, c - b, d - c
            if tr.enabled:
                tr.record("core.normalize", user, a, b)
                tr.record("engine.spc_rank", user, b, c, store=stored)
                tr.record("engine.register", user, c, d)
            top = ranking.class_ids
            self.pred[i] = top[0]
            self.hit1[i] = top[0] == cid
            self.hit5[i] = cid in top[:5]
            if self.queries is not None:
                self.queries.append(q)
            self.pos += 1
            if self.pos == len(self.requests):
                self.finished.append(dict(
                    pred=self.pred, hit1=self.hit1, hit5=self.hit5,
                    dots=self.counter.total, queries=self.queries))
                self.keep_queries = False
                self._new_round()
        return lat


class Bench:
    """One workload run: owns the working files, the samples and the counts
    of checks attempted and failed."""

    def __init__(self, wl: Workload, seed: int, workdir: Path,
                 golden: dict | None = None, smoke: bool = False) -> None:
        self.wl = wl
        self.seed = seed
        self.reports_dir = workdir / "reports"
        self.reports_dir.mkdir(parents=True, exist_ok=True)
        self.train_path = workdir / "train.records"
        self.stream_path = workdir / "stream.records"
        self.protos_path = workdir / "common.protos"
        key = wl.name + ("@smoke" if smoke else "")
        golden = golden if golden is not None else load_golden()
        self.golden = (golden.get("reports", {}).get(key)
                       if seed == golden.get("seed") else None)
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer()
        # (traced, (seconds, reference)); a pass's samples are such pairs
        self.setup_times: list[tuple[bool, tuple[float, float]]] = []
        self.passes: list[tuple[bool, dict]] = []         # (traced, samples)
        self.probe = HostProbe(wl.synth.dim, wl.probe_rounds)
        self.digests: dict[str, str] | None = None
        self.written = None      # digests of what the last set-up wrote
        self.client: Client | None = None
        self.reference = None    # batched outcomes of the client's records
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, float] = {}
        self.replay_split: dict[str, dict] = {}
        self.n_records = 0
        self.rss_before_mb = 0.0
        self.peak_rss_mb: float | None = None

    # -- checks ---------------------------------------------------------------

    def check(self, ok: bool, what: str, n: int = 1, bad: int | None = None):
        """Count n checked operations; `bad` of them failed (all if not ok)."""
        bad = (0 if ok else n) if bad is None else bad
        self.attempted += n
        self.failed += bad
        if bad:
            print(f"check failed: {what} ({bad} of {n})", file=sys.stderr)

    # -- set-up ---------------------------------------------------------------

    def setup(self, tr) -> tuple[float, float]:
        """Write the inputs once; return the wall time of the calls and their
        reference. A set-up is long, so each call is paired with the probes
        around it and the reference is the one that scales the total as the
        calls' own scaled times add up."""
        cfg = synth_config(self.wl, self.seed)
        parts = []

        def call(name, step, **attrs):
            with tr.span(name, "setup", **attrs):
                t0 = time.perf_counter()
                result = step()
                elapsed = time.perf_counter() - t0
            parts.append((elapsed, self.probe.bracket()))
            return result

        with tr.span("bench.setup", "setup"):
            train, stream, registry, _ = call(
                "synth.generate_synthetic", lambda: generate_synthetic(cfg))
            for data, path, file in ((train, self.train_path, "train"),
                                     (stream, self.stream_path, "stream")):
                call("data_io.write_records",
                     lambda: write_records(data, path, registry=registry,
                                           dim=cfg.dim), file=file)
            classes = call("prototypes.select_classes", lambda: select_classes(
                TrainIndex.from_records(train), SubsetSpec()))
            protos = call("prototypes.build_prototypes", lambda:
                          build_prototypes(train, classes, SubsetSpec()))
            call("data_io.write_prototypes", lambda: write_prototypes(
                protos, self.protos_path, registry=registry))
        self.written = (record_digests(stream, registry.resolve),
                        prototype_digest(protos, registry.resolve))
        elapsed = sum(t for t, _ in parts)
        return elapsed, PROBE_S * elapsed / sum(adjusted([x]) for x in parts)

    # -- stages ---------------------------------------------------------------

    def load(self, tr, req):
        with tr.span("data_io.read_prototypes", req):
            protos, registry = read_prototypes(self.protos_path)
        with tr.span("data_io.read_records", req):
            records, registry = read_records(self.stream_path,
                                             registry=registry)
        with tr.span("stream.group_by_user", req):
            streams = group_by_user(records)
        return protos, registry, records, streams

    def check_load(self, protos, registry, records):
        want_records, want_protos = self.written
        n = len(want_records)
        got = record_digests(records, registry.resolve)
        if len(got) != n:
            self.check(False, "record count after load", n)
        else:
            bad = sum(1 for g, w in zip(got, want_records) if g != w)
            self.check(bad == 0, "records differ after a write/read round "
                       "trip", n, bad)
        self.check(prototype_digest(protos, registry.resolve) == want_protos,
                   "prototypes differ after a write/read round trip")

    def write(self, tr, req, table, name: str) -> Path:
        path = self.reports_dir / name
        with tr.span("data_io.write_report", req):
            write_report(table, path)
        return path

    def evaluate_one(self, tr, req, key, strategy, protos, streams):
        with tr.span(f"stream.run_streams.{key}", req):
            outcomes = run_streams(streams, protos, strategy)
        with tr.span("stream.bucket_report", req):
            report = bucket_report(outcomes)
        table = report.to_table(strategy.label())
        return report, self.write(tr, req, table, f"eval-{key}.tsv")

    def sweep(self, tr, req, protos, streams):
        with tr.span("stream.sweep_w", req):
            results = sweep_w(streams, protos, self.wl.grid)
        table = sweep_table(results, "w", (1, 5), 50)
        return results, self.write(tr, req, table, "sweep-w.tsv")

    def cv(self, tr, req, protos, streams):
        with tr.span("stream.cross_validate_w", req):
            result = cross_validate_w(streams, protos, self.wl.grid,
                                      seed=self.seed)
        return result, self.write(tr, req, result.to_table(), "cv-w.tsv")

    def client_input(self, records):
        """The client's requests in arrival order: (user, t, class, unit
        vector, scale); the raw embedding is the vector times the scale."""
        limit = self.wl.online_prefix
        chosen = [r for r in records if limit is None or r.t <= limit]
        chosen.sort(key=lambda r: (r.t, r.user))
        scales = client_scales(self.seed, len(chosen))
        return [(r.user, r.t, r.class_id, r.vec, float(s))
                for r, s in zip(chosen, scales)]

    def reference_outcomes(self, tr, requests, queries, protos):
        """Batched replay of the client's own records: the per-call loop
        must reproduce its prediction, hit@1 and hit@5 on every record."""
        by_user: dict[str, list[int]] = defaultdict(list)
        for i, r in enumerate(requests):
            by_user[r[0]].append(i)
        n = len(requests)
        pred = np.empty(n, dtype=np.int64)
        hit1 = np.empty(n, dtype=bool)
        hit5 = np.empty(n, dtype=bool)
        counter = DotCounter()
        strategy = Strategy(kind="spc", w=ONLINE_W)
        for user, idx in sorted(by_user.items()):
            recs = [LabeledRecord(user=user, t=requests[i][1],
                                  class_id=requests[i][2], vec=queries[i])
                    for i in idx]
            with tr.span("stream.run_user_stream.spc", user):
                outs = run_user_stream(recs, protos, strategy, counter=counter)
            for i, o in zip(idx, outs):
                pred[i] = -1 if o.predicted is None else o.predicted
                hit1[i], hit5[i] = o.hits[1], o.hits[5]
        lengths = [len(idx) for idx in by_user.values()]
        return dict(pred=pred, hit1=hit1, hit5=hit5, dots=counter.total,
                    expected_dots=expected_dots(lengths, len(protos)))

    # -- checks on stage outputs ----------------------------------------------

    def check_reports(self, digests: dict[str, str]):
        if self.digests is None:
            self.digests = dict(digests)
        for name, digest in sorted(digests.items()):
            want = (self.golden or self.digests).get(name)
            source = "golden digest" if self.golden else "first pass"
            self.check(digest == want,
                       f"report {name} differs from its {source}")

    def check_sweep(self, results, reports):
        by_w = dict(results)
        for w, key in ((ONLINE_W, "spc"), (1.0, "1nn")):
            if w in by_w and key in reports:
                self.check(by_w[w].accuracy == reports[key].accuracy,
                           f"sweep row w={w:g} differs from the {key} report")

    def check_rounds(self, tr, req) -> None:
        """Check every round the client finished against the batched replay
        of the same records; the first one also fixes that replay."""
        client = self.client
        for res in client.finished:
            if self.reference is None:
                with tr.span("bench.reference", req):
                    self.reference = self.reference_outcomes(
                        tr, client.requests, res["queries"], client.protos)
                ref = self.reference
                self.check(ref["dots"] == ref["expected_dots"],
                           f"stream.dots {ref['dots']} != "
                           f"{ref['expected_dots']}")
                self.counts = {
                    "engine.dots": res["dots"], "stream.dots": ref["dots"],
                    "stream.records_replayed": self.n_records * (
                        len(self.wl.strategies) + 2 * len(self.wl.grid))}
            ref = self.reference
            n = len(res["pred"])
            bad = int(((res["pred"] != ref["pred"])
                       | (res["hit1"] != ref["hit1"])
                       | (res["hit5"] != ref["hit5"])).sum())
            self.check(bad == 0, "per-call outcomes differ from the batched "
                       "replay of the same records", n, bad)
            self.check(res["dots"] == ref["expected_dots"],
                       f"engine.dots {res['dots']} != {ref['expected_dots']}")
        client.finished.clear()

    # -- one measured pass ----------------------------------------------------

    def segment(self, tr, req, out) -> None:
        """One segment of client calls, then the check of any round it
        finished."""
        gc.collect()
        with tr.span("bench.online", req):
            lat = self.client.run(tr, SEGMENT_CALLS)
        out["client"].append((lat / 1e9, self.probe.bracket()))
        self.check_rounds(tr, req)

    def timed(self, out, name: str, step, *args):
        """Run one step as a sample of `name`; return what it returned."""
        gc.collect()
        t0 = time.perf_counter()
        result = step(*args)
        out[name].append((time.perf_counter() - t0, self.probe.bracket()))
        return result

    def run_pass(self, i: int, traced: bool) -> None:
        tr = self.tracer if traced else NullTracer()
        if traced:
            tr.phase = ("pass", i)
        req = f"pass{i}"
        out: dict = defaultdict(list)
        with tr.span("bench.pass", req):
            with tr.span("bench.load", req):
                spent = 0.0
                while not out["load_s"] or spent < LOAD_MIN_S:
                    loaded = None    # free the last load before the next
                    loaded = self.timed(out, "load_s", self.load, tr, req)
                    spent += out["load_s"][-1][0]
            protos, registry, records, streams = loaded
            self.check_load(protos, registry, records)
            self.n_records = len(records)
            if self.client is None:
                self.client = Client(self.client_input(records), protos)
            self.segment(tr, req, out)

            reports, paths = {}, {}
            with tr.span("bench.eval", req):
                for key, strategy in self.wl.strategies:
                    reports[key], paths[f"eval-{key}.tsv"] = self.timed(
                        out, "eval_s", self.evaluate_one, tr, req, key,
                        strategy, protos, streams)
            self.segment(tr, req, out)

            with tr.span("bench.sweep", req):
                results, paths["sweep-w.tsv"] = self.timed(
                    out, "sweep_s", self.sweep, tr, req, protos, streams)
            self.check_sweep(results, reports)
            self.segment(tr, req, out)

            with tr.span("bench.cv", req):
                cv, paths["cv-w.tsv"] = self.timed(
                    out, "cv_s", self.cv, tr, req, protos, streams)
            self.check(cv.chosen_w in self.wl.grid,
                       "cv chose a w off the grid")
            self.check_reports({k: _sha256(p) for k, p in paths.items()})
            self.segment(tr, req, out)

        if self.peak_rss_mb is None:
            # later passes repeat the same work; the high-water mark they add
            # is allocator fragmentation, which varies with the pass count
            self.peak_rss_mb = max_rss_mb()
        self.passes.append((traced, out))

    def guarded(self, step, *args) -> None:
        """Run one step; an exception counts as a failed operation."""
        try:
            step(*args)
        except Exception:
            traceback.print_exc()
            self.check(False, f"{step.__name__} raised")

    def measure_replays(self) -> None:
        """Split one user's replay into its matrix products and the rest,
        and take its tracemalloc peak; the peak is the largest over users.

        A replay of T records computes one T x T Gram matrix and, for spc,
        one prototype product; each is timed alone on the same float64
        queries. The rest is the per-step loop. A replay of the first
        FIXED_STEP_PREFIX records prices a step whose aggregation is short:
        that is the fixed per-step cost."""
        tr = self.tracer
        tr.phase = ("replays", 0)
        protos, _, _, streams = self.load(NullTracer(), "replays")
        clock = time.perf_counter
        for key, strategy in NN_STRATEGIES:
            split = defaultdict(float)
            for user, recs in sorted(streams.items()):
                prefix = recs[:FIXED_STEP_PREFIX]
                for name, part in (("replay", recs), ("prefix", prefix)):
                    q = np.stack([np.asarray(r.vec, dtype=np.float64)
                                  for r in part])
                    gc.collect()
                    t0 = clock()
                    with tr.span(f"stream.run_user_stream.{key}", user,
                                 records=len(part)):
                        run_user_stream(part, protos, strategy)
                    t1 = clock()
                    _ = q @ q.T
                    if key != "1nn-star":
                        _ = protos.matrix64 @ q.T
                    t2 = clock()
                    split[f"{name}_s"] += t1 - t0
                    split[f"{name}_blas_s"] += t2 - t1
                    split[f"{name}_records"] += len(part)
                gc.collect()
                tracemalloc.start()
                try:
                    run_user_stream(recs, protos, strategy)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                split["peak_mb"] = max(split["peak_mb"], peak / 2**20)
            self.replay_split[key] = dict(split)
            self.peaks[f"stream.run_user_stream.{key}.peak_mb"] = \
                split["peak_mb"]

    # -- the run --------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> None:
        for k in range(self.wl.setups * (2 if trace else 1)):
            traced = trace and k % 2 == 1
            tr = self.tracer if traced else NullTracer()
            if traced:
                tr.phase = ("setup", k)
            gc.collect()
            self.setup_times.append((traced, self.setup(tr)))
        self.rss_before_mb = max_rss_mb()
        start = time.perf_counter()
        i = 0
        while True:
            self.guarded(self.run_pass, i, trace and i % 2 == 1)
            i += 1
            elapsed = time.perf_counter() - start
            if trace and i < 2:
                continue
            if elapsed + 0.5 * elapsed / i >= seconds:
                break
        if trace:
            self.guarded(self.measure_replays)

    # -- results --------------------------------------------------------------

    def _passes(self, traced: bool) -> list[dict]:
        return [out for t, out in self.passes if t == traced]

    def end_to_end(self, traced: bool = False) -> dict[str, float]:
        """Every time metric is taken at the reference speed (HostProbe):
        setup_s is the median of the adjusted set-ups; every other one is
        the run's total time over its total reference, times PROBE_S, which
        is the adjusted mean of its samples. eval_s is that mean for the
        replays and reports of every strategy, times their number."""
        passes = self._passes(traced)
        out = {}
        setups = [s for t, s in self.setup_times if t == traced]
        if setups:
            out["setup_s"] = statistics.median(adjusted([s]) for s in setups)
        if passes:
            for name in ("load_s", "eval_s", "sweep_s", "cv_s",
                         *SEGMENT_METRICS):
                out[name] = self._metric(
                    name, [x for p in passes for x in p[sample_key(name)]])
        if not traced and self.peak_rss_mb is not None:
            out["peak_rss_mb"] = self.peak_rss_mb
        return out

    def _metric(self, name: str, samples) -> float:
        """One metric from one or more passes' samples: (seconds, reference)
        pairs, or for the client's metrics (latencies, reference) pairs,
        one per segment, where each call is scaled by its segment's
        reference and the percentile is taken over every call."""
        if name == "online_records_per_s":
            return SEGMENT_CALLS / adjusted(
                [(float(lat.sum()), ref) for lat, ref in samples])
        if name in LATENCY_PERCENTILES:
            row, q = LATENCY_PERCENTILES[name]
            calls = np.concatenate([lat[row] * (PROBE_S / ref)
                                    for lat, ref in samples])
            return 1e6 * float(np.percentile(calls, q))
        if name == "eval_s":
            return len(self.wl.strategies) * adjusted(samples)
        return adjusted(samples)

    def describe(self, name: str) -> str:
        """How an untraced end-to-end value was taken, with its samples."""
        if name == "peak_rss_mb":
            return (f"ru_maxrss after the first pass; "
                    f"{self.rss_before_mb:.1f} MB before it")
        if name == "setup_s":
            samples = [s for t, s in self.setup_times if not t]
            raw = statistics.median(t for t, _ in samples)
            how = f"median of {len(samples)} set-ups"
        else:
            samples = [x for p in self._passes(False)
                       for x in p[sample_key(name)]]
            raw = self._metric(name, [(t, PROBE_S) for t, _ in samples])
            if name in SEGMENT_METRICS:
                how = (f"adjusted calls of {len(samples)} client segments "
                       f"of {SEGMENT_CALLS}")
            else:
                unit = ("loads" if name == "load_s" else
                        "replays" if name == "eval_s" else "passes")
                how = f"adjusted mean of {len(samples)} {unit}"
        ref = statistics.fmean(r for _, r in samples)
        return (f"{how}; {raw:.6g} unadjusted, probe {ref * 1e3:.4g} ms "
                f"against {PROBE_S * 1e3:g} ms")

    def overhead(self) -> dict[str, tuple[float | None, int]]:
        """Tracing overhead per end-to-end metric: the median, over adjacent
        untraced/traced pairs of set-ups or passes, of traced / untraced - 1,
        with the pair count; None when pairs are too few to say."""
        def adjacent(samples):
            return [(a, b) for (ta, a), (tb, b) in zip(samples, samples[1:])
                    if not ta and tb]

        pairs = {"setup_s": adjacent([(t, adjusted([s]))
                                      for t, s in self.setup_times])}
        for name in END_TO_END:
            if name not in ("setup_s", "peak_rss_mb"):
                pairs[name] = adjacent(
                    [(t, self._metric(name, out[sample_key(name)]))
                     for t, out in self.passes])
        result = {}
        for name, ps in pairs.items():
            ratio = (statistics.median(b / a - 1 for a, b in ps)
                     if len(ps) >= MIN_OVERHEAD_PAIRS else None)
            result[name] = (ratio, len(ps))
        return result

    def per_layer(self) -> tuple[dict[str, float], list[tuple]]:
        """Per-layer metrics from the traced passes, plus a self-time table
        (name, spans per pass, total ms, self ms), both as medians over the
        passes where the span name occurs."""
        selfs = self.tracer.self_times()
        per_pass_total: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        per_pass_self: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        per_pass_count: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        leaf: dict[str, list] = defaultdict(list)
        for s in self.tracer.spans:
            tag = s.phase
            if tag is None or tag[0] == "replays":
                continue
            per_pass_total[s.name][tag] += s.duration
            per_pass_self[s.name][tag] += selfs[s.id]
            per_pass_count[s.name][tag] += 1
            if s.name == "engine.spc_rank":
                band = ("small_store" if s.attrs["store"] < SMALL_STORE else
                        "large_store" if s.attrs["store"] >= LARGE_STORE else
                        None)
                if band:
                    leaf[f"engine.spc_rank.{band}"].append(s.duration)
            elif s.name in ("engine.register", "core.normalize"):
                leaf[s.name].append(s.duration)
        metrics: dict[str, float] = {}
        table = []
        med = statistics.median
        for name in sorted(per_pass_self):
            count = med(per_pass_count[name].values())
            self_s = med(per_pass_self[name].values()) / 1e9
            table.append((name, count,
                          med(per_pass_total[name].values()) / 1e6,
                          self_s * 1e3))
            if not name.startswith("bench."):
                # loads repeat within a pass; their metrics are per load
                metrics[f"{name}.s"] = (self_s / count if name in LOAD_SPANS
                                        else self_s)
        for name, durations in leaf.items():
            metrics[f"{name}.p50_us"] = float(np.median(durations)) / 1e3
        if "data_io.read_records.s" in metrics and self.n_records:
            metrics["data_io.read_records.us_per_record"] = (
                metrics["data_io.read_records.s"] * 1e6 / self.n_records)
        metrics.update(self.peaks)
        metrics.update(self.counts)
        return metrics, table
