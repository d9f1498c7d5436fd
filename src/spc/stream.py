"""Prequential stream evaluation: replay each user's records through a
strategy (predict, score, then learn the true label), log per-record
outcomes, and aggregate them into bucketed report tables.

The harness itself tracks which classes a user has seen so far; the
in-union flag therefore reflects the protocol's bookkeeping even for
strategies that do not learn.

Every strategy is replayed by one whole-stream evaluator per user rather
than step by step. Because the store at step t holds exactly records
1..t-1, the per-class similarities behind every score form |U| x T arrays
over the user's class union U and the steps. For the nearest-neighbor
family (spc, spc-sum, 1nn, 1nn-star) they are the prefix max of user
similarities, the prototype similarities and the presence flags; none
depends on w or w_s, so a strategy's scores are one elementwise
combination of them. ncm-fixed scores the prototype similarities alone.
ncm-incr scores a matrix of mean versions: a user's running class means
change only at the user's own records, so they take |P| + T versions (the
seeded prototypes, then each record's class mean after absorbing it), and
an index array picks the version each class exposes at each step. The
true class's rank position is then a count rather than a sort. Query
columns are scored GRAM_BLOCK at a time, so memory is
O(|U| T + (|P| + T) (dim + B)) and no T x T array is allocated. The w and w_s
sweeps and cross-validation build each user's arrays once and re-score
them for every grid value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (DimensionMismatchError, LabeledRecord, PrototypeSet,
                   SpcError, non_unit_rows)
from .data_io import ReportTable
from .engine import DotCounter, MeanState, SpcConfig, SumConfig, unit_means

STRATEGY_KINDS = ("spc", "spc-sum", "ncm-fixed", "ncm-incr", "1nn", "1nn-star")


@dataclass(frozen=True)
class Strategy:
    """Which classifier to replay the streams through.

    1nn is spc with w = 1 on the same code path; 1nn-star is spc with the
    prototype set dropped. `learn` disables user-store registration
    (diagnostic switch; the protocol default is to learn every record).
    """

    kind: str = "spc"
    w: float = 0.85
    w_s: float = 0.5
    mean_mode: str = MeanState.FULL_HISTORY
    learn: bool = True

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise SpcError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "spc":
            SpcConfig(self.w)
        if self.kind == "spc-sum":
            SumConfig(self.w_s)
        if self.kind == "ncm-incr" and self.mean_mode not in (
                MeanState.FULL_HISTORY, MeanState.MEAN_AS_ONE):
            raise SpcError(f"unknown mean mode {self.mean_mode!r}")

    def label(self) -> str:
        if self.kind == "spc":
            return f"spc (w={self.w:g})"
        if self.kind == "spc-sum":
            return f"spc-sum (w_s={self.w_s:g})"
        if self.kind == "ncm-incr":
            return f"ncm-incr ({self.mean_mode})"
        return self.kind


@dataclass(frozen=True, slots=True)
class Outcome:
    """Per-record evaluation result."""

    user: str
    t: int
    true_class: int
    hits: dict[int, bool]
    in_initial: bool
    in_union: bool
    predicted: int | None


def _check_contiguous(records: Sequence[LabeledRecord]) -> None:
    for i, rec in enumerate(records, start=1):
        if rec.t != i:
            raise SpcError(
                f"user {records[0].user!r}: stream t values not contiguous "
                f"(expected {i}, got {rec.t})")


# Query columns of the Gram matrix are computed this many at a time, so a
# replay holds O(B * T) Gram entries and never a T x T array.
GRAM_BLOCK = 128
# rank position of a true class that is not among the candidates
MISS = np.iinfo(np.intp).max


def _check_shapes(records, dim: int) -> None:
    for rec in records:
        v = np.asarray(rec.vec, dtype=np.float64)
        if v.shape != (dim,):
            raise SpcError(
                f"user {rec.user!r} t={rec.t}: vector shape {v.shape}")


def _stack_queries(records) -> np.ndarray:
    """The stream's vectors as one float64 matrix, each row checked unit."""
    dim = len(records[0].vec)
    try:
        queries = np.array([rec.vec for rec in records], dtype=np.float64)
    except ValueError:
        _check_shapes(records, dim)
        raise
    if queries.shape != (len(records), dim):
        _check_shapes(records, dim)
    bad = non_unit_rows(queries)
    if len(bad):
        raise SpcError(f"record t={records[bad[0]].t} is not unit-normalized")
    return queries


def _prefix_max(queries, rows, su) -> None:
    """su[c, t] = max of queries[j] . queries[t] over j < t of class row c.

    Entries with no such j are left as they are. Column blocks of the Gram
    matrix are reduced per class with maximum.reduceat over the rows sorted
    by class, with j >= t masked out.
    """
    T = len(queries)
    order = np.argsort(rows, kind="stable")
    for b0 in range(0, T, GRAM_BLOCK):
        b1 = min(b0 + GRAM_BLOCK, T)
        gram = queries[:b1] @ queries[b0:b1].T
        gram[b0:][np.tri(b1 - b0, dtype=bool)] = -np.inf
        sel = order[order < b1]
        r = rows[sel]
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        su[r[starts], b0:b1] = np.maximum.reduceat(gram[sel], starts, axis=0)


def _upper_limit_flags(records, protos) -> tuple[np.ndarray, np.ndarray]:
    """Per record: its class is an initial (prototype) class; its class is
    initial or appeared earlier in the stream."""
    initial = protos.class_set if protos is not None else set()
    cls = [rec.class_id for rec in records]
    in_initial = np.array([c in initial for c in cls], dtype=bool)
    _, first, inverse = np.unique(cls, return_index=True, return_inverse=True)
    return in_initial, in_initial | (first[inverse] < np.arange(len(cls)))


@dataclass
class _UserHits:
    """One user's per-record hits by k and upper-limit flags, in t order."""

    hits: dict[int, np.ndarray]
    in_initial: np.ndarray
    in_union: np.ndarray


def _running_means(queries, ids, rows, seed_rows, seed_acc, seed_count):
    """Each record's class mean after absorbing the record, in t order.

    MeanState's rule, applied one record at a time: a new class starts from
    the record, a known class adds the record to its float64 sum.
    """
    acc = dict(zip(seed_rows.tolist(), seed_acc))
    count = dict(zip(seed_rows.tolist(), seed_count.tolist()))
    sums = np.empty_like(queries)
    counts = np.empty(len(queries), dtype=np.int64)
    for t, c in enumerate(rows.tolist()):
        acc[c] = acc[c] + queries[t] if c in acc else queries[t]
        count[c] = count.get(c, 0) + 1
        sums[t], counts[t] = acc[c], count[c]
    return unit_means(sums, counts, ids[rows])


def _mean_scores(queries, ids, rows, protos, strategy):
    """ncm-incr's similarity of every class at every step, and whether the
    class has a mean there.

    version[c, t] indexes the mean class c exposes at step t in the matrix
    of versions: the |P| seeded prototypes, then record j's class mean
    after absorbing it, exposed from step j + 1 on.
    """
    T = len(queries)
    seed_ids, seed_acc, seed_count = MeanState.seed(protos,
                                                    strategy.mean_mode)
    P = len(seed_ids)
    seed_rows = np.searchsorted(ids, seed_ids)
    version = np.full((len(ids), T), -1, dtype=np.intp)
    version[seed_rows, 0] = np.arange(P)
    versions = unit_means(seed_acc, seed_count, seed_ids)
    if strategy.learn:
        version[rows[:-1], np.arange(1, T)] = P + np.arange(T - 1)
        versions = np.concatenate((versions, _running_means(
            queries, ids, rows, seed_rows, seed_acc, seed_count)))
    np.maximum.accumulate(version, axis=1, out=version)
    has_mean = version >= 0
    np.maximum(version, 0, out=version)
    score = np.empty(version.shape)
    for b0 in range(0, T, GRAM_BLOCK):
        b1 = min(b0 + GRAM_BLOCK, T)
        # no step before b1 exposes a later version
        dots = versions[:P + b1] @ queries[b0:b1].T
        score[:, b0:b1] = dots[version[:, b0:b1], np.arange(b1 - b0)]
    return score, has_mean


class _ClassScores:
    """Whole-stream evaluator for every strategy.

    Under predict-then-learn the user store at step t holds exactly records
    1..t-1, so every score of the replay comes from |U| x T arrays over
    the sorted class union U (rows) and the steps (columns), none of which
    depends on w or w_s:

      su       per-class max user similarity over the records before t,
               0 where the class has none yet (nearest-neighbor family
               only);
      sm       prototype similarity, 0 for classes without a prototype;
               for ncm-incr, the similarity to the class's running mean;
      present  the class was in the user store before t (never, for the
               mean baselines);
      cand     the class is ranked at t.

    A strategy's scores are one elementwise combination of su and sm. The
    true class's rank position is then a count, with no sort: the
    candidates scoring higher, plus those scoring equal that the tie rule
    puts first (user-present, then the smaller id).
    """

    def __init__(self, records: Sequence[LabeledRecord],
                 protos: PrototypeSet | None, strategy: Strategy):
        queries = _stack_queries(records)
        T, dim = queries.shape
        self.means = strategy.kind in ("ncm-fixed", "ncm-incr")
        self.use_protos = (strategy.kind != "1nn-star" and protos is not None
                           and len(protos) > 0)
        if self.means and not self.use_protos:
            raise SpcError(f"strategy {strategy.kind} needs a non-empty "
                           "prototype set")
        if self.use_protos and protos.dim != dim:
            raise DimensionMismatchError(
                f"stream dim {dim} != prototype dim {protos.dim}")
        cls = np.fromiter((r.class_id for r in records), dtype=np.int64,
                          count=T)
        proto_ids = protos.class_ids if self.use_protos else cls[:0]
        self.ids, inverse = np.unique(np.concatenate((cls, proto_ids)),
                                      return_inverse=True)
        self.rows, proto_rows = inverse[:T], inverse[T:]
        self.cols = np.arange(T)

        with np.errstate(invalid="raise", over="raise"):
            shape = (len(self.ids), T)
            if strategy.kind == "ncm-incr":
                self.sm, self.cand = _mean_scores(queries, self.ids,
                                                  self.rows, protos, strategy)
            else:
                in_proto = np.zeros(len(self.ids), dtype=bool)
                in_proto[proto_rows] = True
                self.sm = np.zeros(shape)
                if self.use_protos:
                    self.sm[proto_rows] = protos.matrix64 @ queries.T
                self.cand = np.broadcast_to(in_proto[:, None], shape)
            if self.means:
                self.present = np.zeros(shape, dtype=bool)
            else:
                self.su = np.full(shape, -np.inf)
                if strategy.learn:
                    _prefix_max(queries, self.rows, self.su)
                self.present = self.su > -np.inf
                self.su[~self.present] = 0.0
                self.cand = self.present | self.cand
            p_true = self.present[self.rows, self.cols]
            row_ids = np.arange(len(self.ids))[:, None]
            self.tie_ahead = (self.present & ~p_true) | (
                (self.present == p_true) & (row_ids < self.rows))

    def score(self, strategy: Strategy) -> np.ndarray:
        """The strategy's post-weight score of every class at every step."""
        with np.errstate(invalid="raise", over="raise"):
            if self.means:
                return self.sm
            if strategy.kind == "spc-sum":
                score = (1.0 - strategy.w_s) * self.su
                score += strategy.w_s * self.sm
                return score
            if not self.use_protos:
                return self.su
            w = strategy.w if strategy.kind == "spc" else 1.0
            score = w * self.sm
            return np.maximum(self.su, score, out=score)

    def rank(self, score: np.ndarray) -> np.ndarray:
        """0-based rank position of the true class at each step, MISS where
        it is not a candidate."""
        s_true = score[self.rows, self.cols]
        ahead = self.cand & ((score > s_true)
                             | ((score == s_true) & self.tie_ahead))
        pos = ahead.sum(axis=0)
        pos[~self.cand[self.rows, self.cols]] = MISS
        return pos

    def top1(self, score: np.ndarray) -> np.ndarray:
        """Predicted class at each step, -1 where there is no candidate."""
        best = score.max(axis=0, where=self.cand, initial=-np.inf)
        top = self.cand & (score == best)
        top_user = top & self.present
        row = np.where(top_user.any(axis=0), top_user.argmax(axis=0),
                       top.argmax(axis=0))
        return np.where(top.any(axis=0), self.ids[row], -1)

    def hits(self, strategy: Strategy, k_list) -> dict[int, np.ndarray]:
        pos = self.rank(self.score(strategy))
        return {k: pos < k for k in k_list}


def _replay(records, protos, strategy, counter):
    """Rank positions and predictions of a strategy over one stream."""
    scores = _ClassScores(records, protos, strategy)
    if counter is not None:
        # the dot products a per-call replay spends at each step
        if scores.means:
            dots = scores.cand.sum(axis=0)
        else:
            n_proto = len(protos) if scores.use_protos else 0
            dots = np.arange(len(records)) * strategy.learn + n_proto
        for n in dots.tolist():
            if n:
                counter.add(n)
    score = scores.score(strategy)
    return scores.rank(score).tolist(), scores.top1(score).tolist()


def run_user_stream(records: Sequence[LabeledRecord],
                    protos: PrototypeSet | None,
                    strategy: Strategy,
                    k_list: Sequence[int] = (1, 5),
                    counter: DotCounter | None = None) -> list[Outcome]:
    """Replay one user's stream: predict, log, then register the true label.

    A record whose class cannot possibly be ranked (nothing stored yet and
    no prototypes) is logged as a miss with no prediction rather than an
    error; that is the 1-NN* cold start.
    """
    records = list(records)
    if not records:
        return []
    _check_contiguous(records)
    positions, predicted = _replay(records, protos, strategy, counter)
    in_initial, in_union = _upper_limit_flags(records, protos)
    return [Outcome(user=rec.user, t=rec.t, true_class=rec.class_id,
                    hits={k: pos < k for k in k_list}, in_initial=ini,
                    in_union=uni, predicted=None if top < 0 else top)
            for rec, pos, top, ini, uni in zip(
                records, positions, predicted, in_initial.tolist(),
                in_union.tolist())]


def group_by_user(records: Iterable[LabeledRecord]) -> dict[str, list[LabeledRecord]]:
    """Split a record sequence into per-user streams, preserving order."""
    by_user: dict[str, list[LabeledRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user, []).append(rec)
    return by_user


def run_streams(streams: dict[str, list[LabeledRecord]],
                protos: PrototypeSet | None, strategy: Strategy,
                k_list: Sequence[int] = (1, 5)) -> dict[str, list[Outcome]]:
    """Evaluate every user independently; users never share state."""
    return {user: run_user_stream(recs, protos, strategy, k_list)
            for user, recs in sorted(streams.items())}


def mean_accuracy(outcomes: dict[str, list[Outcome]], t: int, k: int) -> float:
    """Fraction of users whose record at index t was a top-k hit.

    Users whose stream is shorter than t are excluded; if none reaches t,
    that is an error.
    """
    hits, users = 0, 0
    for user_outcomes in outcomes.values():
        if t <= len(user_outcomes):
            users += 1
            if user_outcomes[t - 1].hits[k]:
                hits += 1
    if users == 0:
        raise SpcError(f"no user has a record at t={t}")
    return hits / users


@dataclass
class BucketReport:
    """Bucketed aggregate of the per-record outcomes.

    accuracy[k][b] is the per-bucket average of the per-t mean accuracy;
    the upper-limit rows are the analogous rates of the true class being
    in the initial class set / in the union seen so far. Conditional rows
    pool records across users within the bucket (None if the pool is
    empty).
    """

    bucket_width: int
    buckets: list[tuple[int, int]]
    k_list: tuple[int, ...]
    accuracy: dict[int, list[float]]
    in_initial: list[float]
    in_union: list[float]
    cond_initial: dict[int, list[float | None]]
    cond_outside: dict[int, list[float | None]]
    ragged: bool = False
    partial_final_bucket: bool = False

    def to_table(self, label: str) -> ReportTable:
        columns = [f"t{lo}-t{hi} top-{k}"
                   for lo, hi in self.buckets for k in self.k_list]
        nk = len(self.k_list)
        rows = [
            (label, [self.accuracy[k][b]
                     for b in range(len(self.buckets)) for k in self.k_list]),
            ("upper limit (initial)",
             [self.in_initial[b] for b in range(len(self.buckets))
              for _ in range(nk)]),
            ("upper limit (union)",
             [self.in_union[b] for b in range(len(self.buckets))
              for _ in range(nk)]),
            ("within initial classes",
             [self.cond_initial[k][b]
              for b in range(len(self.buckets)) for k in self.k_list]),
            ("outside initial classes",
             [self.cond_outside[k][b]
              for b in range(len(self.buckets)) for k in self.k_list]),
        ]
        notes = []
        if self.ragged:
            notes.append("streams have unequal lengths; per-t means average "
                         "only the users that reach t")
        if self.partial_final_bucket:
            notes.append("final bucket is shorter than the bucket width")
        return ReportTable(columns=columns, rows=rows, notes=notes)


def bucket_report(outcomes: dict[str, list[Outcome]], bucket_width: int = 50,
                  k_list: Sequence[int] = (1, 5)) -> BucketReport:
    users = [_UserHits({k: np.array([o.hits[k] for o in outs], dtype=bool)
                        for k in k_list},
                       np.array([o.in_initial for o in outs], dtype=bool),
                       np.array([o.in_union for o in outs], dtype=bool))
             for outs in outcomes.values()]
    return _report(users, bucket_width, k_list)


def _report(users: list[_UserHits], bucket_width: int,
            k_list: Sequence[int]) -> BucketReport:
    """Bucket per-user hit arrays; the per-t means match mean_accuracy."""
    lengths = {len(u.in_initial) for u in users if len(u.in_initial)}
    if not lengths:
        raise SpcError("no outcomes to report")
    if bucket_width < 1:
        raise SpcError("bucket width must be >= 1")
    T = max(lengths)
    buckets = [(lo, min(lo + bucket_width - 1, T))
               for lo in range(1, T + 1, bucket_width)]

    def per_t(arrays) -> np.ndarray:
        """Sum over users of a per-record count, indexed by t - 1."""
        total = np.zeros(T, dtype=np.int64)
        for a in arrays:
            total[:len(a)] += a
        return total

    k_list = tuple(k_list)
    reach = per_t(np.ones(len(u.in_initial), dtype=np.int64) for u in users)
    init = per_t(u.in_initial for u in users)
    union = per_t(u.in_union for u in users)
    hits = {k: per_t(u.hits[k] for u in users) for k in k_list}
    hits_init = {k: per_t(u.hits[k] & u.in_initial for u in users)
                 for k in k_list}

    accuracy = {k: [] for k in k_list}
    in_initial, in_union = [], []
    cond_initial = {k: [] for k in k_list}
    cond_outside = {k: [] for k in k_list}
    for lo, hi in buckets:
        b = slice(lo - 1, hi)
        in_initial.append(float(np.mean(init[b] / reach[b])))
        in_union.append(float(np.mean(union[b] / reach[b])))
        n_in = int(init[b].sum())
        n_out = int(reach[b].sum()) - n_in
        for k in k_list:
            accuracy[k].append(float(np.mean(hits[k][b] / reach[b])))
            h_in = int(hits_init[k][b].sum())
            h_out = int(hits[k][b].sum()) - h_in
            cond_initial[k].append(h_in / n_in if n_in else None)
            cond_outside[k].append(h_out / n_out if n_out else None)

    return BucketReport(bucket_width=bucket_width, buckets=buckets,
                        k_list=k_list, accuracy=accuracy,
                        in_initial=in_initial, in_union=in_union,
                        cond_initial=cond_initial, cond_outside=cond_outside,
                        ragged=len(lengths) > 1,
                        partial_final_bucket=T % bucket_width != 0)


def evaluate(streams: dict[str, list[LabeledRecord]],
             protos: PrototypeSet | None, strategy: Strategy,
             k_list: Sequence[int] = (1, 5),
             bucket_width: int = 50) -> BucketReport:
    """Run every user through the strategy and bucket the outcomes."""
    return bucket_report(run_streams(streams, protos, strategy, k_list),
                         bucket_width=bucket_width, k_list=k_list)


def _grid_check(grid, lo: float, hi: float, lo_open: bool) -> list[float]:
    grid = list(grid)
    if not grid:
        raise SpcError("empty parameter grid")
    for v in grid:
        if (v <= lo if lo_open else v < lo) or v > hi:
            raise SpcError(f"grid value {v} out of range")
    return grid


def _sweep(streams, protos, strategies, k_list) -> list[dict[str, _UserHits]]:
    """Per-user hits of strategies that differ only in w or w_s, scored
    from one build of each user's class scores."""
    def score_user(recs) -> list[_UserHits]:
        # one user's class scores are freed before the next user's are built
        _check_contiguous(recs)
        scores = _ClassScores(recs, protos, strategies[0])
        flags = _upper_limit_flags(recs, protos)
        return [_UserHits(scores.hits(strategy, k_list), *flags)
                for strategy in strategies]

    per_user = {user: score_user(list(recs))
                for user, recs in sorted(streams.items()) if recs}
    return [{user: hits[i] for user, hits in per_user.items()}
            for i in range(len(strategies))]


def sweep_w(streams, protos, grid, k_list=(1, 5), bucket_width: int = 50):
    """One weighted-max evaluation per grid value, over identical streams."""
    grid = _grid_check(grid, 0.0, 1.0, lo_open=True)
    hits = _sweep(streams, protos, [Strategy(kind="spc", w=w) for w in grid],
                  k_list)
    return [(w, _report(list(h.values()), bucket_width, k_list))
            for w, h in zip(grid, hits)]


def sweep_ws(streams, protos, grid, k_list=(1, 5), bucket_width: int = 50):
    """One linear-combination evaluation per grid value."""
    grid = _grid_check(grid, 0.0, 1.0, lo_open=False)
    hits = _sweep(streams, protos,
                  [Strategy(kind="spc-sum", w_s=ws) for ws in grid], k_list)
    return [(ws, _report(list(h.values()), bucket_width, k_list))
            for ws, h in zip(grid, hits)]


def sweep_table(results, param_name: str, k_list, bucket_width: int) -> ReportTable:
    """Flatten sweep results into one accuracy row per parameter value."""
    if not results:
        raise SpcError("empty sweep")
    first = results[0][1]
    columns = [f"t{lo}-t{hi} top-{k}" for lo, hi in first.buckets
               for k in first.k_list]
    rows = []
    for value, report in results:
        rows.append((f"{param_name}={value:g}",
                     [report.accuracy[k][b]
                      for b in range(len(report.buckets))
                      for k in report.k_list]))
    return ReportTable(columns=columns, rows=rows)


@dataclass
class CvResult:
    chosen_w: float
    folds: list[list[str]]
    train_best_w: list[float]
    heldout_accuracy: list[dict[float, float]]

    def to_table(self) -> ReportTable:
        grid = sorted(self.heldout_accuracy[0])
        columns = [f"w={w:g}" for w in grid]
        rows = []
        for i, held in enumerate(self.heldout_accuracy):
            rows.append((f"fold {i + 1} held-out", [held[w] for w in grid]))
        avg = {w: float(np.mean([h[w] for h in self.heldout_accuracy]))
               for w in grid}
        rows.append(("mean held-out", [avg[w] for w in grid]))
        notes = [f"chosen w = {self.chosen_w:g}",
                 "per-fold training argmax: "
                 + ", ".join(f"{w:g}" for w in self.train_best_w)]
        return ReportTable(columns=columns, rows=rows, notes=notes)


def cross_validate_w(streams, protos, grid, folds: int = 2,
                     objective_k: int = 1, seed: int = 0) -> CvResult:
    """Choose the weighting value by k-fold cross-validation over users.

    Per fold: the grid value maximizing mean accuracy (averaged over all t,
    then over training-fold users) is selected on the training side and the
    held-out accuracy of every grid value is recorded. The final choice
    maximizes the across-fold average of held-out accuracy; ties go to the
    smaller value.
    """
    grid = sorted(set(_grid_check(grid, 0.0, 1.0, lo_open=True)))
    if folds < 2:
        raise SpcError("folds must be >= 2")
    users = sorted(streams)
    if len(users) < folds:
        raise SpcError(f"need at least {folds} users, have {len(users)}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    order = [users[i] for i in rng.permutation(len(users))]
    fold_users = [order[i::folds] for i in range(folds)]

    # per-user mean hit rate for every grid value; folds aggregate from this
    for user in users:
        if not streams[user]:
            raise SpcError(f"user {user!r} has an empty stream")
    hits = _sweep(streams, protos, [Strategy(kind="spc", w=w) for w in grid],
                  (objective_k,))
    user_acc = {w: {u: float(np.mean(h[u].hits[objective_k])) for u in users}
                for w, h in zip(grid, hits)}

    def set_acc(w: float, members: list[str]) -> float:
        return float(np.mean([user_acc[w][u] for u in members]))

    train_best, heldout = [], []
    for i in range(folds):
        train = [u for j, fold in enumerate(fold_users)
                 for u in fold if j != i]
        best = min(grid, key=lambda w: (-set_acc(w, train), w))
        train_best.append(best)
        heldout.append({w: set_acc(w, fold_users[i]) for w in grid})

    chosen = min(grid, key=lambda w: (
        -float(np.mean([h[w] for h in heldout])), w))
    return CvResult(chosen_w=chosen, folds=fold_users,
                    train_best_w=train_best, heldout_accuracy=heldout)
