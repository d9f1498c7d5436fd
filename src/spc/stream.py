"""Prequential stream evaluation: replay each user's records through a
strategy (predict, score, then learn the true label) and aggregate the
per-record results into bucketed report tables.

A user's results are one columnar UserResult: per record, the 0-based rank
position of the true class (a hit at k is rank < k) and the upper-limit
flags. Reports, sweeps and cross-validation read these arrays directly;
only run_user_stream also takes each record's top-1, for its Outcomes.
The in-union flag is the harness's own bookkeeping, so it holds even for
strategies that do not learn.

Every strategy is replayed per user, not step by step, by one function,
_replay, whose docstring gives the method. run_streams, the sweeps and
cross-validation share one loop over users, _sweep.

A report is bucket_report(run_streams(streams, protos, strategy)).
bucket_report and cross_validate_w check their settings on entry, with
report_settings and cv_settings, which a caller may also run first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .core import (DimensionMismatchError, LabeledRecord, PrototypeSet,
                   SpcError, check_int, check_topk, empty_prototypes,
                   repeated_rows, row_norms, stack_records)
from .data_io import ReportTable
from .engine import DotCounter, SpcConfig, SumConfig

STRATEGY_KINDS = ("spc", "spc-sum", "ncm-fixed", "ncm-incr", "1nn", "1nn-star")
K_LIST, BUCKET_WIDTH = (1, 5), 50  # the report defaults
MEAN_MODES = ("full-history", "mean-as-one")


@dataclass(frozen=True)
class Strategy:
    """Which classifier to replay the streams through.

    1nn is spc with w = 1 on the same code path; 1nn-star is 1nn over the
    empty prototype set. `learn` disables user-store registration
    (diagnostic switch; the protocol default is to learn every record).

    ncm-incr's mean_mode seeds each initial class's running mean:
      full-history : at its true training count (the prototype stands for
                     that many samples);
      mean-as-one  : at count 1 (the prototype counts as a single sample).
    """

    kind: str = "spc"
    w: float = SpcConfig.w
    w_s: float = SumConfig.w_s
    mean_mode: str = "full-history"
    learn: bool = True

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise SpcError(f"unknown strategy kind {self.kind!r}")
        # every field is checked, whether or not the kind reads it
        SpcConfig(self.w), SumConfig(self.w_s)
        if self.mean_mode not in MEAN_MODES:
            raise SpcError(f"unknown mean mode {self.mean_mode!r}")

    @property
    def config(self) -> SpcConfig | SumConfig:
        """The engine setting this strategy scores with."""
        if self.kind in ("spc", "1nn", "1nn-star"):
            return SpcConfig(self.w if self.kind == "spc" else 1.0)
        return SumConfig(self.w_s if self.kind == "spc-sum" else 1.0)

    def label(self) -> str:
        detail = {"spc": f"w={self.w:g}", "spc-sum": f"w_s={self.w_s:g}",
                  "ncm-incr": self.mean_mode}.get(self.kind)
        return f"{self.kind} ({detail})" if detail else self.kind


@dataclass(frozen=True, slots=True)
class Outcome:
    """One record's hits at each k of K_LIST and top-1, built on demand
    when a run_user_stream result is iterated."""

    hits: dict[int, bool]
    predicted: int | None


# rank position of a true class that is not among the candidates
MISS = np.iinfo(np.intp).max


@dataclass(frozen=True, eq=False)
class UserResult:
    """One user's evaluation results as columns; row i is the record at
    t = i + 1.

    rank is the 0-based rank position of the true class, MISS where it was
    not a candidate, so a hit at k is rank < k. predicted is the top-1
    class id, -1 where nothing was ranked; only run_user_stream takes it,
    so other results hold None there, and their Outcomes predict None.
    """

    true_class: np.ndarray
    rank: np.ndarray
    predicted: np.ndarray | None
    in_initial: np.ndarray
    in_union: np.ndarray

    def __len__(self) -> int:
        return len(self.rank)

    def __iter__(self):
        tops = ([-1] * len(self) if self.predicted is None
                else self.predicted.tolist())
        for pos, top in zip(self.rank.tolist(), tops):
            yield Outcome(hits={k: pos < k for k in K_LIST},
                          predicted=None if top < 0 else top)


# A replay builds its class-by-step arrays this many steps (columns) at a
# time, the block's one product included, so it holds no |U| x T, T x T or
# T x |P| array.
GRAM_BLOCK = 128


def _prefix_max(gram, rows, su) -> None:
    """su[c, k] = max of gram[j, k] over the steps j before the block's
    step k of class row c; entries with no such j are left as they are.
    gram's rows are the queries up to the block's end, its columns the
    block's steps, so its last n = su.shape[1] rows are the block's own
    queries. One flat maximum.at into su, which must be C-contiguous,
    reduces gram, masked at j >= the step, per class."""
    n = su.shape[1]
    b0 = len(gram) - n
    gram[b0:][np.tri(n, dtype=bool)] = -np.inf
    idx = rows[:b0 + n, None] * n + np.arange(n)
    np.maximum.at(su.reshape(-1), idx.ravel(), gram.ravel())


def _columns(records, protos) -> dict:
    """The UserResult columns that do not depend on the strategy, once t
    is checked to run 1..T. Per record, in_initial: its class is an
    initial (prototype) class; in_union: its class is initial or appeared
    earlier in the stream."""
    T = len(records)
    t = np.fromiter((rec.t for rec in records), dtype=np.int64, count=T)
    gaps = np.flatnonzero(t != np.arange(1, T + 1))
    if len(gaps):
        raise SpcError(
            f"user {records[0].user!r}: stream t values not contiguous "
            f"(expected {gaps[0] + 1}, got {t[gaps[0]]})")
    cls = np.fromiter((rec.class_id for rec in records), dtype=np.int64,
                      count=T)
    in_initial = np.isin(cls, protos.class_ids if protos is not None else [])
    _, first, inverse = np.unique(cls, return_index=True, return_inverse=True)
    return dict(true_class=cls, in_initial=in_initial,
                in_union=in_initial | (first[inverse] < np.arange(T)))


def unit_means(acc: np.ndarray, count, class_ids) -> np.ndarray:
    """Rows acc / count, each scaled to unit length: the running means of
    the incremental-mean baselines. Each row's norm is its own
    (core.row_norms), so a row comes out the same whether it is computed
    alone or in a batch."""
    means = acc / np.reshape(count, (-1, 1))
    norms = row_norms(means)
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise SpcError(
            f"mean of class {class_ids[zero[0]]} cancelled to zero")
    return means / norms[:, None]


def _mean_versions(queries, ids, rows, proto_rows, protos, mode):
    """ncm-incr's matrix of mean versions: the |P| seeded means, then each
    record's class mean after absorbing it, in t order (a new class starts
    from the record, a known class adds the record to the float64 sum of
    its version that `last` indexes). Also the version each class exposes
    at step 1, -1 for none; record j's version P + j is exposed from j + 1.

    The seeds are the prototypes in row order (of classes proto_rows in
    ids), each at the count its mean_mode gives it (Strategy has checked
    the mode). Counts stay Python ints until their one conversion to
    float64, so a count past int64 is rounded once."""
    if mode == "full-history":
        counts = [protos.counts.get(c) for c in protos.class_ids.tolist()]
        if None in counts:
            raise SpcError(
                "full-history seeding needs per-class training counts")
    else:
        counts = [1] * len(protos)
    P = len(counts)
    sums = np.concatenate((protos.matrix64 * np.reshape(counts, (-1, 1)),
                           queries))
    latest = np.full(len(ids), -1, dtype=np.intp)
    latest[proto_rows] = np.arange(P)
    last = latest.tolist()
    for t, c in enumerate(rows.tolist(), P):
        j = last[c]
        if j >= 0:
            row = sums[t]
            np.add(row, sums[j], out=row)
        counts.append(1 if j < 0 else counts[j] + 1)
        last[c] = t
    return unit_means(sums, np.array(counts, dtype=np.float64),
                      ids[np.concatenate((proto_rows, rows))]), latest


def _rank(score, cand, true, tie_ahead, miss) -> np.ndarray:
    """0-based rank position of the true class at each step of a block,
    MISS where it is not a candidate."""
    s_true = score[true]
    ahead = cand & ((score > s_true) | ((score == s_true) & tie_ahead))
    pos = ahead.sum(axis=0)
    pos[miss] = MISS
    return pos


def _top1(score, cand, present, ids) -> np.ndarray:
    """Predicted class at each step of a block, -1 with no candidate."""
    best = score.max(axis=0, where=cand, initial=-np.inf)
    top = cand & (score == best)
    top_user = top & present
    row = np.where(top_user.any(axis=0), top_user.argmax(axis=0),
                   top.argmax(axis=0))
    return np.where(top.any(axis=0), ids[row], -1)


def _replay(records, protos, strategies, counter=None,
            top1=False) -> list[UserResult]:
    """One user's results under strategies that differ only in w or w_s.

    Under predict-then-learn the user store at step t holds exactly records
    1..t-1, so every score comes from class-by-step arrays over the sorted
    class union U (rows) and the steps (columns), none of which depends on
    w or w_s. After every input is checked, one loop moves through the
    steps GRAM_BLOCK columns at a time, building the block's arrays:

      su       per-class max user similarity over the records before t,
               0 where there is none (nearest-neighbor family only);
      sm       prototype similarity, 0 for classes without a prototype;
               for ncm-incr, the similarity to the class's running mean,
               whose version moves only for the stream's classes;
      present  the class was in the user store before t (nearest-neighbor
               family only: the mean baselines build no su and no
               presence, so their ties go to the smaller id);
      cand     the class is ranked at t.

    and ranks every strategy in it before the next block is built. A
    strategy's scores are one elementwise combination of su and sm. The
    true class's rank position is a count, with no sort: the candidates
    scoring higher, plus those scoring equal that the tie rule puts first
    (user-present, then the smaller id). A block's dots are one product
    with its steps as columns. Its rows are a head, the prototypes (for
    ncm-incr the seeded means), then the tail before the block's end, the
    queries (the mean versions). A product may round a vector's dot by its
    row, so each row repeating an earlier one takes that row's dots.
    """
    columns = _columns(records, protos)
    T, kind, learn = len(records), strategies[0].kind, strategies[0].learn
    ranks = [np.empty(T, dtype=np.intp) for _ in strategies]
    tops = [np.empty(T, dtype=np.int64) if top1 else None for _ in strategies]
    if T:
        with np.errstate(invalid="raise", over="raise"):
            queries = stack_records(records, dim := len(records[0].vec))
            means = kind in ("ncm-fixed", "ncm-incr")
            # a missing set is the empty one, and 1nn-star scores that
            if protos is None or kind == "1nn-star":
                protos = empty_prototypes(dim)
            if means and not len(protos):
                raise SpcError(f"strategy {kind} needs a non-empty "
                               "prototype set")
            if protos.dim != dim:
                raise DimensionMismatchError(
                    f"stream dim {dim} != prototype dim {protos.dim}")
            ids, inverse = np.unique(
                np.concatenate((columns["true_class"], protos.class_ids)),
                return_inverse=True)
            rows, proto_rows = inverse[:T], inverse[T:]
            P, U = len(protos), len(ids)
            # the tail is empty where the user side is not read
            seen = T if learn else 0
            if kind == "ncm-incr":
                versions, latest = _mean_versions(
                    queries[:seen], ids, rows[:seen], proto_rows, protos,
                    strategies[0].mean_mode)
                head, tail = versions[:P], versions[P:]
                # only the stream's classes (s_rows) move past their seed
                s_rows, s_of = np.unique(rows[:seen], return_inverse=True)
                latest = latest[s_rows]
            else:
                head, tail = protos.matrix64, queries[:0 if means else seen]
            pos, src = repeated_rows((head, tail))
            in_proto = np.zeros(U, dtype=bool)
            in_proto[proto_rows] = True
            row_ids = np.arange(U)[:, None]
            # sm and su live in two buffers that every block reuses
            bufs = np.empty((2, U * GRAM_BLOCK))
            # the dot products a per-call replay spends at each step
            dots = np.arange(T) * learn + P
            for b0 in range(0, T, GRAM_BLOCK):
                b1 = min(b0 + GRAM_BLOCK, T)
                b, n, block_rows = slice(b0, b1), b1 - b0, rows[b0:b1]
                steps = np.arange(n)
                prod = np.empty((P + min(b1, len(tail)), n))
                np.matmul(head, queries[b].T, out=prod[:P])
                np.matmul(tail[:b1], queries[b].T, out=prod[P:])
                k = np.searchsorted(pos, len(prod))
                if k:
                    prod[pos[:k]] = prod[src[:k]]
                sm, su = (buf[:U * n].reshape(U, n) for buf in bufs)
                sm[:] = 0.0
                sm[proto_rows] = prod[:P]
                cand = np.broadcast_to(in_proto[:, None], (U, n))
                true = block_rows, steps
                if means:
                    present, tie_ahead = False, row_ids < block_rows
                    if kind == "ncm-incr" and learn:
                        # column k is step b0 + k; column n carries to b1
                        version = np.full((len(s_rows), n + 1), -1,
                                          dtype=np.intp)
                        version[:, 0] = latest
                        version[s_of[b], steps + 1] = P + np.arange(b0, b1)
                        np.maximum.accumulate(version, axis=1, out=version)
                        latest, version = version[:, n].copy(), version[:, :n]
                        # no step before b1 exposes a later version
                        sm[s_rows] = prod.take(np.maximum(version, 0) * n
                                               + steps)
                        cand = np.array(cand)
                        cand[s_rows] = version >= 0
                else:
                    su[:] = -np.inf
                    if learn:
                        _prefix_max(prod[P:], rows, su)
                    present = su > -np.inf
                    su[~present] = 0.0
                    cand = present | cand
                    p_true = present[true]
                    tie_ahead = (present & ~p_true) | (
                        (present == p_true) & (row_ids < block_rows))
                miss = ~cand[true]
                if means and counter is not None:
                    dots[b] = cand.sum(axis=0)
                for strategy, rank, top in zip(strategies, ranks, tops):
                    # one strategy's score block is freed before the next
                    score = sm if means else strategy.config.combine(
                        su, sm, P > 0)
                    rank[b] = _rank(score, cand, true, tie_ahead, miss)
                    if top is not None:
                        top[b] = _top1(score, cand, present, ids)
        if counter is not None:
            # steps that rank nothing make no ranking call
            dots = dots[dots != 0]
            counter.total += int(dots.sum())
            counter.per_call.extend(dots.tolist())
    return [UserResult(rank=rank, predicted=top, **columns)
            for rank, top in zip(ranks, tops)]


def run_user_stream(records: Sequence[LabeledRecord],
                    protos: PrototypeSet | None,
                    strategy: Strategy,
                    counter: DotCounter | None = None) -> UserResult:
    """Replay one user's stream: predict, log, then register the true label.

    Only this replay takes each record's top-1. A record whose class cannot
    be ranked (nothing stored yet and no prototypes) is logged as a miss
    with no prediction rather than an error; that is the 1-NN* cold start.
    """
    return _replay(list(records), protos, [strategy], counter, top1=True)[0]


def group_by_user(records: Iterable[LabeledRecord]) -> dict[str, list[LabeledRecord]]:
    """Split a record sequence into per-user streams, preserving order."""
    by_user: dict[str, list[LabeledRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user, []).append(rec)
    return by_user


def run_streams(streams: dict[str, list[LabeledRecord]],
                protos: PrototypeSet | None,
                strategy: Strategy) -> dict[str, UserResult]:
    """Evaluate every user independently; users never share state."""
    return _sweep(streams, protos, [strategy])[0]


@dataclass
class BucketReport:
    """Bucketed aggregate of the per-user results.

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
        cells = [(b, k) for b in range(len(self.buckets)) for k in self.k_list]
        rows = [
            (label, [self.accuracy[k][b] for b, k in cells]),
            ("upper limit (initial)", [self.in_initial[b] for b, _ in cells]),
            ("upper limit (union)", [self.in_union[b] for b, _ in cells]),
            ("within initial classes",
             [self.cond_initial[k][b] for b, k in cells]),
            ("outside initial classes",
             [self.cond_outside[k][b] for b, k in cells]),
        ]
        notes = []
        if self.ragged:
            notes.append("streams have unequal lengths; per-t means average "
                         "only the users that reach t")
        if self.partial_final_bucket:
            notes.append("final bucket is shorter than the bucket width")
        return ReportTable(columns=columns, rows=rows, notes=notes)


def report_settings(bucket_width, k_list) -> tuple[int, tuple[int, ...]]:
    """bucket_report's bucket_width and k_list, once checked."""
    return check_int(bucket_width, "bucket_width", 1), check_topk(k_list)


def bucket_report(results: dict[str, UserResult],
                  bucket_width: int = BUCKET_WIDTH,
                  k_list: Sequence[int] = K_LIST) -> BucketReport:
    """Bucket per-user results; the mean at t averages the users whose
    stream reaches t."""
    bucket_width, k_list = report_settings(bucket_width, k_list)
    users = list(results.values())
    lengths = {len(u) for u in users if len(u)}
    if not lengths:
        raise SpcError("no outcomes to report")
    T = max(lengths)
    buckets = [(lo, min(lo + bucket_width - 1, T))
               for lo in range(1, T + 1, bucket_width)]

    def per_t(arrays) -> np.ndarray:
        """Sum over users of a per-record count, indexed by t - 1."""
        total = np.zeros(T, dtype=np.int64)
        for a in arrays:
            total[:len(a)] += a
        return total

    reach = per_t(np.ones(len(u), dtype=np.int64) for u in users)
    init = per_t(u.in_initial for u in users)
    union = per_t(u.in_union for u in users)
    hits = {k: per_t(u.rank < k for u in users) for k in k_list}
    hits_init = {k: per_t((u.rank < k) & u.in_initial for u in users)
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


def _sweep(streams, protos, strategies) -> list[dict[str, UserResult]]:
    """Per-user ranks and flags of strategies that differ only in w or w_s."""
    if not strategies:
        raise SpcError("empty parameter grid")
    # _replay takes kind, learn and mean_mode from the first strategy
    if len({replace(s, w=1.0, w_s=1.0) for s in strategies}) > 1:
        raise SpcError("a replay's strategies may differ only in w or w_s")
    # one user's class scores are freed before the next user's are built
    per_user = {user: _replay(list(recs), protos, strategies)
                for user, recs in sorted(streams.items())}
    return [{user: results[i] for user, results in per_user.items()}
            for i in range(len(strategies))]


def _sweep_reports(streams, protos, kind, param, grid, k_list, bucket_width):
    """One report per grid value of one weight; Strategy checks its range."""
    grid = list(grid)
    results = _sweep(streams, protos,
                     [Strategy(kind=kind, **{param: v}) for v in grid])
    return [(v, bucket_report(r, bucket_width, k_list))
            for v, r in zip(grid, results)]


def sweep_w(streams, protos, grid, k_list=K_LIST, bucket_width=BUCKET_WIDTH):
    """One weighted-max evaluation per grid value, over identical streams."""
    return _sweep_reports(streams, protos, "spc", "w", grid, k_list,
                          bucket_width)


def sweep_ws(streams, protos, grid, k_list=K_LIST, bucket_width=BUCKET_WIDTH):
    """One linear-combination evaluation per grid value."""
    return _sweep_reports(streams, protos, "spc-sum", "w_s", grid, k_list,
                          bucket_width)


def sweep_table(results, param_name: str, k_list, bucket_width: int) -> ReportTable:
    """Flatten sweep results into one accuracy row per parameter value.

    k_list and bucket_width must be the ones the reports were built with.
    """
    if not results:
        raise SpcError("empty sweep")
    for value, report in results:
        if (report.k_list, report.bucket_width) != (tuple(k_list),
                                                    bucket_width):
            raise SpcError(
                f"sweep table for top-k {tuple(k_list)} at bucket width "
                f"{bucket_width}, but the {param_name}={value:g} report has "
                f"top-k {report.k_list} at bucket width "
                f"{report.bucket_width}")
    # the first row of a report's table is its accuracy row
    tables = [report.to_table(f"{param_name}={value:g}")
              for value, report in results]
    return ReportTable(columns=tables[0].columns,
                       rows=[table.rows[0] for table in tables])


@dataclass
class CvResult:
    chosen_w: float
    folds: list[list[str]]
    train_best_w: list[float]
    heldout_accuracy: list[dict[float, float]]

    def to_table(self) -> ReportTable:
        grid = sorted(self.heldout_accuracy[0])
        columns = [f"w={w:g}" for w in grid]
        rows = [(f"fold {i + 1} held-out", [held[w] for w in grid])
                for i, held in enumerate(self.heldout_accuracy)]
        rows.append(("mean held-out", [
            float(np.mean([h[w] for h in self.heldout_accuracy]))
            for w in grid]))
        notes = [f"chosen w = {self.chosen_w:g}",
                 "per-fold training argmax: "
                 + ", ".join(f"{w:g}" for w in self.train_best_w)]
        return ReportTable(columns=columns, rows=rows, notes=notes)


def cv_settings(folds, objective_k, seed) -> tuple[int, int, int]:
    """cross_validate_w's folds, objective_k and seed, once checked."""
    return (check_int(folds, "folds", 2),
            check_int(objective_k, "objective_k", 1),
            check_int(seed, "seed", 0))


def cross_validate_w(streams, protos, grid, folds: int = 2,
                     objective_k: int = 1, seed: int = 0) -> CvResult:
    """Choose the weighting value by k-fold cross-validation over users.

    Per fold: the grid value maximizing mean accuracy (averaged over all t,
    then over training-fold users) is selected on the training side and the
    held-out accuracy of every grid value is recorded. The final choice
    maximizes the across-fold average of held-out accuracy; ties go to the
    smaller value.
    """
    grid = sorted(set(grid))
    folds, objective_k, seed = cv_settings(folds, objective_k, seed)
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
    results = _sweep(streams, protos,
                     [Strategy(kind="spc", w=w) for w in grid])
    user_acc = {w: {u: float(np.mean(r[u].rank < objective_k))
                    for u in users}
                for w, r in zip(grid, results)}

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
