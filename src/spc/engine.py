"""Classification kernel: class similarity, weighted-max and linear-sum
ranking over a user store plus common prototypes, and the mean-update
baselines.

Scoring rules
-------------
Per class c over C = C_u ∪ C_m:

    weighted-max : score(c) = max( s(c, q, V_u), w * s(c, q, V_m) )
    linear-sum   : score(c) = (1 - w_s) * s(c, q, V_u) + w_s * s(c, q, V_m)

where s(c, q, V) is the maximum dot product between q and the stored
vectors of class c, and exactly 0 when V holds no vector of class c.

Tie rule (rankings are fully deterministic): score descending, then
classes present in the user store before prototype-only classes, then
smaller class id. Score comparisons are exact on the float64 accumulated
values; no epsilon is applied in ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DimensionMismatchError, PrototypeSet, SpcError, UserStore,
                   check_unit, normalize)


@dataclass(frozen=True)
class SpcConfig:
    """Weighted-max configuration. w = 1 degenerates to plain 1-NN."""

    w: float = 0.85

    def __post_init__(self):
        if not (0.0 < self.w <= 1.0):
            raise SpcError(f"w must be in (0, 1], got {self.w}")


@dataclass(frozen=True)
class SumConfig:
    """Linear-combination configuration. w_s = 0 ignores the prototypes."""

    w_s: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.w_s <= 1.0):
            raise SpcError(f"w_s must be in [0, 1], got {self.w_s}")


@dataclass
class Ranking:
    """Classes with scores, best first. Scores are the post-weight values."""

    class_ids: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.class_ids)

    def top1(self) -> int:
        if len(self.class_ids) == 0:
            raise SpcError("empty ranking")
        return int(self.class_ids[0])

    def hit(self, true_class: int, k: int) -> bool:
        return true_class in self.class_ids[:k]

    def pairs(self) -> list[tuple[int, float]]:
        return [(int(c), float(s)) for c, s in zip(self.class_ids, self.scores)]


@dataclass
class DotCounter:
    """Instrumentation: dot products spent per ranking call."""

    total: int = 0
    per_call: list = field(default_factory=list)

    def add(self, n: int) -> None:
        self.total += n
        self.per_call.append(n)


def _query64(query, dim: int) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (dim,):
        raise DimensionMismatchError(f"query shape {q.shape}, expected ({dim},)")
    check_unit(q)
    return q


def class_similarity(class_id: int, query, store) -> float:
    """Max dot product between query and stored vectors of one class.

    Returns exactly 0.0 when the store holds no vector of that class.
    `store` may be a UserStore or a PrototypeSet.
    """
    q = _query64(query, store.dim)
    vecs, classes = ((store.matrix64, store.class_ids)
                     if isinstance(store, PrototypeSet)
                     else (store.vectors64, store.classes))
    mask = classes == class_id
    if not mask.any():
        return 0.0
    return float(np.max(vecs[mask] @ q))


def _gather_scores(query, store: UserStore | None, protos: PrototypeSet | None,
                   counter: DotCounter | None):
    """Per-class max of the user dots and the prototype dots, absent
    classes 0.

    Returns (candidate ids, user score, proto score, user-presence flags,
    whether any prototype was scored).
    """
    dims = {s.dim for s in (store, protos) if s is not None}
    if not dims:
        raise SpcError("nothing to predict: no user store and no prototypes")
    if len(dims) > 1:
        raise DimensionMismatchError("store/prototype dimension mismatch")
    q = _query64(query, dims.pop())
    n_user = len(store) if store is not None else 0
    n_proto = len(protos) if protos is not None else 0
    if n_user == 0 and n_proto == 0:
        raise SpcError("nothing to predict: empty class union")
    size = 1 + max(int(store.classes.max()) if n_user else -1,
                   int(protos.class_ids.max()) if n_proto else -1)

    # every dot is finite (unit vectors are checked), so -inf marks the
    # classes with no user vector
    su = np.full(size, -np.inf)
    if n_user:
        np.maximum.at(su, store.classes, store.vectors64 @ q)
    in_user = su > -np.inf
    su[~in_user] = 0.0
    sm = np.zeros(size)
    in_proto = np.zeros(size, dtype=bool)
    if n_proto:
        sm[protos.class_ids] = protos.matrix64 @ q
        in_proto[protos.class_ids] = True

    if counter is not None:
        counter.add(n_user + n_proto)
    cand = np.flatnonzero(in_user | in_proto)
    return cand, su[cand], sm[cand], in_user[cand], n_proto > 0


def _sorted_ranking(cand, scores, user_flags) -> Ranking:
    order = np.lexsort((cand, ~user_flags, -scores))
    return Ranking(class_ids=cand[order], scores=scores[order])


def _rank_rows(query, dim: int, matrix, class_ids,
               counter: DotCounter | None) -> Ranking:
    """Rank class_ids by the similarity of their rows of matrix to the
    query, no class counting as user-present."""
    q = _query64(query, dim)
    if counter is not None:
        counter.add(len(class_ids))
    return _sorted_ranking(class_ids, matrix @ q,
                           np.zeros(len(class_ids), dtype=bool))


def spc_rank(query, store: UserStore | None, protos: PrototypeSet | None,
             cfg: SpcConfig, counter: DotCounter | None = None) -> Ranking:
    """Weighted-max personalized ranking over C_u ∪ C_m.

    With no prototype set at all there is nothing to take the max against,
    so the scores are the raw per-class user similarities (which keeps the
    user-only reduction exact even for negative similarities).
    """
    cand, s_user, s_proto, user_flags, has_protos = _gather_scores(
        query, store, protos, counter)
    scores = np.maximum(s_user, cfg.w * s_proto) if has_protos else s_user
    return _sorted_ranking(cand, scores, user_flags)


def spc_sum_rank(query, store: UserStore | None, protos: PrototypeSet | None,
                 cfg: SumConfig, counter: DotCounter | None = None) -> Ranking:
    """Linear-combination ranking over C_u ∪ C_m."""
    cand, s_user, s_proto, user_flags, _ = _gather_scores(
        query, store, protos, counter)
    scores = (1.0 - cfg.w_s) * s_user + cfg.w_s * s_proto
    return _sorted_ranking(cand, scores, user_flags)


def ncm_rank(query, protos: PrototypeSet,
             counter: DotCounter | None = None) -> Ranking:
    """Nearest-class-mean ranking over the prototype classes only."""
    if protos is None or len(protos) == 0:
        raise SpcError("empty prototype set")
    return _rank_rows(query, protos.dim, protos.matrix64, protos.class_ids,
                      counter)


def register(store: UserStore, vec, class_id: int) -> UserStore:
    """Append one (embedding, class) pair to the user store."""
    store.append(vec, class_id)
    return store


def unit_means(acc: np.ndarray, count, class_ids) -> np.ndarray:
    """Rows acc / count, each scaled to unit length: the means a MeanState
    exposes. Each row's norm is its own dot product, so a row comes out the
    same whether it is computed alone or in a batch."""
    means = acc / np.reshape(count, (-1, 1))
    norms = np.array([math.sqrt(m.dot(m)) for m in means])
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise SpcError(
            f"mean of class {class_ids[zero[0]]} cancelled to zero")
    return means / norms[:, None]


class MeanState:
    """Per-class running means for the incremental-mean baselines.

    Seeding modes:
      full-history : each initial class starts at its true training count
                     (the prototype stands for that many samples);
      mean-as-one  : each initial class starts at count 1 (the prototype
                     counts as a single sample).

    The accumulator stays raw in float64; the exposed prototype is
    normalize(accumulator / count), renormalized at read time only. The
    exposed prototypes are one matrix with a row per class in class-id
    order. A new class inserts its row in place rather than appending it:
    a matrix product's rounding depends on each row's position, and id
    order keeps every score independent of the order classes arrived in.
    """

    FULL_HISTORY = "full-history"
    MEAN_AS_ONE = "mean-as-one"

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._acc: dict[int, np.ndarray] = {}
        self._count: dict[int, int] = {}
        self._ids = np.empty(0, dtype=np.int64)
        self._exposed = np.empty((0, dim))

    @classmethod
    def seed(cls, protos: PrototypeSet,
             mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The prototype classes in id order, with the raw accumulators and
        the counts that seed their running means."""
        order = np.argsort(protos.class_ids)
        ids = protos.class_ids[order]
        if mode == cls.FULL_HISTORY:
            if protos.counts is None or any(
                    c not in protos.counts for c in ids.tolist()):
                raise SpcError(
                    "full-history seeding needs per-class training counts")
            count = np.array([protos.counts[c] for c in ids.tolist()],
                             dtype=np.int64)
        elif mode == cls.MEAN_AS_ONE:
            count = np.ones(len(ids), dtype=np.int64)
        else:
            raise SpcError(f"unknown mean seeding mode {mode!r}")
        return ids, protos.matrix64[order] * count[:, None], count

    @classmethod
    def from_prototypes(cls, protos: PrototypeSet, mode: str) -> "MeanState":
        ids, acc, count = cls.seed(protos, mode)
        state = cls(protos.dim)
        state._acc = dict(zip(ids.tolist(), acc))
        state._count = dict(zip(ids.tolist(), count.tolist()))
        state._ids = ids
        state._exposed = unit_means(acc, count, ids)
        return state

    def _row(self, class_id: int) -> int:
        return int(np.searchsorted(self._ids, class_id))

    def update(self, vec, class_id: int) -> "MeanState":
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected dim {self.dim}, got shape {v.shape}")
        check_unit(v)
        class_id = int(class_id)
        known = class_id in self._acc
        self._acc[class_id] = self._acc[class_id] + v if known else v.copy()
        self._count[class_id] = self._count.get(class_id, 0) + 1
        mean = unit_means(self._acc[class_id][None], self._count[class_id],
                          (class_id,))[0]
        row = self._row(class_id)
        if known:
            self._exposed[row] = mean
        else:
            self._ids = np.insert(self._ids, row, class_id)
            self._exposed = np.insert(self._exposed, row, mean, axis=0)
        return self

    def count(self, class_id: int) -> int:
        return self._count[class_id]

    def prototype(self, class_id: int) -> np.ndarray:
        if class_id not in self._acc:
            raise KeyError(class_id)
        return self._exposed[self._row(class_id)].copy()

    def rank(self, query, counter: DotCounter | None = None) -> Ranking:
        if not len(self._ids):
            raise SpcError("empty mean state")
        return _rank_rows(query, self.dim, self._exposed, self._ids, counter)


def ncm_update(state: MeanState, vec, class_id: int) -> MeanState:
    """Fold one sample into the running per-class means."""
    return state.update(vec, class_id)
