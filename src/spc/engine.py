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
Each rule lives once, in SpcConfig.combine and SumConfig.combine, which
spc_rank and the stream evaluator (via Strategy.config) call. 1-NN is
w = 1; ncm_rank is the linear sum at w_s = 1 over an empty user store.

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
                   check_unit)


@dataclass(frozen=True)
class SpcConfig:
    """Weighted-max configuration. w = 1 degenerates to plain 1-NN."""

    w: float = 0.85

    def __post_init__(self):
        if not (0.0 < self.w <= 1.0):
            raise SpcError(f"w must be in (0, 1], got {self.w}")

    def combine(self, su: np.ndarray, sm: np.ndarray,
                has_protos: bool) -> np.ndarray:
        """Weighted-max scores; with no prototype set at all there is
        nothing to take the max against, so the scores are su itself."""
        if not has_protos:
            return su
        score = self.w * sm
        return np.maximum(su, score, out=score)


@dataclass(frozen=True)
class SumConfig:
    """Linear-combination configuration. w_s = 0 ignores the prototypes."""

    w_s: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.w_s <= 1.0):
            raise SpcError(f"w_s must be in [0, 1], got {self.w_s}")

    def combine(self, su: np.ndarray, sm: np.ndarray,
                has_protos: bool) -> np.ndarray:
        """The linear-sum scores (sm is 0 without prototypes)."""
        score = (1.0 - self.w_s) * su
        score += self.w_s * sm
        return score


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
    q = check_unit(query, dims.pop())
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


def spc_rank(query, store: UserStore | None, protos: PrototypeSet | None,
             cfg: SpcConfig | SumConfig,
             counter: DotCounter | None = None) -> Ranking:
    """Personalized ranking over C_u ∪ C_m: weighted max under a
    SpcConfig, linear sum under a SumConfig.

    The per-call score arrays are sized by the largest class id in the
    store and the prototype set. LabelRegistry ids are dense; a caller
    with sparse ids pays for the gaps (ids 0 and 2,000,000 take about
    20 ms and 38 MB per call)."""
    cand, s_user, s_proto, user_flags, has_protos = _gather_scores(
        query, store, protos, counter)
    return _sorted_ranking(cand, cfg.combine(s_user, s_proto, has_protos),
                           user_flags)


spc_sum_rank = spc_rank


def ncm_rank(query, protos: PrototypeSet,
             counter: DotCounter | None = None) -> Ranking:
    """Nearest-class-mean ranking over the prototype classes only: the
    linear sum at w_s = 1 over an empty user store."""
    if protos is None or len(protos) == 0:
        raise SpcError("empty prototype set")
    return spc_rank(query, None, protos, SumConfig(1.0), counter)


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
        v = check_unit(vec, self.dim)
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
        q = check_unit(query, self.dim)
        if counter is not None:
            counter.add(len(self._ids))
        return _sorted_ranking(self._ids, self._exposed @ q,
                               np.zeros(len(self._ids), dtype=bool))
