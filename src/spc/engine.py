"""Classification kernel: class similarity, weighted-max and linear-sum
ranking over a user store plus common prototypes.

Scoring rules
-------------
Per class c over C = C_u ∪ C_m:

    weighted-max : score(c) = max( s(c, q, V_u), w * s(c, q, V_m) )
    linear-sum   : score(c) = (1 - w_s) * s(c, q, V_u) + w_s * s(c, q, V_m)

where s(c, q, V) is the maximum dot product between q and the stored
vectors of class c, and exactly 0 when V holds no vector of class c.
Each rule lives once, in SpcConfig.combine and SumConfig.combine, which
spc_rank and the stream evaluator (via Strategy.config) call. 1-NN is
w = 1; nearest class mean is the linear sum at w_s = 1 over the empty user
store, and user-only 1-NN (1-NN*) is w = 1 over the empty prototype set.
spc_rank puts the empty one in place of a missing (None) store or set.

Tie rule (rankings are fully deterministic): score descending, then
classes present in the user store before prototype-only classes, then
smaller class id. Score comparisons are exact on the float64 accumulated
values; no epsilon is applied in ordering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (DimensionMismatchError, PrototypeSet, SpcError,
                   UserStore, check_unit, empty_prototypes)


@dataclass(frozen=True)
class SpcConfig:
    """Weighted-max configuration. w = 1 degenerates to plain 1-NN."""

    w: float = 0.85

    def __post_init__(self):
        if not (0.0 < self.w <= 1.0):
            raise SpcError(f"w must be in (0, 1], got {self.w}")

    def combine(self, su: np.ndarray, sm: np.ndarray,
                has_protos: bool) -> np.ndarray:
        """Weighted-max scores; over the empty prototype set there is
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


@dataclass
class DotCounter:
    """Instrumentation: dot products spent per ranking call."""

    total: int = 0
    per_call: list = field(default_factory=list)

    def add(self, n: int) -> None:
        self.total += n
        self.per_call.append(n)


@functools.cache
def _empty_store(dim: int) -> UserStore:
    """spc_rank's store when none is given, one per dim, kept across calls
    with its layout; it is never handed out, so nothing appends to it, and
    its layout holds the last set ranked only weakly, so keeps none alive."""
    return UserStore(dim)


def spc_rank(query, store: UserStore | None, protos: PrototypeSet | None,
             cfg: SpcConfig | SumConfig,
             counter: DotCounter | None = None) -> Ranking:
    """Personalized ranking over C_u ∪ C_m: weighted max under a
    SpcConfig, linear sum under a SumConfig.

    Scores live in the store's ClassLayout against protos, so every array
    is sized by the number of classes, not by the largest id: the
    prototype product fills the first positions, each store slot's max
    dot goes to its union position, and one stable sort in the layout's
    tie order ranks them."""
    if store is None and protos is None:
        raise SpcError("nothing to predict: no user store and no prototypes")
    if store is None:
        store = _empty_store(protos.dim)
    elif protos is None:
        protos = empty_prototypes(store.dim)
    elif store.dim != protos.dim:
        raise DimensionMismatchError("store/prototype dimension mismatch")
    q = check_unit(query, store.dim)
    n_user, n_proto = len(store), len(protos)
    if n_user == 0 and n_proto == 0:
        raise SpcError("nothing to predict: empty class union")
    if counter is not None:
        counter.add(n_user + n_proto)

    layout = store.layout(protos)
    du = store.vectors64 @ q
    dm = protos.matrix64 @ q
    if len(layout.dup_pos):
        # a repeated vector takes the dot of its first position, the
        # prototype rows first, so equal vectors tie
        dots = np.concatenate((dm, du))
        dots[layout.dup_pos] = dots[layout.dup_src]
        dm, du = dots[:n_proto], dots[n_proto:]
    # every dot is finite (unit vectors are checked), and every slot holds
    # a vector, so no -inf is left
    best = np.full(len(layout.slot_pos), -np.inf)
    np.maximum.at(best, store.slots, du)
    n = len(layout.ids)
    su, sm = np.zeros(n), np.zeros(n)
    su[layout.slot_pos] = best
    sm[:n_proto] = dm
    score = cfg.combine(su, sm, n_proto > 0)
    score = score[layout.tie_order]
    order = score.argsort(kind="stable")[::-1]
    return Ranking(class_ids=layout.tie_ids[order], scores=score[order])


def register(store: UserStore, vec, class_id: int) -> UserStore:
    """Append one (embedding, class) pair to the user store."""
    store.append(vec, class_id)
    return store

