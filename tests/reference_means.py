"""Reference replay of the mean baselines, kept as the plain per-step loop.

The whole-stream evaluator replays ncm-fixed and ncm-incr from a matrix of
mean versions; this loop ranks each record through a per-call classifier
(`ncm_rank`, `RunningMeans.rank`) and then updates the means, and the two
must agree record by record. RunningMeans seeds its means itself, one
class at a time, and shares only `unit_means` with the evaluator.
"""

from __future__ import annotations

import numpy as np

from spc import (DotCounter, PrototypeSet, Ranking, SpcError, SumConfig,
                 spc_rank)
from spc.core import check_unit
from spc.stream import MISS, unit_means

from .reference_rank import _first_row_dots


def ncm_rank(query, protos: PrototypeSet,
             counter: DotCounter | None = None) -> Ranking:
    """Nearest-class-mean ranking over the prototype classes only: the
    linear sum at w_s = 1 over an empty user store."""
    if protos is None or len(protos) == 0:
        raise SpcError("empty prototype set")
    return spc_rank(query, None, protos, SumConfig(1.0), counter)


class RunningMeans:
    """Per-class running means, updated and ranked one record at a time.

    The accumulator stays raw in float64; the exposed prototype is
    normalize(accumulator / count), renormalized at read time only. The
    exposed prototypes are one matrix with a row per class in class-id
    order. A new class inserts its row in place rather than appending it:
    a matrix product's rounding depends on each row's position, and id
    order keeps every score independent of the order classes arrived in.
    Equal means take the dot of the first of them, so they tie exactly.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._acc: dict[int, np.ndarray] = {}
        self._count: dict[int, int] = {}
        self._ids = np.empty(0, dtype=np.int64)
        self._exposed = np.empty((0, dim))

    @classmethod
    def from_prototypes(cls, protos: PrototypeSet,
                        mode: str) -> "RunningMeans":
        """Means seeded from the prototypes: each class's accumulator is
        its prototype times its count, the training count under
        full-history and 1 under mean-as-one."""
        state = cls(protos.dim)
        state._ids = np.sort(protos.class_ids)
        for c in state._ids.tolist():
            if mode == "mean-as-one":
                state._count[c] = 1
            elif protos.counts is not None and c in protos.counts:
                state._count[c] = protos.counts[c]
            else:
                raise SpcError(
                    "full-history seeding needs per-class training counts")
            state._acc[c] = (protos.matrix64[protos.row_of[c]]
                             * state._count[c])
        if len(state._ids):
            state._exposed = unit_means(np.stack(list(state._acc.values())),
                                        list(state._count.values()),
                                        state._ids)
        return state

    def _row(self, class_id: int) -> int:
        return int(np.searchsorted(self._ids, class_id))

    def update(self, vec, class_id: int) -> "RunningMeans":
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
        # equal means take one dot, that of the first such row
        scores = _first_row_dots(self._exposed, self._exposed @ q, {})
        order = np.lexsort((self._ids, -scores))
        return Ranking(class_ids=self._ids[order], scores=scores[order])


def reference_mean_replay(records, protos, strategy, counter=None):
    """Rank positions (MISS where the class is not ranked) and predictions
    of a mean baseline, step by step."""
    if protos is None or len(protos) == 0:
        raise SpcError(f"strategy {strategy.kind} needs a non-empty "
                       "prototype set")
    means = (RunningMeans.from_prototypes(protos, strategy.mean_mode)
             if strategy.kind == "ncm-incr" else None)
    positions, predicted = [], []
    for rec in records:
        ranking = (ncm_rank(rec.vec, protos, counter) if means is None
                   else means.rank(rec.vec, counter))
        pos = np.flatnonzero(ranking.class_ids == rec.class_id)
        positions.append(int(pos[0]) if len(pos) else MISS)
        predicted.append(int(ranking.class_ids[0]))
        if means is not None and strategy.learn:
            means.update(rec.vec, rec.class_id)
    return positions, predicted
