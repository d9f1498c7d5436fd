"""Reference replay of the mean baselines, kept as the plain per-step loop.

The whole-stream evaluator replays ncm-fixed and ncm-incr from a matrix of
mean versions; this loop ranks each record through the per-call engine
(`ncm_rank`, `MeanState.rank`) and then updates the means, and the two must
agree record by record.
"""

from __future__ import annotations

import numpy as np

from spc import MeanState, SpcError, ncm_rank
from spc.stream import MISS


def reference_mean_replay(records, protos, strategy, counter=None):
    """Rank positions (MISS where the class is not ranked) and predictions
    of a mean baseline, step by step."""
    if protos is None or len(protos) == 0:
        raise SpcError(f"strategy {strategy.kind} needs a non-empty "
                       "prototype set")
    means = (MeanState.from_prototypes(protos, strategy.mean_mode)
             if strategy.kind == "ncm-incr" else None)
    positions, predicted = [], []
    for rec in records:
        ranking = (ncm_rank(rec.vec, protos, counter) if means is None
                   else means.rank(rec.vec, counter))
        pos = np.flatnonzero(ranking.class_ids == rec.class_id)
        positions.append(int(pos[0]) if len(pos) else MISS)
        predicted.append(ranking.top1())
        if means is not None and strategy.learn:
            means.update(rec.vec, rec.class_id)
    return positions, predicted
