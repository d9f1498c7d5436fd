"""Independent brute-force scorer used as the ranking oracle.

Iterates every stored (vector, class) pair and every prototype literally,
once per query, keeping each class's max dot, applies the weighting rule,
and sorts with the shared tie rule. Deliberately naive; kept independent
of the engine's vectorized path.
"""

from __future__ import annotations

import numpy as np


def _class_sims(q, pairs):
    """Literal per-class similarity: class -> max dot over the class's
    vectors, in one pass over the pairs; a class absent here scores 0."""
    best = {}
    for vec, c in pairs:
        d = float(np.dot(np.asarray(vec, dtype=np.float64), q))
        if c not in best or d > best[c]:
            best[c] = d
    return best


def brute_force_rank(query, user_pairs, proto_pairs, w=None, w_s=None):
    """Full ranking the slow way.

    user_pairs: list of (vector, class); proto_pairs: list of (class, vector).
    Exactly one of w (weighted max) or w_s (linear combination) is given.
    Returns a list of (class, score), best first.
    """
    assert (w is None) != (w_s is None)
    q = np.asarray(query, dtype=np.float64)
    protos = [(np.asarray(v, dtype=np.float64), c) for c, v in proto_pairs]
    user_classes = {c for _, c in user_pairs}
    candidates = user_classes | {c for _, c in protos}
    user_sims, proto_sims = _class_sims(q, user_pairs), _class_sims(q, protos)
    scored = []
    for c in sorted(candidates):
        su, sm = user_sims.get(c, 0.0), proto_sims.get(c, 0.0)
        if w is not None:
            # without any prototype set the score is the raw user similarity
            score = max(su, w * sm) if protos else su
        else:
            score = (1.0 - w_s) * su + w_s * sm
        scored.append((c, score))
    scored.sort(key=lambda cs: (-cs[1], cs[0] not in user_classes, cs[0]))
    return scored


def ranked_pairs(ranking):
    """An engine Ranking in the oracle's form: (class, score), best first."""
    return [(int(c), float(s))
            for c, s in zip(ranking.class_ids, ranking.scores)]
