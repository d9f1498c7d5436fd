"""Reference per-call ranking, kept as the id-indexed scorer that
`spc_rank` used before class layouts.

Its per-class arrays are indexed by class id, sized by the largest id in
the store and the prototype set, and rebuilt on every call. It makes the
same two matrix products as `spc_rank`, and gives each repeated vector the
dot of its first row (prototype rows first, then the store's), so the two
must return the same Ranking bit for bit.
"""

from __future__ import annotations

import numpy as np

from spc import DimensionMismatchError, Ranking, SpcError
from spc.core import check_unit


def _first_row_dots(rows, dots, first):
    """dots with each row that repeats a vector in first (bytes -> dot)
    given that dot; new vectors are entered with their own. Rows are
    equal by value: the bytes are the row's plus 0.0, so -0.0 is 0.0."""
    return np.array([first.setdefault((row + 0.0).tobytes(), d)
                     for row, d in zip(rows, dots.tolist())])


def _gather_scores(query, store, protos):
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

    first = {}
    sm = np.zeros(size)
    in_proto = np.zeros(size, dtype=bool)
    if n_proto:
        sm[protos.class_ids] = _first_row_dots(
            protos.matrix64, protos.matrix64 @ q, first)
        in_proto[protos.class_ids] = True
    # every dot is finite (unit vectors are checked), so -inf marks the
    # classes with no user vector
    su = np.full(size, -np.inf)
    if n_user:
        np.maximum.at(su, store.classes, _first_row_dots(
            store.vectors64, store.vectors64 @ q, first))
    in_user = su > -np.inf
    su[~in_user] = 0.0

    cand = np.flatnonzero(in_user | in_proto)
    return cand, su[cand], sm[cand], in_user[cand], n_proto > 0


def id_indexed_rank(query, store, protos, cfg) -> Ranking:
    """spc_rank's Ranking, scored over class-id-indexed arrays."""
    cand, s_user, s_proto, user_flags, has_protos = _gather_scores(
        query, store, protos)
    scores = cfg.combine(s_user, s_proto, has_protos)
    order = np.lexsort((cand, ~user_flags, -scores))
    return Ranking(class_ids=cand[order], scores=scores[order])
