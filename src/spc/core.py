"""Core domain types: label interning, unit embeddings, per-user vector stores.

Storage convention: embedding components are float32 values; all
accumulation (dot products, means) happens in float64. A UserStore keeps its
embeddings once, in float64 rows; a PrototypeSet keeps a float32 matrix and
its float64 copy.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

UNIT_NORM_TOL = 1e-6


class SpcError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(SpcError):
    pass


class NormalizationError(SpcError):
    pass


class LabelRegistry:
    """Bijective mapping between label strings and dense non-negative ids.

    Labels are compared byte-exact: no case folding, no Unicode
    normalization. Interning the same string twice yields the same id.
    """

    def __init__(self) -> None:
        self._id_of: dict[str, int] = {}
        self._label_of: list[str] = []

    def intern(self, label: str) -> int:
        if not isinstance(label, str) or label == "":
            raise SpcError(f"label must be a non-empty string, got {label!r}")
        existing = self._id_of.get(label)
        if existing is not None:
            return existing
        new_id = len(self._label_of)
        self._id_of[label] = new_id
        self._label_of.append(label)
        return new_id

    def resolve(self, class_id: int) -> str:
        if not 0 <= class_id < len(self._label_of):
            raise SpcError(f"class id {class_id} has no label")
        return self._label_of[class_id]


def check_int(value, name: str, low: int) -> int:
    """value as a Python int, once it is checked to be an integer (a numpy
    integer counts; 1.5 and True do not) from low to 2**63 - 1, the int64
    range."""
    if type(value) is int and low <= value < 2**63:
        return value
    try:
        i = operator.index(value)
    except TypeError:
        i = None
    if i is None or isinstance(value, bool) or not low <= i < 2**63:
        raise SpcError(f"{name} must be an integer from {low} to 2**63 - 1, "
                       f"got {value!r}")
    return i


def check_topk(k_list) -> tuple[int, ...]:
    """k_list as a tuple, once it is checked to be non-empty and distinct,
    each k an integer from 1 (check_int): a report's top-k columns."""
    ks = tuple(check_int(k, "top-k", 1) for k in k_list)
    if not ks or len(set(ks)) != len(ks):
        raise SpcError(f"top-k list must be distinct and non-empty, got {ks}")
    return ks


def normalize(raw) -> np.ndarray:
    """Scale a vector to unit L2 norm; returns a float32 array.

    Raises NormalizationError for the zero vector (no silent substitution).
    """
    v = np.asarray(raw, dtype=np.float64)
    if v.ndim != 1:
        raise NormalizationError("expected a 1-d vector")
    # the value of np.linalg.norm on a 1-d float64 array, at half the cost
    norm = math.sqrt(v.dot(v))
    if norm == 0.0 or not math.isfinite(norm):
        raise NormalizationError("cannot normalize zero or non-finite vector")
    return (v / norm).astype(np.float32)


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a float64 matrix. np.vecdot's float64
    loop calls the dot kernel a 1-d ndarray.dot calls, so each norm equals
    normalize's math.sqrt(v.dot(v)) of the row bit for bit, and a row
    scaled by its norm comes out the same alone or in a batch."""
    return np.sqrt(np.vecdot(matrix, matrix))


def check_unit(vec, dim: int | None = None) -> np.ndarray:
    """The vector as a float64 array, once it is checked to have shape
    (dim,), when dim is given, and unit norm within UNIT_NORM_TOL. A
    float64 array is checked in place, not copied."""
    v = np.asarray(vec, dtype=np.float64)
    if dim is not None and v.shape != (dim,):
        raise DimensionMismatchError(
            f"expected dim {dim}, got shape {v.shape}")
    norm = math.sqrt(v.dot(v))
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise NormalizationError(
            f"vector norm {norm!r} is not 1 within {UNIT_NORM_TOL}")
    return v


def non_unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices of the rows of a matrix whose float64 norm is not 1 within
    UNIT_NORM_TOL, NaN norms included."""
    # einsum forms no temporary of squares, nor a float64 copy
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
    return np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


def note_repeats(first: dict, matrix, start: int = 0,
                 before=()) -> tuple[list, list]:
    """Enter matrix's rows from row start on into first, which maps a
    vector's key to the first position holding it. Positions count the
    rows of before, entered already, then matrix's. Returns the positions
    that repeat an earlier vector and the positions they repeat.

    A vector's key is its first component, or, where a different vector
    holds that, the hash of its bytes in a 1-tuple; a hash that a different
    vector holds tries the next one. So first keeps no copy of a vector.
    Vectors are equal when their values are, as np.array_equal has it, so
    0.0 and -0.0 match: the bytes hashed are those of the row plus 0.0,
    which is 0.0 wherever the row holds -0.0."""
    n_before = len(before)
    pos, src = [], []
    for i in range(start, len(matrix)):
        p = n_before + i
        key = matrix.item(i, 0)
        while (j := first.setdefault(key, p)) != p:
            row = matrix[i]
            if np.array_equal(before[j] if j < n_before
                              else matrix[j - n_before], row):
                pos.append(p)
                src.append(j)
                break
            key = (key[0] + 1 if isinstance(key, tuple)
                   else hash((row + 0.0).tobytes()),)
    return pos, src


def repeated_rows(matrices) -> tuple[np.ndarray, np.ndarray]:
    """note_repeats over the rows of matrices, stacked in order, from an
    empty map, as two index arrays. Only rows whose first component
    another row shares are compared in full, and only those are copied."""
    keys = np.concatenate([m[:, 0] for m in matrices])
    order = keys.argsort()
    same = keys[order[1:]] == keys[order[:-1]]
    if not same.any():
        return order[:0], order[:0]
    shared = np.union1d(order[1:][same], order[:-1][same])
    starts = np.cumsum([0] + [len(m) for m in matrices])
    rows = [m[shared[(shared >= a) & (shared < b)] - a]
            for m, a, b in zip(matrices, starts, starts[1:])]
    pos, src = note_repeats({}, np.concatenate(rows))
    return shared[pos], shared[src]


def _misfit(vecs, dim: int, dtype) -> tuple[int, Exception | None]:
    """Where np.array(vecs, dtype) failed or came out misshapen: the first
    vector whose shape is not (dim,), with None, or else the first that
    does not convert to dtype (a string, or a ragged list), with the
    error it raised. Vectors that all have the shape and all convert
    stack, so one of the two is found."""
    for i, v in enumerate(vecs):
        try:
            if np.shape(v) != (dim,):
                return i, None
        except ValueError as e:  # a ragged list has no shape
            return i, e
    for i, v in enumerate(vecs):
        try:
            np.asarray(v, dtype)
        except (TypeError, ValueError) as e:
            return i, e


def stack_records(records, dim: int, dtype=np.float64) -> np.ndarray:
    """The records' vectors as one (len(records), dim) matrix of dtype,
    once every row is checked to be unit within UNIT_NORM_TOL. The error
    names the user and t of the first record that fails."""
    vecs = [rec.vec for rec in records]
    try:
        matrix = np.array(vecs or np.empty((0, dim)), dtype=dtype)
    except (TypeError, ValueError):  # ragged, or a value no number
        matrix = None
    if matrix is None or matrix.shape != (len(vecs), dim):
        i, error = _misfit(vecs, dim, dtype)
        where = f"record of user {records[i].user!r} at t={records[i].t}"
        if error is not None:
            raise SpcError(f"{where}: vector is not numeric: {error}")
        raise DimensionMismatchError(
            f"{where}: vector shape {np.shape(vecs[i])}, expected ({dim},)")
    bad = non_unit_rows(matrix)
    if len(bad):
        rec = records[bad[0]]
        raise NormalizationError(
            f"record of user {rec.user!r} at t={rec.t}: vector is not "
            f"unit-normalized within {UNIT_NORM_TOL}")
    return matrix


@dataclass(frozen=True)
class LabeledRecord:
    """One stream element: a user's t-th record with its true class."""

    user: str
    t: int
    class_id: int
    vec: np.ndarray

    def __post_init__(self):
        if not isinstance(self.user, str):
            raise SpcError(f"user must be a string, got {self.user!r}")
        check_int(self.t, "t", 1)
        check_int(self.class_id, "class id", 0)


class UserStore:
    """Append-only per-user store of (embedding, class) pairs.

    Single-writer; readers may observe any consistent prefix. Prior entries
    are never mutated or reordered. The embeddings are kept once, as float64
    rows holding float32 values, so ranking accumulates in 64-bit without
    per-call conversion.

    Each class has a dense slot, numbered by first arrival and assigned
    by append. The store keeps its last ranking's ClassLayout, which the
    next ranking extends, so calls that append to or rank one store must
    not overlap.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim = check_int(dim, "dim", 1)
        self._vecs = np.empty((32, dim))
        # each row's class slot; class id -> slot, in slot order
        self._slots = np.empty(32, dtype=np.intp)
        self._n = 0
        self._slot_of: dict[int, int] = {}
        self._layout: ClassLayout | None = None

    def append(self, vec: np.ndarray, class_id: int) -> None:
        v = np.asarray(vec, dtype=np.float32)
        n = self._n
        if v.shape == (self.dim,):
            if n == len(self._slots):
                # new arrays, so views handed out earlier keep their rows
                self._vecs = np.resize(self._vecs, (2 * n, self.dim))
                self._slots = np.resize(self._slots, 2 * n)
            # the float32 values go straight into the row past the end,
            # which is not visible until _n moves, and are checked there
            self._vecs[n] = v
            check_unit(self._vecs[n])
        else:
            check_unit(v, self.dim)  # raises: the shape is wrong
        class_id = check_int(class_id, "class id", 0)
        slot_of = self._slot_of
        self._slots[n] = slot_of.setdefault(class_id, len(slot_of))
        self._n = n + 1

    def __len__(self) -> int:
        return self._n

    @property
    def vectors64(self) -> np.ndarray:
        return self._vecs[: self._n]

    @property
    def classes(self) -> np.ndarray:
        ids = np.fromiter(self._slot_of, np.int64, len(self._slot_of))
        return ids[self.slots]

    @property
    def slots(self) -> np.ndarray:
        """Each row's class slot."""
        return self._slots[: self._n]

    def layout(self, protos: PrototypeSet) -> ClassLayout:
        """The class layout of this store against protos: the one of the
        last call while protos is the same object, extended by the
        classes and rows that arrived since."""
        layout = self._layout
        if layout is None or layout.protos() is not protos:
            layout = self._layout = ClassLayout(protos, self._slot_of)
        elif len(self._slot_of) > len(layout.slot_pos):
            layout.extend(protos, self._slot_of)
        if self._n > layout.n_rows:
            layout.add_rows(protos, self._vecs, self._n)
        return layout


class PrototypeSet:
    """One unit-normalized mean embedding per initial class (shared by users).

    `counts` maps a class id to how many training samples produced its
    prototype, where that is known; mean-update baselines need it for
    full-history seeding.
    `row_of` maps each class id to its row; `first_row` is note_repeats'
    map of the rows, and `repeats` the rows that repeat an earlier one and
    the rows they repeat, as two intp arrays that layouts share unwritten.
    """

    def __init__(self, dim: int, class_ids=(), vectors=None, counts=None) -> None:
        self.dim = dim = check_int(dim, "dim", 1)
        ids = np.array([check_int(c, "class id", 0) for c in class_ids],
                       dtype=np.int64)
        try:
            vecs = np.asarray(() if vectors is None else vectors, np.float32)
        except (TypeError, ValueError):  # as stack_records finds them
            i, error = _misfit(vectors, dim, np.float32)
            if error is not None:
                raise SpcError(f"prototype row {i} is not numeric: "
                               f"{error}") from None
            raise DimensionMismatchError(
                f"prototype vectors have shape ({len(vectors)}, ?), expected "
                f"{(len(ids), dim)}: row {i} has shape "
                f"{np.shape(vectors[i])}") from None
        # no vectors at all (None, or a header-only file's []) fit no ids
        if vecs.shape != (len(ids), dim) and (vecs.size or len(ids)):
            raise DimensionMismatchError(
                f"prototype vectors have shape {vecs.shape}, expected "
                f"{(len(ids), dim)}")
        vecs = vecs.reshape(len(ids), dim)
        self.row_of = {c: r for r, c in enumerate(ids.tolist())}
        if len(self.row_of) != len(ids):
            raise SpcError("duplicate class id in prototype set")
        counts = {check_int(c, "class id", 0):
                  check_int(k, "prototype count", 1)
                  for c, k in (counts or {}).items()}
        matrix64 = vecs.astype(np.float64)
        bad = non_unit_rows(matrix64)
        if len(bad):
            raise NormalizationError(
                f"prototype row {bad[0]} (class {ids[bad[0]]}) is not "
                f"unit-normalized within {UNIT_NORM_TOL}")
        self.class_ids = ids
        self.matrix = vecs
        self.matrix64 = matrix64
        self.first_row: dict[object, int] = {}
        pos, src = note_repeats(self.first_row, matrix64)
        self.repeats = (np.array(pos, np.intp), np.array(src, np.intp))
        self.counts: dict[int, int] = counts

    def __len__(self) -> int:
        return len(self.class_ids)


@functools.cache
def empty_prototypes(dim: int) -> PrototypeSet:
    """The empty prototype set of dim, one shared object per dim, so a
    store ranked without prototypes keeps its layout across calls."""
    return PrototypeSet(dim)


class ClassLayout:
    """The class union of one user store and one prototype set (the empty
    one, without prototypes), laid out for ranking: the prototype classes
    first, in row order, then the store-only classes in the order they
    arrived.

      ids        the class id at each union position;
      slot_pos   the union position of each store slot;
      tie_order  the union positions from last to first under the tie
                 rule (classes in the store first, then the smaller id):
                 a stable ascending sort in this order, read backwards;
      tie_ids    ids[tie_order].

    Each vector also has a position: the prototype rows first, then the
    store's rows. dup_pos holds the positions whose vector repeats one at
    an earlier position, dup_src those earlier positions: a matrix product
    may round one vector's dot differently by its row, and equal vectors
    must tie.

    protos weakly refers to the set, so no layout keeps it alive. A layout
    only grows: extend lays out the classes new since it last ran, and
    add_rows the rows, so each costs layout work once.
    """

    def __init__(self, protos: PrototypeSet, slot_of=()) -> None:
        self.protos = weakref.ref(protos)
        self.ids = protos.class_ids
        self.slot_pos = np.empty(0, dtype=np.intp)
        self.extend(protos, slot_of)
        self.dup_pos, self.dup_src = protos.repeats
        self._first = dict(protos.first_row)
        self.n_rows = 0

    def add_rows(self, protos: PrototypeSet, vectors, n: int) -> None:
        """Note which of a store's rows vectors[:n] past those already
        noted repeat an earlier vector."""
        start, self.n_rows = self.n_rows, n
        p = len(protos) + start
        # the usual call: one new row, whose first component is new
        if n == start + 1 and self._first.setdefault(
                vectors.item(start, 0), p) == p:
            return
        pos, src = note_repeats(self._first, vectors[:n], start,
                                protos.matrix64)
        if pos:
            self.dup_pos = np.concatenate((self.dup_pos, pos))
            self.dup_src = np.concatenate((self.dup_src, src))

    def extend(self, protos: PrototypeSet, slot_of) -> None:
        """Lay out a store's classes (the class ids of its slots, in slot
        order) past the slots already laid out, and order the ties."""
        new_ids, pos = [], []
        for c in list(slot_of)[len(self.slot_pos):]:
            row = protos.row_of.get(c)
            if row is None:
                row = len(self.ids) + len(new_ids)
                new_ids.append(c)
            pos.append(row)
        self.slot_pos = np.concatenate(
            (self.slot_pos, np.array(pos, dtype=np.intp)))
        self.ids = np.concatenate((self.ids, np.array(new_ids, np.int64)))
        not_user = np.ones(len(self.ids), dtype=bool)
        not_user[self.slot_pos] = False
        self.tie_order = np.lexsort((self.ids, not_user))[::-1].copy()
        self.tie_ids = self.ids[self.tie_order]
