"""Core domain types: label interning, unit embeddings, per-user vector stores.

Storage convention: embedding components are float32 values; all
accumulation (dot products, means) happens in float64. A UserStore keeps its
embeddings once, in float64 rows; a PrototypeSet keeps a float32 matrix and
its float64 copy.
"""

from __future__ import annotations

import math
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
            raise SpcError("label must be a non-empty string")
        existing = self._id_of.get(label)
        if existing is not None:
            return existing
        new_id = len(self._label_of)
        self._id_of[label] = new_id
        self._label_of.append(label)
        return new_id

    def resolve(self, class_id: int) -> str:
        return self._label_of[class_id]

    def __len__(self) -> int:
        return len(self._label_of)

    def __contains__(self, label: str) -> bool:
        return label in self._id_of

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._label_of)


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


def check_unit(vec: np.ndarray, tol: float = UNIT_NORM_TOL) -> None:
    v = np.asarray(vec, dtype=np.float64)
    norm = math.sqrt(v.dot(v))
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= tol:
        raise NormalizationError(f"vector norm {norm!r} is not 1 within {tol}")


def non_unit_rows(matrix: np.ndarray,
                  tol: float = UNIT_NORM_TOL) -> np.ndarray:
    """Indices of the rows of a float64 matrix whose norm is not 1 within
    tol, NaN norms included."""
    # einsum forms no temporary of squares
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    return np.flatnonzero(~(np.abs(norms - 1.0) <= tol))


@dataclass(frozen=True)
class LabeledRecord:
    """One stream element: a user's t-th record with its true class."""

    user: str
    t: int
    class_id: int
    vec: np.ndarray

    def __post_init__(self):
        if self.t < 1:
            raise SpcError(f"record index t must be >= 1, got {self.t}")


class UserStore:
    """Append-only per-user store of (embedding, class) pairs.

    Single-writer; readers may observe any consistent prefix. Prior entries
    are never mutated or reordered. The embeddings are kept once, as float64
    rows holding float32 values, so ranking accumulates in 64-bit without
    per-call conversion.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise SpcError("dim must be positive")
        self.dim = dim
        self._vecs = np.empty((32, dim))
        self._classes = np.empty(32, dtype=np.int64)
        self._n = 0
        self.class_set: set[int] = set()

    def append(self, vec: np.ndarray, class_id: int) -> None:
        v = np.asarray(vec, dtype=np.float32)
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected dim {self.dim}, got shape {v.shape}")
        if self._n == len(self._classes):
            # new arrays, so views handed out earlier keep their rows
            self._vecs = np.resize(self._vecs, (2 * self._n, self.dim))
            self._classes = np.resize(self._classes, 2 * self._n)
        # the row past the end is not visible until _n moves
        row = self._vecs[self._n]
        row[:] = v
        check_unit(row)
        self._classes[self._n] = class_id
        self._n += 1
        self.class_set.add(int(class_id))

    def __len__(self) -> int:
        return self._n

    @property
    def vectors(self) -> np.ndarray:
        """float32 copy of the stored embeddings, in insertion order."""
        return self._vecs[: self._n].astype(np.float32)

    @property
    def vectors64(self) -> np.ndarray:
        return self._vecs[: self._n]

    @property
    def classes(self) -> np.ndarray:
        return self._classes[: self._n]


class PrototypeSet:
    """One unit-normalized mean embedding per initial class (shared by users).

    `counts` optionally records how many training samples produced each
    prototype; mean-update baselines need it for full-history seeding.
    """

    def __init__(self, dim: int, class_ids=(), vectors=None, counts=None) -> None:
        if dim < 1:
            raise SpcError("dim must be positive")
        self.dim = dim
        ids = np.asarray(list(class_ids), dtype=np.int64)
        if vectors is None:
            vectors = np.empty((0, dim), dtype=np.float32)
        vecs = np.asarray(vectors, dtype=np.float32).reshape(len(ids), dim)
        if len(set(ids.tolist())) != len(ids):
            raise SpcError("duplicate class id in prototype set")
        matrix64 = vecs.astype(np.float64)
        bad = non_unit_rows(matrix64)
        if len(bad):
            raise NormalizationError(
                f"prototype row {bad[0]} (class {ids[bad[0]]}) is not "
                f"unit-normalized within {UNIT_NORM_TOL}")
        self.class_ids = ids
        self.matrix = vecs
        self.matrix64 = matrix64
        self.class_set: set[int] = set(int(c) for c in ids)
        self.counts: dict[int, int] | None = (
            {int(k): int(v) for k, v in counts.items()} if counts else None)

    def __len__(self) -> int:
        return len(self.class_ids)
