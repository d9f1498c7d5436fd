"""Common-classifier construction: class selection by record count,
per-class mean prototypes and coverage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (LabeledRecord, PrototypeSet, SpcError, check_int,
                   normalize)


@dataclass(frozen=True)
class TrainIndex:
    """Per-class record counts over a training corpus."""

    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_records(cls, records: Iterable[LabeledRecord]) -> "TrainIndex":
        return cls(counts=dict(Counter(r.class_id for r in records)))


@dataclass(frozen=True)
class SubsetSpec:
    """Selection threshold plus optional equal-sampling cap per class."""

    min_records: int = 1
    per_class_cap: int | None = None

    def __post_init__(self):
        check_int(self.min_records, "min_records", 1)
        if self.per_class_cap is not None:
            check_int(self.per_class_cap, "per_class_cap", 1)


def select_classes(index: TrainIndex, spec: SubsetSpec) -> set[int]:
    """Classes whose training record count meets the threshold."""
    if not index.counts:
        raise SpcError("empty training index")
    return {c for c, n in index.counts.items() if n >= spec.min_records}


def coverage(subset: set[int], index: TrainIndex) -> float:
    """Fraction of all training records whose class is in the subset."""
    if index.total == 0:
        raise SpcError("training index has zero records")
    unknown = subset - set(index.counts)
    if unknown:
        raise SpcError(f"subset classes not in index: {sorted(unknown)[:5]}")
    return sum(index.counts[c] for c in subset) / index.total


def build_prototypes(records: Sequence[LabeledRecord], classes: set[int],
                     spec: SubsetSpec, seed: int = 0) -> PrototypeSet:
    """Per-class unit-renormalized mean of (optionally capped) members.

    Member embeddings are assumed unit-normalized already; the mean is
    renormalized afterward. When per_class_cap is set, each class samples
    its members from an independent per-class seeded generator, so adding
    or removing one class never perturbs another class's sample.
    """
    check_int(seed, "seed", 0)
    if not classes:
        raise SpcError("no classes selected")
    if not records:
        raise SpcError("no training records given")
    by_class: dict[int, list[np.ndarray]] = {c: [] for c in classes}
    for rec in records:
        if rec.class_id in by_class:
            by_class[rec.class_id].append(rec.vec)

    ids, vecs, counts = [], [], {}
    for c in sorted(classes):
        members = by_class[c]
        if not members:
            raise SpcError(f"class {c} has no training records")
        if spec.per_class_cap is not None and len(members) > spec.per_class_cap:
            rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
            pick = rng.choice(len(members), size=spec.per_class_cap,
                              replace=False)
            members = [members[i] for i in sorted(pick)]
        mean = np.mean(np.asarray(members, dtype=np.float64), axis=0)
        if np.linalg.norm(mean) == 0.0:
            raise SpcError(f"class {c}: member vectors cancel to a zero mean")
        ids.append(c)
        vecs.append(normalize(mean))
        counts[c] = len(members)
    return PrototypeSet(dim=len(records[0].vec), class_ids=ids,
                        vectors=np.stack(vecs), counts=counts)
