"""Seeded synthetic benchmark generator.

Produces, at desk scale, the structure the evaluation protocol needs:
a skewed per-user class-frequency distribution (Zipf over common classes
with a per-user rank permutation), user-private novel classes holding a
fixed probability mass, confusable groups of common classes whose
directions nearly coincide (inter-class similarity), per-(user, class)
modes displaced from the class direction (intra-class diversity), and
per-record noise around the mode.

All randomness flows from one seed, forked per purpose with labeled
sub-seeds, so adding one use of randomness cannot shift another.
Sampling on the sphere is Gaussian-perturb-then-renormalize.
SynthConfig.validate checks each integer field, seed included, with
core.check_int, and refuses NaN and infinity in the real-valued ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (LabeledRecord, LabelRegistry, SpcError, check_int,
                   normalize)

# sub-seed labels; order is part of the on-disk determinism contract
_SEED_DIRS = 1
_SEED_TRAIN = 2
_SEED_USER = 3


# integer field of SynthConfig -> its least value
_INT_LOWS = dict(dim=2, num_common_classes=1, users=1, records_per_user=1,
                 novel_classes_per_user=0, confusable_group_count=0,
                 group_size=2, train_records_per_class=1,
                 train_modes_per_class=1, seed=0)


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 64
    num_common_classes: int = 213
    users: int = 200
    records_per_user: int = 300
    zipf_exponent: float = 1.1
    novel_classes_per_user: int = 20
    novel_mass: float = 0.3
    sigma_user: float = 0.25
    sigma_sample: float = 0.5
    confusable_group_count: int = 40
    group_size: int = 3
    group_tightness: float = 0.08
    train_records_per_class: int = 20
    train_modes_per_class: int = 5
    seed: int = 42

    def validate(self) -> None:
        for name, low in _INT_LOWS.items():
            check_int(getattr(self, name), name, low)
        # written so that NaN fails too
        for name in ("zipf_exponent", "sigma_user", "sigma_sample",
                     "group_tightness"):
            if not 0 <= getattr(self, name) < np.inf:
                raise SpcError(f"{name} must be finite and >= 0, got "
                               f"{getattr(self, name)!r}")
        if not 0.0 <= self.novel_mass < 1.0:
            raise SpcError("novel_mass must be in [0, 1)")
        if self.confusable_group_count * self.group_size > self.num_common_classes:
            raise SpcError("confusable groups exceed the common class count")


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def _perturb(rng: np.random.Generator, base: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-perturb-then-renormalize around a unit base direction.

    The noise is scaled by 1/sqrt(dim) so sigma is the expected
    perturbation norm regardless of dimension: the angular spread a given
    sigma produces is dimension-independent.
    """
    if sigma == 0.0:
        return normalize(base)
    dim = len(base)
    return normalize(base + (sigma / np.sqrt(dim)) * rng.standard_normal(dim))


def _class_directions(cfg: SynthConfig):
    """Common class directions plus the confusable-group assignment."""
    rng = _rng(cfg.seed, _SEED_DIRS)
    dirs = np.empty((cfg.num_common_classes, cfg.dim), dtype=np.float32)
    groups: list[list[int]] = []
    idx = 0
    for _ in range(cfg.confusable_group_count):
        shared = normalize(rng.standard_normal(cfg.dim))
        group = []
        for _ in range(cfg.group_size):
            dirs[idx] = _perturb(rng, shared, cfg.group_tightness)
            group.append(idx)
            idx += 1
        groups.append(group)
    while idx < cfg.num_common_classes:
        dirs[idx] = normalize(rng.standard_normal(cfg.dim))
        idx += 1
    return dirs, groups


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def generate_synthetic(cfg: SynthConfig):
    """Build (train records, stream records, registry, manifest).

    Deterministic for a fixed config: the same cfg always yields the same
    records bit-for-bit.
    """
    cfg.validate()
    dirs, groups = _class_directions(cfg)
    registry = LabelRegistry()
    common_labels = [f"class{i:03d}" for i in range(cfg.num_common_classes)]
    common_ids = [registry.intern(s) for s in common_labels]

    # training corpus: per class, a few user-agnostic modes, samples around them
    train: list[LabeledRecord] = []
    rng_t = _rng(cfg.seed, _SEED_TRAIN)
    for ci in range(cfg.num_common_classes):
        modes = [_perturb(rng_t, dirs[ci], cfg.sigma_user)
                 for _ in range(cfg.train_modes_per_class)]
        for j in range(cfg.train_records_per_class):
            vec = _perturb(rng_t, modes[j % len(modes)], cfg.sigma_sample)
            train.append(LabeledRecord(user="train", t=j + 1,
                                       class_id=common_ids[ci], vec=vec))

    # per-user streams
    zipf = _zipf_weights(cfg.num_common_classes, cfg.zipf_exponent)
    streams: list[LabeledRecord] = []
    novel_by_user: dict[str, list[str]] = {}
    n_novel = cfg.novel_classes_per_user
    novel_mass = cfg.novel_mass if n_novel > 0 else 0.0
    for ui in range(cfg.users):
        user = f"user{ui:04d}"
        rng_u = _rng(cfg.seed, _SEED_USER, ui)
        perm = rng_u.permutation(cfg.num_common_classes)
        probs = np.empty(cfg.num_common_classes + n_novel)
        probs[perm] = zipf * (1.0 - novel_mass)
        if n_novel:
            probs[cfg.num_common_classes:] = novel_mass / n_novel
        novel_labels = [f"{user}_novel{j}" for j in range(n_novel)]
        novel_by_user[user] = novel_labels
        novel_ids = [registry.intern(s) for s in novel_labels]
        novel_dirs = [normalize(rng_u.standard_normal(cfg.dim))
                      for _ in range(n_novel)]

        modes: dict[int, np.ndarray] = {}
        choices = rng_u.choice(len(probs), size=cfg.records_per_user, p=probs)
        for t, pick in enumerate(choices, start=1):
            pick = int(pick)
            if pick < cfg.num_common_classes:
                cid, base = common_ids[pick], dirs[pick]
            else:
                j = pick - cfg.num_common_classes
                cid, base = novel_ids[j], novel_dirs[j]
            if cid not in modes:
                modes[cid] = _perturb(rng_u, base, cfg.sigma_user)
            vec = _perturb(rng_u, modes[cid], cfg.sigma_sample)
            streams.append(LabeledRecord(user=user, t=t, class_id=cid, vec=vec))

    manifest = {
        "config": asdict(cfg),
        "common_labels": common_labels,
        "confusable_groups": [[common_labels[i] for i in g] for g in groups],
        "novel_labels_by_user": novel_by_user,
    }
    return train, streams, registry, manifest
