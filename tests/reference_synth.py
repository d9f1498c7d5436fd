"""Reference synthetic generator, kept as the plain per-vector loop.

generate_synthetic draws a block of rows per call and scales each block's
rows to unit length together; this loop draws one vector per call and
scales it with core.normalize, and the two must agree bit for bit. It
shares the config, the seeding and the Zipf weights with the generator,
but none of its draw or norm arithmetic.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from spc import LabeledRecord, LabelRegistry, SynthConfig, normalize
from spc.synth import (_SEED_DIRS, _SEED_TRAIN, _SEED_USER, _overflow, _rng,
                       _zipf_weights)


def _perturb(rng: np.random.Generator, base: np.ndarray, cfg: SynthConfig,
             setting: str) -> np.ndarray:
    """Gaussian-perturb-then-renormalize around a unit base direction at
    sigma = cfg.<setting>, the noise scaled by 1/sqrt(dim); sigma 0 draws
    nothing."""
    sigma = getattr(cfg, setting)
    if sigma == 0.0:
        return normalize(base)
    dim = len(base)
    try:
        return normalize(
            base + (sigma / np.sqrt(dim)) * rng.standard_normal(dim))
    except FloatingPointError:
        raise _overflow(cfg, setting) from None


def _class_directions(cfg: SynthConfig):
    rng = _rng(cfg.seed, _SEED_DIRS)
    dirs = np.empty((cfg.num_common_classes, cfg.dim), dtype=np.float32)
    groups: list[list[int]] = []
    idx = 0
    for _ in range(cfg.confusable_group_count):
        shared = normalize(rng.standard_normal(cfg.dim))
        group = []
        for _ in range(cfg.group_size):
            dirs[idx] = _perturb(rng, shared, cfg, "group_tightness")
            group.append(idx)
            idx += 1
        groups.append(group)
    while idx < cfg.num_common_classes:
        dirs[idx] = normalize(rng.standard_normal(cfg.dim))
        idx += 1
    return dirs, groups


@np.errstate(over="raise")
def generate_synthetic(cfg: SynthConfig):
    """(train records, stream records, registry, manifest), one draw per
    vector."""
    cfg.validate()
    dirs, groups = _class_directions(cfg)
    registry = LabelRegistry()
    common_labels = [f"class{i:03d}" for i in range(cfg.num_common_classes)]
    common_ids = [registry.intern(s) for s in common_labels]

    train: list[LabeledRecord] = []
    rng_t = _rng(cfg.seed, _SEED_TRAIN)
    for ci in range(cfg.num_common_classes):
        modes = [_perturb(rng_t, dirs[ci], cfg, "sigma_user")
                 for _ in range(cfg.train_modes_per_class)]
        for j in range(cfg.train_records_per_class):
            vec = _perturb(rng_t, modes[j % len(modes)], cfg,
                           "sigma_sample")
            train.append(LabeledRecord(user="train", t=j + 1,
                                       class_id=common_ids[ci], vec=vec))

    try:
        zipf = _zipf_weights(cfg.num_common_classes, cfg.zipf_exponent)
    except FloatingPointError:
        raise _overflow(cfg, "zipf_exponent") from None
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
                modes[cid] = _perturb(rng_u, base, cfg, "sigma_user")
            vec = _perturb(rng_u, modes[cid], cfg, "sigma_sample")
            streams.append(LabeledRecord(user=user, t=t, class_id=cid, vec=vec))

    manifest = {
        "config": asdict(cfg),
        "common_labels": common_labels,
        "confusable_groups": [[common_labels[i] for i in g] for g in groups],
        "novel_labels_by_user": novel_by_user,
    }
    return train, streams, registry, manifest
