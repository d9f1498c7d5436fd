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
Sampling on the sphere is Gaussian-perturb-then-renormalize, a block of
rows per draw: the class directions in two draws (each confusable group's
shared direction then its members, then the other classes), one draw per
training class (its modes, then its samples), one per user for its novel
directions, and one per SYNTH_BLOCK stream records, laid out record by
record as a newly seen class's mode row, then the record's sample row. A
sigma of 0 draws no rows. standard_normal((k, dim)) gives the values of k
calls of standard_normal(dim), the arithmetic is elementwise and every row
is scaled by its own norm (core.row_norms), so the output is bit for bit
that of one draw per vector.

SynthConfig.validate checks each integer field, seed included, with
core.check_int, and refuses NaN and infinity in the real-valued ones. A
finite real setting so large that a draw overflows is refused too, naming
the setting: the Zipf weights are formed under np.errstate(over="raise"),
and a drawn row that overflowed has a norm that is not finite. Of a
block's faults, the one raised is the one the one-draw-per-vector loop
would meet first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (LabeledRecord, LabelRegistry, NormalizationError,
                   SpcError, check_int, row_norms)

# sub-seed labels; order is part of the on-disk determinism contract
_SEED_DIRS = 1
_SEED_TRAIN = 2
_SEED_USER = 3

# stream records per draw: a draw holds at most twice as many rows
SYNTH_BLOCK = 128


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


def _overflow(cfg: SynthConfig, setting: str) -> SpcError:
    return SpcError(f"{setting} is so large that a draw overflows, got "
                    f"{getattr(cfg, setting)!r}")


def _unit_rows(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Scale each row of a float64 matrix m to unit length in place, as
    core.normalize scales one vector (see core.row_norms), and write the
    rows to out in float32; returns the norms."""
    norms = row_norms(m)
    m /= norms[:, None]
    out[...] = m
    return norms


def _perturb(base: np.ndarray, noise, cfg: SynthConfig, setting: str,
             out: np.ndarray):
    """Gaussian-perturb-then-renormalize each row of base, a float32 matrix
    of unit directions, by the same row of noise at the noise level sigma =
    cfg.<setting>, and write the rows to out; noise is None where sigma is
    0, which draws nothing, and is overwritten otherwise.

    The noise is scaled by 1/sqrt(dim) so sigma is the expected
    perturbation norm regardless of dimension: the angular spread a given
    sigma produces is dimension-independent.

    Returns the first fault, as (row, error), or None: a row whose draw
    overflowed has an infinite or NaN norm, and one that cancelled to zero
    a zero norm.
    """
    with np.errstate(all="ignore"):  # the norms tell each row's fault
        if noise is None:
            m = base.astype(np.float64)
        else:
            sigma = getattr(cfg, setting)
            m = np.multiply(noise, sigma / np.sqrt(base.shape[1]), out=noise)
            m += base
        norms = _unit_rows(m, out)
    bad = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if not len(bad):
        return None
    if norms[bad[0]] == 0.0:
        return bad[0], NormalizationError(
            "cannot normalize zero or non-finite vector")
    return bad[0], _overflow(cfg, setting)


def _class_directions(cfg: SynthConfig):
    """Common class directions plus the confusable-group assignment: one
    draw holds each group's shared direction, then one row per member (none
    at group_tightness 0); a second draw the directions of the rest."""
    rng = _rng(cfg.seed, _SEED_DIRS)
    G, S, dim = cfg.confusable_group_count, cfg.group_size, cfg.dim
    dirs = np.empty((cfg.num_common_classes, dim), dtype=np.float32)
    draw = rng.standard_normal((G, 1 + S * (cfg.group_tightness > 0), dim))
    shared = np.empty((G, dim), dtype=np.float32)
    _unit_rows(draw[:, 0], shared)
    fault = _perturb(
        np.repeat(shared, S, axis=0),
        draw[:, 1:].reshape(G * S, dim) if cfg.group_tightness else None,
        cfg, "group_tightness", dirs[:G * S])
    if fault:
        raise fault[1]
    _unit_rows(rng.standard_normal((len(dirs) - G * S, dim)), dirs[G * S:])
    return dirs, np.arange(G * S).reshape(G, S).tolist()


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def _stream_block(rng, cfg: SynthConfig, modes: np.ndarray,
                  picks: np.ndarray, new: np.ndarray, out: np.ndarray):
    """Write to out the vectors of a block of a user's stream records, one
    per pick (a row of modes); new marks the picks whose class is new to
    the stream. One draw holds, record by record, a new class's mode row
    and then the record's sample row; the modes, formed first, go into
    modes. Of the faults, the one whose row comes first in the draw is
    raised."""
    draws_u, draws_s = int(cfg.sigma_user > 0), int(cfg.sigma_sample > 0)
    per = new * draws_u + draws_s        # rows each record draws
    first = np.cumsum(per) - per         # each record's first row
    draw = rng.standard_normal((int(per.sum()), cfg.dim))
    new_at = np.flatnonzero(new)
    formed = np.empty((len(new_at), cfg.dim), dtype=np.float32)
    fault_u = _perturb(modes[picks[new_at]],
                       draw[first[new_at]] if draws_u else None, cfg,
                       "sigma_user", formed)
    modes[picks[new_at]] = formed
    fault_s = _perturb(modes[picks],
                       draw[first + new * draws_u] if draws_s else None, cfg,
                       "sigma_sample", out)
    # a new class's mode row comes before its record's sample row
    if fault_u and not (fault_s and fault_s[0] < new_at[fault_u[0]]):
        raise fault_u[1]
    if fault_s:
        raise fault_s[1]


@np.errstate(over="raise")
def generate_synthetic(cfg: SynthConfig):
    """Build (train records, stream records, registry, manifest).

    Deterministic for a fixed config: the same cfg always yields the same
    records bit-for-bit. The vectors of the training corpus, and of each
    user's stream, are the rows of one float32 matrix.
    """
    cfg.validate()
    dirs, groups = _class_directions(cfg)
    registry = LabelRegistry()
    common_labels = [f"class{i:03d}" for i in range(cfg.num_common_classes)]
    common_ids = [registry.intern(s) for s in common_labels]

    # training corpus: per class, a few user-agnostic modes, samples around
    # them; one draw per class holds the mode rows, then the sample rows
    rng_t = _rng(cfg.seed, _SEED_TRAIN)
    M, R, dim = cfg.train_modes_per_class, cfg.train_records_per_class, cfg.dim
    n_u = M if cfg.sigma_user else 0
    n_s = R if cfg.sigma_sample else 0
    modes = np.empty((M, dim), dtype=np.float32)
    vecs = np.empty((len(dirs) * R, dim), dtype=np.float32)
    for ci in range(len(dirs)):
        draw = rng_t.standard_normal((n_u + n_s, dim))
        fault = (_perturb(np.broadcast_to(dirs[ci], modes.shape),
                          draw[:n_u] if n_u else None, cfg, "sigma_user",
                          modes)
                 or _perturb(modes[np.arange(R) % M],
                             draw[n_u:] if n_s else None, cfg,
                             "sigma_sample", vecs[ci * R:(ci + 1) * R]))
        if fault:
            raise fault[1]
    train = [LabeledRecord(user="train", t=j % R + 1,
                           class_id=common_ids[j // R], vec=vec)
             for j, vec in enumerate(vecs)]

    # per-user streams
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
        # each class's direction until its first record forms its mode
        modes = np.empty((len(probs), dim), dtype=np.float32)
        modes[:len(dirs)] = dirs
        _unit_rows(rng_u.standard_normal((n_novel, dim)), modes[len(dirs):])
        choices = rng_u.choice(len(probs), size=cfg.records_per_user, p=probs)
        new = np.zeros(len(choices), dtype=bool)
        new[np.unique(choices, return_index=True)[1]] = True
        vecs = np.empty((len(choices), dim), dtype=np.float32)
        for start in range(0, len(choices), SYNTH_BLOCK):
            block = slice(start, start + SYNTH_BLOCK)
            _stream_block(rng_u, cfg, modes, choices[block], new[block],
                          vecs[block])
        class_of = common_ids + novel_ids
        streams += [LabeledRecord(user=user, t=t, class_id=class_of[pick],
                                  vec=vec)
                    for t, (pick, vec) in enumerate(
                        zip(choices.tolist(), vecs), 1)]

    manifest = {
        "config": asdict(cfg),
        "common_labels": common_labels,
        "confusable_groups": [[common_labels[i] for i in g] for g in groups],
        "novel_labels_by_user": novel_by_user,
    }
    return train, streams, registry, manifest
