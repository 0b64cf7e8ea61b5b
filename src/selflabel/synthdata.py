"""Synthetic paired-modality corpus: generation and file I/O.

A corpus holds N = identities x groups x segments samples. Each sample is a
pair of feature vectors (audio-like and visual-like modality) generated as

    observation = identity prototype + group offset + observation noise

with prototypes drawn from a unit Gaussian independently per modality, group
offsets at a quarter of ``within_identity_spread`` and isotropic observation
noise. Identity labels and recording-group ids are carried for evaluation
only; nothing in the training path may read them.

On disk a corpus is a directory with ``meta.tsv`` (sample_id, group_id,
identity_gt), ``audio.emb`` and ``visual.emb``, and nothing else: how a
corpus was made, or how a network trains on it, is no part of it. An
embedding file is an EMB1 container (``_textio``): row count, dimension,
then the float32 rows in meta order. Features are float32 in memory so
file round-trips are bit-exact. Consumers widen them to float64 where
their math needs it, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._textio import read_columns, read_container, write_container, write_rows
from .errors import ConfigError, DataError

_EMB_MAGIC = b"EMB1"
_META_COLUMNS = ("sample_id", "group_id", "identity_gt")


@dataclass(frozen=True)
class SynthConfig:
    """Shape and noise parameters of the generated corpus."""

    num_identities: int = 200
    groups_per_identity: int = 3
    segments_per_group: int = 10
    audio_dim: int = 20
    visual_dim: int = 20
    within_identity_spread: float = 4.8
    observation_noise: float = 0.15
    seed: int = 1234

    def __post_init__(self):
        for name in ("num_identities", "groups_per_identity", "segments_per_group",
                     "audio_dim", "visual_dim"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.within_identity_spread < 0:
            raise ConfigError("within_identity_spread must be >= 0")
        if self.observation_noise < 0:
            raise ConfigError("observation_noise must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    @property
    def num_samples(self) -> int:
        return self.num_identities * self.groups_per_identity * self.segments_per_group


class MultiModalCorpus:
    """Ordered collection of paired-modality samples.

    Feature matrices are float32 and immutable; index = canonical sample
    ordinal.
    """

    def __init__(self, sample_ids, group_ids, identity_gt, audio, visual):
        self.sample_ids = list(sample_ids)
        self.group_ids = list(group_ids)
        # copies, so the caller's arrays stay writable when these are frozen
        self.identity_gt = np.array(identity_gt, dtype=np.int64)
        self.audio = np.array(audio, dtype=np.float32)
        self.visual = np.array(visual, dtype=np.float32)
        n = len(self.sample_ids)
        if len(set(self.sample_ids)) != n:
            raise DataError("sample ids are not unique")
        if not (len(self.group_ids) == len(self.identity_gt) == n):
            raise DataError("metadata columns disagree in length")
        if self.audio.shape[0] != n or self.visual.shape[0] != n:
            raise DataError("feature row count does not match metadata row count")
        if not np.all(np.isfinite(self.audio)) or not np.all(np.isfinite(self.visual)):
            raise DataError("corpus features contain non-finite entries")
        self.audio.setflags(write=False)
        self.visual.setflags(write=False)
        self.identity_gt.setflags(write=False)

    def __len__(self) -> int:
        return len(self.sample_ids)

    def features(self, modality: str) -> np.ndarray:
        """Feature matrix of one modality; carries no ground-truth columns."""
        if modality == "audio":
            return self.audio
        if modality == "visual":
            return self.visual
        raise ConfigError(f"unknown modality {modality!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiModalCorpus):
            return NotImplemented
        return (
            self.sample_ids == other.sample_ids
            and self.group_ids == other.group_ids
            and np.array_equal(self.identity_gt, other.identity_gt)
            and np.array_equal(self.audio, other.audio)
            and np.array_equal(self.visual, other.visual)
        )


def generate_corpus(config: SynthConfig) -> MultiModalCorpus:
    """Generate a corpus deterministically from ``config`` (seed included).

    Per identity one prototype per modality; per group one offset at
    spread/4; per segment isotropic observation noise. Modalities share only
    the identity index, never the subspace.
    """
    rng = np.random.default_rng(config.seed)
    ni, ng, ns = (
        config.num_identities,
        config.groups_per_identity,
        config.segments_per_group,
    )
    da, dv = config.audio_dim, config.visual_dim
    group_scale = config.within_identity_spread / 4.0

    proto_a = rng.standard_normal((ni, da))
    proto_v = rng.standard_normal((ni, dv))
    goff_a = rng.standard_normal((ni, ng, da)) * group_scale
    goff_v = rng.standard_normal((ni, ng, dv)) * group_scale
    noise_a = rng.standard_normal((ni, ng, ns, da)) * config.observation_noise
    noise_v = rng.standard_normal((ni, ng, ns, dv)) * config.observation_noise

    audio = proto_a[:, None, None, :] + goff_a[:, :, None, :] + noise_a
    visual = proto_v[:, None, None, :] + goff_v[:, :, None, :] + noise_v

    sample_ids = []
    group_ids = []
    identity_gt = np.empty(ni * ng * ns, dtype=np.int64)
    pos = 0
    for i in range(ni):
        for g in range(ng):
            gid = f"id{i:04d}_g{g:02d}"
            for s in range(ns):
                sample_ids.append(f"{gid}_s{s:02d}")
                group_ids.append(gid)
                identity_gt[pos] = i
                pos += 1

    return MultiModalCorpus(
        sample_ids=sample_ids,
        group_ids=group_ids,
        identity_gt=identity_gt,
        audio=audio.reshape(-1, da).astype(np.float32),
        visual=visual.reshape(-1, dv).astype(np.float32),
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_embeddings(path, array: np.ndarray) -> None:
    """Write a float matrix as an EMB1 container, in float32."""
    array = np.asarray(array)
    if array.ndim != 2:
        raise ConfigError("embedding array must be 2-dimensional")
    write_container(path, _EMB_MAGIC, array.shape, array)


def read_embeddings(path, rows: int) -> np.ndarray:
    """Read an EMB1 file back into a float32 matrix of ``rows`` rows, one
    per sample of the corpus it embeds."""
    shape, data = read_container(path, "embedding file", _EMB_MAGIC, 2, lambda s: s[0] * s[1])
    if shape[0] != rows:
        raise DataError(f"row count mismatch: {Path(path)} has {shape[0]} rows, "
                        f"the corpus has {rows}")
    return data.reshape(shape).copy()


def write_corpus(corpus: MultiModalCorpus, path) -> None:
    """Write a corpus directory: meta.tsv, audio.emb, visual.emb."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    columns = (corpus.sample_ids, corpus.group_ids, corpus.identity_gt.tolist())
    write_rows(path / "meta.tsv", "%s\t%s\t%d", columns, header="\t".join(_META_COLUMNS))
    write_embeddings(path / "audio.emb", corpus.audio)
    write_embeddings(path / "visual.emb", corpus.visual)


def read_meta(path) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a meta.tsv file into (sample_ids, group_ids, identity_gt)."""
    columns = read_columns(path, "metadata", (str, str, str), "\t")
    if tuple(column[0] for column in columns if column) != _META_COLUMNS:
        raise DataError(f"malformed header in {path}")
    sample_ids, group_ids, idents = (column[1:] for column in columns)
    identity_gt = []
    for ident in idents:
        try:
            identity_gt.append(int(ident))
        except ValueError as exc:
            raise DataError(f"non-integer identity in {path}: {ident!r}") from exc
    return sample_ids, group_ids, np.asarray(identity_gt, dtype=np.int64)


def read_corpus(path) -> MultiModalCorpus:
    """Read a corpus directory written by :func:`write_corpus`; any other
    file in it is ignored."""
    path = Path(path)
    sample_ids, group_ids, identity_gt = read_meta(path / "meta.tsv")
    return MultiModalCorpus(
        sample_ids=sample_ids,
        group_ids=group_ids,
        identity_gt=identity_gt,
        audio=read_embeddings(path / "audio.emb", len(sample_ids)),
        visual=read_embeddings(path / "visual.emb", len(sample_ids)),
    )


def randomize_ground_truth(corpus: MultiModalCorpus, seed: int) -> MultiModalCorpus:
    """Corpus copy with shuffled identity labels and group ids (audit helper)."""
    rng = np.random.default_rng(seed)
    n = len(corpus)
    new_gt = rng.integers(0, max(2, int(corpus.identity_gt.max()) + 1), size=n)
    perm = rng.permutation(n)
    new_groups = [corpus.group_ids[p] for p in perm]
    return MultiModalCorpus(
        sample_ids=corpus.sample_ids,
        group_ids=new_groups,
        identity_gt=new_gt,
        audio=corpus.audio,
        visual=corpus.visual,
    )
