"""Corpus generation and corpus file round-trips."""

import numpy as np
import pytest

from selflabel.configio import build_pipeline_config
from selflabel.encoder import ContrastiveConfig
from selflabel.errors import ConfigError, DataError
from selflabel.synthdata import (
    MultiModalCorpus,
    SynthConfig,
    generate_corpus,
    randomize_ground_truth,
    read_corpus,
    read_embeddings,
    write_corpus,
    write_embeddings,
)


def small_config(**overrides):
    base = dict(
        num_identities=12,
        groups_per_identity=2,
        segments_per_group=4,
        audio_dim=6,
        visual_dim=5,
        within_identity_spread=1.0,
        observation_noise=0.2,
        seed=77,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthConfig:
    def test_zero_counts_rejected(self):
        with pytest.raises(ConfigError):
            small_config(num_identities=0)
        with pytest.raises(ConfigError):
            small_config(audio_dim=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            small_config(observation_noise=-0.1)

    def test_inverted_augmentation_range_rejected(self):
        # the noise range is a contrastive setting: the corpus settings refuse
        # its old keys, and the loop's settings check the range itself
        with pytest.raises(ConfigError, match="unknown config key"):
            build_pipeline_config(
                {"synth.augmentation_noise_low": 0.5, "synth.augmentation_noise_high": 0.1}, "."
            ).synth
        with pytest.raises(ConfigError, match="augmentation range"):
            ContrastiveConfig(aug_low=0.5, aug_high=0.1)


class TestGenerateCorpus:
    def test_single_sample_corpus(self):
        cfg = small_config(num_identities=1, groups_per_identity=1, segments_per_group=1)
        corpus = generate_corpus(cfg)
        assert len(corpus) == 1
        assert corpus.identity_gt[0] == 0

    def test_sample_count_and_balance(self):
        corpus = generate_corpus(small_config())
        assert len(corpus) == 12 * 2 * 4
        counts = np.bincount(corpus.identity_gt)
        assert np.all(counts == 8)

    def test_determinism_bitwise(self):
        a = generate_corpus(small_config())
        b = generate_corpus(small_config())
        assert a == b

    def test_different_seed_differs(self):
        a = generate_corpus(small_config())
        b = generate_corpus(small_config(seed=78))
        assert not np.array_equal(a.audio, b.audio)

    def test_within_identity_distance_below_between(self):
        # oracle: exhaustive pairwise distances over the generated corpus
        cfg = SynthConfig(
            num_identities=200,
            groups_per_identity=3,
            segments_per_group=10,
            audio_dim=20,
            visual_dim=20,
            within_identity_spread=0.3,
            observation_noise=0.1,
            seed=11,
        )
        corpus = generate_corpus(cfg)
        x = corpus.audio.astype(np.float64)
        sq = (x * x).sum(axis=1)
        d2 = sq[:, None] - 2.0 * (x @ x.T) + sq[None, :]
        dist = np.sqrt(np.maximum(d2, 0.0))
        same = corpus.identity_gt[:, None] == corpus.identity_gt[None, :]
        off_diag = ~np.eye(len(corpus), dtype=bool)
        within = dist[same & off_diag].mean()
        between = dist[~same].mean()
        assert within < between

    def test_group_ids_nest_inside_identities(self):
        corpus = generate_corpus(small_config())
        seen = {}
        for group_id, identity in zip(corpus.group_ids, corpus.identity_gt):
            seen.setdefault(group_id, set()).add(int(identity))
        assert all(len(v) == 1 for v in seen.values())

    def test_unknown_modality_rejected(self):
        corpus = generate_corpus(small_config())
        with pytest.raises(ConfigError):
            corpus.features("haptic")

    def test_callers_arrays_stay_writable(self):
        # already of the stored dtypes, so a view would share their memory
        identity = np.array([0, 1], dtype=np.int64)
        audio, visual = np.zeros((2, 2), np.float32), np.ones((2, 3), np.float32)
        corpus = MultiModalCorpus(["x", "y"], ["g", "h"], identity, audio, visual)
        for caller, stored in ((identity, corpus.identity_gt), (audio, corpus.audio),
                               (visual, corpus.visual)):
            assert caller.flags.writeable
            assert not stored.flags.writeable
            caller[0] = 7
            assert not np.any(stored[0] == 7)


class TestCorpusFiles:
    def test_round_trip_field_by_field(self, tmp_path):
        corpus = generate_corpus(small_config())
        write_corpus(corpus, tmp_path / "corpus")
        again = read_corpus(tmp_path / "corpus")
        assert again == corpus

    def test_directory_is_meta_and_two_embedding_files(self, tmp_path):
        corpus = generate_corpus(small_config())
        write_corpus(corpus, tmp_path / "corpus")
        names = sorted(p.name for p in (tmp_path / "corpus").iterdir())
        assert names == ["audio.emb", "meta.tsv", "visual.emb"]
        # the config.json sidecar of older versions is ignored, even torn
        (tmp_path / "corpus" / "config.json").write_text("{not json")
        assert read_corpus(tmp_path / "corpus") == corpus

    def test_embedding_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((17, 4)).astype(np.float32)
        write_embeddings(tmp_path / "x.emb", arr)
        back = read_embeddings(tmp_path / "x.emb", 17)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_truncated_payload_names_file(self, tmp_path):
        corpus = generate_corpus(small_config())
        write_corpus(corpus, tmp_path / "corpus")
        target = tmp_path / "corpus" / "audio.emb"
        blob = target.read_bytes()
        target.write_bytes(blob[:-7])
        with pytest.raises(DataError, match=r"truncated payload.*audio\.emb"):
            read_corpus(tmp_path / "corpus")

    def test_malformed_magic_rejected(self, tmp_path):
        corpus = generate_corpus(small_config())
        write_corpus(corpus, tmp_path / "corpus")
        target = tmp_path / "corpus" / "visual.emb"
        blob = bytearray(target.read_bytes())
        blob[:4] = b"NOPE"
        target.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="malformed header"):
            read_corpus(tmp_path / "corpus")

    def test_row_count_mismatch_rejected(self, tmp_path):
        corpus = generate_corpus(small_config())
        write_corpus(corpus, tmp_path / "corpus")
        meta = tmp_path / "corpus" / "meta.tsv"
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="row count mismatch"):
            read_corpus(tmp_path / "corpus")

    def test_duplicate_sample_ids_rejected(self):
        with pytest.raises(DataError, match="unique"):
            MultiModalCorpus(
                sample_ids=["a", "a"],
                group_ids=["g", "g"],
                identity_gt=[0, 0],
                audio=np.zeros((2, 3)),
                visual=np.zeros((2, 3)),
            )


class TestGroundTruthRandomization:
    def test_features_untouched(self):
        corpus = generate_corpus(small_config())
        shuffled = randomize_ground_truth(corpus, seed=3)
        np.testing.assert_array_equal(shuffled.audio, corpus.audio)
        np.testing.assert_array_equal(shuffled.visual, corpus.visual)
        assert shuffled.sample_ids == corpus.sample_ids
        assert not np.array_equal(shuffled.identity_gt, corpus.identity_gt)
