"""CLI subcommands, config files, and exit codes."""

import json

import pytest

from selflabel.cli import main
from selflabel.configio import build_pipeline_config, parse_kv_text
from selflabel.errors import ConfigError
from selflabel.pipeline import _derive_seed
from selflabel.synthdata import read_corpus

TINY_SYNTH = """
# desk-size corpus
synth.num_identities = 16
synth.groups_per_identity = 2
synth.segments_per_group = 4
synth.audio_dim = 6
synth.visual_dim = 6
synth.within_identity_spread = 3.0
synth.observation_noise = 0.3
synth.augmentation_noise_low = 0.4
synth.augmentation_noise_high = 0.9
synth.seed = 5
"""

TINY_PIPELINE = TINY_SYNTH + """
seed = 5
rounds = 1
fixed_k = 16
contrastive.epochs = 2
contrastive.batch_size = 16
contrastive.optimizer = adam
contrastive.learning_rate = 0.003
classifier.epochs = 4
classifier.batch_size = 16
classifier.learning_rate = 0.5
classifier.aug_low = 0.4
classifier.aug_high = 1.0
cluster.restarts = 2
cluster.sweep_restarts = 2
eval.cohort_size = 8
eval.top_n = 6
eval.target_trials = 20
eval.nontarget_trials = 20
"""

# Pipeline defaults everywhere the stage commands train: no contrastive.*
# key but the batch size, no classifier.aug_* key.
REPRO_SEED = 11
REPRO_PIPELINE = f"""
seed = {REPRO_SEED}
rounds = 1
fixed_k = 12
synth.num_identities = 12
synth.groups_per_identity = 2
synth.segments_per_group = 5
contrastive.batch_size = 16
cluster.restarts = 2
eval.cohort_size = 10
eval.top_n = 5
eval.target_trials = 20
eval.nontarget_trials = 20
"""


@pytest.fixture()
def corpus_dir(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(TINY_SYNTH)
    out = tmp_path / "corpus"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestConfigParsing:
    def test_scalars_lists_comments(self):
        parsed = parse_kv_text("a = 3\nb = 0.5\nc = true\nd = x,y\n# note\ne = text\n")
        assert parsed == {"a": 3, "b": 0.5, "c": True, "d": ("x", "y"), "e": "text"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("a = 1\na = 2\n")

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_pipeline_config({"not_a_key": 1}, tmp_path)

    def test_pipeline_config_from_mapping(self, tmp_path):
        mapping = parse_kv_text(TINY_PIPELINE)
        config = build_pipeline_config(mapping, tmp_path / "out", seed_override=9)
        assert config.seed == 9
        assert config.fixed_k == 16
        assert config.classifier.epochs == 4
        assert config.classifier_augmentation == (0.4, 1.0)
        assert config.synth.augmentation_noise_range == (0.4, 0.9)


class TestConfigValueErrors:
    """A value that does not convert is a ConfigError naming its key (exit
    code 2), never a traceback, and an integer key takes no fraction."""

    @pytest.mark.parametrize(
        "line, key",
        [
            ("rounds = abc", "rounds"),
            ("rounds = 2.5", "rounds"),
            ("fixed_k = 7.9", "fixed_k"),
            ("k_grid = 100,abc,300", "k_grid"),
            ("k_grid = 6,8", "k_grid"),
            ("use_group_consolidation = abc", "use_group_consolidation"),
            ("classifier.temperature = 0.2", "classifier.temperature"),
            ("classifier.denominator = simclr", "classifier.denominator"),
            ("contrastive.epsilon_smooth = 0.2", "contrastive.epsilon_smooth"),
            ("classifier.aug_prob = abc", "classifier.aug_prob"),
            ("classifier.aug_low = abc\nclassifier.aug_high = 1.0", "classifier.aug_low"),
        ],
    )
    def test_pipeline_exits_2(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_bad_aug_prob_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("classifier.aug_prob = abc\n")
        code = main([
            "train", "--config", str(cfg), "--corpus", str(tmp_path / "corpus"),
            "--modality", "audio", "--labels", str(tmp_path / "labels.tsv"),
            "--out", str(tmp_path / "enc"),
        ])
        assert code == 2
        assert "'classifier.aug_prob'" in capsys.readouterr().err

    def test_generate_bad_noise_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.augmentation_noise_low = 0.1\nsynth.augmentation_noise_high = x\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "'synth.augmentation_noise_high'" in capsys.readouterr().err

    def test_integral_values_still_convert(self, tmp_path):
        config = build_pipeline_config({"rounds": 2.0, "fixed_k": 7}, tmp_path)
        assert (config.rounds, config.fixed_k) == (2, 7)


class TestGenerate:
    def test_generate_writes_readable_corpus(self, corpus_dir):
        corpus = read_corpus(corpus_dir)
        assert len(corpus) == 16 * 2 * 4
        assert corpus.config.seed == 5

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.num_identities = 0\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestClusterAndMetrics:
    def test_cluster_then_metrics(self, corpus_dir, tmp_path):
        corpus = read_corpus(corpus_dir)
        assign_path = tmp_path / "assign.tsv"
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k", "16", "--restarts", "3",
            "--out", str(assign_path),
        ])
        assert code == 0 and assign_path.is_file()

        report_path = tmp_path / "report.json"
        code = main([
            "metrics",
            "--meta", str(corpus_dir / "meta.tsv"),
            "--audio", str(assign_path),
            "--out", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["nmi_audio"] <= 1.0
        assert report["eer"] is None

    def test_cluster_with_grid_and_curve(self, corpus_dir, tmp_path):
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k-grid", "4,8,12,16", "--restarts", "2",
            "--curve-out", str(tmp_path / "wss.tsv"),
            "--out", str(tmp_path / "assign.tsv"),
        ])
        assert code == 0
        assert (tmp_path / "wss.tsv").is_file()

        # a stored curve can drive the elbow directly
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--from-curve", str(tmp_path / "wss.tsv"), "--restarts", "2",
            "--out", str(tmp_path / "assign2.tsv"),
        ])
        assert code == 0
        assert (tmp_path / "assign2.tsv").is_file()

    def test_short_grid_exits_2_before_sweeping(self, corpus_dir, tmp_path, capsys):
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k-grid", "6,8", "--restarts", "2",
            "--curve-out", str(tmp_path / "wss.tsv"),
            "--out", str(tmp_path / "assign.tsv"),
        ])
        assert code == 2
        assert "at least 3 values" in capsys.readouterr().err
        assert not (tmp_path / "wss.tsv").exists()
        assert not (tmp_path / "assign.tsv").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--k-grid", "4,x,8"], "'--k-grid'"),
            (["--k", "4", "--workers", "0"], "workers"),
        ],
    )
    def test_bad_flag_value_exits_2(self, corpus_dir, tmp_path, capsys, flags, named):
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            *flags,
            "--out", str(tmp_path / "assign.tsv"),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "assign.tsv").exists()

    def test_missing_embedding_file_exits_3(self, corpus_dir, tmp_path, capsys):
        code = main([
            "cluster",
            "--embeddings", str(tmp_path / "nope.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k", "4",
            "--out", str(tmp_path / "assign.tsv"),
        ])
        assert code == 3


class TestScore:
    def test_score_and_fuse(self, corpus_dir, tmp_path):
        corpus = read_corpus(corpus_dir)
        trials_path = tmp_path / "trials.txt"
        ids = corpus.sample_ids
        trials_path.write_text(
            f"{ids[0]} {ids[1]} 1\n{ids[0]} {ids[40]} 0\n{ids[2]} {ids[3]} 1\n"
        )
        s1 = tmp_path / "s1.txt"
        code = main([
            "score", "--trials", str(trials_path),
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--out", str(s1),
        ])
        assert code == 0
        s2 = tmp_path / "s2.txt"
        code = main([
            "score", "--trials", str(trials_path),
            "--embeddings", str(corpus_dir / "visual.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--out", str(s2),
        ])
        assert code == 0
        fused = tmp_path / "fused.txt"
        code = main([
            "score", "--trials", str(trials_path),
            "--fuse", str(s1), str(s2), "--weights", "0.5,0.5",
            "--out", str(fused),
        ])
        assert code == 0
        rows = [ln.split() for ln in fused.read_text().splitlines()]
        assert len(rows) == 3

    def test_asnorm_via_cohort_file(self, corpus_dir, tmp_path):
        corpus = read_corpus(corpus_dir)
        ids = corpus.sample_ids
        trials_path = tmp_path / "trials.txt"
        trials_path.write_text(f"{ids[0]} {ids[1]} 1\n{ids[0]} {ids[50]} 0\n")
        cohort_path = tmp_path / "cohort.txt"
        cohort_path.write_text("\n".join(ids[100:110]) + "\n")
        out = tmp_path / "scores.txt"
        code = main([
            "score", "--trials", str(trials_path),
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--cohort", str(cohort_path), "--top-n", "5",
            "--out", str(out),
        ])
        assert code == 0 and out.is_file()

    def test_missing_cohort_file_exits_3(self, corpus_dir, tmp_path, capsys):
        ids = read_corpus(corpus_dir).sample_ids
        trials_path = tmp_path / "trials.txt"
        trials_path.write_text(f"{ids[0]} {ids[1]} 1\n{ids[0]} {ids[50]} 0\n")
        code = main([
            "score", "--trials", str(trials_path),
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--cohort", str(tmp_path / "missing.txt"),
            "--out", str(tmp_path / "scores.txt"),
        ])
        assert code == 3
        assert "error: cannot read cohort file" in capsys.readouterr().err


class TestTrainCommands:
    def test_pretrain_then_train_exit_codes(self, corpus_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TINY_PIPELINE)
        enc = tmp_path / "enc.enc"
        code = main([
            "pretrain", "--config", str(cfg), "--corpus", str(corpus_dir),
            "--modality", "audio", "--out", str(enc), "--seed", "3",
        ])
        assert code == 0 and enc.is_file()

        assign_path = tmp_path / "assign.tsv"
        main([
            "cluster", "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"), "--k", "8",
            "--out", str(assign_path),
        ])
        cls = tmp_path / "cls.enc"
        code = main([
            "train", "--config", str(cfg), "--corpus", str(corpus_dir),
            "--modality", "visual", "--labels", str(assign_path),
            "--out", str(cls), "--seed", "4",
        ])
        assert code == 0 and cls.is_file()

    def test_divergent_training_exits_4(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("classifier.learning_rate = 1e18\nclassifier.epochs = 20\nclassifier.batch_size = 16\n")
        assign_path = tmp_path / "assign.tsv"
        main([
            "cluster", "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"), "--k", "8",
            "--out", str(assign_path),
        ])
        code = main([
            "train", "--config", str(cfg), "--corpus", str(corpus_dir),
            "--modality", "audio", "--labels", str(assign_path),
            "--out", str(tmp_path / "x.enc"),
        ])
        assert code == 4


class TestStageCommandsReproducePipeline:
    """Under one config file, the stage commands train with the pipeline's
    settings, so at the pipeline's derived seeds they write its encoders."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("repro")
        (root / "repro.cfg").write_text(REPRO_PIPELINE)
        code = main(["pipeline", "--config", str(root / "repro.cfg"), "--out", str(root / "run")])
        assert code == 0
        return root

    def test_pretrain_writes_round0_encoder(self, run, tmp_path):
        out = tmp_path / "pretrain.enc"
        code = main([
            "pretrain", "--config", str(run / "repro.cfg"),
            "--corpus", str(run / "run" / "corpus"), "--modality", "audio",
            "--seed", str(_derive_seed(REPRO_SEED, 0, 1)), "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (run / "run" / "round_000" / "encoder_audio.enc").read_bytes()

    def test_train_writes_round1_encoder(self, run, tmp_path):
        out = tmp_path / "train.enc"
        code = main([
            "train", "--config", str(run / "repro.cfg"),
            "--corpus", str(run / "run" / "corpus"), "--modality", "audio",
            "--labels", str(run / "run" / "round_000" / "assign_audio.tsv"),
            "--num-classes", "12",
            "--seed", str(_derive_seed(REPRO_SEED, 1, 4)), "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (run / "run" / "round_001" / "encoder_audio.enc").read_bytes()


class TestFuseCommand:
    def test_fuse_writes_four_assignments(self, corpus_dir, tmp_path):
        out_dir = tmp_path / "fused"
        code = main([
            "fuse",
            "--audio-emb", str(corpus_dir / "audio.emb"),
            "--visual-emb", str(corpus_dir / "visual.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k", "8", "--restarts", "2",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        for name in ("fused", "audio", "visual", "joint"):
            assert (out_dir / f"assign_{name}.tsv").is_file()
        assert (out_dir / "fusion_report.json").is_file()


class TestPipelineCommand:
    def test_pipeline_and_report(self, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(TINY_PIPELINE)
        out = tmp_path / "run"
        code = main(["pipeline", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").is_file()

        report_path = tmp_path / "agg.json"
        code = main([
            "report", "--config", str(cfg), "--run", str(out), "--out", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["rounds"]) == 2
        assert report == json.loads((out / "report.json").read_text())
