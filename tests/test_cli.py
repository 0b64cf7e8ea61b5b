"""CLI subcommands, config files, and exit codes."""

import dataclasses
import json
from pathlib import Path

import pytest

import numpy as np

from selflabel import configio, ensemble
from selflabel.cli import main
from selflabel.clustering import ClusterSettings, kmeans, sweep_k, write_assignment, write_wss_curve
from selflabel.configio import build_pipeline_config, parse_kv_text
from selflabel.errors import ConfigError
from selflabel.metrics import DcfParams, verification_metrics
from selflabel.pipeline import _derive_seed
from selflabel.scoring import (
    Cohort,
    as_norm,
    cosine_score,
    read_scores,
    read_trials,
    rows_of,
    write_scores,
)
from selflabel.synthdata import generate_corpus, read_corpus, write_embeddings

def strict_json(text):
    """Parse JSON as the standard has it: no NaN, Infinity or -Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def config_file(tmp_path, text):
    """A ``--config`` argument: a file holding ``text``."""
    path = tmp_path / "stage.cfg"
    path.write_text(text)
    return str(path)


TINY_SYNTH = """
# desk-size corpus
synth.num_identities = 16
synth.groups_per_identity = 2
synth.segments_per_group = 4
synth.audio_dim = 6
synth.visual_dim = 6
synth.within_identity_spread = 3.0
synth.observation_noise = 0.3
synth.seed = 5
"""

TINY_PIPELINE = TINY_SYNTH + """
seed = 5
rounds = 1
fixed_k = 16
contrastive.epochs = 2
contrastive.batch_size = 16
contrastive.learning_rate = 0.003
contrastive.aug_low = 0.4
contrastive.aug_high = 0.9
classifier.epochs = 4
classifier.batch_size = 16
classifier.learning_rate = 0.5
classifier.aug_low = 0.4
classifier.aug_high = 1.0
cluster.restarts = 2
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

    def test_config_surface_is_pinned(self, tmp_path):
        # a change that adds or removes a setting edits this list
        surface = [
            "seed", "rounds", "corpus", "k_grid", "fixed_k",
            "synth.num_identities", "synth.groups_per_identity", "synth.segments_per_group",
            "synth.audio_dim", "synth.visual_dim", "synth.within_identity_spread",
            "synth.observation_noise", "synth.seed",
            "contrastive.batch_size", "contrastive.learning_rate", "contrastive.epochs",
            "contrastive.hidden_dim", "contrastive.embed_dim", "contrastive.aug_low",
            "contrastive.aug_high", "contrastive.temperature",
            "classifier.batch_size", "classifier.learning_rate", "classifier.epochs",
            "classifier.hidden_dim", "classifier.embed_dim", "classifier.aug_low",
            "classifier.aug_high", "classifier.epsilon_smooth", "classifier.aug_prob",
            "cluster.restarts",
            "eval.cohort_size", "eval.top_n", "eval.target_trials", "eval.nontarget_trials",
            "dcf.p_target", "dcf.c_miss", "dcf.c_fa",
        ]
        accepted = list(configio._TOP_LEVEL_KEYS) + [
            f"{section}.{field.name}"
            for section, cls in configio._SECTIONS.items()
            for field in dataclasses.fields(cls)
        ]
        assert accepted == surface
        # an empty value keeps the default, so each key is accepted as a key
        default = build_pipeline_config({}, tmp_path)
        for key in surface:
            assert build_pipeline_config({key: None}, tmp_path) == default, key

    def test_pipeline_config_from_mapping(self, tmp_path):
        mapping = parse_kv_text(TINY_PIPELINE)
        config = build_pipeline_config(mapping, tmp_path / "out", seed_override=9)
        assert config.seed == 9
        assert config.fixed_k == 16
        assert config.classifier.epochs == 4
        assert (config.classifier.aug_low, config.classifier.aug_high) == (0.4, 1.0)
        assert (config.contrastive.aug_low, config.contrastive.aug_high) == (0.4, 0.9)


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
            # removed keys: the noise range is a contrastive setting, the
            # pipeline derives each loop's seed from ``seed``, and each loop
            # runs one optimizer
            ("synth.augmentation_noise_low = 0.4", "synth.augmentation_noise_low"),
            ("synth.augmentation_noise_high = 0.9", "synth.augmentation_noise_high"),
            ("contrastive.seed = 3", "contrastive.seed"),
            ("classifier.seed = 3", "classifier.seed"),
            ("contrastive.optimizer = adam", "contrastive.optimizer"),
            ("classifier.optimizer = sgd", "classifier.optimizer"),
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
        # the noise range is no corpus setting: its old keys are unknown
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.augmentation_noise_low = 0.1\nsynth.augmentation_noise_high = 0.5\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "unknown config key 'synth.augmentation_noise_low'" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_integral_values_still_convert(self, tmp_path):
        config = build_pipeline_config({"rounds": 2.0, "fixed_k": 7}, tmp_path)
        assert (config.rounds, config.fixed_k) == (2, 7)

    def test_empty_value_keeps_the_default_everywhere(self, tmp_path):
        # one rule for top-level and section keys: empty or ``none`` is unset
        text = "rounds =\nclassifier.epochs =\ncontrastive.temperature = none\neval.top_n =\n"
        config = build_pipeline_config(parse_kv_text(text), tmp_path)
        assert config == build_pipeline_config({}, tmp_path)
        with pytest.raises(ConfigError, match="'classifier.foo'"):
            build_pipeline_config(parse_kv_text("classifier.foo =\n"), tmp_path)

    @pytest.mark.parametrize(
        "section", ["synth", "contrastive", "classifier", "cluster", "eval", "dcf"]
    )
    def test_every_field_is_a_key(self, tmp_path, capsys, section):
        """``section.field = <default>`` builds the default config, and a
        numeric field takes no word, nor an integer field a fraction, nor a
        number field a non-finite value, which every range check lets by."""
        run = tmp_path / "run"
        default = build_pipeline_config({}, run)
        settings = getattr(default, section)
        for field in dataclasses.fields(settings):
            value = getattr(settings, field.name)
            keys = (f"{section}.{field.name}",)
            good = {keys[0]: value}
            text = "".join(f"{k} = {v}\n" for k, v in good.items())
            assert build_pipeline_config(parse_kv_text(text), run) == default, text
            if isinstance(value, str):
                continue
            bad_values = ["abc", "2.5"] if isinstance(value, int) else ["abc", "nan", "inf"]
            for key in keys:
                for bad in bad_values:
                    cfg = tmp_path / "bad.cfg"
                    cfg.write_text("".join(
                        f"{k} = {bad if k == key else v}\n" for k, v in good.items()
                    ))
                    code = main(["pipeline", "--config", str(cfg), "--out", str(run)])
                    assert code == 2, (key, bad)
                    assert repr(key) in capsys.readouterr().err, (key, bad)
                    assert not run.exists()


class TestGenerate:
    def test_generate_writes_readable_corpus(self, corpus_dir):
        corpus = read_corpus(corpus_dir)
        assert len(corpus) == 16 * 2 * 4
        synth = build_pipeline_config(parse_kv_text(TINY_SYNTH), ".").synth
        assert corpus == generate_corpus(synth)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.num_identities = 0\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("nonsense = 1", "nonsense"),
        ("classifier.epochs = abc", "classifier.epochs"),
        ("fixed_k = 2.5", "fixed_k"),
    ])
    def test_every_key_is_checked(self, tmp_path, capsys, line, key):
        # the file is read as ``selflabel pipeline`` reads it, not its
        # synth.* keys alone
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_SYNTH + line + "\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_pipeline_file_and_seed_flag(self, tmp_path):
        # a whole pipeline file generates the corpus of its synth.* keys,
        # and --seed replaces synth.seed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_PIPELINE)
        synth = build_pipeline_config(parse_kv_text(TINY_SYNTH), tmp_path).synth
        for seed_args, seed in (([], synth.seed), (["--seed", "9"], 9)):
            out = tmp_path / f"c{seed}"
            assert main(["generate", "--config", str(cfg), *seed_args, "--out", str(out)]) == 0
            assert read_corpus(out) == generate_corpus(dataclasses.replace(synth, seed=seed))


class TestClusterAndMetrics:
    def test_cluster_then_metrics(self, corpus_dir, tmp_path):
        corpus = read_corpus(corpus_dir)
        assign_path = tmp_path / "assign.tsv"
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k", "16", "--config", config_file(tmp_path, "cluster.restarts = 3\n"),
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

    def test_reject_all_threshold_is_strict_json_null(self, corpus_dir, tmp_path, capsys):
        # rejecting every trial is optimal here; its threshold is infinite
        trials = tmp_path / "trials.txt"
        trials.write_text("a b 1\nc d 1\ne f 0\ng h 0\n")
        scores = tmp_path / "scores.txt"
        scores.write_text("a b 0.1\nc d 0.2\ne f 0.9\ng h 0.3\n")
        out = tmp_path / "report.json"
        code = main([
            "metrics", "--meta", str(corpus_dir / "meta.tsv"),
            "--trials", str(trials), "--scores", str(scores), "--out", str(out),
        ])
        assert code == 0
        for text in (capsys.readouterr().out, out.read_text()):
            report = strict_json(text)
            assert report["min_dcf"] == 1.0
            assert report["threshold"] is None

    def test_cluster_with_grid_and_curve(self, corpus_dir, tmp_path):
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k-grid", "4,8,12,16", "--config", config_file(tmp_path, "cluster.restarts = 2\n"),
            "--curve-out", str(tmp_path / "wss.tsv"),
            "--out", str(tmp_path / "assign.tsv"),
        ])
        assert code == 0
        # the sweep runs stage 1's restart count, not cluster.restarts
        x = read_corpus(corpus_dir).audio.astype(np.float64)
        write_wss_curve(tmp_path / "want.tsv", sweep_k(x, [4, 8, 12, 16], seed=0))
        write_wss_curve(tmp_path / "best_of_2.tsv", sweep_k(x, [4, 8, 12, 16], 2, seed=0))
        curve = (tmp_path / "wss.tsv").read_bytes()
        assert curve == (tmp_path / "want.tsv").read_bytes()
        assert curve != (tmp_path / "best_of_2.tsv").read_bytes()

        # a stored curve can drive the elbow directly
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--from-curve", str(tmp_path / "wss.tsv"), "--config", str(tmp_path / "stage.cfg"),
            "--out", str(tmp_path / "assign2.tsv"),
        ])
        assert code == 0
        assert (tmp_path / "assign2.tsv").is_file()

    def test_short_grid_exits_2_before_sweeping(self, corpus_dir, tmp_path, capsys):
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k-grid", "6,8", "--config", config_file(tmp_path, "cluster.restarts = 2\n"),
            "--curve-out", str(tmp_path / "wss.tsv"),
            "--out", str(tmp_path / "assign.tsv"),
        ])
        assert code == 2
        assert "at least 3 values" in capsys.readouterr().err
        assert not (tmp_path / "wss.tsv").exists()
        assert not (tmp_path / "assign.tsv").exists()

    @pytest.mark.parametrize(
        "flags, config, named",
        [
            pytest.param(["--k-grid", "4,x,8"], "", "'--k-grid'", id="flags0-'--k-grid'"),
            # a config that sets the process count fails loudly instead of
            # being ignored
            pytest.param(["--k", "4"], "cluster.workers = 2\n",
                         "unknown config key 'cluster.workers'", id="flags1-workers"),
            # the sweep's restart count and the iteration cap are constants
            pytest.param(["--k", "4"], "cluster.sweep_restarts = 2\n",
                         "unknown config key 'cluster.sweep_restarts'", id="sweep_restarts"),
            pytest.param(["--k", "4"], "cluster.max_iters = 50\n",
                         "unknown config key 'cluster.max_iters'", id="max_iters"),
        ],
    )
    def test_bad_flag_value_exits_2(self, corpus_dir, tmp_path, capsys, flags, config, named):
        code = main([
            "cluster",
            "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            *flags, "--config", config_file(tmp_path, config),
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


class TestFilesThatDisagreeWithMeta:
    """A file whose rows do not pair with ``meta.tsv``, or that holds a value
    its reader rejects, is a data error (exit 3) naming the file, raised by
    the file's reader; nothing is written."""

    def test_metrics_checks_ids_not_only_row_count(self, corpus_dir, tmp_path, capsys):
        corpus = read_corpus(corpus_dir)
        rows = [f"{sid}\t{int(label)}" for sid, label in zip(corpus.sample_ids, corpus.identity_gt)]
        exact, reordered = tmp_path / "exact.tsv", tmp_path / "reordered.tsv"
        exact.write_text("\n".join(rows) + "\n")
        reordered.write_text("\n".join(rows[::-1]) + "\n")
        argv = ["metrics", "--meta", str(corpus_dir / "meta.tsv"), "--audio"]
        assert main(argv + [str(exact)]) == 0
        assert strict_json(capsys.readouterr().out)["nmi_audio"] == pytest.approx(1.0)
        out = tmp_path / "report.json"
        assert main(argv + [str(reordered), "--out", str(out)]) == 3
        assert "does not cover the corpus sample ids in order" in capsys.readouterr().err
        assert not out.exists()

    def test_row_count_and_id_order_exit_3(self, corpus_dir, tmp_path, capsys):
        meta = str(corpus_dir / "meta.tsv")
        ids = read_corpus(corpus_dir).sample_ids
        short = tmp_path / "short.emb"
        write_embeddings(short, read_corpus(corpus_dir).audio[:-1])
        (tmp_path / "trials.txt").write_text(f"{ids[0]} {ids[1]} 1\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{sid}\t{i % 4}\n" for i, sid in enumerate(ids[::-1])))
        out = tmp_path / "out"
        for argv, named in (
            (["cluster", "--embeddings", str(short), "--meta", meta, "--k", "4", "--out"],
             "row count mismatch"),
            (["fuse", "--audio-emb", str(short), "--visual-emb", str(short), "--meta", meta,
              "--k", "4", "--out-dir"], "row count mismatch"),
            (["score", "--trials", str(tmp_path / "trials.txt"), "--embeddings", str(short),
              "--meta", meta, "--out"], "row count mismatch"),
            (["train", "--corpus", str(corpus_dir), "--modality", "audio",
              "--labels", str(labels), "--out"], "does not cover the corpus sample ids in order"),
        ):
            assert main(argv + [str(out)]) == 3, argv[0]
            assert named in capsys.readouterr().err
            assert not out.exists()


    def test_rejected_values_exit_3(self, corpus_dir, tmp_path, capsys):
        meta = str(corpus_dir / "meta.tsv")
        ids = read_corpus(corpus_dir).sample_ids
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{sid}\t{-1 if i == 3 else i % 4}\n" for i, sid in enumerate(ids)))
        curve, nan_curve = tmp_path / "wss.tsv", tmp_path / "nan_wss.tsv"
        curve.write_text("4\t9.0\n8\t4.0\n6\t2.0\n")
        nan_curve.write_text("4\t9.0\n6\tnan\n8\t2.0\n")
        trials, scores = tmp_path / "trials.txt", tmp_path / "scores.txt"
        trials.write_text(f"{ids[0]} {ids[1]} 1\n{ids[0]} {ids[40]} 0\n")
        scores.write_text(f"{ids[0]} {ids[1]} 0.5\n{ids[0]} {ids[40]} nan\n")
        out = tmp_path / "out"
        for argv, named in (
            (["metrics", "--meta", meta, "--audio", str(labels), "--out"],
             f"{labels}: label -1 of sample {ids[3]} lies outside [0, 4)"),
            (["cluster", "--embeddings", str(corpus_dir / "audio.emb"), "--meta", meta,
              "--from-curve", str(curve), "--out"],
             f"curve file {curve}: ks must be strictly ascending"),
            (["cluster", "--embeddings", str(corpus_dir / "audio.emb"), "--meta", meta,
              "--from-curve", str(nan_curve), "--out"],
             f"curve file {nan_curve}: wss values must be finite and nonnegative"),
            (["metrics", "--meta", meta, "--trials", str(trials), "--scores", str(scores),
              "--out"], f"score row 1 of {scores} is not finite: nan"),
        ):
            assert main(argv + [str(out)]) == 3, argv
            assert f"error: {named}" in capsys.readouterr().err
            assert not out.exists()


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

    @pytest.mark.parametrize(
        "weights, named", [("0.5,x", "'--weights'"), ("0.5,nan", "weights must be finite")]
    )
    def test_bad_weights_exit_2(self, tmp_path, capsys, weights, named):
        trials_path = tmp_path / "trials.txt"
        trials_path.write_text("a b 1\nc d 0\n")
        scores = tmp_path / "s.txt"
        scores.write_text("a b 0.1\nc d 0.2\n")
        out = tmp_path / "fused.txt"
        code = main([
            "score", "--trials", str(trials_path),
            "--fuse", str(scores), str(scores), "--weights", weights,
            "--out", str(out),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

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
            "--cohort", str(cohort_path), "--config", config_file(tmp_path, "eval.top_n = 5\n"),
            "--out", str(out),
        ])
        assert code == 0 and out.is_file()
        # eval.top_n, not the cohort size, is the normalization's top-N
        z = corpus.audio.astype(np.float64)
        cohort = Cohort(z[rows_of(ids[100:110], ids, "cohort")])
        raw = cosine_score(read_trials(trials_path, ids), z)
        write_scores(tmp_path / "want.txt", as_norm(raw, z, cohort, top_n=5))
        assert out.read_bytes() == (tmp_path / "want.txt").read_bytes()
        write_scores(tmp_path / "all.txt", as_norm(raw, z, cohort, top_n=10))
        assert out.read_bytes() != (tmp_path / "all.txt").read_bytes()

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

    def test_cohort_smaller_than_top_n_exits_2_before_the_embeddings(
        self, corpus_dir, tmp_path, capsys
    ):
        ids = read_corpus(corpus_dir).sample_ids
        trials_path = tmp_path / "trials.txt"
        trials_path.write_text(f"{ids[0]} {ids[1]} 1\n{ids[0]} {ids[50]} 0\n")
        cohort_path = tmp_path / "cohort.txt"
        cohort_path.write_text("\n".join(ids[100:110]) + "\n")
        code = main([
            "score", "--trials", str(trials_path),
            "--embeddings", str(tmp_path / "missing.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--cohort", str(cohort_path), "--out", str(tmp_path / "scores.txt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "'eval.top_n' is 50" in err
        assert f"10 ids of cohort file {cohort_path}" in err
        assert not (tmp_path / "scores.txt").exists()

    def test_unknown_trial_or_cohort_id_exits_3(self, corpus_dir, tmp_path, capsys):
        ids = read_corpus(corpus_dir).sample_ids
        cohort = tmp_path / "cohort.txt"
        cohort.write_text("\n".join(ids[100:110]) + "\n")
        for trial_line, cohort_line, named in (
            (f"{ids[0]} nosuch 1", ids[110], "unknown id in trial list: 'nosuch'"),
            (f"{ids[0]} {ids[1]} 1", "nosuch", "unknown id in cohort: 'nosuch'"),
        ):
            (tmp_path / "trials.txt").write_text(trial_line + "\n")
            cohort.write_text(f"{ids[100]}\n{cohort_line}\n")
            code = main([
                "score", "--trials", str(tmp_path / "trials.txt"),
                "--embeddings", str(corpus_dir / "audio.emb"),
                "--meta", str(corpus_dir / "meta.tsv"),
                "--cohort", str(cohort), "--out", str(tmp_path / "scores.txt"),
            ])
            assert code == 3
            assert named in capsys.readouterr().err


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

    def test_negative_seed_exits_2(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "enc.enc"
        code = main([
            "pretrain", "--corpus", str(corpus_dir), "--out", str(out), "--seed", "-1",
        ])
        assert code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "sources, fused",
        [
            (("round_001/scores_audio.tsv", "round_001/scores_visual.tsv"), "scores_fusion.tsv"),
            (("final/scores_audio_norm.tsv", "final/scores_visual_norm.tsv"),
             "scores_fusion_norm.tsv"),
        ],
    )
    def test_fuse_writes_final_fusion_scores(self, run, tmp_path, sources, fused):
        # final/ fuses the last round's raw scores and the normalized scores
        # as stored, audio first, with equal weights
        out = tmp_path / fused
        code = main([
            "score", "--trials", str(run / "run" / "trials.txt"),
            "--fuse", *(str(run / "run" / s) for s in sources), "--weights", "0.5,0.5",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (run / "run" / "final" / fused).read_bytes()

    def test_metrics_give_the_report_fusion_norm_figures(self, run, tmp_path):
        out = tmp_path / "metrics.json"
        code = main([
            "metrics", "--meta", str(run / "run" / "corpus" / "meta.tsv"),
            "--trials", str(run / "run" / "trials.txt"),
            "--scores", str(run / "run" / "final" / "scores_fusion_norm.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        figures = strict_json(out.read_text())
        report = strict_json((run / "run" / "report.json").read_text())
        fusion = report["final_scoring"]["systems"]["fusion"]
        assert (figures["eer"], figures["min_dcf"]) == (fusion["eer_norm"], fusion["min_dcf_norm"])


class TestFuseCommand:
    def test_fuse_writes_four_assignments(self, corpus_dir, tmp_path):
        out_dir = tmp_path / "fused"
        code = main([
            "fuse",
            "--audio-emb", str(corpus_dir / "audio.emb"),
            "--visual-emb", str(corpus_dir / "visual.emb"),
            "--meta", str(corpus_dir / "meta.tsv"),
            "--k", "8", "--config", config_file(tmp_path, "cluster.restarts = 2\n"),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        for name in ("fused", "audio", "visual", "joint"):
            assert (out_dir / f"assign_{name}.tsv").is_file()
        assert (out_dir / "fusion_report.json").is_file()
        # the files of the library call at the config file's restarts
        corpus = read_corpus(corpus_dir)
        fused = ensemble.fuse_pseudo_labels(
            corpus.audio.astype(np.float64), corpus.visual.astype(np.float64), 8,
            restarts=2, seed=0,
        )
        (tmp_path / "want").mkdir()
        ensemble.write_fusion(tmp_path / "want", corpus.sample_ids, fused)
        for path in (tmp_path / "want").iterdir():
            assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name


class TestStageCommandsReadTheConfig:
    """``cluster``, ``fuse``, ``score`` and ``metrics`` take their settings
    from the pipeline's config file, read before any other file; only the
    per-call inputs are flags. (``fuse`` and ``score --cohort`` are checked
    in ``TestFuseCommand`` and ``TestScore``.)"""

    def test_cluster_takes_cluster_keys(self, corpus_dir, tmp_path):
        out = tmp_path / "assign.tsv"
        code = main([
            "cluster", "--embeddings", str(corpus_dir / "audio.emb"),
            "--meta", str(corpus_dir / "meta.tsv"), "--k", "8",
            "--config", config_file(tmp_path, "cluster.restarts = 2\n"), "--out", str(out),
        ])
        assert code == 0
        corpus = read_corpus(corpus_dir)
        x = corpus.audio.astype(np.float64)
        default = ClusterSettings().restarts
        for restarts, want in ((2, tmp_path / "want.tsv"), (default, tmp_path / "default.tsv")):
            write_assignment(want, corpus.sample_ids, kmeans(x, 8, restarts=restarts, seed=0)[1])
        assert out.read_bytes() == (tmp_path / "want.tsv").read_bytes()
        assert out.read_bytes() != (tmp_path / "default.tsv").read_bytes()

    def test_metrics_takes_dcf_keys(self, corpus_dir, tmp_path, capsys):
        rng = np.random.default_rng(3)
        trials, scores = tmp_path / "trials.txt", tmp_path / "scores.txt"
        trials.write_text("".join(f"e{i} t{i} {int(i < 20)}\n" for i in range(60)))
        scores.write_text("".join(
            f"e{i} t{i} {rng.normal(1.0 if i < 20 else 0.0):.6f}\n" for i in range(60)
        ))
        code = main([
            "metrics", "--meta", str(corpus_dir / "meta.tsv"),
            "--trials", str(trials), "--scores", str(scores),
            "--config", config_file(tmp_path, "dcf.p_target = 0.01\n"),
        ])
        assert code == 0
        report = strict_json(capsys.readouterr().out)
        score_set = read_scores(scores, read_trials(trials))
        want = verification_metrics(score_set, DcfParams(p_target=0.01))
        assert {key: report[key] for key in want} == want
        assert verification_metrics(score_set, DcfParams()) != want

    @pytest.mark.parametrize("command, args, line", [
        ("cluster", ["--embeddings", "x.emb", "--meta", "meta.tsv", "--k", "4", "--out"],
         "cluster.restarts = abc"),
        ("fuse", ["--audio-emb", "a.emb", "--visual-emb", "v.emb", "--meta", "meta.tsv",
                  "--k", "4", "--out-dir"], "cluster.restarts = 2.5"),
        ("score", ["--trials", "trials.txt", "--embeddings", "x.emb", "--meta", "meta.tsv",
                   "--out"], "eval.top_n = abc"),
        ("metrics", ["--meta", "meta.tsv", "--trials", "trials.txt", "--scores", "s.txt",
                     "--out"], "dcf.p_target = abc"),
    ])
    def test_malformed_key_exits_2_before_any_file_is_read(
        self, tmp_path, capsys, command, args, line
    ):
        # the inputs do not exist: reading any of them first would exit 3
        out = tmp_path / "out"
        argv = [command, *(str(tmp_path / a) if "." in a else a for a in args), str(out)]
        code = main(argv + ["--config", config_file(tmp_path, line + "\n")])
        assert code == 2
        assert repr(line.split(" = ")[0]) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("cluster", ["--embeddings", "audio.emb", "--meta", "meta.tsv", "--k", "4",
                     "--out", "assign.out"]),
        ("cluster", ["--embeddings", "audio.emb", "--meta", "meta.tsv", "--k-grid", "4,8,12",
                     "--curve-out", "curve.out", "--out", "assign.out"]),
        ("fuse", ["--audio-emb", "audio.emb", "--visual-emb", "visual.emb", "--meta", "meta.tsv",
                  "--k", "4", "--out-dir", "fused.out"]),
    ])
    def test_negative_seed_exits_2(self, corpus_dir, tmp_path, capsys, command, args):
        # as in the training loops; numpy would raise a ValueError (exit 1)
        before = sorted(tmp_path.rglob("*"))
        home = {".emb": corpus_dir, ".tsv": corpus_dir, ".out": tmp_path}
        argv = [str(home[Path(a).suffix] / a) if Path(a).suffix in home else a for a in args]
        assert main([command, *argv, "--seed", "-1"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, flag", [
        ("cluster", "--restarts"), ("cluster", "--max-iters"), ("cluster", "--workers"),
        ("fuse", "--restarts"), ("fuse", "--max-iters"), ("fuse", "--workers"),
        ("score", "--top-n"),
        ("metrics", "--p-target"), ("metrics", "--c-miss"), ("metrics", "--c-fa"),
    ])
    def test_removed_flag_exits_2(self, capsys, command, flag):
        required = {
            "cluster": ["--embeddings", "x.emb", "--meta", "meta.tsv", "--out", "o"],
            "fuse": ["--audio-emb", "a.emb", "--visual-emb", "v.emb", "--meta", "meta.tsv",
                     "--k", "4", "--out-dir", "o"],
            "score": ["--trials", "trials.txt", "--out", "o"],
            "metrics": ["--meta", "meta.tsv"],
        }
        with pytest.raises(SystemExit) as exc:
            main([command, *required[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, args, flag", [
        ("cluster", ["--embeddings", "x.emb", "--meta", "meta.tsv", "--k", "4"], "--curve-out"),
        ("cluster", ["--embeddings", "x.emb", "--meta", "meta.tsv", "--from-curve", "c.tsv"],
         "--curve-out"),
        ("score", ["--trials", "t.txt", "--fuse", "s1.txt", "s2.txt", "--weights", "0.5,0.5"],
         "--embeddings"),
        ("score", ["--trials", "t.txt", "--fuse", "s1.txt", "s2.txt", "--weights", "0.5,0.5"],
         "--meta"),
        ("score", ["--trials", "t.txt", "--fuse", "s1.txt", "s2.txt", "--weights", "0.5,0.5"],
         "--cohort"),
        ("score", ["--trials", "t.txt", "--embeddings", "x.emb", "--meta", "meta.tsv"],
         "--weights"),
        ("metrics", ["--meta", "meta.tsv"], "--trials"),
    ])
    def test_flag_the_mode_does_not_read_exits_2_before_any_file_is_read(
        self, tmp_path, capsys, command, args, flag
    ):
        # the inputs do not exist: reading any of them first would exit 3
        out = tmp_path / "out"
        argv = [command, *(str(tmp_path / a) if "." in a else a for a in args),
                flag, str(tmp_path / "unread.txt"), "--out", str(out)]
        assert main(argv) == 2
        assert f"{flag} is not read" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []


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
        report = strict_json(report_path.read_text())
        assert len(report["rounds"]) == 2
        assert report == strict_json((out / "report.json").read_text())
