"""End-to-end pipeline: artifacts, determinism, resume, ground-truth firewall."""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from selflabel import _parallel, pipeline
from selflabel.encoder import TrainConfig
from selflabel.errors import ConfigError
from selflabel.metrics import DcfParams
from selflabel.pipeline import (
    ARTIFACT_FORMAT,
    ClusterSettings,
    EvalSettings,
    PipelineConfig,
    compute_round_metrics,
    run_pipeline,
    run_round,
    run_stage1,
)
from selflabel.scoring import read_trials
from selflabel.synthdata import (
    SynthConfig,
    generate_corpus,
    randomize_ground_truth,
    read_corpus,
    write_corpus,
)


@pytest.fixture
def forks(monkeypatch):
    """One entry per ``os.fork`` call the test makes."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def tiny_config(out, seed=31, rounds=2, **overrides):
    base = dict(
        output_dir=Path(out),
        seed=seed,
        rounds=rounds,
        synth=SynthConfig(
            num_identities=24,
            groups_per_identity=2,
            segments_per_group=5,
            audio_dim=8,
            visual_dim=8,
            within_identity_spread=3.0,
            observation_noise=0.3,
            augmentation_noise_range=(0.5, 1.0),
            seed=seed,
        ),
        fixed_k=24,
        contrastive=TrainConfig(optimizer="adam", learning_rate=0.003, epochs=3, batch_size=32),
        classifier=TrainConfig(optimizer="sgd", learning_rate=0.5, epochs=8, batch_size=32),
        classifier_augmentation=(0.5, 1.2),
        cluster=ClusterSettings(restarts=3, sweep_restarts=2, max_iters=50),
        eval=EvalSettings(cohort_size=10, top_n=8, target_trials=40, nontarget_trials=40),
        dcf=DcfParams(),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def read_bytes_map(root, names):
    return {name: (Path(root) / name).read_bytes() for name in names}


# Every file of rounds 0 and 1 that training and clustering produce.
TRAINING_FILES_R1 = [
    f"round_000/{name}"
    for name in ("encoder_audio.enc", "train_log_audio.tsv", "audio.emb", "assign_audio.tsv")
] + [
    f"round_001/{name}"
    for name in (
        "encoder_audio.enc",
        "encoder_visual.enc",
        "train_log_audio.tsv",
        "train_log_visual.tsv",
        "audio.emb",
        "visual.emb",
        "assign_audio.tsv",
        "assign_visual.tsv",
        "assign_joint.tsv",
        "assign_fused.tsv",
        "fusion_report.json",
    )
]

LABEL_FILES_R1 = [
    "round_000/assign_audio.tsv",
    "round_001/assign_audio.tsv",
    "round_001/assign_visual.tsv",
    "round_001/assign_joint.tsv",
    "round_001/assign_fused.tsv",
]


class TestStage1:
    def test_round0_artifact_contract(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0)
        art = run_stage1(config)
        for name in (
            "encoder_audio.enc",
            "audio.emb",
            "assign_audio.tsv",
            "scores_audio.tsv",
            "metrics.json",
            "train_log_audio.tsv",
        ):
            assert (art.path / name).is_file(), name
        assert art.k == 24
        assert art.metrics["round"] == 0
        assert art.metrics["nmi_audio"] is not None
        assert art.metrics["eer_audio"] is not None
        assert art.metrics["nmi_visual"] is None

    def test_stage1_resume_skips_recompute(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0)
        art1 = run_stage1(config)
        stamp = (art1.path / "assign_audio.tsv").stat().st_mtime_ns
        art2 = run_stage1(config)
        assert (art2.path / "assign_audio.tsv").stat().st_mtime_ns == stamp

    def test_elbow_path_writes_curve(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0, fixed_k=None, k_grid=(4, 8, 12, 16))
        art = run_stage1(config)
        assert (art.path / "wss_curve.tsv").is_file()
        assert art.k in (4, 8, 12, 16)


class TestRounds:
    def test_round_artifacts_and_metrics(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=1)
        report = run_pipeline(config)
        assert len(report["rounds"]) == 2
        r1 = report["rounds"][1]
        for key in ("nmi_audio", "nmi_visual", "nmi_joint", "nmi_fused", "eer_audio", "eer_visual"):
            assert r1[key] is not None
        breakdown = json.loads((config.output_dir / "round_001" / "fusion_report.json").read_text())
        total = breakdown["unanimous"] + breakdown["majority_2_1"] + breakdown["all_distinct"]
        assert total == 24 * 2 * 5

    def test_rounds_zero_report_has_single_row(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0)
        report = run_pipeline(config)
        assert len(report["rounds"]) == 1
        assert "visual" not in report["final_scoring"]["systems"]
        assert "audio" in report["final_scoring"]["systems"]

    def test_round_requires_positive_index(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0)
        art = run_stage1(config)
        with pytest.raises(ConfigError):
            run_round(config, 0, art)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_round_leaves_no_partial_artifacts(self, tmp_path):
        from selflabel.errors import TrainingError

        config = tiny_config(tmp_path / "run", rounds=0)
        art = run_stage1(config)
        broken = tiny_config(
            tmp_path / "run", rounds=1,
            classifier=TrainConfig(
                optimizer="sgd", learning_rate=1e18, epochs=20, batch_size=32
            ),
        )
        with pytest.raises(TrainingError):
            run_round(broken, 1, art)
        assert not (config.output_dir / "round_001").exists()
        assert not list(config.output_dir.glob(".tmp_*"))


class TestDeterminismAndResume:
    def test_two_runs_bitwise_identical(self, tmp_path):
        c1 = tiny_config(tmp_path / "a", rounds=1)
        c2 = tiny_config(tmp_path / "b", rounds=1)
        run_pipeline(c1)
        run_pipeline(c2)
        a = read_bytes_map(tmp_path / "a", LABEL_FILES_R1 + ["report.json"])
        b = read_bytes_map(tmp_path / "b", LABEL_FILES_R1 + ["report.json"])
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"

    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path):
        full = tiny_config(tmp_path / "full", rounds=2)
        run_pipeline(full)

        resumed = tiny_config(tmp_path / "resumed", rounds=2)
        art0 = run_stage1(resumed)  # simulate interruption after round 1
        run_round(resumed, 1, art0)
        report = run_pipeline(resumed)

        names = LABEL_FILES_R1 + [
            "round_002/assign_fused.tsv",
            "round_002/encoder_audio.enc",
            "report.json",
        ]
        a = read_bytes_map(tmp_path / "full", names)
        b = read_bytes_map(tmp_path / "resumed", names)
        for name in names:
            assert a[name] == b[name], f"{name} differs after resume"
        assert report["rounds"][2]["round"] == 2

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0)
        run_pipeline(config)
        other = tiny_config(tmp_path / "run", rounds=0, seed=99)
        with pytest.raises(ConfigError, match="different configuration"):
            run_pipeline(other)

    def test_artifact_format_change_rejects_resume(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path / "run", rounds=0)
        run_stage1(config)
        monkeypatch.setattr(pipeline, "ARTIFACT_FORMAT", ARTIFACT_FORMAT + 1)
        with pytest.raises(ConfigError, match="different configuration"):
            run_stage1(config)

    def test_raising_rounds_extends_a_finished_run(self, tmp_path):
        run_pipeline(tiny_config(tmp_path / "fresh", rounds=2))
        run_pipeline(tiny_config(tmp_path / "extended", rounds=1))
        run_pipeline(tiny_config(tmp_path / "extended", rounds=2))
        assert tree_bytes(tmp_path / "extended") == tree_bytes(tmp_path / "fresh")

    def test_resume_with_another_worker_count_equals_uninterrupted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        run_pipeline(tiny_config(tmp_path / "full", rounds=1))

        def workers(n):
            return tiny_config(
                tmp_path / "resumed", rounds=1,
                cluster=ClusterSettings(restarts=3, sweep_restarts=2, max_iters=50, workers=n),
            )

        run_stage1(workers(1))
        run_pipeline(workers(2))
        assert tree_bytes(tmp_path / "resumed") == tree_bytes(tmp_path / "full")

    def test_forked_run_equals_in_process_run(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        for n in (1, 2):
            cluster = ClusterSettings(restarts=3, sweep_restarts=2, max_iters=50, workers=n)
            run_pipeline(tiny_config(tmp_path / f"w{n}", cluster=cluster))
            if n == 1:
                assert not forks
        # one fork in round 0's k-means; per round, one for the classifier pair
        # and one for each of the three k-means calls
        assert len(forks) == 1 + 2 * 4
        assert tree_bytes(tmp_path / "w2") == tree_bytes(tmp_path / "w1")

    def test_small_inputs_run_in_process(self, tmp_path, forks):
        # smaller than FORK_MIN_ROWS, as is the benchmark's warm-up run
        config = tiny_config(tmp_path / "run", rounds=1)
        assert config.cluster.workers == len(os.sched_getaffinity(0))
        run_pipeline(replace(config, cluster=replace(config.cluster, workers=2)))
        assert not forks


def tree_bytes(root):
    """Every file under ``root`` by relative path, the way ``diff -r`` sees it."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestCrashSafeRunFiles:
    @pytest.mark.parametrize("torn", ["cohort_ids", "trials", "run_config", "meta.tsv"])
    def test_write_failing_part_way_then_resume_equals_uninterrupted(
        self, tmp_path, monkeypatch, torn
    ):
        run_pipeline(tiny_config(tmp_path / "full", rounds=1))

        crashed = tiny_config(tmp_path / "crashed", rounds=1)
        real_write_text = Path.write_text

        def write_half_then_fail(self, data, *args, **kwargs):
            if torn in self.name:
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(f"simulated crash while writing {self.name}")
            return real_write_text(self, data, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", write_half_then_fail)
            with pytest.raises(OSError, match="simulated crash"):
                run_pipeline(crashed)
        run_pipeline(crashed)
        assert tree_bytes(tmp_path / "crashed") == tree_bytes(tmp_path / "full")


class TestGroundTruthFirewall:
    def test_randomized_identity_and_groups_leave_training_unchanged(self, tmp_path):
        corpus = generate_corpus(tiny_config(tmp_path / "x", rounds=0).synth)
        write_corpus(corpus, tmp_path / "corpus_clean")
        write_corpus(randomize_ground_truth(corpus, seed=5), tmp_path / "corpus_shuffled")

        runs = {}
        for name in ("corpus_clean", "corpus_shuffled"):
            config = tiny_config(tmp_path / f"run_{name}", rounds=1, corpus_path=tmp_path / name)
            run_pipeline(config)
            runs[name] = read_bytes_map(tmp_path / f"run_{name}", TRAINING_FILES_R1)
        for name in runs["corpus_clean"]:
            assert runs["corpus_clean"][name] == runs["corpus_shuffled"][name], name


class TestMetricsReproduction:
    def test_round_metrics_recompute_exactly(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=1)
        run_pipeline(config)
        corpus = read_corpus(config.output_dir / "corpus")
        trials = read_trials(config.output_dir / "trials.txt")
        for index in (0, 1):
            stored = json.loads(
                (config.output_dir / f"round_{index:03d}" / "metrics.json").read_text()
            )
            again = compute_round_metrics(
                config.output_dir / f"round_{index:03d}", corpus, trials,
                k=stored["k"], round_index=index,
            )
            assert again == stored

    def test_eval_material_disjoint(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0)
        run_pipeline(config)
        cohort_ids = set(
            (config.output_dir / "cohort_ids.txt").read_text().split()
        )
        trials = read_trials(config.output_dir / "trials.txt")
        trial_ids = {t.enroll_id for t in trials} | {t.test_id for t in trials}
        assert cohort_ids and trial_ids
        assert not (cohort_ids & trial_ids)
        n_target = sum(1 for t in trials if t.is_target)
        assert n_target == 40 and len(trials) == 80
