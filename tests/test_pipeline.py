"""End-to-end pipeline: artifacts, determinism, resume, ground-truth firewall."""

import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from selflabel import _parallel, _textio, cli, pipeline
from selflabel.configio import build_pipeline_config
from selflabel.encoder import ClassifierConfig, ContrastiveConfig
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
    MultiModalCorpus,
    SynthConfig,
    generate_corpus,
    randomize_ground_truth,
    read_corpus,
    read_embeddings,
    write_corpus,
    write_embeddings,
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
            seed=seed,
        ),
        fixed_k=24,
        contrastive=ContrastiveConfig(
            learning_rate=0.003, epochs=3, batch_size=32,
            aug_low=0.5, aug_high=1.0,
        ),
        classifier=ClassifierConfig(
            learning_rate=0.5, epochs=8, batch_size=32,
            aug_low=0.5, aug_high=1.2,
        ),
        cluster=ClusterSettings(restarts=3),
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

        config = tiny_config(
            tmp_path / "run", rounds=1,
            classifier=ClassifierConfig(
                learning_rate=1e18, epochs=20, batch_size=32,
                aug_low=0.5, aug_high=1.2,
            ),
        )
        art = run_stage1(config)
        with pytest.raises(TrainingError):
            run_round(config, 1, art)
        assert not (config.output_dir / "round_001").exists()
        assert not list(config.output_dir.glob(".tmp_*"))


class TestTrialSampler:
    """The evaluation trials that a run draws, on small corpora."""

    def test_pairs_counts_cohort_and_determinism(self, tmp_path):
        ev = EvalSettings(cohort_size=10, top_n=8, target_trials=3000, nontarget_trials=2000)
        config = tiny_config(tmp_path / "run", eval=ev)
        corpus = generate_corpus(config.synth)
        trials, cohort_ids = pipeline._make_eval_material(config, corpus)
        assert trials.ids == tuple(corpus.sample_ids)
        assert len(trials) == 5000
        target = trials.is_target
        assert target[:3000].all() and not target[3000:].any()

        ident = corpus.identity_gt
        enroll, test = trials.enroll, trials.test
        # a target pairs two distinct samples of one identity, a non-target
        # spans two identities
        assert np.all(enroll[target] != test[target])
        assert np.all(ident[enroll[target]] == ident[test[target]])
        assert np.all(ident[enroll[~target]] != ident[test[~target]])
        cohort = {corpus.sample_ids.index(cid) for cid in cohort_ids}
        assert len(cohort) == 10
        assert not cohort & (set(enroll.tolist()) | set(test.tolist()))
        # identities are uniform: 24 identities, 125 target trials each
        counts = np.bincount(ident[enroll[target]], minlength=24)
        assert counts.min() > 70 and counts.max() < 180

        again = pipeline._make_eval_material(config, corpus)
        assert again[0] == trials and again[1] == cohort_ids
        other, _ = pipeline._make_eval_material(replace(config, seed=32), corpus)
        assert other != trials

    def test_identities_with_one_pool_sample_never_drawn(self, tmp_path):
        # identity 0 has one sample, so no trial can use it
        ident = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
        features = np.arange(20, dtype=np.float32).reshape(10, 2)
        corpus = MultiModalCorpus(
            [f"x{i}" for i in range(10)], [f"g{i}" for i in ident], ident, features, features
        )
        ev = EvalSettings(cohort_size=2, top_n=2, target_trials=50, nontarget_trials=50)
        for seed in range(5):
            config = tiny_config(tmp_path / "run", seed=seed, eval=ev)
            trials, cohort_ids = pipeline._make_eval_material(config, corpus)
            used = set(trials.enroll.tolist()) | set(trials.test.tolist())
            assert 0 not in used
            assert not {corpus.sample_ids.index(cid) for cid in cohort_ids} & used


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

    def test_finished_round_returns_before_loading_anything(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path / "run", rounds=1)
        run_pipeline(config)

        def no_corpus(config):
            raise AssertionError("a finished round loaded the corpus")

        monkeypatch.setattr(pipeline, "_ensure_corpus", no_corpus)
        art0 = run_stage1(config)
        art1 = run_round(config, 1, art0)
        for art in (art0, art1):
            stored = json.loads((art.path / "metrics.json").read_text())
            assert (art.k, art.metrics) == (24, stored)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        config = tiny_config(tmp_path / "run", rounds=0)
        run_pipeline(config)
        other = tiny_config(tmp_path / "run", rounds=0, seed=99)
        with pytest.raises(ConfigError, match="different configuration"):
            run_pipeline(other)

    def test_fingerprints_are_pinned(self):
        # a run directory resumes only under its fingerprint, so these
        # values are those of the run directories already written
        assert PipelineConfig(output_dir="run").fingerprint() == (
            "c033fe2e88cd31c4d4b021598303f1b8dba089b873c3efc8e7ab9d591a300ab6"
        )
        config = build_pipeline_config({"fixed_k": 200, "cluster.restarts": 1}, "run")
        assert config.fingerprint() == (
            "93b75f0e86bf7be8c7fd5f59ccc41c99c11b2c6669502e51ece1f718526d31df"
        )

    def test_round_checks_the_fingerprint(self, tmp_path):
        # a round written under another config would mix two experiments
        config = tiny_config(tmp_path / "run", rounds=1)
        run_pipeline(config)
        last = pipeline._load_round(config, 1)
        with pytest.raises(ConfigError, match="different configuration"):
            run_round(replace(config, seed=99), 2, last)
        assert not (tmp_path / "run" / "round_002").exists()

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

    def test_lowering_rounds_rewrites_final(self, tmp_path):
        # a lowered run's final/ holds the fresh run's files and no others
        run_pipeline(tiny_config(tmp_path / "fresh", rounds=0))
        run_pipeline(tiny_config(tmp_path / "lowered", rounds=1))
        run_pipeline(tiny_config(tmp_path / "lowered", rounds=0))
        final = tree_bytes(tmp_path / "lowered" / "final")
        assert final == tree_bytes(tmp_path / "fresh" / "final")

    def test_lowering_rounds_leaves_the_tree_of_a_fresh_run(self, tmp_path):
        # the later round directories go too, not only final/'s files
        run_pipeline(tiny_config(tmp_path / "fresh", rounds=1))
        run_pipeline(tiny_config(tmp_path / "lowered", rounds=2))
        run_pipeline(tiny_config(tmp_path / "lowered", rounds=1))
        assert not (tmp_path / "lowered" / "round_002").exists()
        assert tree_bytes(tmp_path / "lowered") == tree_bytes(tmp_path / "fresh")

    def test_resume_with_another_worker_count_equals_uninterrupted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        run_pipeline(tiny_config(tmp_path / "full", rounds=1))
        resumed = tiny_config(tmp_path / "resumed", rounds=1)
        monkeypatch.setattr(_parallel, "CPUS", 1)
        run_stage1(resumed)
        monkeypatch.setattr(_parallel, "CPUS", 2)
        run_pipeline(resumed)
        assert tree_bytes(tmp_path / "resumed") == tree_bytes(tmp_path / "full")

    def test_forked_run_equals_in_process_run(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        for n in (1, 2):
            monkeypatch.setattr(_parallel, "CPUS", n)
            run_pipeline(tiny_config(tmp_path / f"w{n}"))
            if n == 1:
                assert not forks
        # in each of the three round routines, one for the trial list beside
        # the training; one in round 0's k-means; per supervised round, one
        # for the classifier pair, one for the three fusion views, one in each
        # of the audio and joint k-means calls this process runs, and one for
        # the two Hungarian calls (the visual k-means forks in its own child)
        assert len(forks) == 3 + 1 + 2 * 5
        assert tree_bytes(tmp_path / "w2") == tree_bytes(tmp_path / "w1")

    def test_small_inputs_run_in_process(self, tmp_path, monkeypatch, forks):
        # smaller than FORK_MIN_ROWS, as is the benchmark's warm-up run
        assert _parallel.CPUS == len(os.sched_getaffinity(0))
        monkeypatch.setattr(_parallel, "CPUS", 2)
        run_pipeline(tiny_config(tmp_path / "run", rounds=1))
        assert not forks


def tree_bytes(root):
    """Every file under ``root`` by relative path, the way ``diff -r`` sees it."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def written_files(monkeypatch):
    """The path of each call to ``_textio.write_file``, in call order."""
    written = []
    real_write_file = _textio.write_file

    def record(path, blocks):
        written.append(Path(path))
        real_write_file(path, blocks)

    monkeypatch.setattr(_textio, "write_file", record)
    return written


def test_every_file_is_written_through_one_primitive(tmp_path, monkeypatch):
    monkeypatch.setattr(_parallel, "CPUS", 1)  # every write in this process
    written = written_files(monkeypatch)
    out = tmp_path / "run"
    run_pipeline(tiny_config(out, rounds=1))
    # a staged file or directory is renamed into place without its prefix
    through = {
        "/".join(part.removeprefix(".tmp_") for part in path.relative_to(out).parts)
        for path in written
    }
    tree = tree_bytes(out)
    assert {"report.json", "corpus/meta.tsv", "corpus/audio.emb", "round_001/scores_audio.tsv",
            "round_001/encoder_visual.enc"} <= set(tree)
    assert {data[:4] for data in tree.values()} >= {b"EMB1", b"ENC1"}
    assert through == set(tree)


class TestCrashSafeRunFiles:
    @pytest.mark.parametrize("torn", ["cohort_ids", "trials", "run_config", "meta.tsv"])
    def test_write_failing_part_way_then_resume_equals_uninterrupted(
        self, tmp_path, monkeypatch, torn
    ):
        run_pipeline(tiny_config(tmp_path / "full", rounds=1))

        crashed = tiny_config(tmp_path / "crashed", rounds=1)
        real_write_file = _textio.write_file

        def write_half_then_fail(path, blocks):
            if torn in Path(path).name:
                text = "".join(blocks)
                real_write_file(path, [text[: len(text) // 2]])
                raise OSError(f"simulated crash while writing {Path(path).name}")
            return real_write_file(path, blocks)

        with monkeypatch.context() as patch:
            patch.setattr(_textio, "write_file", write_half_then_fail)
            with pytest.raises(OSError, match="simulated crash"):
                run_pipeline(crashed)
        run_pipeline(crashed)
        assert tree_bytes(tmp_path / "crashed") == tree_bytes(tmp_path / "full")

    def test_crash_in_every_write_then_resume_equals_uninterrupted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_parallel, "CPUS", 1)  # one process: the N-th write is one file
        with monkeypatch.context() as patch:
            written = written_files(patch)
            run_pipeline(tiny_config(tmp_path / "full", rounds=1))
        want = tree_bytes(tmp_path / "full")
        real_write_file = _textio.write_file
        for n in range(1, len(written) + 1):
            crashed = tiny_config(tmp_path / f"crash{n}", rounds=1)
            calls = []

            def write_half_then_fail(path, blocks):
                calls.append(path)
                if len(calls) != n:
                    return real_write_file(path, blocks)
                data = b"".join(b.encode() if isinstance(b, str) else b for b in blocks)
                real_write_file(path, [data[: len(data) // 2]])
                raise OSError(f"simulated crash in write {n}")

            with monkeypatch.context() as patch:
                patch.setattr(_textio, "write_file", write_half_then_fail)
                with pytest.raises(OSError, match="simulated crash"):
                    run_pipeline(crashed)
            run_pipeline(crashed)
            assert tree_bytes(crashed.output_dir) == want, f"crash in write {n}: {calls[-1]}"

    def test_trial_write_failing_in_worker_then_resume_equals_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        # the trial list is written by a forked worker while round 0 trains
        monkeypatch.setattr(_parallel, "FORK_MIN_ROWS", 0)
        monkeypatch.setattr(_parallel, "CPUS", 2)
        run_pipeline(tiny_config(tmp_path / "full", rounds=1))

        crashed = tiny_config(tmp_path / "crashed", rounds=1)
        caller = os.getpid()

        def fail(*args):
            where = "a worker" if os.getpid() != caller else "the caller"
            raise OSError(f"simulated crash in {where}")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline.scoring, "write_trials", fail)
            with pytest.raises(OSError, match="simulated crash in a worker"):
                run_pipeline(crashed)
        # no trials.txt, no cohort file, no round_000/, no staging leftovers
        assert sorted(p.name for p in crashed.output_dir.iterdir()) == [
            "corpus", "run_config.json",
        ]
        run_pipeline(crashed)
        assert tree_bytes(tmp_path / "crashed") == tree_bytes(tmp_path / "full")


class TestDamagedRound:
    """A run file damaged by hand is a DataError naming it (exit 3), not a
    traceback, a rebuild or a silent misreading: a round directory exists
    only when complete, and each per-sample file's reader checks it against
    the corpus."""

    CONFIG = """
seed = 31
rounds = 1
fixed_k = 12
synth.num_identities = 12
synth.groups_per_identity = 2
synth.segments_per_group = 5
contrastive.epochs = 2
contrastive.batch_size = 16
classifier.epochs = 2
classifier.batch_size = 16
cluster.restarts = 2
eval.cohort_size = 10
eval.top_n = 5
eval.target_trials = 20
eval.nontarget_trials = 20
"""

    @pytest.mark.parametrize("damage", [
        "metrics_torn", "metrics_deleted", "config_not_object", "config_torn",
        "labels_permuted", "labels_out_of_range", "embeddings_short",
    ])
    def test_damaged_file_exit_3(self, tmp_path, capsys, damage):
        # each file's reader checks it, on a resume too, and nothing is written
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        run = tmp_path / "run"
        argv = ["pipeline", "--config", str(cfg), "--out", str(run)]
        assert cli.main(argv) == 0
        if damage.startswith("metrics"):
            path = run / "round_001" / "metrics.json"
            if damage == "metrics_torn":
                path.write_text(path.read_text()[:40])
            else:
                path.unlink()
            named = f"cannot read round metrics {path}"
        elif damage.startswith("config"):
            path = run / "run_config.json"
            path.write_text("[1, 2]\n" if damage == "config_not_object" else '{"fingerprint": ')
            named = f"cannot read run config {path}"
        elif damage == "labels_permuted":
            # a run stopped after round 0, whose labels were then reordered
            shutil.rmtree(run / "round_001")
            path = run / "round_000" / "assign_audio.tsv"
            path.write_text("".join(reversed(path.read_text().splitlines(keepends=True))))
            named = f"{path} does not cover the corpus sample ids in order"
        elif damage == "labels_out_of_range":
            # the same stopped run, with one label set to K = fixed_k = 12
            shutil.rmtree(run / "round_001")
            path = run / "round_000" / "assign_audio.tsv"
            lines = path.read_text().splitlines(keepends=True)
            sample_id = lines[5].split("\t")[0]
            lines[5] = f"{sample_id}\t12\n"
            path.write_text("".join(lines))
            named = f"{path}: label 12 of sample {sample_id} lies outside [0, 12)"
        else:
            # the last round's embeddings lost 3 of their 120 rows
            path = run / "round_001" / "audio.emb"
            write_embeddings(path, read_embeddings(path, 120)[:-3])
            named = f"row count mismatch: {path} has 117 rows"
            argv = ["report", "--config", str(cfg), "--run", str(run)]
        before = tree_bytes(run)
        capsys.readouterr()
        assert cli.main(argv) == 3
        assert f"error: {named}" in capsys.readouterr().err
        assert tree_bytes(run) == before  # nothing written, nothing rebuilt


class TestCorpusHoldsNoTrainingSetting:
    """A corpus directory is meta.tsv and two embedding files: the noise of
    contrastive pretraining is a ``contrastive.*`` setting, whatever else the
    directory holds."""

    def encoder(self, tmp_path, name, **contrastive):
        config = tiny_config(tmp_path / name, rounds=0, corpus_path=tmp_path / "corpus")
        config = replace(config, contrastive=replace(config.contrastive, **contrastive))
        run_stage1(config)
        assert not (config.output_dir / "corpus" / "config.json").exists()
        return (config.output_dir / "round_000" / "encoder_audio.enc").read_bytes()

    def test_sidecar_is_ignored_and_settings_are_read(self, tmp_path):
        synth = tiny_config(tmp_path / "x").synth
        write_corpus(generate_corpus(synth), tmp_path / "corpus")
        sidecar = tmp_path / "corpus" / "config.json"
        plain = self.encoder(tmp_path, "plain")
        # the sidecar older versions wrote, with another noise range
        sidecar.write_text(json.dumps({"augmentation_noise_range": [0.1, 0.2]}))
        assert self.encoder(tmp_path, "sidecar") == plain
        sidecar.unlink()
        assert self.encoder(tmp_path, "deleted") == plain
        assert self.encoder(tmp_path, "low", aug_low=0.1) != plain
        assert self.encoder(tmp_path, "high", aug_high=2.0) != plain


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
        trial_ids = set(trials.ids)
        assert cohort_ids and trial_ids
        assert not (cohort_ids & trial_ids)
        n_target = int(trials.is_target.sum())
        assert n_target == 40 and len(trials) == 80
