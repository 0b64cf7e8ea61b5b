"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The first two criteria run the full default pipeline over three seeds and
share those runs through a session fixture.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from selflabel import _parallel
from selflabel._parallel import FORK_MIN_ROWS, ordered_map
from selflabel.clustering import WssCurve, kmeans, select_k_elbow
from selflabel.encoder import (
    ClassifierConfig,
    ContrastiveConfig,
    classifier_loss,
    contrastive_loss,
    grad_check,
)
from selflabel.ensemble import correspond
from selflabel.errors import NumericError
from selflabel.metrics import DcfParams, eer, min_dcf, nmi
from selflabel.pipeline import (
    ClusterSettings,
    EvalSettings,
    PipelineConfig,
    run_pipeline,
    run_round,
    run_stage1,
)
from selflabel.scoring import (
    Cohort,
    ScoreSet,
    Trials,
    as_norm,
    as_norm_scores,
    cosine_score,
)
from selflabel.synthdata import (
    SynthConfig,
    generate_corpus,
    randomize_ground_truth,
    write_corpus,
)


def report_line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{tail}")


# ---------------------------------------------------------------------------
# shared full-pipeline runs (criteria 1 and 2)
# ---------------------------------------------------------------------------

SEEDS = (101, 202, 303)


def _timed_run(root: Path, seed: int) -> dict:
    config = PipelineConfig(
        output_dir=root / f"seed_{seed}",
        seed=seed,
        rounds=3,
        synth=SynthConfig(seed=seed),
    )
    start = time.perf_counter()
    report = run_pipeline(config)
    wall = time.perf_counter() - start
    return {"seed": seed, "report": report, "wall": wall}


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    # The three runs go side by side, one process per usable CPU
    # (rows=FORK_MIN_ROWS makes ordered_map fork); each run is timed on its
    # own, and no output depends on the process it ran in.
    root = tmp_path_factory.mktemp("acceptance_runs")
    calls = [(root, seed) for seed in SEEDS]
    return ordered_map(_timed_run, calls, rows=FORK_MIN_ROWS)


class TestCriterion01IterativeImprovement:
    def test_audio_nmi_climbs_and_eer_strictly_decreases(self, default_runs):
        passing = 0
        details = []
        for run in default_runs:
            rounds = run["report"]["rounds"]
            nmi_gain = rounds[2]["nmi_audio"] - rounds[0]["nmi_audio"]
            eers = [r["eer_audio"] for r in rounds]
            eer_monotone = all(b < a for a, b in zip(eers, eers[1:]))
            ok = nmi_gain >= 0.05 and eer_monotone and run["wall"] <= 600.0
            passing += ok
            details.append(
                f"seed {run['seed']}: dNMI={nmi_gain:+.4f} "
                f"EER={'->'.join(f'{e:.3f}' for e in eers)} wall={run['wall']:.0f}s"
            )
        ok = passing >= 2
        report_line(1, "iterative-improvement trend", ok,
                    f"{passing}/3 seeds; " + "; ".join(details))
        assert ok, (
            "audio NMI must gain >= 0.05 from round 0 to round 2 with strictly "
            "decreasing EER on >= 2 of 3 seeds; " + "; ".join(details)
        )


class TestCriterion02FusionBenefit:
    def test_fused_nmi_at_least_best_modality(self, default_runs):
        worst = math.inf
        for run in default_runs:
            for r in run["report"]["rounds"][1:]:
                margin = r["nmi_fused"] - max(r["nmi_audio"], r["nmi_visual"])
                worst = min(worst, margin)
        ok = worst >= -0.01
        report_line(2, "fusion benefit", ok, f"worst margin {worst:+.4f}")
        assert ok


class TestCriterion03HungarianExactness:
    def test_exhaustive_permutation_equality(self):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        all_exact = True
        for _ in range(200):
            k = int(rng.integers(1, 7))
            omega = rng.integers(0, 100, size=(k, k))
            got = correspond(omega)
            best = max(
                sum(omega[perm[j], j] for j in range(k))
                for perm in itertools.permutations(range(k))
            )
            all_exact &= got.objective == best
            all_exact &= sum(omega[got.mapping[j], j] for j in range(k)) == best
        elapsed = time.perf_counter() - start
        ok = all_exact and elapsed < 5.0
        report_line(3, "Hungarian exactness", ok, f"200 matrices in {elapsed:.2f}s")
        assert ok


def _sweep_oracle(scores, is_target):
    thresholds = sorted(set(scores)) + [float("inf")]
    tgt = [s for s, t in zip(scores, is_target) if t]
    non = [s for s, t in zip(scores, is_target) if not t]
    points = []
    for th in thresholds:
        far = sum(1 for s in non if s >= th) / len(non)
        frr = sum(1 for s in tgt if s < th) / len(tgt)
        points.append((th, far, frr))
    return points


def _eer_oracle(scores, is_target):
    points = _sweep_oracle(scores, is_target)
    for i, (th, far, frr) in enumerate(points):
        d = far - frr
        if d == 0:
            return far, th, True
        if d < 0:
            th0, far0, frr0 = points[i - 1]
            d0 = far0 - frr0
            alpha = d0 / (d0 - d)
            return far0 + alpha * (far - far0), th0 + alpha * (th - th0), False
    raise AssertionError


def _min_dcf_oracle(scores, is_target, params):
    points = _sweep_oracle(scores, is_target)
    den = min(params.c_miss * params.p_target, params.c_fa * (1 - params.p_target))
    best = (float("inf"), None)
    for th, far, frr in points:
        cost = (params.c_miss * params.p_target * frr
                + params.c_fa * (1 - params.p_target) * far) / den
        if cost < best[0]:
            best = (cost, th)
    return best


def _random_score_set(rng):
    n_t = int(rng.integers(1, 26))
    n_n = int(rng.integers(1, 26))
    n = n_t + n_n
    trials = Trials([f"s{i}" for i in range(2 * n)], np.arange(0, 2 * n, 2),
                    np.arange(1, 2 * n, 2), np.arange(n) < n_t)
    scores = np.concatenate([
        rng.standard_normal(n_t) + rng.uniform(0, 2),
        rng.standard_normal(n_n),
    ])
    return ScoreSet(trials=trials, scores=scores)


class TestCriterion04MetricOracles:
    def test_eer_mindcf_and_nmi_against_oracles(self):
        rng = np.random.default_rng(77)
        params = DcfParams(p_target=0.05)
        ok = True
        for _ in range(100):
            ss = _random_score_set(rng)
            scores = ss.scores.tolist()
            keys = ss.is_target.tolist()
            got_eer, got_th = eer(ss)
            want_eer, want_th, at_point = _eer_oracle(scores, keys)
            if at_point:
                ok &= got_eer == want_eer and got_th == want_th
            else:
                ok &= abs(got_eer - want_eer) < 1e-12
            got_dcf, got_dth = min_dcf(ss, params)
            want_dcf, want_dth = _min_dcf_oracle(scores, keys, params)
            ok &= got_dcf == want_dcf and got_dth == want_dth

        def nmi_oracle(a, b):
            n = len(a)
            cells, pa, pb = {}, {}, {}
            for x, y in zip(a, b):
                cells[(x, y)] = cells.get((x, y), 0) + 1
                pa[x] = pa.get(x, 0) + 1
                pb[y] = pb.get(y, 0) + 1
            h_a = -sum(c / n * math.log(c / n) for c in pa.values())
            h_b = -sum(c / n * math.log(c / n) for c in pb.values())
            if h_a == 0 and h_b == 0:
                return 1.0
            mi = sum(
                c / n * math.log((c / n) / ((pa[x] / n) * (pb[y] / n)))
                for (x, y), c in cells.items()
            )
            return mi / ((h_a + h_b) / 2)

        for _ in range(100):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n).tolist()
            b = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n).tolist()
            ok &= abs(nmi(a, b) - nmi_oracle(a, b)) < 1e-10

        worked = nmi([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1])
        ok &= abs(worked - 0.4786) < 5e-4
        report_line(4, "metric oracles", ok, f"worked NMI example {worked:.6f}")
        assert ok


class TestCriterion05GradientCorrectness:
    def test_fifty_random_instances_per_loss(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            z = rng.standard_normal((2 * m, d)) * rng.uniform(0.5, 2.0)

            def fc(theta, m=m, d=d):
                loss, grad = contrastive_loss(theta.reshape(2 * m, d), 0.15)
                return loss, grad.ravel()

            worst = max(worst, grad_check(fc, z.ravel()))
        for _ in range(50):
            k = int(rng.integers(2, 9))
            label = np.array([rng.integers(k)])

            def fe(theta, label=label):
                loss, grad = classifier_loss(theta[None, :], label, 0.1)
                return loss, grad[0]

            worst = max(worst, grad_check(fe, rng.standard_normal(k) * 2.0))
        ok = worst < 1e-4
        report_line(5, "gradient correctness", ok, f"max rel err {worst:.2e}")
        assert ok


class TestCriterion06ClosedFormContrastive:
    def test_identical_embedding_batches(self):
        z2 = np.tile([0.4, -1.1, 0.3], (4, 1))
        loss2, _ = contrastive_loss(z2, 0.1)
        z3 = np.tile([0.4, -1.1, 0.3], (6, 1))
        loss3, _ = contrastive_loss(z3, 0.1)
        ok = abs(loss2) <= 1e-9 and abs(loss3 - math.log(2.0)) <= 1e-9
        report_line(6, "closed-form contrastive values", ok,
                    f"M=2 loss {loss2:.2e}, M=3 loss {loss3:.12f}")
        assert ok


class TestCriterion07KmeansContracts:
    def test_monotonicity_degenerate_and_worker_invariance(self, monkeypatch):
        rng = np.random.default_rng(9)
        centers = rng.standard_normal((6, 5)) * 5
        x = np.repeat(centers, 400, axis=0) + rng.standard_normal((2400, 5))

        _, _, _, histories = kmeans(x, 6, restarts=5, seed=3, return_history=True)
        monotone = all(
            later <= earlier * (1.0 + 1e-9)
            for history in histories
            for earlier, later in zip(history, history[1:])
        )

        small = rng.standard_normal((12, 3))
        _, _, w_kn = kmeans(small, 12, restarts=3, seed=0)

        four = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        _, _, w_four = kmeans(four, 2, restarts=8, seed=0)

        # the same restarts in 1, 2 and 4 processes
        monkeypatch.setattr(_parallel, "CPUS", 1)
        base = kmeans(x, 6, restarts=3, seed=4)
        bitwise = True
        for cpus in (2, 4):
            monkeypatch.setattr(_parallel, "CPUS", cpus)
            other = kmeans(x, 6, restarts=3, seed=4)
            bitwise &= np.array_equal(base[0], other[0])
            bitwise &= np.array_equal(base[1].labels, other[1].labels)
            bitwise &= base[2] == other[2]

        ok = monotone and w_kn == 0.0 and abs(w_four - 1.0) < 1e-12 and bitwise
        report_line(
            7, "k-means contracts", ok,
            f"monotone={monotone} W(K=N)={w_kn} W(4pt)={w_four} processes-bitwise={bitwise}",
        )
        assert ok


class TestCriterion08ElbowDetection:
    def test_planted_knees_and_linear_curve(self):
        rng = np.random.default_rng(42)
        ks = np.arange(2, 22)
        hits = 0
        for _ in range(20):
            knee_idx = int(rng.integers(3, 16))
            steep = rng.uniform(20.0, 40.0)
            shallow = rng.uniform(0.2, 1.0)
            drops = np.where(np.arange(len(ks) - 1) < knee_idx, steep, shallow)
            noise = rng.uniform(0.0, 0.05, size=len(ks) - 1)
            w = 1000.0 - np.concatenate([[0.0], np.cumsum(drops + noise)])
            k_sel, _ = select_k_elbow(WssCurve(ks=ks, wss=w))
            if abs(int(np.nonzero(ks == k_sel)[0][0]) - knee_idx) <= 1:
                hits += 1
        linear_k, _ = select_k_elbow(
            WssCurve(ks=np.array([2, 4, 6, 8]), wss=np.array([80.0, 60.0, 40.0, 20.0]))
        )
        ok = hits >= 18 and linear_k == 2
        report_line(8, "elbow detection", ok, f"{hits}/20 knees, linear->K={linear_k}")
        assert ok


def _asnorm_one(raw, enroll_scores, test_scores, top_n):
    """One trial through the AS-Norm core: row 0 enroll, row 1 test."""
    rows = np.stack([enroll_scores, test_scores])
    return float(as_norm_scores(np.array([raw]), rows, [0], [1], top_n)[0])


class TestCriterion09AsNorm:
    def test_worked_example_affine_invariance_and_degenerate_error(self):
        worked = _asnorm_one(0.6, np.array([1.0, 0.0]), np.array([0.5, 0.1]), top_n=2)
        worked_ok = abs(worked - 0.85) <= 1e-9

        rng = np.random.default_rng(8)
        affine_ok = True
        for _ in range(25):
            e = rng.standard_normal(40)
            t = rng.standard_normal(40)
            s = float(rng.standard_normal())
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(-3, 3))
            base = _asnorm_one(s, e, t, top_n=12)
            moved = _asnorm_one(a * s + b, a * e + b, a * t + b, top_n=12)
            affine_ok &= abs(moved - base) <= 1e-9

        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        cohort = Cohort(np.tile([0.6, 0.8], (5, 1)))
        raw = cosine_score(Trials(["e", "t"], [0], [1], [True]), emb)
        try:
            as_norm(raw, emb, cohort, top_n=3)
            degenerate_ok = False
        except NumericError:
            degenerate_ok = True

        ok = worked_ok and affine_ok and degenerate_ok
        report_line(9, "AS-Norm", ok,
                    f"worked={worked:.10f} affine={affine_ok} degenerate={degenerate_ok}")
        assert ok


def _small_pipeline(out, seed=61, rounds=2, corpus_path=None, synth_seed=None):
    return PipelineConfig(
        output_dir=Path(out),
        seed=seed,
        rounds=rounds,
        corpus_path=corpus_path,
        synth=SynthConfig(
            num_identities=20,
            groups_per_identity=2,
            segments_per_group=5,
            audio_dim=8,
            visual_dim=8,
            within_identity_spread=3.0,
            observation_noise=0.3,
            seed=synth_seed if synth_seed is not None else seed,
        ),
        fixed_k=20,
        contrastive=ContrastiveConfig(
            learning_rate=0.003, epochs=3, batch_size=25,
            aug_low=0.5, aug_high=1.0,
        ),
        classifier=ClassifierConfig(
            learning_rate=0.5, epochs=6, batch_size=25,
            aug_low=0.5, aug_high=1.2,
        ),
        cluster=ClusterSettings(restarts=3),
        eval=EvalSettings(cohort_size=10, top_n=8, target_trials=30, nontarget_trials=30),
    )


def _bytes(root, names):
    return {n: (Path(root) / n).read_bytes() for n in names}


class TestCriterion10DeterminismAndResume:
    def test_bitwise_repeats_and_resume(self, tmp_path):
        label_files = [
            "round_000/assign_audio.tsv",
            "round_001/assign_fused.tsv",
            "round_002/assign_fused.tsv",
            "report.json",
        ]
        run_pipeline(_small_pipeline(tmp_path / "a"))
        run_pipeline(_small_pipeline(tmp_path / "b"))
        identical = _bytes(tmp_path / "a", label_files) == _bytes(tmp_path / "b", label_files)

        resumed_cfg = _small_pipeline(tmp_path / "resumed")
        art0 = run_stage1(resumed_cfg)
        run_round(resumed_cfg, 1, art0)  # stop here: simulated interruption
        run_pipeline(resumed_cfg)
        resumed = _bytes(tmp_path / "resumed", label_files) == _bytes(tmp_path / "a", label_files)

        ok = identical and resumed
        report_line(10, "determinism and resume", ok,
                    f"identical={identical} resumed={resumed}")
        assert ok


class TestCriterion11GroundTruthFirewall:
    def test_randomized_ground_truth_leaves_checkpoints_identical(self, tmp_path):
        corpus = generate_corpus(_small_pipeline(tmp_path / "seedcfg").synth)
        write_corpus(corpus, tmp_path / "clean")
        write_corpus(randomize_ground_truth(corpus, seed=17), tmp_path / "shuffled")

        checkpoints = [
            "round_001/encoder_audio.enc",
            "round_001/encoder_visual.enc",
        ]
        grabbed = {}
        for name in ("clean", "shuffled"):
            config = _small_pipeline(
                tmp_path / f"run_{name}", rounds=1, corpus_path=tmp_path / name,
            )
            run_pipeline(config)
            grabbed[name] = _bytes(tmp_path / f"run_{name}", checkpoints)
        ok = grabbed["clean"] == grabbed["shuffled"]
        report_line(11, "ground-truth firewall", ok,
                    "round-1 encoder checkpoints byte-identical" if ok else "checkpoints differ")
        assert ok
