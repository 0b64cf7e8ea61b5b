"""Cosine trial scoring, AS-Norm, and score fusion."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from selflabel.errors import ConfigError, DataError, NumericError
from selflabel.scoring import (
    Cohort,
    ScoreSet,
    Trials,
    as_norm,
    as_norm_scores,
    cosine_score,
    fuse_scores,
    read_scores,
    read_trials,
    write_scores,
    write_trials,
)


def trial_list(pairs, ids=None):
    """Trials from (enroll id, test id, key) triples, read from a trial file
    by read_trials: over ``ids`` when given (the rows of an embedding
    matrix), else over the ids in first-seen order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.txt"
        path.write_text("".join(f"{e} {t} {int(k)}\n" for e, t, k in pairs))
        return read_trials(path, ids)


def score(pairs, emb):
    """Cosine scores of (enroll id, test id, key) triples over an id -> vector
    mapping, whose ids become the rows of the embedding matrix."""
    ids = list(emb)
    return cosine_score(trial_list(pairs, ids), np.stack([emb[sid] for sid in ids]))


def asnorm_one(raw, enroll_scores, test_scores, top_n):
    """One trial through the AS-Norm core: row 0 enroll, row 1 test."""
    rows = np.stack([enroll_scores, test_scores])
    return float(as_norm_scores(np.array([raw]), rows, [0], [1], top_n)[0])


class TestCosineScore:
    def test_identical_embeddings_score_one(self):
        emb = {"a": np.array([0.3, 0.4]), "b": np.array([0.3, 0.4])}
        ss = score([("a", "b", 1)], emb)
        assert ss.scores[0] == pytest.approx(1.0)

    def test_orthogonal_embeddings_score_zero(self):
        emb = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}
        ss = score([("a", "b", 0)], emb)
        assert ss.scores[0] == pytest.approx(0.0, abs=1e-15)

    def test_worked_example(self):
        emb = {"a": np.array([1.0, 1.0]), "b": np.array([1.0, 0.0])}
        ss = score([("a", "b", 1)], emb)
        assert ss.scores[0] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_symmetry_in_enroll_and_test(self):
        rng = np.random.default_rng(3)
        emb = {"a": rng.standard_normal(5), "b": rng.standard_normal(5)}
        fwd = score([("a", "b", 1)], emb).scores[0]
        rev = score([("b", "a", 1)], emb).scores[0]
        assert fwd == rev

    def test_unknown_id_rejected(self):
        with pytest.raises(DataError, match="unknown id in trial list: 'zz'"):
            score([("a", "zz", 1)], {"a": np.ones(3)})

    def test_zero_norm_rejected(self):
        emb = {"a": np.zeros(3), "b": np.ones(3)}
        with pytest.raises(NumericError, match="zero-norm embedding for a"):
            score([("a", "b", 1)], emb)

    def test_rows_no_trial_uses_may_be_zero(self):
        emb = {"a": np.ones(3), "unused": np.zeros(3), "b": np.ones(3)}
        assert score([("a", "b", 1)], emb).scores[0] == pytest.approx(1.0)

    def test_one_embedding_row_per_trial_id(self):
        trials = trial_list([("a", "b", 1)])
        with pytest.raises(ConfigError, match="one embedding row per trial id"):
            cosine_score(trials, np.ones((3, 4)))


class TestAsNorm:
    def test_hand_derived_example(self):
        # enroll top-2 {1.0, 0.0}: mu 0.5 sigma 0.5; test top-2 {0.5, 0.1}:
        # mu 0.3 sigma 0.2; s = 0.6 -> 0.5*(0.2 + 1.5) = 0.85
        value = asnorm_one(0.6, np.array([1.0, 0.0]), np.array([0.5, 0.1]), top_n=2)
        assert value == pytest.approx(0.85, abs=1e-9)

    def test_population_std_in_stats(self):
        # top-2 of {1.0, 0.0, -0.5} is {1.0, 0.0}: mu 0.5 and population
        # sigma 0.5 (the sample sigma would be 0.707). With one row on both
        # sides a trial normalizes to (s - mu) / sigma.
        rows = np.array([[1.0, 0.0, -0.5]])
        normed = as_norm_scores(np.array([0.5, 1.0]), rows, [0, 0], [0, 0], top_n=2)
        np.testing.assert_allclose(normed, [0.0, 1.0], atol=1e-12)

    def test_affine_invariance_at_score_level(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            e_scores = rng.standard_normal(30)
            t_scores = rng.standard_normal(30)
            s = float(rng.standard_normal())
            base = asnorm_one(s, e_scores, t_scores, top_n=10)
            a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2, 2))
            shifted = asnorm_one(a * s + b, a * e_scores + b, a * t_scores + b, top_n=10)
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_rotation_invariance_of_full_pipeline(self):
        rng = np.random.default_rng(7)
        dim = 6
        ids = [f"s{i}" for i in range(8)]
        emb = rng.standard_normal((8, dim))
        cohort = Cohort(rng.standard_normal((10, dim)))
        trials = trial_list([("s0", "s1", 1), ("s2", "s3", 0), ("s4", "s5", 1)], ids)
        raw = cosine_score(trials, emb)
        normed = as_norm(raw, emb, cohort, top_n=5)

        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        emb_rot = emb @ q.T
        cohort_rot = Cohort(cohort.embeddings @ q.T)
        raw_rot = cosine_score(trials, emb_rot)
        normed_rot = as_norm(raw_rot, emb_rot, cohort_rot, top_n=5)
        np.testing.assert_allclose(normed_rot.scores, normed.scores, atol=1e-9)

    def test_degenerate_cohort_raises_named_side(self):
        emb = np.array([[1.0, 0.0], [0.6, 0.8]])
        # every cohort member identical: all cohort scores equal, zero sigma
        cohort = Cohort(np.tile([0.0, 1.0], (4, 1)))
        trials = trial_list([("e", "t", 1)])
        raw = cosine_score(trials, emb)
        with pytest.raises(NumericError, match="enroll side"):
            as_norm(raw, emb, cohort, top_n=3)

    def test_zero_norm_cohort_member_rejected(self):
        emb = np.array([[1.0, 0.0], [0.6, 0.8]])
        cohort = Cohort(np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
        raw = cosine_score(trial_list([("e", "t", 1)]), emb)
        with pytest.raises(NumericError, match="^zero-norm embedding in cohort$"):
            as_norm(raw, emb, cohort, top_n=2)

    def test_order_and_count_preserved(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((6, 4))
        cohort = Cohort(rng.standard_normal((8, 4)))
        trials = trial_list([("x0", "x1", 1), ("x2", "x3", 0), ("x4", "x5", 0)])
        raw = cosine_score(trials, emb)
        normed = as_norm(raw, emb, cohort, top_n=4)
        assert normed.trials == raw.trials
        assert len(normed) == 3

    def test_top_n_above_cohort_rejected(self):
        emb = np.ones((2, 3))
        cohort = Cohort(np.random.default_rng(0).standard_normal((4, 3)))
        raw = cosine_score(trial_list([("a", "b", 1)]), emb)
        with pytest.raises(ConfigError):
            as_norm(raw, emb, cohort, top_n=9)


class TestFuseScores:
    def test_single_set_weight_one_unchanged(self):
        trials = trial_list([("a", "b", 1), ("c", "d", 0)])
        ss = ScoreSet(trials=trials, scores=np.array([0.5, -0.25]))
        fused = fuse_scores([ss], [1.0])
        np.testing.assert_array_equal(fused.scores, ss.scores)

    def test_opposite_scores_cancel(self):
        trials = trial_list([("a", "b", 1)])
        s1 = ScoreSet(trials=trials, scores=np.array([0.8]))
        s2 = ScoreSet(trials=trials, scores=np.array([-0.8]))
        fused = fuse_scores([s1, s2], [0.5, 0.5])
        assert fused.scores[0] == 0.0

    def test_matches_manual_weighted_mean(self):
        rng = np.random.default_rng(8)
        trials = trial_list([(f"e{i}", f"t{i}", i % 2) for i in range(25)])
        sets = [ScoreSet(trials=trials, scores=rng.standard_normal(25)) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        fused = fuse_scores(sets, weights)
        manual = sum(w * s.scores for w, s in zip(weights, sets))
        np.testing.assert_allclose(fused.scores, manual, atol=1e-12)

    def test_one_hot_weights_select_exactly(self):
        rng = np.random.default_rng(9)
        trials = trial_list([("a", "b", 1)])
        sets = [ScoreSet(trials=trials, scores=rng.standard_normal(1)) for _ in range(3)]
        fused = fuse_scores(sets, [0.0, 1.0, 0.0])
        assert fused.scores[0] == sets[1].scores[0]

    def test_mismatched_trials_rejected(self):
        s1 = ScoreSet(trials=trial_list([("a", "b", 1)]), scores=np.array([0.1]))
        s2 = ScoreSet(trials=trial_list([("a", "c", 1)]), scores=np.array([0.1]))
        with pytest.raises(ConfigError):
            fuse_scores([s1, s2], [0.5, 0.5])

    def test_weights_must_sum_to_one(self):
        s1 = ScoreSet(trials=trial_list([("a", "b", 1)]), scores=np.array([0.1]))
        with pytest.raises(ConfigError):
            fuse_scores([s1], [0.9])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        s1 = ScoreSet(trials=trial_list([("a", "b", 1)]), scores=np.array([0.1]))
        with pytest.raises(ConfigError, match="weights must be finite"):
            fuse_scores([s1, s1], [0.5, bad])


class TestScoreFiles:
    def test_trial_round_trip(self, tmp_path):
        trials = trial_list([("a", "b", 1), ("c", "d", 0)])
        write_trials(tmp_path / "t.txt", trials)
        assert read_trials(tmp_path / "t.txt") == trials

    def test_score_round_trip_six_decimals(self, tmp_path):
        trials = trial_list([("a", "b", 1)])
        ss = ScoreSet(trials=trials, scores=np.array([0.123456789]))
        write_scores(tmp_path / "s.txt", ss)
        text = (tmp_path / "s.txt").read_text()
        assert "0.123457" in text
        back = read_scores(tmp_path / "s.txt", trials)
        assert back.scores[0] == pytest.approx(0.123457)

    def test_score_file_id_mismatch_rejected(self, tmp_path):
        trials = trial_list([("a", "b", 1)])
        write_scores(tmp_path / "s.txt", ScoreSet(trials=trials, scores=np.array([0.5])))
        other = trial_list([("a", "zzz", 1)])
        with pytest.raises(DataError, match="names trial"):
            read_scores(tmp_path / "s.txt", other)

    def test_ids_numbered_in_first_seen_order(self, tmp_path):
        (tmp_path / "t.txt").write_text("b a 1\na c 0\nc b 0\n")
        trials = read_trials(tmp_path / "t.txt")
        assert trials.ids == ("b", "a", "c")
        assert trials.enroll.tolist() == [0, 1, 2]
        assert trials.test.tolist() == [1, 2, 0]
        assert trials.is_target.tolist() == [True, False, False]

    def test_reindex_keeps_every_pair(self, tmp_path):
        trials = trial_list([("b", "a", 1), ("a", "c", 0)])
        write_trials(tmp_path / "a.txt", trials)
        moved = read_trials(tmp_path / "a.txt", ["c", "x", "a", "b"])
        assert moved.enroll.tolist() == [3, 2] and moved.test.tolist() == [2, 0]
        write_trials(tmp_path / "b.txt", moved)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize("lines", [["a b 0.5"], ["a b 0.5", "c d 0.1", "e f 0.2"]])
    def test_score_file_row_count_mismatch_rejected(self, tmp_path, lines):
        trials = trial_list([("a", "b", 1), ("c", "d", 0)])
        (tmp_path / "s.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"has {len(lines)} rows but trial list has 2"):
            read_scores(tmp_path / "s.txt", trials)

    def test_malformed_trial_line_rejected(self, tmp_path):
        (tmp_path / "t.txt").write_text("a b maybe\n")
        with pytest.raises(DataError):
            read_trials(tmp_path / "t.txt")

    def test_undecodable_trial_file_rejected(self, tmp_path):
        (tmp_path / "t.txt").write_bytes(bytes(range(128, 256)))
        with pytest.raises(DataError, match="cannot read trial file"):
            read_trials(tmp_path / "t.txt")


def long_score_file(path, n):
    """A score file as write_scores writes it, of ``n`` trials over 500 ids
    (enroll and test differ in every trial), and its trial list."""
    rng = np.random.default_rng(30)
    enroll = rng.integers(0, 500, n)
    test = (enroll + rng.integers(1, 500, n)) % 500
    trials = Trials(tuple(f"s{i:03d}" for i in range(500)), enroll, test, rng.random(n) < 0.5)
    write_scores(path, ScoreSet(trials=trials, scores=rng.uniform(-1, 1, n)))
    return trials


def _four_fields(lines, row):
    lines[row] += " 1"


def _two_fields(lines, row):
    lines[row] = " ".join(lines[row].split()[:2])


def _line_break_moved(lines, row):
    # a 4-field row, then a 2-field row: in sequence, the canonical fields
    first, *rest = lines[row + 1].split()
    lines[row] += " " + first
    lines[row + 1] = " ".join(rest)


def _swapped_ids(lines, row):
    e, t, s = lines[row].split()
    lines[row] = f"{t} {e} {s}"


def _score(value):
    def edit(lines, row):
        e, t, _ = lines[row].split()
        lines[row] = f"{e} {t} {value}"
    return edit


class TestScoreFileBlocks:
    """read_scores reads every file in blocks of whole lines. Each edit below
    sits in the second block, after one the reader accepted, and the error
    names it in the words of the earlier per-line reader (the "row path" of
    the test names)."""

    N = 6000  # about 115 KiB: two blocks
    ROW = 5000

    @pytest.fixture
    def canonical(self, tmp_path):
        path = tmp_path / "s.txt"
        return path, long_score_file(path, self.N)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(_four_fields, "malformed score row in {path}: {line!r}", id="four-fields"),
        pytest.param(_two_fields, "malformed score row in {path}: {line!r}", id="two-fields"),
        pytest.param(_line_break_moved, "malformed score row in {path}: {line!r}",
                     id="line-break-moved"),
        pytest.param(_swapped_ids, "score row {row} of {path} names trial ({e}, {t}) but "
                     "the trial list has ({t}, {e})", id="swapped-ids"),
        pytest.param(_score("nan"), "score row {row} of {path} is not finite: nan", id="nan"),
        pytest.param(_score("inf"), "score row {row} of {path} is not finite: inf", id="inf"),
        pytest.param(lambda lines, row: lines.append(lines[row]),
                     "score file {path} has 6001 rows but trial list has 6000", id="row-too-many"),
        pytest.param(lambda lines, row: lines.pop(),
                     "score file {path} has 5999 rows but trial list has 6000", id="row-too-few"),
    ])
    def test_error_text_is_the_row_paths(self, canonical, edit, message):
        path, trials = canonical
        lines = path.read_text().splitlines()
        edit(lines, self.ROW)
        path.write_text("\n".join(lines) + "\n")
        e, t = lines[self.ROW].split()[:2]
        with pytest.raises(DataError) as excinfo:
            read_scores(path, trials)
        assert str(excinfo.value) == message.format(
            path=path, line=lines[self.ROW], row=self.ROW, e=e, t=t
        )

    def test_canonical_file_gives_the_row_paths_floats(self, canonical):
        path, trials = canonical
        scores = read_scores(path, trials).scores
        # the reference: each line split and its score converted on its own
        rows = [line.split() for line in path.read_text().splitlines()]
        assert [row[:2] for row in rows] == [list(pair) for pair in zip(*trials._pair_names)]
        assert scores.tobytes() == np.array([float(row[2]) for row in rows]).tobytes()

    @pytest.mark.parametrize("rewrite", [
        pytest.param(lambda text: "\n" + text.replace("\n", "\n\n", 3) + "\n", id="blank-lines"),
        pytest.param(lambda text: text.replace(" ", "\t"), id="tabs"),
        pytest.param(lambda text: text.rstrip("\n"), id="no-final-newline"),
    ])
    def test_other_layouts_still_parse(self, canonical, rewrite):
        path, trials = canonical
        expected = read_scores(path, trials).scores
        path.write_text(rewrite(path.read_text()))
        assert read_scores(path, trials).scores.tobytes() == expected.tobytes()


class TestTrials:
    def test_indices_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="trial indices"):
            Trials(("a", "b"), [0], [2], [True])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ConfigError, match="equal-length"):
            Trials(("a", "b"), [0, 1], [1], [True, False])

    def test_arrays_are_read_only_copies(self):
        enroll = np.array([0, 1])
        trials = Trials(("a", "b"), enroll, [1, 0], [1, 0])
        enroll[0] = 1
        assert trials.enroll.tolist() == [0, 1]
        assert trials.is_target.dtype == bool
        with pytest.raises(ValueError):
            trials.test[0] = 0

    def test_callers_scores_stay_writable(self):
        scores = np.array([0.5, -0.25])
        score_set = ScoreSet(Trials(("a", "b"), [0, 1], [1, 0], [1, 0]), scores)
        assert scores.flags.writeable
        assert not score_set.scores.flags.writeable
        scores[0] = 0.0
        np.testing.assert_array_equal(score_set.scores, [0.5, -0.25])
