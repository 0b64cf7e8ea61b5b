"""Trial scoring against a reference copy of the per-trial formulation.

The reference below is the scoring code as it stood before trial lists
became index arrays: each trial is a pair of ids, every embedding is looked
up in a mapping from id to vector and normalized on first use, cosine
scores are one dot product per trial, AS-Norm scores each trial sample
against the cohort one vector at a time, and fusion is a weighted sum per
trial. The production functions gather rows of one matrix instead and must
agree with it to 1e-12.
"""

import numpy as np
import pytest

from selflabel import scoring
from selflabel.scoring import (
    Cohort,
    as_norm,
    cosine_score,
    fuse_scores,
    read_scores,
    read_trials,
    write_scores,
)

# ---------------------------------------------------------------------------
# reference implementation
# ---------------------------------------------------------------------------


def ref_unit(vec):
    return vec / np.linalg.norm(vec)


def ref_cosine_score(pairs, embeddings_by_id):
    units = {}

    def lookup(sample_id):
        if sample_id not in units:
            units[sample_id] = ref_unit(np.asarray(embeddings_by_id[sample_id], dtype=np.float64))
        return units[sample_id]

    return np.array([float(lookup(e) @ lookup(t)) for e, t, _ in pairs])


def ref_as_norm(pairs, raw, embeddings_by_id, cohort, top_n):
    cohort_units = cohort / np.linalg.norm(cohort, axis=1)[:, None]

    def stats(sample_id):
        top = np.sort(cohort_units @ ref_unit(embeddings_by_id[sample_id]))[-top_n:]
        return top.mean(), np.sqrt(np.mean((top - top.mean()) ** 2))

    out = []
    for (e, t, _), s in zip(pairs, raw):
        mu_e, sigma_e = stats(e)
        mu_t, sigma_t = stats(t)
        out.append(0.5 * ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t))
    return np.array(out)


def ref_fuse_scores(score_lists, weights):
    fused = np.zeros(len(score_lists[0]))
    for weight, scores in zip(weights, score_lists):
        fused += weight * np.asarray(scores)
    return fused


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def random_case(seed, num_ids=30, num_trials=400, dim=6):
    """Embeddings of a shuffled corpus, some of whose rows no trial uses, and
    trials whose ids repeat, written to and read back from a trial file."""
    rng = np.random.default_rng(seed)
    corpus_ids = [f"id{i:03d}" for i in rng.permutation(num_ids + 5)]
    z = rng.standard_normal((len(corpus_ids), dim))
    used = corpus_ids[:num_ids]
    pairs = []
    for _ in range(num_trials):
        e, t = rng.choice(num_ids, size=2, replace=False)
        pairs.append((used[e], used[t], int(rng.integers(2))))
    return rng, corpus_ids, z, pairs


@pytest.mark.parametrize("gather_rows", [4096, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_index_path_matches_per_trial_reference(tmp_path, monkeypatch, seed, gather_rows):
    monkeypatch.setattr(scoring, "_GATHER_ROWS", gather_rows)
    rng, corpus_ids, z, pairs = random_case(seed)
    by_id = dict(zip(corpus_ids, z))
    path = tmp_path / "trials.txt"
    path.write_text("".join(f"{e} {t} {k}\n" for e, t, k in pairs))
    trials = read_trials(path, corpus_ids)
    assert len(trials) == len(pairs)
    assert trials.is_target.tolist() == [bool(k) for _, _, k in pairs]

    raw = cosine_score(trials, z)
    want_raw = ref_cosine_score(pairs, by_id)
    np.testing.assert_allclose(raw.scores, want_raw, rtol=0, atol=1e-12)

    cohort = rng.standard_normal((12, z.shape[1]))
    normed = as_norm(raw, z, Cohort(cohort), top_n=5)
    want_normed = ref_as_norm(pairs, want_raw, by_id, cohort, top_n=5)
    np.testing.assert_allclose(normed.scores, want_normed, rtol=0, atol=1e-12)

    fused = fuse_scores([raw, normed], [0.25, 0.75])
    want_fused = ref_fuse_scores([want_raw, want_normed], [0.25, 0.75])
    np.testing.assert_allclose(fused.scores, want_fused, rtol=0, atol=1e-12)

    # the score file names each trial's ids as the trial file does
    write_scores(tmp_path / "scores.txt", fused)
    lines = (tmp_path / "scores.txt").read_text().splitlines()
    assert [tuple(line.split()[:2]) for line in lines] == [(e, t) for e, t, _ in pairs]
    back = read_scores(tmp_path / "scores.txt", trials)
    np.testing.assert_allclose(back.scores, want_fused, rtol=0, atol=5e-7)
