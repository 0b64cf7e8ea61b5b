"""NMI, EER, and minDCF against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selflabel.errors import ConfigError
from selflabel.metrics import DcfParams, eer, min_dcf, nmi
from selflabel.scoring import ScoreSet, Trials


def score_set(target_scores, nontarget_scores):
    """Scores of trials that each pair two fresh samples, targets first."""
    n_t, n = len(target_scores), len(target_scores) + len(nontarget_scores)
    trials = Trials(
        ids=[f"s{i}" for i in range(2 * n)],
        enroll=np.arange(0, 2 * n, 2),
        test=np.arange(1, 2 * n, 2),
        is_target=np.arange(n) < n_t,
    )
    scores = np.concatenate([target_scores, nontarget_scores]).astype(np.float64)
    return ScoreSet(trials=trials, scores=scores)


def nmi_oracle(a, b):
    """Contingency + entropy evaluation written independently."""
    a = list(a)
    b = list(b)
    n = len(a)
    cells = {}
    for x, y in zip(a, b):
        cells[(x, y)] = cells.get((x, y), 0) + 1
    pa = {}
    pb = {}
    for (x, y), c in cells.items():
        pa[x] = pa.get(x, 0) + c
        pb[y] = pb.get(y, 0) + c
    h_a = -sum((c / n) * math.log(c / n) for c in pa.values())
    h_b = -sum((c / n) * math.log(c / n) for c in pb.values())
    if h_a == 0 and h_b == 0:
        return 1.0
    mi = 0.0
    for (x, y), c in cells.items():
        p = c / n
        mi += p * math.log(p / ((pa[x] / n) * (pb[y] / n)))
    return mi / ((h_a + h_b) / 2.0)


def eer_oracle(scores, is_target):
    """Exhaustive sweep over distinct thresholds with the same
    interpolation rule, computed by direct counting."""
    thresholds = sorted(set(scores)) + [float("inf")]
    tgt = [s for s, t in zip(scores, is_target) if t]
    non = [s for s, t in zip(scores, is_target) if not t]
    points = []
    for th in thresholds:
        far = sum(1 for s in non if s >= th) / len(non)
        frr = sum(1 for s in tgt if s < th) / len(tgt)
        points.append((th, far, frr))
    for i, (th, far, frr) in enumerate(points):
        d = far - frr
        if d == 0:
            return far, th
        if d < 0:
            th0, far0, frr0 = points[i - 1]
            d0 = far0 - frr0
            alpha = d0 / (d0 - d)
            return far0 + alpha * (far - far0), th0 + alpha * (th - th0)
    raise AssertionError("no crossing found")


def min_dcf_oracle(scores, is_target, params):
    thresholds = sorted(set(scores)) + [float("inf")]
    tgt = [s for s, t in zip(scores, is_target) if t]
    non = [s for s, t in zip(scores, is_target) if not t]
    best = (float("inf"), None)
    den = min(params.c_miss * params.p_target, params.c_fa * (1 - params.p_target))
    for th in thresholds:
        far = sum(1 for s in non if s >= th) / len(non)
        frr = sum(1 for s in tgt if s < th) / len(tgt)
        cost = (params.c_miss * params.p_target * frr + params.c_fa * (1 - params.p_target) * far) / den
        if cost < best[0]:
            best = (cost, th)
    return best


_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def labelings(draw, n):
    """``n`` labels over a palette of up to 8 arbitrary int64 values:
    negative, sparse and beyond 2**40 as often as small."""
    palette = draw(st.lists(_INT64, min_size=1, max_size=8, unique=True))
    return np.array(draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n)),
                    dtype=np.int64)


@st.composite
def relabeled(draw, labels):
    """``labels`` under an arbitrary injective map into int64."""
    old = np.unique(labels)
    new = draw(st.lists(_INT64, min_size=old.size, max_size=old.size, unique=True))
    return np.array(new, dtype=np.int64)[np.searchsorted(old, labels)]


class TestNmi:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_properties_over_arbitrary_int64_labels(self, data):
        n = data.draw(st.integers(1, 40))
        a, b = data.draw(labelings(n)), data.draw(labelings(n))
        value = nmi(a, b)
        assert 0.0 <= value <= 1.0
        assert nmi(b, a) == value
        assert nmi(data.draw(relabeled(a)), b) == value
        assert nmi(a, data.draw(relabeled(b))) == value
        assert nmi(a, a) == 1.0

    def test_self_agreement_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.integers(0, 6, size=50)
            assert nmi(a, a) == 1.0

    def test_independent_labelings_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_worked_example(self):
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        value = nmi(a, b)
        assert value == pytest.approx(0.4786, abs=5e-4)
        assert value == pytest.approx(nmi_oracle(a, b), abs=1e-10)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
            b = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
            assert nmi(a, b) == pytest.approx(nmi_oracle(a, b), abs=1e-10)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.integers(0, 5, size=40)
            b = rng.integers(0, 7, size=40)
            assert nmi(a, b) == nmi(b, a)

    def test_relabeling_invariance_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            a = rng.integers(0, 6, size=60)
            b = rng.integers(0, 6, size=60)
            perm = rng.permutation(6)
            assert nmi(perm[a], b) == nmi(a, b)
            assert nmi(a, perm[b]) == nmi(a, b)

    def test_both_constant_defined_as_one(self):
        assert nmi([3, 3, 3], [1, 1, 1]) == 1.0

    def test_one_constant_zero(self):
        assert nmi([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            nmi([0, 1], [0, 1, 2])


class TestEer:
    def test_perfect_separation_zero(self):
        ss = score_set([0.9, 0.8, 0.7], [0.3, 0.2, 0.1])
        value, _ = eer(ss)
        assert value == 0.0

    def test_worked_example_one_third(self):
        ss = score_set([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        value, threshold = eer(ss)
        assert value == pytest.approx(1.0 / 3.0)
        assert threshold == pytest.approx(0.7)

    def test_flipped_keys_negated_scores_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tgt = rng.standard_normal(12) + 0.8
            non = rng.standard_normal(15)
            ss = score_set(tgt, non)
            flipped = score_set(-non, -tgt)
            assert eer(flipped)[0] == pytest.approx(eer(ss)[0], abs=1e-12)

    def test_matches_sweep_oracle_random_sets(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n_t = int(rng.integers(1, 26))
            n_n = int(rng.integers(1, 26))
            tgt = rng.standard_normal(n_t) + rng.uniform(0, 1.5)
            non = rng.standard_normal(n_n)
            ss = score_set(tgt, non)
            got_eer, got_th = eer(ss)
            want_eer, want_th = eer_oracle(ss.scores.tolist(), ss.is_target.tolist())
            assert got_eer == pytest.approx(want_eer, abs=1e-12)
            assert got_th == pytest.approx(want_th, abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        tgt = rng.standard_normal(10) + 1.0
        non = rng.standard_normal(10)
        base, _ = eer(score_set(tgt, non))
        warped, _ = eer(score_set(np.tanh(tgt) * 3 + 1, np.tanh(non) * 3 + 1))
        assert warped == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            eer(score_set([0.5, 0.6], []))


class TestMinDcf:
    def test_perfect_separation_zero(self):
        ss = score_set([0.9, 0.8], [0.1, 0.2])
        value, _ = min_dcf(ss, DcfParams(p_target=0.5))
        assert value == 0.0

    def test_worked_example(self):
        # two optimal threshold regions exist; the sweep oracle confirms the
        # minimum value and that the returned threshold attains it
        ss = score_set([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
        params = DcfParams(p_target=0.5, c_miss=1.0, c_fa=1.0)
        value, threshold = min_dcf(ss, params)
        assert value == pytest.approx(1.0 / 3.0)
        want_value, _ = min_dcf_oracle(ss.scores.tolist(), ss.is_target.tolist(), params)
        assert value == pytest.approx(want_value, abs=1e-12)
        assert threshold in (pytest.approx(0.3), pytest.approx(0.8))

    def test_identical_scores_cost_one(self):
        ss = score_set([0.5, 0.5], [0.5, 0.5])
        for p_target in (0.05, 0.5, 0.9):
            value, _ = min_dcf(ss, DcfParams(p_target=p_target))
            assert value == pytest.approx(1.0)

    def test_matches_sweep_oracle_random_sets(self):
        rng = np.random.default_rng(31)
        params = DcfParams(p_target=0.05, c_miss=1.0, c_fa=1.0)
        for _ in range(100):
            n_t = int(rng.integers(1, 26))
            n_n = int(rng.integers(1, 26))
            tgt = rng.standard_normal(n_t) + rng.uniform(0, 2)
            non = rng.standard_normal(n_n)
            ss = score_set(tgt, non)
            got, got_th = min_dcf(ss, params)
            want, want_th = min_dcf_oracle(ss.scores.tolist(), ss.is_target.tolist(), params)
            assert got == pytest.approx(want, abs=1e-12)
            assert got_th == pytest.approx(want_th, abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(6)
        tgt = rng.standard_normal(8) + 1.0
        non = rng.standard_normal(12)
        params = DcfParams()
        base, _ = min_dcf(score_set(tgt, non), params)
        warped, _ = min_dcf(score_set(np.exp(tgt), np.exp(non)), params)
        assert warped == pytest.approx(base, abs=1e-12)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            tgt = rng.standard_normal(10)
            non = rng.standard_normal(10) + 1.0  # inverted separability
            value, _ = min_dcf(score_set(tgt, non), DcfParams(p_target=0.05))
            assert value <= 1.0 + 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            DcfParams(p_target=0.0)
        with pytest.raises(ConfigError):
            DcfParams(p_target=0.5, c_miss=-1.0)


# scores on a grid of 1/8, where every map below stays strictly increasing in
# floating point; ties in the drawn scores are kept
_grid_scores = st.lists(st.integers(-40, 40), min_size=1, max_size=30).map(
    lambda values: np.array(values, dtype=np.float64) / 8.0
)
_INCREASING = {
    "affine": lambda s: 3.0 * s - 7.0,
    "cube": lambda s: s**3,
    "exp": np.exp,
    "arctan": np.arctan,
}


class TestMonotoneInvariance:
    """EER and minDCF depend on the order of the scores only: neither the
    order of the trials nor a strictly increasing map of the scores moves
    them."""

    @settings(max_examples=150, deadline=None)
    @given(tgt=_grid_scores, non=_grid_scores, data=st.data())
    def test_trial_order(self, tgt, non, data):
        ss = score_set(tgt, non)
        order = np.array(data.draw(st.permutations(range(len(ss)))))
        trials = ss.trials
        shuffled = ScoreSet(
            trials=Trials(trials.ids, trials.enroll[order], trials.test[order],
                          trials.is_target[order]),
            scores=ss.scores[order],
        )
        assert eer(shuffled) == eer(ss)
        assert min_dcf(shuffled) == min_dcf(ss)

    @settings(max_examples=150, deadline=None)
    @given(tgt=_grid_scores, non=_grid_scores, name=st.sampled_from(sorted(_INCREASING)))
    def test_strictly_increasing_map(self, tgt, non, name):
        ss = score_set(tgt, non)
        grid = np.unique(ss.scores)
        assume(np.all(np.diff(_INCREASING[name](grid)) > 0))
        warped = ScoreSet(trials=ss.trials, scores=_INCREASING[name](ss.scores))
        assert eer(warped)[0] == eer(ss)[0]
        assert min_dcf(warped)[0] == min_dcf(ss)[0]
