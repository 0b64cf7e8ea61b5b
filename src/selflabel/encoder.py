"""Two-layer embedding networks, losses, analytic gradients, training loops.

The encoder is affine -> tanh -> affine with no output normalization; cosine
geometry is applied by the losses and the scoring stage. Training functions
accept bare feature matrices and integer pseudo-labels only, never corpus
metadata, which keeps ground truth structurally out of the training path.

All gradients are hand-derived and checked against central finite
differences (see :func:`grad_check`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError, TrainingError
from .synthdata import perturb_two_views

_ENC_MAGIC = b"ENC1"


@dataclass(frozen=True)
class EncoderParams:
    """Weights of one modality encoder: z = W2 tanh(W1 x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ConfigError("weight matrices must be 2-d")
        if self.b1.shape != (self.w1.shape[0],) or self.b2.shape != (self.w2.shape[0],):
            raise ConfigError("bias shapes do not match weight matrices")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ConfigError("layer shapes are inconsistent")
        for name in ("w1", "b1", "w2", "b2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"non-finite entries in {name}")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass(frozen=True)
class ClassifierHead:
    """Linear class-score layer on top of an encoder embedding."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ConfigError("classifier head shapes are inconsistent")
        if self.w.shape[0] < 2:
            raise ConfigError("classifier head needs at least 2 classes")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise NumericError("non-finite entries in classifier head")

    @property
    def num_classes(self) -> int:
        return self.w.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [self.w, self.b]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by both training loops.

    ``denominator`` picks the contrastive denominator: ``cross`` restricts
    negatives to opposite-view embeddings of other samples (the positive term
    is excluded), ``simclr`` is the standard NT-Xent denominator over all
    other 2M-1 embeddings.
    """

    batch_size: int = 128
    temperature: float = 0.1
    epsilon_smooth: float = 0.1
    learning_rate: float = 0.1
    epochs: int = 30
    seed: int = 0
    optimizer: str = "sgd"
    hidden_dim: int = 64
    embed_dim: int = 16
    denominator: str = "cross"

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if not 0 <= self.epsilon_smooth < 1:
            raise ConfigError("epsilon_smooth must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("hidden_dim and embed_dim must be >= 1")
        if self.denominator not in ("cross", "simclr"):
            raise ConfigError(f"unknown denominator variant {self.denominator!r}")


# ---------------------------------------------------------------------------
# initialization / forward / backward
# ---------------------------------------------------------------------------


def init_encoder(in_dim: int, hidden_dim: int, embed_dim: int, rng) -> EncoderParams:
    """Seeded uniform init in +-1/sqrt(fan_in) for weights and biases."""
    b1 = 1.0 / np.sqrt(in_dim)
    b2 = 1.0 / np.sqrt(hidden_dim)
    return EncoderParams(
        w1=rng.uniform(-b1, b1, size=(hidden_dim, in_dim)),
        b1=rng.uniform(-b1, b1, size=hidden_dim),
        w2=rng.uniform(-b2, b2, size=(embed_dim, hidden_dim)),
        b2=rng.uniform(-b2, b2, size=embed_dim),
    )


def init_head(num_classes: int, embed_dim: int, rng) -> ClassifierHead:
    bound = 1.0 / np.sqrt(embed_dim)
    return ClassifierHead(
        w=rng.uniform(-bound, bound, size=(num_classes, embed_dim)),
        b=rng.uniform(-bound, bound, size=num_classes),
    )


def _forward(params: EncoderParams, x2d: np.ndarray):
    hidden = np.tanh(x2d @ params.w1.T + params.b1)
    z = hidden @ params.w2.T + params.b2
    return hidden, z


def embed(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Encode one vector or a matrix of row vectors."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("encoder input contains non-finite values")
    single = arr.ndim == 1
    x2d = np.atleast_2d(arr)
    if x2d.shape[1] != params.in_dim:
        raise ConfigError(
            f"input dimension {x2d.shape[1]} does not match encoder ({params.in_dim})"
        )
    _, z = _forward(params, x2d)
    return z[0] if single else z


def _backward(params: EncoderParams, x2d, hidden, dz) -> EncoderParams:
    dw2 = dz.T @ hidden
    db2 = dz.sum(axis=0)
    dhidden = dz @ params.w2
    dpre = dhidden * (1.0 - hidden * hidden)
    dw1 = dpre.T @ x2d
    db1 = dpre.sum(axis=0)
    return EncoderParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def contrastive_loss(z: np.ndarray, tau: float, denominator: str = "cross"):
    """Instance-discrimination loss over a two-view batch, with gradient.

    ``z`` has shape (2M, d): rows 0..M-1 are the first views, rows M..2M-1
    the second views of samples 0..M-1. Per anchor, the positive score is the
    cosine of the sample's two views; the denominator set depends on the
    ``denominator`` variant (see :class:`TrainConfig`). Returns the mean
    per-anchor loss and its gradient with respect to ``z``. The loss is a
    pure function of pairwise cosines, hence invariant to a common positive
    rescaling of all embeddings, and is not sign-constrained in the
    ``cross`` variant (the positive term is absent from its denominator).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] % 2 != 0:
        raise ConfigError("contrastive batch must have shape (2M, d)")
    if not np.all(np.isfinite(z)):
        raise NumericError("contrastive batch contains non-finite values")
    n2 = z.shape[0]
    m = n2 // 2
    if m < 2:
        raise ConfigError("contrastive loss needs at least 2 samples (4 rows)")
    if tau <= 0:
        raise ConfigError("temperature must be positive")

    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0):
        raise NumericError("zero-norm embedding in contrastive batch")
    u = z / norms[:, None]
    cosines = u @ u.T
    s = cosines / tau

    pair = np.concatenate([np.arange(m) + m, np.arange(m)])
    if denominator == "cross":
        sample = np.concatenate([np.arange(m), np.arange(m)])
        view = np.repeat(np.array([0, 1]), m)
        mask = (sample[:, None] != sample[None, :]) & (view[:, None] != view[None, :])
    elif denominator == "simclr":
        mask = ~np.eye(n2, dtype=bool)
    else:
        raise ConfigError(f"unknown denominator variant {denominator!r}")

    s_masked = np.where(mask, s, -np.inf)
    row_max = s_masked.max(axis=1)
    expo = np.exp(s_masked - row_max[:, None])
    denom = expo.sum(axis=1)
    lse = row_max + np.log(denom)
    s_pos = s[np.arange(n2), pair]
    loss = float(np.mean(lse - s_pos))

    # Sensitivities w.r.t. each cosine, then chain rule through the cosine.
    a_mat = expo / denom[:, None]
    a_mat[np.arange(n2), pair] -= 1.0
    a_mat /= tau
    g = a_mat + a_mat.T
    row_coef = (g * cosines).sum(axis=1)
    grad = (g @ u - row_coef[:, None] * u) / norms[:, None] / n2
    return loss, grad


def classifier_posteriors(head: ClassifierHead, z: np.ndarray) -> np.ndarray:
    """Softmax class posteriors for one embedding or a batch of embeddings."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite embedding")
    single = z.ndim == 1
    logits = np.atleast_2d(z) @ head.w.T + head.b
    p = np.exp(_log_softmax(logits))
    return p[0] if single else p


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def classifier_loss(logits: np.ndarray, labels: np.ndarray, epsilon: float):
    """Mean label-smoothed cross entropy over a batch, with its gradient.

    Row i of ``logits`` (shape (B, K)) is scored against the target that puts
    1 - epsilon on ``labels[i]`` plus epsilon / K on every class. The loss is
    taken on the logits through a log-sum-exp, so a saturated posterior never
    produces a NaN. Returns ``(loss, grad)``: the mean loss over the batch
    and its gradient with respect to ``logits``, (posterior - target) / B.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],) or labels.size == 0:
        raise ConfigError("need a nonempty (batch, classes) logit matrix and one label per row")
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ConfigError(f"label out of range [0, {k})")
    if not 0 <= epsilon < 1:
        raise ConfigError("epsilon must lie in [0, 1)")
    target = np.full((n, k), epsilon / k, dtype=np.float64)
    target[np.arange(n), labels] += 1.0 - epsilon
    logp = _log_softmax(logits)
    loss = float(-(target * logp).sum() / n)
    return loss, (np.exp(logp) - target) / n


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class _Sgd:
    def __init__(self, arrays):
        self.arrays = arrays

    def step(self, grads, lr):
        for a, g in zip(self.arrays, grads):
            a -= lr * g


class _Adam:
    def __init__(self, arrays, beta1=0.9, beta2=0.999, eps=1e-8):
        self.arrays = arrays
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, grads, lr):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            a -= lr * mhat / (np.sqrt(vhat) + self.eps)


def _make_optimizer(config: TrainConfig, arrays):
    return _Adam(arrays) if config.optimizer == "adam" else _Sgd(arrays)


def _lr_at(config: TrainConfig, epoch: int) -> float:
    # SGD drops by 10x at two thirds of the run; Adam stays flat.
    if config.optimizer == "sgd" and config.epochs > 0 and epoch >= (2 * config.epochs) // 3:
        return config.learning_rate * 0.1
    return config.learning_rate


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def train_contrastive(
    features: np.ndarray,
    config: TrainConfig,
    augmentation_range: tuple[float, float],
) -> tuple[EncoderParams, list[tuple[int, float, float]]]:
    """Instance-discrimination pretraining on a feature matrix.

    Deterministic given ``config.seed``. Returns the trained parameters and a
    per-epoch log of (epoch, mean_loss, accuracy); accuracy is NaN here
    because there are no labels at this stage. Trailing partial batches are
    dropped so every batch has the full size.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("features must be a nonempty 2-d matrix")
    n = x.shape[0]
    if config.batch_size > n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds corpus size {n}")
    low, high = augmentation_range
    if low < 0 or high < low:
        raise ConfigError("augmentation range must satisfy 0 <= low <= high")

    params = init_encoder(x.shape[1], config.hidden_dim, config.embed_dim,
                          np.random.default_rng([config.seed, 101]))
    rng = np.random.default_rng([config.seed, 102])
    opt = _make_optimizer(config, params.arrays())
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        lr = _lr_at(config, epoch)
        losses = []
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            idx = order[start : start + config.batch_size]
            v1, v2 = perturb_two_views(x[idx], low, high, rng)
            batch = np.vstack([v1, v2])
            hidden, z = _forward(params, batch)
            loss, dz = contrastive_loss(z, config.temperature, config.denominator)
            if not np.isfinite(loss):
                raise TrainingError(f"contrastive loss diverged at epoch {epoch}", epoch)
            grads = _backward(params, batch, hidden, dz)
            opt.step(grads.arrays(), lr)
            losses.append(loss)
        log.append((epoch, float(np.mean(losses)), float("nan")))
    return params, log


def train_classifier(
    features: np.ndarray,
    pseudo_labels: np.ndarray,
    num_classes: int,
    config: TrainConfig,
    augmentation_range: tuple[float, float] | None = None,
    augmentation_prob: float = 0.6,
) -> tuple[EncoderParams, ClassifierHead, list[tuple[int, float, float]]]:
    """Supervised training of encoder + linear head on pseudo-labels.

    Targets are label-smoothed with ``config.epsilon_smooth``. When an
    ``augmentation_range`` is given, each sample is perturbed with additive
    noise at probability ``augmentation_prob`` per step; combined with the
    smoothing this is what keeps the network from memorizing label noise.
    Returns the trained encoder, the head, and a per-epoch (epoch,
    mean_loss, accuracy) log where accuracy is the training accuracy against
    the pseudo-labels.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(pseudo_labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("features must be a nonempty 2-d matrix")
    if labels.shape != (x.shape[0],):
        raise ConfigError("pseudo-labels must cover every sample exactly once")
    if num_classes < 2:
        raise ConfigError("need at least 2 pseudo-classes")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ConfigError(
            f"label index out of range: found {labels.max()}, have {num_classes} classes"
        )
    if augmentation_range is not None:
        low, high = augmentation_range
        if low < 0 or high < low:
            raise ConfigError("augmentation range must satisfy 0 <= low <= high")
        if not 0 <= augmentation_prob <= 1:
            raise ConfigError("augmentation_prob must lie in [0, 1]")

    n = x.shape[0]
    init_rng = np.random.default_rng([config.seed, 201])
    params = init_encoder(x.shape[1], config.hidden_dim, config.embed_dim, init_rng)
    head = init_head(num_classes, config.embed_dim, init_rng)
    rng = np.random.default_rng([config.seed, 202])
    arrays = params.arrays() + head.arrays()
    opt = _make_optimizer(config, arrays)
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        lr = _lr_at(config, epoch)
        loss_sum = 0.0
        hits = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = x[idx], labels[idx]
            if augmentation_range is not None:
                low, high = augmentation_range
                hit = rng.random(len(idx)) < augmentation_prob
                mag = rng.uniform(low, high, size=(len(idx), 1)) * hit[:, None]
                xb = xb + mag * rng.standard_normal(xb.shape)
            hidden, z = _forward(params, xb)
            logits = z @ head.w.T + head.b
            batch_loss, dlogits = classifier_loss(logits, yb, config.epsilon_smooth)
            if not np.isfinite(batch_loss):
                raise TrainingError(f"classifier loss diverged at epoch {epoch}", epoch)
            dhead_w = dlogits.T @ z
            dhead_b = dlogits.sum(axis=0)
            dz = dlogits @ head.w
            enc_grads = _backward(params, xb, hidden, dz)
            opt.step(enc_grads.arrays() + [dhead_w, dhead_b], lr)
            loss_sum += batch_loss * len(idx)
            hits += int((np.argmax(logits, axis=1) == yb).sum())
        log.append((epoch, loss_sum / n, hits / n))
    return params, head, log


# ---------------------------------------------------------------------------
# parameter packing and gradient checking
# ---------------------------------------------------------------------------


def pack_params(params: EncoderParams, head: ClassifierHead | None = None) -> np.ndarray:
    arrays = params.arrays() + (head.arrays() if head is not None else [])
    return np.concatenate([a.ravel() for a in arrays])


def unpack_params(theta, in_dim, hidden_dim, embed_dim, num_classes=None):
    shapes = [(hidden_dim, in_dim), (hidden_dim,), (embed_dim, hidden_dim), (embed_dim,)]
    if num_classes is not None:
        shapes += [(num_classes, embed_dim), (num_classes,)]
    arrays = []
    pos = 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(np.asarray(theta[pos : pos + size]).reshape(shape))
        pos += size
    if pos != len(theta):
        raise ConfigError("parameter vector length does not match shapes")
    params = EncoderParams(*arrays[:4])
    head = ClassifierHead(*arrays[4:]) if num_classes is not None else None
    return params, head


def grad_check(loss_function, theta: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_function(theta) -> (loss, grad)``. The per-coordinate relative
    error uses the denominator max(1, |g_a| + |g_n|), so near-zero components
    are compared absolutely.
    """
    theta = np.asarray(theta, dtype=np.float64)
    _, analytic = loss_function(theta)
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        lu, _ = loss_function(up)
        ld, _ = loss_function(down)
        numeric[i] = (lu - ld) / (2.0 * step)
    denom = np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
    return float((np.abs(analytic - numeric) / denom).max())


# ---------------------------------------------------------------------------
# checkpoints and logs
# ---------------------------------------------------------------------------


def write_checkpoint(path, params: EncoderParams, head: ClassifierHead | None = None) -> None:
    """ENC1 layout: magic, u32 dims (in, hidden, embed, classes-or-0), f32 weights."""
    k = head.num_classes if head is not None else 0
    with open(Path(path), "wb") as fh:
        fh.write(_ENC_MAGIC)
        fh.write(struct.pack("<IIII", params.in_dim, params.hidden_dim, params.embed_dim, k))
        arrays = params.arrays() + (head.arrays() if head is not None else [])
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_checkpoint(path) -> tuple[EncoderParams, ClassifierHead | None]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 20 or blob[:4] != _ENC_MAGIC:
        raise DataError(f"malformed header in {path}")
    in_dim, hidden, embd, k = struct.unpack("<IIII", blob[4:20])
    shapes = [(hidden, in_dim), (hidden,), (embd, hidden), (embd,)]
    if k:
        shapes += [(k, embd), (k,)]
    need = 20 + 4 * sum(int(np.prod(s)) for s in shapes)
    if len(blob) < need:
        raise DataError(f"truncated payload in {path}")
    if len(blob) > need:
        raise DataError(f"trailing bytes after payload in {path}")
    arrays = []
    pos = 20
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(
            np.frombuffer(blob, dtype="<f4", count=size, offset=pos)
            .astype(np.float64)
            .reshape(shape)
        )
        pos += size * 4
    params = EncoderParams(*arrays[:4])
    head = ClassifierHead(*arrays[4:]) if k else None
    return params, head


def write_train_log(path, rows) -> None:
    lines = ["epoch\tmean_loss\taccuracy"]
    for epoch, loss, acc in rows:
        lines.append(f"{int(epoch)}\t{float(loss)!r}\t{float(acc)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
