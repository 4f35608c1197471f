"""One-vs-rest linear SVMs trained by averaged Pegasos, plus the
leave-one-actor-out evaluation harness with blended confusion matrices.

Pegasos (Shalev-Shwartz et al., ICML 2007) with step 1/(lambda t) shrinks the
iterate by (t - 1)/t each step, so the iterate telescopes into a weighted sum
of the examples: W_t = A_tᵀX / (lambda t), with A (n, C) the count of signed
updates per example and class.  `train` therefore runs the iteration on the
n × n Gram matrix, one row per step, and builds the averaged weights and
biases once from the recorded updates at the end.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass

import numpy as np

from .encoding import fisher_vector, fit_gmm

GMM_MAX_POINTS = 100_000  # a fold's codebook is fit on at most this many descriptors


@dataclass(frozen=True)
class LabeledVideo:
    """An encoded video ready for the classifier."""

    fv: np.ndarray
    label: str
    actor: str


@dataclass(frozen=True)
class VideoSample:
    """A video's raw descriptor set; Fisher vectors are computed per fold."""

    clip_id: str
    label: str
    actor: str
    descriptors: np.ndarray  # (T, N), T may be 0


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray  # (C, D)
    biases: np.ndarray   # (C,)
    labels: tuple

    def __post_init__(self):
        if (self.weights.ndim != 2 or len(self.labels) != len(self.weights)
                or self.biases.shape != (len(self.weights),)):
            raise ValueError("one weight vector and bias per class required")
        if not np.isfinite(self.weights).all() or not np.isfinite(self.biases).all():
            raise ValueError("model parameters must be finite")


@dataclass
class ConfusionMatrix:
    """Rows are actual classes, columns predicted."""

    counts: np.ndarray
    labels: tuple

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (len(self.labels), len(self.labels)):
            raise ValueError("counts must be CxC")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")


def derive_seed(seed: int, tag: str) -> int:
    """Stable per-item seed derived from the master seed and a string tag."""
    return zlib.crc32(f"{seed}:{tag}".encode()) & 0xFFFFFFFF


def train(examples, C: float = 1.0, epochs: int = 50, seed: int = 0) -> SvmModel:
    """Averaged Pegasos on the one-vs-rest hinge loss, run on the Gram matrix.

    lambda = 1/(C*n), step eta_t = 1/(lambda*t), and each epoch visits the
    examples in the order of one ``rng.permutation(n)``.  Step t takes
    example i and sets u_t[c] = y_i[c] for each class c whose margin
    y_i[c] (W_{t-1}[c]·x_i + b_{t-1}[c]) is below 1, else 0; then
    W_t = (1 - 1/t) W_{t-1} + eta_t u_t x_i and b_t = b_{t-1} + eta_t u_t.
    The shrink telescopes to W_t = A_tᵀX / (lambda t), A (n, C) the summed
    updates per example, so a step reads one row of G = X Xᵀ:
    W_{t-1}·x_i = G[i]·A_{t-1} / (lambda (t-1)).  The returned model is the
    average of all T iterates, built once from the recorded u_t:
    W̄ = Σ_t (H_T - H_{t-1}) u_t x_{i_t} / (lambda T), H the harmonic sums,
    and b̄ the mean of the running biases.  The sample order, the updates
    and the biases are those of the per-step loop; no step touches a D-long
    array.
    """
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")
    if isinstance(epochs, bool) or not isinstance(epochs, numbers.Integral):
        raise ValueError(f"epochs must be an integer, got {epochs!r}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    examples = list(examples)
    labels = tuple(sorted({e.label for e in examples}))
    if len(labels) < 2:
        raise ValueError("need at least 2 classes to train")
    index = {lab: i for i, lab in enumerate(labels)}
    X = _feature_matrix(examples)
    Y = -np.ones((len(examples), len(labels)))
    for i, e in enumerate(examples):
        Y[i, index[e.label]] = 1.0

    n, T = len(X), epochs * len(X)
    lam = 1.0 / (C * n)
    if not (0 < lam * T < math.inf and 1.0 / lam < math.inf):
        raise ValueError(f"C must be finite with steps 1/(lambda t) in float range, got C = {C} "
                         f"for n = {n} and {T} steps (lambda = 1/(C*n) = {lam})")
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(n) for _ in range(epochs)])
    eta = 1.0 / (lam * np.arange(1, T + 1))
    G = X @ X.T
    A = np.zeros((n, len(labels)))
    b = np.zeros(len(labels))
    U = np.zeros((T, len(labels)))
    for t, i in enumerate(order):
        # eta[t - 1] = 1/(lambda t) scales A into W_{t-1}; A is still zero at t = 0
        y, u = Y[i], U[t]
        np.multiply(y, y * ((G[i] @ A) * eta[t - 1] + b) < 1.0, out=u)
        A[i] += u
        b += u * eta[t]
    tail = np.cumsum(1.0 / np.arange(T, 0, -1))[::-1]  # H_T - H_{t-1}
    coef = np.zeros((n, len(labels)))
    np.add.at(coef, order, U * tail[:, None])
    b_bar = np.cumsum(U * eta[:, None], axis=0).sum(axis=0) / T  # b_t summed in step order
    return SvmModel(weights=(coef.T @ X) / (lam * T), biases=b_bar, labels=labels)


def _feature_matrix(examples) -> np.ndarray:
    """The (n, D) float64 matrix of the examples' Fisher vectors."""
    fvs = [np.asarray(e.fv, dtype=np.float64) for e in examples]
    for i, fv in enumerate(fvs):
        if fv.ndim != 1 or fv.shape != fvs[0].shape:
            raise ValueError(f"example {i} has feature shape {fv.shape}, "
                             f"expected a vector like example 0's {fvs[0].shape}")
    X = np.stack(fvs)
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"example {i} feature {j} is not finite: {X[i, j]}")
    return X


def predict(model: SvmModel, fv) -> str:
    """Argmax class score; ties break toward the earlier class label."""
    x = np.asarray(fv, dtype=np.float64)
    if x.shape != (model.weights.shape[1],):
        raise ValueError(f"feature dimension {x.shape} does not match model "
                         f"{model.weights.shape[1]}")
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x))[0]
        raise ValueError(f"feature {bad} is not finite: {x[bad]}")
    scores = model.weights @ x + model.biases
    return model.labels[int(np.argmax(scores))]


def accuracy(cm: ConfusionMatrix) -> float:
    total = int(cm.counts.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / total


def leave_one_actor_out(videos, k: int = 64, C: float = 1.0, epochs: int = 50,
                        seed: int = 0, max_iters: int = 100) -> ConfusionMatrix:
    """One fold per actor: the fold's videos are tested against a codebook
    and SVM fit on the remaining actors only; fold confusion matrices are
    summed into the blended matrix."""
    videos = list(videos)
    owner = {}
    for v in videos:
        first = owner.setdefault(v.clip_id, v.actor)
        if first != v.actor:
            raise ValueError(f"clip_id {v.clip_id!r} appears under actors {first!r} and {v.actor!r}")
    actors = sorted({v.actor for v in videos})
    if len(actors) < 2:
        raise ValueError("need at least 2 actors")
    labels = tuple(sorted({v.label for v in videos}))
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)

    for actor in actors:
        train_videos = [v for v in videos if v.actor != actor]
        test_videos = [v for v in videos if v.actor == actor]
        fold_labels = {v.label for v in train_videos}
        if fold_labels != set(labels):
            missing = sorted(set(labels) - fold_labels)
            raise ValueError(f"fold for actor {actor} misses classes {missing} in training")

        fold_seed = derive_seed(seed, f"fold:{actor}")
        pool = [v.descriptors for v in train_videos if len(v.descriptors)]
        if not pool:
            raise ValueError(f"fold for actor {actor} has no training descriptors")
        pool = np.vstack(pool)
        if len(pool) > GMM_MAX_POINTS:
            rng = np.random.default_rng(fold_seed)
            pool = pool[rng.choice(len(pool), GMM_MAX_POINTS, replace=False)]
        codebook = fit_gmm(pool, k=k, seed=fold_seed, max_iters=max_iters)
        model = train([LabeledVideo(fisher_vector(v.descriptors, codebook), v.label, v.actor)
                       for v in train_videos], C=C, epochs=epochs, seed=fold_seed)
        for v in test_videos:
            fv = fisher_vector(v.descriptors, codebook)
            counts[index[v.label], index[predict(model, fv)]] += 1
    return ConfusionMatrix(counts=counts, labels=labels)
