"""One-vs-rest linear SVMs trained by averaged stochastic subgradient descent,
plus the leave-one-actor-out evaluation harness with blended confusion matrices.
"""

from __future__ import annotations

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
    """Averaged Pegasos-style subgradient descent on the one-vs-rest hinge loss.

    lambda = 1/(C*n); learning rate 1/(lambda*t); the returned weights are
    the average over all iterates, which makes training deterministic and
    stable given the seed.
    """
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    examples = list(examples)
    labels = tuple(sorted({e.label for e in examples}))
    if len(labels) < 2:
        raise ValueError("need at least 2 classes to train")
    index = {lab: i for i, lab in enumerate(labels)}
    X = np.stack([np.asarray(e.fv, dtype=np.float64) for e in examples])
    Y = -np.ones((len(examples), len(labels)))
    for i, e in enumerate(examples):
        Y[i, index[e.label]] = 1.0

    n, dim = X.shape
    lam = 1.0 / (C * n)
    W = np.zeros((len(labels), dim))
    b = np.zeros(len(labels))
    W_sum = np.zeros_like(W)
    b_sum = np.zeros_like(b)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            x = X[i]
            margins = Y[i] * (W @ x + b)
            W *= 1.0 - eta * lam
            viol = margins < 1.0
            if viol.any():
                W[viol] += (eta * Y[i, viol])[:, None] * x[None]
                b[viol] += eta * Y[i, viol]
            W_sum += W
            b_sum += b
    return SvmModel(weights=W_sum / t, biases=b_sum / t, labels=labels)


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
