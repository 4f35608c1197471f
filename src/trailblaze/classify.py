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
import zlib
from dataclasses import dataclass

import numpy as np

from .encoding import fisher_vector, fit_gmm
from .media import _count, _finite, _no_rows, _real, _real_array

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
        for name in ("weights", "biases"):
            object.__setattr__(self, name, _real_array(f"model {name}", getattr(self, name),
                                                       "an array"))
        if (self.weights.ndim != 2 or len(self.labels) != len(self.weights)
                or self.biases.shape != (len(self.weights),)):
            raise ValueError("one weight vector and bias per class required")
        _finite(self.weights, "model weight (class {0}, feature {1})")
        _finite(self.biases, "model bias {0}")


@dataclass
class ConfusionMatrix:
    """Rows are actual classes, columns predicted."""

    counts: np.ndarray
    labels: tuple

    def __post_init__(self):
        counts = _real_array("counts", self.counts, "an array")
        if counts.shape != (len(self.labels), len(self.labels)):
            raise ValueError("counts must be CxC")
        _finite(counts, "count ({0}, {1})")
        bad = np.argwhere((counts < 0) | (counts != np.floor(counts)))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"counts must be whole and non-negative: count ({i}, {j}) is "
                             f"{counts[i, j]}")
        self.counts = counts.astype(np.int64)


def derive_seed(seed: int, tag: str) -> int:
    """Stable per-item seed derived from the master seed and a string tag."""
    return zlib.crc32(f"{seed}:{tag}".encode()) & 0xFFFFFFFF


def _classes(examples) -> tuple:
    """The sorted labels of `examples`; a ValueError unless there are at least 2."""
    labels = tuple(sorted({e.label for e in examples}))
    if len(labels) < 2:
        raise ValueError("need at least 2 classes to train")
    return labels


def _train_args(C, epochs, seed, n: int) -> tuple:
    """(lambda, T) of `train` on n >= 1 examples: lambda = 1/(C*n) and T = epochs*n
    steps.  This is C's whole rule: C must be a real number > 0, not a bool,
    with every step 1/(lambda t), t = 1..T, in float range, that is
    0 < lambda*T < inf and 1/lambda < inf, so an infinite C, or one so large or
    small that C*n or 1/(C*n) leaves float range, is refused for that n.
    `epochs` must be an integer >= 1 and `seed` one >= 0."""
    if not (_real(C) and C > 0):
        raise ValueError(f"C must be > 0, got {C!r}")
    _count("epochs", epochs)
    _count("seed", seed, 0)
    lam, T = 1.0 / (C * n), epochs * n
    if not (0 < lam * T < math.inf and 1.0 / lam < math.inf):
        raise ValueError(f"C must be finite with steps 1/(lambda t) in float range, got C = {C} "
                         f"for n = {n} and {T} steps (lambda = 1/(C*n) = {lam})")
    return lam, T


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
    examples = list(examples)
    labels = _classes(examples)
    lam, T = _train_args(C, epochs, seed, len(examples))
    X = _feature_matrix(examples)
    Y = -np.ones((len(examples), len(labels)))
    for i, e in enumerate(examples):
        Y[i, labels.index(e.label)] = 1.0

    n = len(X)
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
    fvs = [_real_array(f"example {i} fv", e.fv, "a vector") for i, e in enumerate(examples)]
    for i, fv in enumerate(fvs):
        if fv.ndim != 1 or fv.shape != fvs[0].shape:
            raise ValueError(f"example {i} has feature shape {fv.shape}, "
                             f"expected a vector like example 0's {fvs[0].shape}")
    X = np.stack(fvs)
    _finite(X, "example {0} feature {1}")
    return X


def predict(model: SvmModel, fv) -> str:
    """Argmax class score; ties break toward the earlier class label."""
    x = _real_array("fv", fv, "a vector")
    if x.shape != (model.weights.shape[1],):
        raise ValueError(f"feature dimension {x.shape} does not match model "
                         f"{model.weights.shape[1]}")
    _finite(x, "feature {0}")
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
    summed into the blended matrix.

    Every refusal is a ValueError raised before the first codebook is fit:
    k or max_iters not an integer >= 1; a clip_id under two actors; a
    descriptor set that is not real numbers, has rows but is not 2-D, holds a
    NaN or infinite entry, or differs in width from the first 2-D set (each
    named by its clip_id); fewer than 2 actors or 2 classes; then fold by fold
    in actor order, a training set that misses a class, a codebook pool
    (capped at GMM_MAX_POINTS) of fewer than k descriptors, 0 included, and a
    C, epochs or seed that `train` would refuse for the fold's training set
    (`_train_args`).  The fold loop raises none of these: it only stacks,
    fits and scores."""
    _count("k", k)
    _count("max_iters", max_iters)
    videos = list(videos)
    owner = {}
    width = None  # (clip_id, N) of the first video with a 2-D descriptor set
    for v in videos:
        first = owner.setdefault(v.clip_id, v.actor)
        if first != v.actor:
            raise ValueError(f"clip_id {v.clip_id!r} appears under actors {first!r} and {v.actor!r}")
        # converted before its shape is read, so a ragged set is named too
        named = f"clip_id {v.clip_id!r}"
        arr = _real_array(f"{named} descriptors", v.descriptors, "a 2-D array")
        if arr.ndim != 2 and not _no_rows(arr):  # a set with no rows encodes to zeros
            raise ValueError(f"{named} descriptors must be a 2-D array, got shape {arr.shape}")
        if arr.ndim == 2:
            # `_finite` formats the entry, so braces in the clip_id are doubled
            _finite(arr, named.replace("{", "{{").replace("}", "}}") + " descriptor {0} entry {1}")
            width = width or (v.clip_id, arr.shape[1])
            if arr.shape[1] != width[1]:
                raise ValueError(f"clip_id {v.clip_id!r} has descriptors {arr.shape[1]} wide, but "
                                 f"clip_id {width[0]!r} has them {width[1]} wide")
    # actor: (training videos, test videos), in actor order
    folds = {a: ([v for v in videos if v.actor != a], [v for v in videos if v.actor == a])
             for a in sorted({v.actor for v in videos})}
    if len(folds) < 2:
        raise ValueError("need at least 2 actors")
    labels = _classes(videos)
    for actor, (train_videos, _) in folds.items():
        missing = sorted(set(labels) - {v.label for v in train_videos})
        if missing:
            raise ValueError(f"fold for actor {actor} misses classes {missing} in training")
        rows = min(sum(len(v.descriptors) for v in train_videos), GMM_MAX_POINTS)
        if rows < k:
            raise ValueError(f"fold for actor {actor} fits its codebook on {rows} "
                             f"training descriptors, fewer than k = {k}")
        _train_args(C, epochs, seed, len(train_videos))

    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for actor, (train_videos, test_videos) in folds.items():
        fold_seed = derive_seed(seed, f"fold:{actor}")
        pool = np.vstack([v.descriptors for v in train_videos if len(v.descriptors)])
        if len(pool) > GMM_MAX_POINTS:
            rng = np.random.default_rng(fold_seed)
            pool = pool[rng.choice(len(pool), GMM_MAX_POINTS, replace=False)]
        codebook = fit_gmm(pool, k=k, seed=fold_seed, max_iters=max_iters)
        model = train([LabeledVideo(fisher_vector(v.descriptors, codebook), v.label, v.actor)
                       for v in train_videos], C=C, epochs=epochs, seed=fold_seed)
        for v in test_videos:
            fv = fisher_vector(v.descriptors, codebook)
            counts[labels.index(v.label), labels.index(predict(model, fv))] += 1
    return ConfusionMatrix(counts=counts, labels=labels)
