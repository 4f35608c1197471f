"""Diagonal-covariance Gaussian mixtures fit by EM and Fisher-vector encoding.

The codebook is seeded with k-means++ and refined by EM until the per-point
log-likelihood gain drops below 1e-6.  Encoding keeps the mean and variance
gradient blocks (dimension 2*N*K), then applies signed square-root and L2
normalization.

No step builds a (T, K, N) array; every kernel is a matrix product over
(T, N) and (T, K) arrays.  The Mahalanobis term of the responsibilities is
expanded as ``X²·(1/σ²)ᵀ − 2X·(μ/σ²)ᵀ + Σ μ²/σ²`` and normalized with a
max-shifted log-sum-exp.  Before expanding, X and the means are shifted by
the mixture mean ``c = weights @ means``: the quadratic is unchanged, but
the expanded terms stay of the size of the data's spread rather than of its
offset, so they cancel without losing digits.  The EM update and the Fisher
vector read the same three moments per component in those coordinates,
``nₖ = Σγ``, ``γᵀ(X − c)`` and ``γᵀ(X − c)²``; the mean and variance
gradients are ``Σγ(x − μ) = γᵀ(X − c) − nₖ(μ − c)`` and
``Σγ(x − μ)² = γᵀ(X − c)² − 2(μ − c)·γᵀ(X − c) + nₖ(μ − c)²``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-6
EM_TOL = 1e-6


@dataclass(frozen=True)
class FisherCodebook:
    weights: np.ndarray    # (K,)
    means: np.ndarray      # (K, N)
    variances: np.ndarray  # (K, N), diagonal

    def __post_init__(self):
        k = len(self.weights)
        if (self.weights.ndim != 1 or self.means.ndim != 2 or len(self.means) != k
                or self.variances.shape != self.means.shape):
            raise ValueError(f"codebook needs weights (K,), means and variances (K, N); got "
                             f"{self.weights.shape}, {self.means.shape}, {self.variances.shape}")
        for name in ("weights", "means", "variances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"codebook {name} must be finite, got {getattr(self, name)}")
        if not (self.weights > 0).all():
            raise ValueError(f"codebook weights must be > 0, got {self.weights}")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        if np.any(self.variances < VARIANCE_FLOOR - 1e-12):
            raise ValueError("variances fell below the floor")

    @property
    def k(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.means.shape[1]


def _kmeanspp_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next centre is a row drawn with probability
    proportional to its squared distance to the nearest centre so far.

    Distances are expanded as ``‖x‖² − 2x·c + ‖c‖²``, one matrix-vector
    product per centre, over the rows centred on the pool mean so that the
    rounding scales with the pool's spread rather than its offset.  Rows
    whose expanded distance is within rounding of zero are recomputed as
    ``((x − c)²).sum()`` on the original rows, so a row equal to a chosen
    centre keeps exactly zero weight.
    """
    Xc = X - X.mean(axis=0)
    sq = np.einsum("ij,ij->i", Xc, Xc)

    def dist2(j):
        d2 = np.maximum(sq - 2.0 * (Xc @ Xc[j]) + sq[j], 0.0)
        near = np.flatnonzero(d2 <= 1e-8 * (sq + sq[j]))  # far above the expansion's rounding
        d2[near] = ((X[near] - X[j]) ** 2).sum(axis=1)
        return d2

    n = len(X)
    picks = [rng.integers(n)]
    d2 = dist2(picks[0])
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            picks.append(rng.integers(n))
            continue
        picks.append(rng.choice(n, p=d2 / total))
        d2 = np.minimum(d2, dist2(picks[-1]))
    return X[picks]


def _log_responsibilities(X, weights, means, variances):
    """log γ (T, K) and each point's log-likelihood (T,) under the diagonal GMM."""
    c = weights @ means
    Xc = X - c
    mc = means - c
    prec = 1.0 / variances
    const = np.log(weights) - 0.5 * (np.log(variances).sum(axis=1) + (mc * mc * prec).sum(axis=1)
                                     + X.shape[1] * np.log(2.0 * np.pi))
    log_joint = Xc @ (mc * prec).T                    # (T, K)
    log_joint += np.square(Xc, out=Xc) @ (-0.5 * prec).T
    log_joint += const
    top = log_joint.max(axis=1)
    below_top = log_joint - top[:, None]
    norm = top + np.log(np.exp(below_top, out=below_top).sum(axis=1))
    log_joint -= norm[:, None]
    return log_joint, norm


def _moments(X, gamma, c):
    """Per component Σγ (K,), γᵀ(X − c) and γᵀ(X − c)² (K, N)."""
    Xc = X - c
    return gamma.sum(axis=0), gamma.T @ Xc, gamma.T @ np.square(Xc, out=Xc)


def _check_count(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def fit_gmm(descriptors, k: int, seed: int = 0, max_iters: int = 100) -> FisherCodebook:
    """EM fit of a K-component diagonal GMM, k-means++ initialized.

    The log-likelihood is checked to be non-decreasing at every iteration;
    a drop raises a `RuntimeError` naming the iteration and both values.
    """
    _check_count("k", k)
    _check_count("max_iters", max_iters)
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"descriptors must be a 2-D array with at least one column, "
                         f"got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("descriptors contain non-finite values")
    if len(X) < k:
        raise ValueError(f"need at least K={k} descriptors, got {len(X)}")

    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(X, k, rng)
    global_var = np.maximum(X.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    prev_ll = -np.inf
    for it in range(max_iters):
        log_gamma, point_ll = _log_responsibilities(X, weights, means, variances)
        ll = float(point_ll.sum())
        if ll + 1e-8 * max(1.0, abs(ll)) < prev_ll:
            raise RuntimeError(f"EM log-likelihood decreased at iteration {it}: "
                               f"{prev_ll!r} -> {ll!r}")
        if ll - prev_ll < EM_TOL * len(X):
            break
        prev_ll = ll
        c = weights @ means
        nk, s1, s2 = _moments(X, np.exp(log_gamma), c)
        nk = np.maximum(nk, 1e-12)
        weights = nk / nk.sum()
        d = s1 / nk[:, None]
        means = c + d
        variances = np.maximum(s2 / nk[:, None] - d * d, VARIANCE_FLOOR)
    return FisherCodebook(weights=weights, means=means, variances=variances)


def fisher_vector(descriptors, codebook: FisherCodebook) -> np.ndarray:
    """Improved Fisher vector of a descriptor set: per component the
    normalized mean and variance gradients, then signed square root and L2
    normalization.  An empty set encodes to the zero vector."""
    K, N = codebook.k, codebook.dim
    X = np.asarray(descriptors, dtype=np.float64)
    if X.size == 0:
        return np.zeros(2 * N * K)
    X = np.atleast_2d(X)
    if X.shape[1] != N:
        raise ValueError(f"descriptor dimension {X.shape[1]} does not match codebook {N}")
    if not np.isfinite(X).all():
        raise ValueError("descriptors contain non-finite values")
    fv = _fv_blocks(X, codebook).ravel()
    fv = np.sign(fv) * np.sqrt(np.abs(fv))
    norm = np.linalg.norm(fv)
    return fv / norm if norm > 0 else fv


def _fv_blocks(X, codebook: FisherCodebook) -> np.ndarray:
    """Pre-normalization gradient blocks, shape (2, K, N): means then variances."""
    T = len(X)
    w, means, variances = codebook.weights, codebook.means, codebook.variances
    log_gamma, _ = _log_responsibilities(X, w, means, variances)
    c = w @ means
    nk, s1, s2 = _moments(X, np.exp(log_gamma), c)
    mc = means - c
    nk = nk[:, None]
    d1 = s1 - nk * mc                         # Σγ (x − μ)
    d2 = s2 - 2.0 * mc * s1 + nk * mc * mc    # Σγ (x − μ)²
    g_mu = d1 / np.sqrt(variances) / (T * np.sqrt(w)[:, None])
    g_sig = (d2 / variances - nk) / (T * np.sqrt(2.0 * w)[:, None])
    return np.stack([g_mu, g_sig])


def gmm_log_likelihood(X, weights, means, variances) -> float:
    """Total log-likelihood of X under the diagonal GMM (oracle hook)."""
    X = np.atleast_2d(np.asarray(X, float))
    if X.ndim != 2 or X.shape[1] != means.shape[1]:
        raise ValueError(f"X must be (T, {means.shape[1]}) to match the means, got {X.shape}")
    _, point_ll = _log_responsibilities(X, weights, means, variances)
    return float(point_ll.sum())
