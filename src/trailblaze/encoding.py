"""Diagonal-covariance Gaussian mixtures fit by EM and Fisher-vector encoding.

The codebook is seeded with k-means++ and refined by EM until the per-point
log-likelihood gain drops below 1e-6.  Encoding keeps the mean and variance
gradient blocks (dimension 2*N*K), then applies signed square-root and L2
normalization.
"""

from __future__ import annotations

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
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = X[rng.integers(n)]
            continue
        centers[i] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centers[i]) ** 2).sum(axis=1))
    return centers


def _log_responsibilities(X, weights, means, variances):
    # log N(x | mu_k, diag sigma2_k) + log pi_k, per (T, K)
    log_det = np.log(variances).sum(axis=1)
    quad = (((X[:, None, :] - means[None]) ** 2) / variances[None]).sum(axis=2)
    log_p = -0.5 * (quad + log_det[None] + X.shape[1] * np.log(2.0 * np.pi))
    log_joint = log_p + np.log(weights)[None]
    norm = np.logaddexp.reduce(log_joint, axis=1)
    return log_joint - norm[:, None], norm


def fit_gmm(descriptors, k: int, seed: int = 0, max_iters: int = 100) -> FisherCodebook:
    """EM fit of a K-component diagonal GMM, k-means++ initialized.

    The log-likelihood is checked to be non-decreasing at every iteration;
    a drop raises a `RuntimeError` naming the iteration and both values.
    """
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("descriptors must be a 2-D array")
    if not np.isfinite(X).all():
        raise ValueError("descriptors contain non-finite values")
    if k < 1:
        raise ValueError("K must be >= 1")
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
        gamma = np.exp(log_gamma)
        nk = gamma.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / nk.sum()
        means = (gamma.T @ X) / nk[:, None]
        sq = (gamma.T @ (X ** 2)) / nk[:, None]
        variances = np.maximum(sq - means ** 2, VARIANCE_FLOOR)
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
    sigma = np.sqrt(codebook.variances)
    log_gamma, _ = _log_responsibilities(X, codebook.weights, codebook.means,
                                         codebook.variances)
    gamma = np.exp(log_gamma)                          # (T, K)
    diff = (X[:, None, :] - codebook.means[None]) / sigma[None]  # (T, K, N)
    g_mu = np.einsum("tk,tkn->kn", gamma, diff) / (T * np.sqrt(codebook.weights)[:, None])
    g_sig = (np.einsum("tk,tkn->kn", gamma, diff ** 2 - 1.0)
             / (T * np.sqrt(2.0 * codebook.weights)[:, None]))
    return np.stack([g_mu, g_sig])


def gmm_log_likelihood(X, weights, means, variances) -> float:
    """Total log-likelihood of X under the diagonal GMM (oracle hook)."""
    _, point_ll = _log_responsibilities(np.atleast_2d(np.asarray(X, float)),
                                        weights, means, variances)
    return float(point_ll.sum())
