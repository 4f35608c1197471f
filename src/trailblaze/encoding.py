"""Diagonal-covariance Gaussian mixtures fit by EM and Fisher-vector encoding.

The codebook is seeded with k-means++ and refined by EM until the per-point
log-likelihood gain drops below 1e-6.  Encoding keeps the mean and variance
gradient blocks (dimension 2*N*K), then applies signed square-root and L2
normalization.

One kernel, `_statistics`, runs the E-step of EM, the Fisher vector and the
log-likelihood, over blocks of `BLOCK_ROWS` rows so that no temporary grows
with T; each step is a matrix product over (B, N) and (B, K) arrays.  The
Mahalanobis term is expanded as ``X²·(1/σ²)ᵀ − 2X·(μ/σ²)ᵀ + Σ μ²/σ²`` about
the mixture mean ``c = weights @ means``, so its terms stay of the size of
the data's spread, not its offset, and cancel without losing digits.  A γ
below the smallest normal float is exactly 0, not a subnormal.  The kernel
returns the log-likelihood and, per component, ``nₖ = Σγ``, ``γᵀ(X − c)``
and ``γᵀ(X − c)²``; the Fisher vector's gradients are
``Σγ(x − μ) = γᵀ(X − c) − nₖ(μ − c)`` and
``Σγ(x − μ)² = γᵀ(X − c)² − 2(μ − c)·γᵀ(X − c) + nₖ(μ − c)²``.

Every term that depends only on the mixture (``c``, ``μ − c`` and twice
it, the log-normaliser, ``((μ − c)/σ²)ᵀ``, ``(−½/σ²)ᵀ``, ``σ``, ``√w`` and
``√(2w)``) is built by one helper.  A `FisherCodebook` builds them once, when it is
made, from read-only float64 copies of its arrays, so each Fisher vector
only reads them; EM builds them once per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .media import _count, _no_rows, _real_array, _rows

VARIANCE_FLOOR = 1e-6
EM_TOL = 1e-6
BLOCK_ROWS = 512  # rows per E-step block: a block's (B, N) and (B, K) arrays fit in a 2 MB L2
_LOG_TINY = math.log(np.finfo(np.float64).tiny)  # exp below is subnormal, slow in x86 products


class _Terms(NamedTuple):
    """What the kernels read of a mixture, computed from its arrays alone."""
    c: np.ndarray        # (N,) mixture mean, weights @ means
    mc: np.ndarray       # (K, N) means − c
    two_mc: np.ndarray   # (K, N) 2(μ − c)
    const: np.ndarray    # (K,) log w − ½(Σ log σ² + Σ (μ − c)²/σ² + N log 2π)
    lin: np.ndarray      # (N, K) ((μ − c)/σ²)ᵀ
    quad: np.ndarray     # (N, K) (−½/σ²)ᵀ
    scale: np.ndarray    # (2, K, N) √σ² and σ², dividing the mean and variance blocks
    fisher: np.ndarray   # (2, K, 1) √w and √(2w), the blocks' Fisher normalisers


def _codebook_terms(weights, means, variances) -> _Terms:
    """The terms of a mixture, in the operations and order the kernels used
    when they rebuilt them on every call, so their outputs keep every bit."""
    c = weights @ means
    mc = means - c
    prec = 1.0 / variances
    const = np.log(weights) - 0.5 * (np.log(variances).sum(axis=1) + (mc * mc * prec).sum(axis=1)
                                     + means.shape[1] * np.log(2.0 * np.pi))
    return _Terms(c, mc, 2.0 * mc, const, (mc * prec).T, (-0.5 * prec).T,
                  np.stack([np.sqrt(variances), variances]),
                  np.stack([np.sqrt(weights), np.sqrt(2.0 * weights)])[:, :, None])


@dataclass(frozen=True)
class FisherCodebook:
    """A diagonal GMM.  Its arrays are read-only float64 copies of the ones
    passed in, and the terms every encoding reads are built from them once."""
    weights: np.ndarray    # (K,)
    means: np.ndarray      # (K, N)
    variances: np.ndarray  # (K, N), diagonal
    _terms: _Terms = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("weights", "means", "variances"):
            arr = np.array(_real_array(f"codebook {name}", getattr(self, name), "an array"))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if (self.weights.ndim != 1 or self.means.ndim != 2 or len(self.means) != len(self.weights)
                or self.variances.shape != self.means.shape):
            raise ValueError(f"codebook needs weights (K,), means and variances (K, N); got "
                             f"weights {self.weights.shape}, means {self.means.shape}, "
                             f"variances {self.variances.shape}")
        for name in ("weights", "means", "variances"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"codebook {name} must be finite, got {getattr(self, name)}")
        if not (self.weights > 0).all():
            raise ValueError(f"codebook weights must be > 0, got {self.weights}")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"codebook weights must sum to 1, got {self.weights.sum()}")
        if np.any(self.variances < VARIANCE_FLOOR - 1e-12):
            raise ValueError(f"codebook variances must be >= {VARIANCE_FLOOR}, "
                             f"got {self.variances.min()}")
        object.__setattr__(self, "_terms",
                           _codebook_terms(self.weights, self.means, self.variances))

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


def _statistics(X, terms: _Terms):
    """The E-step of X under the mixture of `terms`: the log-likelihood and the
    moments Σγ (K,), γᵀ(X − c) and γᵀ(X − c)² (K, N), None for no rows.  Both
    exponents are at least below_top − log K, so a block whose smallest below_top
    clears the threshold by log K and a rounding margin skips the −inf passes."""
    floor = _LOG_TINY + math.log(len(terms.const)) + 1.0
    ll, moments = 0.0, None
    for start in range(0, len(X), BLOCK_ROWS):
        Xc = X[start:start + BLOCK_ROWS] - terms.c
        sq = np.square(Xc)
        log_joint = Xc @ terms.lin                    # (B, K)
        log_joint += sq @ terms.quad
        log_joint += terms.const
        top = log_joint.max(axis=1, keepdims=True)
        below_top = log_joint - top
        underflow = below_top.min() < floor
        if underflow:
            below_top[below_top < _LOG_TINY] = -np.inf
        norm = top + np.log(np.exp(below_top, out=below_top).sum(axis=1, keepdims=True))
        log_joint -= norm
        if underflow:
            log_joint[log_joint < _LOG_TINY] = -np.inf
        gamma = np.exp(log_joint, out=log_joint)
        ll += float(norm.sum())
        block = (gamma.sum(axis=0), gamma.T @ Xc, gamma.T @ sq)
        moments = block if moments is None else tuple(m + b for m, b in zip(moments, block))
    return ll, moments


def fit_gmm(descriptors, k: int, seed: int = 0, max_iters: int = 100) -> FisherCodebook:
    """EM fit of a K-component diagonal GMM, k-means++ initialized.

    The log-likelihood is checked to be non-decreasing at every iteration;
    a drop raises a `RuntimeError` naming the iteration and both values.
    """
    _count("seed", seed, 0)
    _count("k", k)
    _count("max_iters", max_iters)
    X = _rows("descriptors", descriptors, "descriptor {0} entry {1}")
    if len(X) < k:
        raise ValueError(f"need at least K={k} descriptors, got {len(X)}")

    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(X, k, rng)
    global_var = np.maximum(X.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)

    prev_ll = -np.inf
    for it in range(max_iters):
        terms = _codebook_terms(weights, means, variances)
        ll, (nk, s1, s2) = _statistics(X, terms)
        if ll + 1e-8 * max(1.0, abs(ll)) < prev_ll:
            raise RuntimeError(f"EM log-likelihood decreased at iteration {it}: "
                               f"{prev_ll!r} -> {ll!r}")
        if ll - prev_ll < EM_TOL * len(X):
            break
        prev_ll = ll
        nk = np.maximum(nk, 1e-12)
        weights = nk / nk.sum()
        d = s1 / nk[:, None]
        means = terms.c + d
        variances = np.maximum(s2 / nk[:, None] - d * d, VARIANCE_FLOOR)
    return FisherCodebook(weights=weights, means=means, variances=variances)


def fisher_vector(descriptors, codebook: FisherCodebook) -> np.ndarray:
    """Improved Fisher vector of a descriptor set: per component the
    normalized mean and variance gradients, then signed square root and L2
    normalization.  An empty set encodes to the zero vector."""
    K, N = codebook.k, codebook.dim
    if _no_rows(descriptors):
        return np.zeros(2 * N * K)
    X = _rows("descriptors", descriptors, "descriptor {0} entry {1}", N, ndmin=2)
    fv = _fv_blocks(X, codebook).ravel()
    root = np.abs(fv)
    fv = np.copysign(np.sqrt(root, out=root), fv, out=fv)
    fv += 0.0  # sign(x)·√|x| is +0 at x = −0, where copysign gives −0; + 0.0 maps only −0
    norm = math.sqrt(fv.dot(fv))
    if norm > 0:
        fv /= norm
    return fv


def _fv_blocks(X, codebook: FisherCodebook) -> np.ndarray:
    """Pre-normalization gradient blocks, shape (2, K, N): means then variances."""
    terms = codebook._terms
    _, (nk, s1, s2) = _statistics(X, terms)
    nk = nk[:, None]
    nk_mc = nk * terms.mc
    blocks = np.empty((2,) + s1.shape)
    np.subtract(s1, nk_mc, out=blocks[0])                        # Σγ (x − μ)
    np.subtract(s2, terms.two_mc * s1, out=blocks[1])            # Σγ (x − μ)²
    blocks[1] += nk_mc * terms.mc
    blocks /= terms.scale
    blocks[1] -= nk
    blocks /= len(X) * terms.fisher
    return blocks


def gmm_log_likelihood(X, weights, means, variances) -> float:
    """Total log-likelihood of X under the diagonal GMM (oracle hook); the
    mixture is checked as a `FisherCodebook` is."""
    codebook = FisherCodebook(weights, means, variances)
    X = _rows("X", X, "X row {0} entry {1}", codebook.dim, ndmin=2)
    return _statistics(X, codebook._terms)[0]
