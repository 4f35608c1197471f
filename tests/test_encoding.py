import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench import corpus
from trailblaze import encoding, shape
from trailblaze.encoding import (
    BLOCK_ROWS, EM_TOL, VARIANCE_FLOOR, FisherCodebook, _codebook_terms, _fv_blocks,
    _kmeanspp_centers, _statistics, fisher_vector, fit_gmm, gmm_log_likelihood,
)


def kmeanspp_centers_oracle(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


class RecordingRng:
    """The two draws k-means++ makes, with the picked rows and weights kept."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.picks, self.weights = [], []

    def integers(self, n):
        self.picks.append(int(self.rng.integers(n)))
        return self.picks[-1]

    def choice(self, n, p):
        self.weights.append(p.copy())
        self.picks.append(int(self.rng.choice(n, p=p)))
        return self.picks[-1]


def log_responsibilities_oracle(X, weights, means, variances):
    # log N(x | mu_k, diag sigma2_k) + log pi_k, per (T, K)
    log_det = np.log(variances).sum(axis=1)
    quad = (((X[:, None, :] - means[None]) ** 2) / variances[None]).sum(axis=2)
    log_p = -0.5 * (quad + log_det[None] + X.shape[1] * np.log(2.0 * np.pi))
    log_joint = log_p + np.log(weights)[None]
    norm = np.logaddexp.reduce(log_joint, axis=1)
    return log_joint - norm[:, None], norm


def fv_blocks_oracle(X, codebook: FisherCodebook) -> np.ndarray:
    """Pre-normalization gradient blocks, shape (2, K, N): means then variances."""
    T = len(X)
    sigma = np.sqrt(codebook.variances)
    log_gamma, _ = log_responsibilities_oracle(X, codebook.weights, codebook.means,
                                               codebook.variances)
    gamma = np.exp(log_gamma)                          # (T, K)
    diff = (X[:, None, :] - codebook.means[None]) / sigma[None]  # (T, K, N)
    g_mu = np.einsum("tk,tkn->kn", gamma, diff) / (T * np.sqrt(codebook.weights)[:, None])
    g_sig = (np.einsum("tk,tkn->kn", gamma, diff ** 2 - 1.0)
             / (T * np.sqrt(2.0 * codebook.weights)[:, None]))
    return np.stack([g_mu, g_sig])


# The kernels as they were before the codebook terms were built once per
# codebook, verbatim: each call derived every mixture term from the arrays.

def shifted_log_responsibilities_oracle(X, weights, means, variances):
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


def shifted_moments_oracle(X, gamma, c):
    """Per component Σγ (K,), γᵀ(X − c) and γᵀ(X − c)² (K, N)."""
    Xc = X - c
    return gamma.sum(axis=0), gamma.T @ Xc, gamma.T @ np.square(Xc, out=Xc)


def shifted_fv_blocks_oracle(X, codebook: FisherCodebook) -> np.ndarray:
    """Pre-normalization gradient blocks, shape (2, K, N): means then variances."""
    T = len(X)
    w, means, variances = codebook.weights, codebook.means, codebook.variances
    log_gamma, _ = shifted_log_responsibilities_oracle(X, w, means, variances)
    c = w @ means
    nk, s1, s2 = shifted_moments_oracle(X, np.exp(log_gamma), c)
    mc = means - c
    nk = nk[:, None]
    d1 = s1 - nk * mc                         # Σγ (x − μ)
    d2 = s2 - 2.0 * mc * s1 + nk * mc * mc    # Σγ (x − μ)²
    g_mu = d1 / np.sqrt(variances) / (T * np.sqrt(w)[:, None])
    g_sig = (d2 / variances - nk) / (T * np.sqrt(2.0 * w)[:, None])
    return np.stack([g_mu, g_sig])


def fisher_vector_oracle(X, codebook: FisherCodebook) -> np.ndarray:
    fv = shifted_fv_blocks_oracle(X, codebook).ravel()
    fv = np.sign(fv) * np.sqrt(np.abs(fv))
    norm = np.linalg.norm(fv)
    return fv / norm if norm > 0 else fv


def fit_gmm_oracle(X, k, seed, max_iters):
    """fit_gmm's EM loop on the oracle kernels: (weights, means, variances)."""
    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(X, k, rng)
    global_var = np.maximum(X.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(global_var, (k, 1))
    weights = np.full(k, 1.0 / k)
    prev_ll = -np.inf
    for it in range(max_iters):
        log_gamma, point_ll = shifted_log_responsibilities_oracle(X, weights, means, variances)
        ll = float(point_ll.sum())
        if ll - prev_ll < EM_TOL * len(X):
            break
        prev_ll = ll
        c = weights @ means
        nk, s1, s2 = shifted_moments_oracle(X, np.exp(log_gamma), c)
        nk = np.maximum(nk, 1e-12)
        weights = nk / nk.sum()
        d = s1 / nk[:, None]
        means = c + d
        variances = np.maximum(s2 / nk[:, None] - d * d, VARIANCE_FLOOR)
    return weights, means, variances


def statistics(X, cb: FisherCodebook):
    """The E-step kernel's log-likelihood and moments (Σγ, γᵀ(X − c), γᵀ(X − c)²)."""
    return _statistics(X, cb._terms)


def oracle_moments(X, cb: FisherCodebook):
    """The moments of the (T, K, N) oracle's γ about the mixture mean c."""
    log_gamma, _ = log_responsibilities_oracle(X, cb.weights, cb.means, cb.variances)
    gamma = np.exp(log_gamma)
    Xc = X - cb.weights @ cb.means
    return gamma.sum(axis=0), gamma.T @ Xc, gamma.T @ Xc ** 2


def assert_close(got, want, rtol):
    """Each array within `rtol` of the largest magnitude of the array it is compared with."""
    for got_part, want_part in zip(got, want):
        assert np.abs(got_part - want_part).max() <= rtol * np.abs(want_part).max()


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def make_codebook(seed=0, k=3, n=4):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, k)
    return FisherCodebook(weights=w / w.sum(),
                          means=rng.normal(0, 2, (k, n)),
                          variances=rng.uniform(0.2, 2.0, (k, n)))


class TestFitGmm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.0, (200, 3))
        cb = fit_gmm(X, k=1, seed=1)
        assert np.allclose(cb.means[0], X.mean(axis=0), atol=1e-9)
        assert np.allclose(cb.variances[0], X.var(axis=0), atol=1e-9)  # ML (biased)
        assert cb.weights[0] == 1.0

    def test_two_clusters_recovered(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 0.1, (300, 2))
        b = rng.normal(10.0, 0.1, (300, 2)) * [1, 1]
        X = np.vstack([a, b + [0.0, 0.0]])
        cb = fit_gmm(X, k=2, seed=2)
        got = sorted(cb.means[:, 0])
        assert abs(got[0] - 0.0) < 0.1 and abs(got[1] - 10.0) < 0.1
        assert np.all(np.abs(cb.weights - 0.5) < 0.05)

    def test_responsibilities_rows_sum_to_one(self):
        # Σγ over the components is each row's total, so the counts add up to T
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (50, 3))
        cb = make_codebook(n=3)
        _, (nk, _, _) = statistics(X, cb)
        assert abs(nk.sum() - len(X)) <= 1e-9 * len(X)

    def test_loglik_monotone(self):
        # run EM manually mirroring fit_gmm and record the likelihood path
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 1, (100, 2)), rng.normal(4, 0.5, (100, 2))])
        cb = fit_gmm(X, k=3, seed=4)  # would raise internally on any decrease
        assert cb.k == 3

    def test_likelihood_drop_raises_runtime_error(self, monkeypatch):
        # each call lowers every point's log-likelihood by 1000 more than the last
        calls = []

        def decreasing(X, terms):
            ll, moments = _statistics(X, terms)
            calls.append(None)
            return ll - 1000.0 * len(X) * len(calls), moments

        monkeypatch.setattr(encoding, "_statistics", decreasing)
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (40, 2))
        with pytest.raises(RuntimeError, match=r"iteration 1: -\d.* -> -\d"):
            fit_gmm(X, k=2, seed=0)

    def test_fit_follows_a_translation_of_the_data(self):
        # eighths plus 1e6 are exact, so k-means++ sees the same distances; the
        # M-step's moments are taken about the mixture mean, so a far offset
        # costs no digits of the variances
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(0, 1, (300, 3)) * 8) / 8
        X[:150] += 4.0
        offset = 1e6
        near = fit_gmm(X, k=2, seed=5, max_iters=5)
        far = fit_gmm(X + offset, k=2, seed=5, max_iters=5)
        assert np.allclose(far.means - offset, near.means, rtol=0, atol=1e-8)
        assert np.allclose(far.variances, near.variances, rtol=1e-7, atol=0)
        assert np.allclose(far.weights, near.weights, rtol=0, atol=1e-9)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (120, 3))
        a = fit_gmm(X, k=4, seed=9)
        b = fit_gmm(X, k=4, seed=9)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.weights, b.weights)

    def test_too_few_descriptors(self):
        with pytest.raises(ValueError, match="at least"):
            fit_gmm(np.zeros((2, 3)), k=5)

    def test_non_finite_rejected(self):
        X = np.zeros((10, 2))
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_gmm(X, k=2)

    @pytest.mark.parametrize("row, col, bad", [(3, 1, np.nan), (0, 0, np.inf), (8, 1, -np.inf)])
    def test_non_finite_names_row_and_entry(self, row, col, bad):
        X = np.random.default_rng(14).normal(0, 1, (10, 2))
        X[row, col] = bad
        X[9, 0] = np.nan  # later in C order, so not the entry named
        with pytest.raises(ValueError, match=f"^descriptor {row} entry {col} is not finite: {bad}$"):
            fit_gmm(X, k=2)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(k=2.5), "k must be an integer >= 1, got 2.5"),
        (dict(k=True), "k must be an integer >= 1, got True"),
        (dict(k=0), "k must be an integer >= 1, got 0"),
        (dict(k=2, max_iters=0), "max_iters must be an integer >= 1, got 0"),
        (dict(k=2, max_iters=-1), "max_iters must be an integer >= 1, got -1"),
        (dict(k=2, max_iters=3.0), "max_iters must be an integer >= 1, got 3.0"),
        (dict(k=2, max_iters=True), "max_iters must be an integer >= 1, got True"),
        (dict(k=np.bool_(True)), "k must be an integer >= 1, got np.True_"),
    ], ids=["k_float", "k_bool", "k_zero", "iters_zero", "iters_negative", "iters_float",
            "iters_bool", "k_numpy_bool"])
    def test_bad_count_named(self, kwargs, message):
        X = np.random.default_rng(12).normal(0, 1, (20, 2))
        with pytest.raises(ValueError, match=message):
            fit_gmm(X, **kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
    def test_bad_seed_named(self, seed):
        X = np.random.default_rng(12).normal(0, 1, (20, 2))
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            fit_gmm(X, k=2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        X = np.random.default_rng(13).normal(0, 1, (20, 2))
        want = fit_gmm(X, k=2, seed=3, max_iters=3)
        got = fit_gmm(X, k=2, seed=np.int64(3), max_iters=3)
        assert np.array_equal(got.means, want.means) and np.array_equal(got.weights, want.weights)

    def test_numpy_integer_counts_accepted(self):
        X = np.random.default_rng(13).normal(0, 1, (20, 2))
        assert fit_gmm(X, k=np.int64(2), max_iters=np.int32(3)).k == 2

    def test_int64_max_iters_fits_like_int(self):
        X = np.random.default_rng(13).normal(0, 1, (20, 2))
        want = fit_gmm(X, k=2, max_iters=3)
        got = fit_gmm(X, k=2, max_iters=np.int64(3))
        assert np.array_equal(got.means, want.means) and np.array_equal(got.weights, want.weights)

    @pytest.mark.parametrize("shape", [(20, 0), (20,), (2, 10, 2)])
    def test_descriptor_shape_named(self, shape):
        with pytest.raises(ValueError, match=rf"descriptors must be a 2-D array .*{shape}"):
            fit_gmm(np.zeros(shape), k=1)

    def test_ragged_descriptors_named(self):
        with pytest.raises(ValueError, match=r"^descriptors must be a 2-D array of real numbers: "
                                             r".*inhomogeneous"):
            fit_gmm([[1.0, 2.0], [3.0]], k=1)

    def test_variance_floor(self):
        X = np.tile([[1.0, 2.0]], (10, 1))  # zero variance data
        cb = fit_gmm(X, k=1)
        assert np.all(cb.variances >= 1e-6)


def kmeanspp_pool(kind, seed):
    rng = np.random.default_rng(seed)
    T, N = int(rng.integers(1, 400)), int(rng.integers(1, 90))
    X = rng.normal(0, 10.0 ** rng.uniform(-3, 3), (T, N))
    if kind == "duplicates":
        X = X[rng.integers(0, max(1, T // 4), T)]
    elif kind == "identical":
        X = np.tile(X[:1], (T, 1))
    elif kind == "offset":
        X += 1e6
    return X, int(rng.integers(1, min(T, 20) + 1))


class TestKmeansppOracle:
    """The expanded-distance seeding against the per-pass (X − c)² code it
    replaced: same draws, same rows."""

    @pytest.mark.parametrize("kind", ["continuous", "duplicates", "identical", "offset"])
    @pytest.mark.parametrize("seed", range(10))
    def test_picks_oracle_indices(self, kind, seed):
        X, k = kmeanspp_pool(kind, seed)
        got, want = RecordingRng(seed), RecordingRng(seed)
        centers = _kmeanspp_centers(X, k, got)
        assert np.array_equal(centers, kmeanspp_centers_oracle(X, k, want))
        assert got.picks == want.picks
        assert np.array_equal(centers, X[got.picks])

    def test_loao_encode_sized_pool(self):
        X = np.random.default_rng(3).normal(0, 1, (7200, 87))
        got, want = RecordingRng(3), RecordingRng(3)
        _kmeanspp_centers(X, 16, got)
        kmeanspp_centers_oracle(X, 16, want)
        assert got.picks == want.picks

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_equal_to_a_centre_keep_zero_weight(self, seed):
        rng = np.random.default_rng(seed)
        X = 1e3 + rng.normal(0, 1e-2, (6, 9))[rng.integers(0, 6, 300)]
        draws = RecordingRng(seed)
        _kmeanspp_centers(X, 6, draws)
        assert len(draws.weights) == 5
        for j, p in enumerate(draws.weights):
            chosen = (X[:, None, :] == X[draws.picks[:j + 1]][None]).all(axis=2).any(axis=1)
            assert np.all(p[chosen] == 0.0) and np.all(p[~chosen] > 0.0)

    @pytest.mark.parametrize("value", [0.1, -3.7e5, 0.0])
    def test_identical_pool_draws_uniformly(self, value):
        draws = RecordingRng(0)
        centers = _kmeanspp_centers(np.full((50, 4), value), 5, draws)
        assert draws.weights == [] and len(draws.picks) == 5
        assert np.all(centers == value)


class TestKernelOracles:
    """The expanded kernels against the (T, K, N) code they replaced.

    Data and means lie within about 20 σ of each other at every scale and
    offset, so each Mahalanobis term is at most a few thousand and each row's
    log-likelihood is held to 1e-9 absolute; Σγ to 1e-9 of T, since each γ
    is within 1e-9 of the oracle's, and the other moments and the gradient
    blocks to 1e-9 of their largest entry.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 8),
           st.integers(1, 12), st.sampled_from([0.0, 1.0, -3e2, 1e4, -1e5, 1e6]),
           st.floats(-6.0, 2.0))
    def test_match_oracles(self, seed, T, K, N, offset, log10_var):
        rng = np.random.default_rng(seed)
        var = 10.0 ** log10_var
        w = rng.uniform(0.1, 1.0, K)
        cb = FisherCodebook(
            weights=w / w.sum(),
            means=offset + np.sqrt(var) * rng.normal(0, 2, (K, N)),
            variances=np.clip(var * rng.uniform(0.5, 2.0, (K, N)), 1e-6, 1e2))
        X = offset + np.sqrt(var) * rng.normal(0, 2, (T, N))

        ll, (nk, s1, s2) = statistics(X, cb)
        want_nk, want_s1, want_s2 = oracle_moments(X, cb)
        want_ll = log_responsibilities_oracle(X, cb.weights, cb.means, cb.variances)[1].sum()
        assert abs(ll - want_ll) <= 1e-9 * T
        assert np.abs(nk - want_nk).max() <= 1e-9 * T
        assert_close((s1, s2), (want_s1, want_s2), 1e-9)

        blocks, want = _fv_blocks(X, cb), fv_blocks_oracle(X, cb)
        for got_block, want_block in zip(blocks, want):
            scale = np.abs(want_block).max()
            assert np.abs(got_block - want_block).max() <= 1e-9 * scale

    def test_points_far_from_every_component(self):
        # every joint log-density is below -2e4, far outside exp's range, so the
        # log-sum-exp must shift by the row maximum
        cb = make_codebook(seed=16, k=3, n=4)
        X = cb.means[[0, 2]] + 120.0 * np.sqrt(cb.variances[[0, 2]])
        ll, (nk, s1, s2) = statistics(X, cb)
        want_nk, want_s1, want_s2 = oracle_moments(X, cb)
        want_norm = log_responsibilities_oracle(X, cb.weights, cb.means, cb.variances)[1]
        assert np.all(want_norm < -2e4)
        assert np.isclose(ll, want_norm.sum(), rtol=1e-12, atol=0)
        assert np.allclose(nk, want_nk, rtol=0, atol=1e-8 * len(X))
        assert_close((s1, s2), (want_s1, want_s2), 1e-8)
        assert_close(_fv_blocks(X, cb), fv_blocks_oracle(X, cb), 1e-8)

    def test_responsibilities_need_no_tkn_temporary(self):
        # the (T, K, N) code held two float64 arrays of about 1.8 GB here, and the
        # unblocked kernels (T, N) and (T, K) ones of about 55 MB; a block's
        # (B, N) and (B, K) arrays and a few (K, N) moments do not grow with T
        T, K, N = 20_000, 64, 87
        rng = np.random.default_rng(14)
        X = rng.normal(0, 1, (T, N))
        cb = make_codebook(seed=15, k=K, n=N)
        tracemalloc.start()
        try:
            statistics(X, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 * BLOCK_ROWS * (N + K) + 16 * K * N) * 8


def corpus_descriptors(seed):
    """Per-video descriptor sets of the benchmark's trajectory corpus."""
    return [np.array([shape.describe(p, 2).values for p in v.points])
            for v in corpus.trajectory_corpus(seed)]


# Sums over more than BLOCK_ROWS rows add the blocks' partial sums, in another
# order than the oracles' one pass, so a fit or log-likelihood over more rows is
# held to the oracle within this share of each array's largest magnitude.  Each
# moment then rounds about 2e-16 times the number of blocks apart; 1e-12 leaves
# room for EM to carry that through a few iterations.
MULTI_BLOCK_RTOL = 1e-12


class TestTermsOncePerCodebookOracles:
    """fit_gmm, fisher_vector and gmm_log_likelihood against the kernels that
    rebuilt the mixture terms on every call: the same bits, not just close,
    on up to BLOCK_ROWS rows; within MULTI_BLOCK_RTOL on more."""

    @pytest.mark.parametrize("seed", [1, 3, 23])
    def test_trajectory_corpus_bitwise(self, seed):
        # each Fisher vector reads one codebook and one block, so it keeps every bit;
        # the fit of 9,600 rows (19 blocks) and the 1,000-row likelihood are close
        descs = corpus_descriptors(seed)
        pool = np.vstack(descs)
        cb = fit_gmm(pool, k=16, seed=seed, max_iters=4)
        assert_close((cb.weights, cb.means, cb.variances), fit_gmm_oracle(pool, 16, seed, 4),
                     MULTI_BLOCK_RTOL)
        for X in descs:
            assert_same_bits(fisher_vector(X, cb), fisher_vector_oracle(X, cb))
        X = pool[:1000]
        want = float(shifted_log_responsibilities_oracle(
            X, cb.weights, cb.means, cb.variances)[1].sum())
        got = gmm_log_likelihood(X, cb.weights, cb.means, cb.variances)
        assert abs(got - want) <= MULTI_BLOCK_RTOL * abs(want)

    def test_ragged_blocks_close(self):
        # two whole blocks and a third of 7 rows
        rng = np.random.default_rng(20)
        T, K, N = 2 * BLOCK_ROWS + 7, 5, 6
        X = np.vstack([rng.normal(m, 1.0, (T // K + 1, N)) for m in range(K)])[:T] + 1e3
        cb = fit_gmm(X, k=K, seed=20, max_iters=5)
        assert_close((cb.weights, cb.means, cb.variances), fit_gmm_oracle(X, K, 20, 5),
                     MULTI_BLOCK_RTOL)
        want = float(shifted_log_responsibilities_oracle(
            X, cb.weights, cb.means, cb.variances)[1].sum())
        got = gmm_log_likelihood(X, cb.weights, cb.means, cb.variances)
        assert abs(got - want) <= MULTI_BLOCK_RTOL * abs(want)
        assert_close(_fv_blocks(X, cb), shifted_fv_blocks_oracle(X, cb), MULTI_BLOCK_RTOL)

    @pytest.mark.parametrize("x, y, below_top_clear", [
        ((-1.0, 4.0), (1.45, 2.15), False),
        ((0.0, 0.0), (2.2835, 2.2915), True),
    ], ids=["far", "within_log_k"])
    def test_subnormal_responsibilities_are_zero(self, x, y, below_top_clear):
        # component 2 lies 40 σ from the rows, so every row's log γ for it is
        # between -745 and log(tiny) = -708.4: exp gives a subnormal, which the
        # kernel takes to 0; the others and the log-likelihood keep every bit.
        # Rows halfway between components 0 and 1 have Σ exp(below_top) = 2, so
        # there log γ is below log(tiny) while the shifted exponent is above it
        rng = np.random.default_rng(21)
        cb = FisherCodebook(weights=np.full(3, 1 / 3),
                            means=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 40.0]]),
                            variances=np.ones((3, 2)))
        X = np.column_stack([rng.uniform(*x, 60), rng.uniform(*y, 60)])
        log_gamma, norm = shifted_log_responsibilities_oracle(X, cb.weights, cb.means,
                                                              cb.variances)
        log_tiny = np.log(np.finfo(np.float64).tiny)
        assert np.all((-745.0 < log_gamma[:, 2]) & (log_gamma[:, 2] < log_tiny))
        assert np.all(log_gamma[:, :2] > log_tiny)
        assert np.all(log_gamma[:, 2] - log_gamma.max(axis=1) > log_tiny) == below_top_clear
        gamma = np.exp(log_gamma)
        assert np.all(gamma[:, 2] > 0.0)
        gamma[log_gamma < log_tiny] = 0.0
        ll, moments = statistics(X, cb)
        for got, want in zip(moments, shifted_moments_oracle(X, gamma, cb.weights @ cb.means)):
            assert_same_bits(got, want)
        assert moments[0][2] == 0.0
        assert_same_bits(ll, float(norm.sum()))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 8),
           st.integers(1, 12), st.sampled_from([0.0, 1.0, -3e2, 1e4, -1e5, 1e6]),
           st.floats(-6.0, 2.0))
    def test_far_offsets_and_small_variances_bitwise(self, seed, T, K, N, offset, log10_var):
        # the parameter sets of TestKernelOracles::test_match_oracles
        rng = np.random.default_rng(seed)
        var = 10.0 ** log10_var
        w = rng.uniform(0.1, 1.0, K)
        cb = FisherCodebook(
            weights=w / w.sum(),
            means=offset + np.sqrt(var) * rng.normal(0, 2, (K, N)),
            variances=np.clip(var * rng.uniform(0.5, 2.0, (K, N)), 1e-6, 1e2))
        X = offset + np.sqrt(var) * rng.normal(0, 2, (T, N))
        assert_same_bits(fisher_vector(X, cb), fisher_vector_oracle(X, cb))
        assert_same_bits(_fv_blocks(X, cb), shifted_fv_blocks_oracle(X, cb))
        want = float(shifted_log_responsibilities_oracle(
            X, cb.weights, cb.means, cb.variances)[1].sum())
        assert_same_bits(gmm_log_likelihood(X, cb.weights, cb.means, cb.variances), want)
        if T >= K:
            got = fit_gmm(X, k=K, seed=seed, max_iters=5)
            for got_part, want_part in zip((got.weights, got.means, got.variances),
                                           fit_gmm_oracle(X, K, seed, 5)):
                assert_same_bits(got_part, want_part)

    def test_signed_root_bitwise_at_signed_zeros(self, monkeypatch):
        # the corpora give no block entry of -0.0; sign(-0.0)·√0 is +0.0
        blocks = np.array([[[-0.0, 0.0, -2.0], [3.0, -5e-324, 1e-300]],
                           [[-0.0, -0.0, 7.5], [0.0, -1e-3, 2.0]]])
        monkeypatch.setattr(encoding, "_fv_blocks", lambda X, cb: blocks.copy())
        fv = blocks.ravel()
        fv = np.sign(fv) * np.sqrt(np.abs(fv))
        want = fv / np.linalg.norm(fv)
        assert_same_bits(fisher_vector(np.zeros((1, 3)), make_codebook(k=2, n=3)), want)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_translated_fit_bitwise(self, offset):
        # the data of TestFitGmm::test_fit_follows_a_translation_of_the_data
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(0, 1, (300, 3)) * 8) / 8
        X[:150] += 4.0
        X += offset
        cb = fit_gmm(X, k=2, seed=5, max_iters=5)
        for got, want in zip((cb.weights, cb.means, cb.variances),
                             fit_gmm_oracle(X, 2, 5, 5)):
            assert_same_bits(got, want)
        assert_same_bits(fisher_vector(X[::7], cb), fisher_vector_oracle(X[::7], cb))


class TestFisherVector:
    def test_all_points_at_mean_zero_mean_block(self):
        cb = FisherCodebook(weights=np.array([1.0]),
                            means=np.array([[2.0, -1.0]]),
                            variances=np.array([[0.5, 0.5]]))
        X = np.tile(cb.means[0], (20, 1))
        blocks = _fv_blocks(X, cb)
        assert np.all(blocks[0] == 0.0)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        cb = make_codebook()
        fv = fisher_vector(rng.normal(0, 1, (30, 4)), cb)
        assert abs(np.linalg.norm(fv) - 1.0) < 1e-9
        assert fv.shape == (2 * 4 * 3,)

    def test_empty_set_zero_vector(self):
        cb = make_codebook()
        fv = fisher_vector(np.zeros((0, 4)), cb)
        assert np.all(fv == 0.0) and fv.shape == (24,)

    def test_dimension_mismatch(self):
        cb = make_codebook(n=4)
        with pytest.raises(ValueError, match=r"^descriptors must be a 2-D array of width 4, "
                                             r"got \(5, 3\)$"):
            fisher_vector(np.zeros((5, 3)), cb)

    @pytest.mark.parametrize("descriptors, named", [
        (np.zeros((2, 3, 4)), r"of width 3, got \(2, 3, 4\)$"),
        ([[1.0, 2.0, 3.0], [4.0, 5.0]], r"of real numbers: .*inhomogeneous"),
        (5.0, r"of width 3, got \(1, 1\)$"),
    ], ids=["three_d", "ragged", "scalar"])
    def test_bad_shape_named(self, descriptors, named):
        # a (2, 3, 4) set with N = 3 used to pass the width test and fail to broadcast
        with pytest.raises(ValueError, match=f"^descriptors must be a 2-D array {named}"):
            fisher_vector(descriptors, make_codebook(n=3))

    def test_scalar_is_one_descriptor_when_n_is_1(self):
        cb = make_codebook(n=1)
        np.testing.assert_array_equal(fisher_vector(5.0, cb), fisher_vector([[5.0]], cb))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.random.default_rng(6).normal(0, 1, (50, 4))
        X[7, 2] = bad
        with pytest.raises(ValueError, match="descriptor 7 entry 2 is not finite"):
            fisher_vector(X, make_codebook())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (25, 4))
        cb = make_codebook()
        a = fisher_vector(X, cb)
        b = fisher_vector(X[rng.permutation(25)], cb)
        assert np.allclose(a, b, atol=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (25, 4))
        cb = make_codebook()
        assert np.allclose(_fv_blocks(X, cb), _fv_blocks(np.vstack([X, X]), cb), atol=1e-12)
        assert np.allclose(fisher_vector(X, cb), fisher_vector(np.vstack([X, X]), cb),
                           atol=1e-12)

    def test_log_likelihood_width_named(self):
        cb = make_codebook(n=3)
        with pytest.raises(ValueError, match=r"^X must be a 2-D array of width 3, got \(5, 2\)$"):
            gmm_log_likelihood(np.zeros((5, 2)), cb.weights, cb.means, cb.variances)

    @pytest.mark.parametrize("X, named", [
        (np.zeros((2, 4, 3)), r"X must be a 2-D array of width 3, got \(2, 4, 3\)"),
        ([[1.0, 2.0, 3.0], [4.0, 5.0]], r"X must be a 2-D array of real numbers: .*inhomogeneous"),
        ([[0.0, 0.0, 0.0], [1.0, np.nan, 0.0]], r"X row 1 entry 1 is not finite: nan"),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, -np.inf]], r"X row 1 entry 2 is not finite: -inf"),
    ], ids=["three_d", "ragged", "nan_row", "inf_row"])
    def test_log_likelihood_bad_input_named(self, X, named):
        # a NaN or infinite row used to give a silent NaN total
        cb = make_codebook(n=3)
        with pytest.raises(ValueError, match=f"^{named}"):
            gmm_log_likelihood(X, cb.weights, cb.means, cb.variances)

    @pytest.mark.parametrize("damage, named", [
        (lambda p: p.update(means=p["means"][:, 0]),
         r"codebook needs weights .*; got weights \(2,\), means \(2,\), variances \(2, 3\)$"),
        (lambda p: p.update(means=[[0.0, 1.0, 2.0], [3.0, 4.0]]),
         r"codebook means must be an array of real numbers: .*inhomogeneous"),
        (lambda p: p.update(weights=np.array([0.5, 0.25, 0.25])),
         r"codebook needs weights .*; got weights \(3,\), means \(2, 3\), variances \(2, 3\)$"),
        (lambda p: p.update(variances=-p["variances"]), r"codebook variances must be >= 1e-06"),
    ], ids=["one_d_means", "ragged_list_means", "weights_wrong_length", "negative_variances"])
    def test_log_likelihood_bad_mixture_named(self, damage, named):
        # these gave an IndexError, an AttributeError, a matmul error and a NaN
        cb = make_codebook(k=2, n=3)
        parts = dict(weights=cb.weights, means=cb.means, variances=cb.variances)
        damage(parts)
        with pytest.raises(ValueError, match=f"^{named}"):
            gmm_log_likelihood(np.zeros((4, 3)), **parts)

    def test_log_likelihood_of_no_rows_is_zero(self):
        cb = make_codebook(k=2, n=3)
        got = gmm_log_likelihood(np.zeros((0, 3)), cb.weights, cb.means, cb.variances)
        assert type(got) is float and got == 0.0

    def test_log_likelihood_takes_list_mixtures(self):
        # list means used to fail with an AttributeError on .shape
        cb = make_codebook(k=2, n=3)
        X = np.random.default_rng(9).normal(0, 1, (10, 3))
        assert_same_bits(
            gmm_log_likelihood(X, cb.weights.tolist(), cb.means.tolist(), cb.variances.tolist()),
            gmm_log_likelihood(X, cb.weights, cb.means, cb.variances))

    def test_gradient_matches_finite_differences(self):
        # pre-normalization blocks = (1/T) * Fisher normalizer * grad loglik
        rng = np.random.default_rng(8)
        for trial in range(10):
            K = int(rng.integers(1, 5))
            N = int(rng.integers(1, 9))
            T = int(rng.integers(5, 51))
            w = rng.uniform(0.5, 1.5, K)
            cb = FisherCodebook(weights=w / w.sum(),
                                means=rng.normal(0, 1.5, (K, N)),
                                variances=rng.uniform(0.3, 1.5, (K, N)))
            X = rng.normal(0, 1.5, (T, N))
            blocks = _fv_blocks(X, cb)
            sigma = np.sqrt(cb.variances)

            grad_mu = np.zeros((K, N))
            grad_sigma = np.zeros((K, N))
            h = 1e-5
            for k in range(K):
                for j in range(N):
                    mu_p, mu_m = cb.means.copy(), cb.means.copy()
                    mu_p[k, j] += h
                    mu_m[k, j] -= h
                    grad_mu[k, j] = (gmm_log_likelihood(X, cb.weights, mu_p, cb.variances)
                                     - gmm_log_likelihood(X, cb.weights, mu_m, cb.variances)) / (2 * h)
                    s_p, s_m = sigma.copy(), sigma.copy()
                    s_p[k, j] += h
                    s_m[k, j] -= h
                    grad_sigma[k, j] = (gmm_log_likelihood(X, cb.weights, cb.means, s_p ** 2)
                                        - gmm_log_likelihood(X, cb.weights, cb.means, s_m ** 2)) / (2 * h)

            T_count = len(X)
            expected_mu = sigma / np.sqrt(cb.weights)[:, None] * grad_mu / T_count
            expected_sigma = sigma / np.sqrt(2.0 * cb.weights)[:, None] * grad_sigma / T_count
            err_mu = np.abs(blocks[0] - expected_mu).max() / max(np.abs(expected_mu).max(), 1e-12)
            err_sigma = np.abs(blocks[1] - expected_sigma).max() / max(np.abs(expected_sigma).max(), 1e-12)
            assert err_mu < 1e-4, f"trial {trial}: mean-block mismatch {err_mu}"
            assert err_sigma < 1e-4, f"trial {trial}: variance-block mismatch {err_sigma}"


class TestFisherCodebook:
    @pytest.mark.parametrize("damage", [
        lambda a: a.update(weights=a["weights"][:, None]),
        lambda a: a.update(means=a["means"][:, :-1]),
        lambda a: a.update(variances=a["variances"][:-1]),
        lambda a: a.update(weights=1.0),
        lambda a: a.update(means=2.0),
    ], ids=["weights_k1", "means_n_minus_1", "variances_k_minus_1", "scalar_weights",
            "scalar_means"])
    def test_bad_shape_rejected(self, damage):
        # scalar weights used to raise TypeError: len() of unsized object
        cb = make_codebook(seed=12, k=4, n=3)
        parts = dict(weights=cb.weights, means=cb.means, variances=cb.variances)
        damage(parts)
        with pytest.raises(ValueError, match="codebook needs weights"):
            FisherCodebook(**parts)
        with pytest.raises(ValueError, match="codebook needs weights"):
            gmm_log_likelihood(np.zeros((5, 3)), **parts)

    @pytest.mark.parametrize("field, value, message", [
        ("weights", [np.nan, 1.0], "weights must be finite"),
        ("weights", [1.5, -0.5], "weights must be > 0"),
        ("weights", [1.0, 0.0], "weights must be > 0"),
        ("means", [[0.0, np.nan], [1.0, 1.0]], "means must be finite"),
        ("means", [[0.0, np.inf], [1.0, 1.0]], "means must be finite"),
        ("variances", [[1.0, 1.0], [np.nan, 1.0]], "variances must be finite"),
        ("variances", [[1.0, 1.0], [np.inf, 1.0]], "variances must be finite"),
    ], ids=["weight_nan", "weight_negative", "weight_zero", "mean_nan", "mean_inf",
            "variance_nan", "variance_inf"])
    def test_silent_nan_inputs_rejected(self, field, value, message):
        parts = dict(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)),
                     variances=np.ones((2, 2)))
        parts[field] = np.array(value)
        with pytest.raises(ValueError, match=f"codebook {message}"):
            FisherCodebook(**parts)

    @pytest.mark.parametrize("name", ["weights", "means", "variances"])
    def test_complex_arrays_named(self, name):
        # the imaginary part used to be dropped with only a ComplexWarning
        cb = make_codebook(seed=20, k=2, n=3)
        parts = dict(weights=cb.weights, means=cb.means, variances=cb.variances)
        parts[name] = parts[name] + 1j
        named = f"^codebook {name} must be an array of real numbers, got dtype complex128$"
        with pytest.raises(ValueError, match=named):
            FisherCodebook(**parts)
        with pytest.raises(ValueError, match=named):
            gmm_log_likelihood(np.zeros((4, 3)), **parts)

    @pytest.mark.parametrize("name", ["weights", "means", "variances"])
    def test_arrays_are_read_only(self, name):
        cb = make_codebook(seed=17)
        with pytest.raises(ValueError, match="read-only"):
            getattr(cb, name)[0] = 1.0

    def test_caller_arrays_stay_writable_and_unchanged(self):
        rng = np.random.default_rng(18)
        w = rng.uniform(0.5, 1.5, 3)
        parts = dict(weights=w / w.sum(), means=rng.normal(0, 2, (3, 4)),
                     variances=rng.uniform(0.2, 2.0, (3, 4)))
        before = {name: arr.copy() for name, arr in parts.items()}
        cb = FisherCodebook(**parts)
        X = rng.normal(0, 1, (30, 4))
        fv = fisher_vector(X, cb)
        for name, arr in parts.items():
            assert arr.flags.writeable
            assert_same_bits(arr, before[name])
            assert getattr(cb, name) is not arr
            arr += 1.0  # the codebook keeps its own copy, so its terms cannot go stale
            assert_same_bits(getattr(cb, name), before[name])
        assert_same_bits(fisher_vector(X, cb), fv)

    def test_repr_and_eq_ignore_terms(self):
        def one():
            return FisherCodebook(weights=np.array([1.0]), means=np.array([[2.0]]),
                                  variances=np.array([[0.5]]))

        a, b = one(), one()
        assert "_terms" not in repr(a) and repr(a) == repr(b)
        assert [f.name for f in dataclasses.fields(a) if f.compare] == [
            "weights", "means", "variances"]
        object.__setattr__(b, "_terms", None)
        assert a == b

    def test_fisher_vectors_build_no_terms(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(None)
            return _codebook_terms(*args)

        monkeypatch.setattr(encoding, "_codebook_terms", counting)
        cb = make_codebook(seed=19)
        assert len(built) == 1
        rng = np.random.default_rng(19)
        for _ in range(10):
            fisher_vector(rng.normal(0, 1, (int(rng.integers(1, 50)), 4)), cb)
        assert len(built) == 1
