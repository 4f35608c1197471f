import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailblaze import encoding
from trailblaze.encoding import (
    FisherCodebook, _fv_blocks, _kmeanspp_centers, _log_responsibilities, fisher_vector,
    fit_gmm, gmm_log_likelihood,
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
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (50, 3))
        cb = make_codebook(n=3)
        log_gamma, _ = _log_responsibilities(X, cb.weights, cb.means, cb.variances)
        assert np.allclose(np.exp(log_gamma).sum(axis=1), 1.0, atol=1e-9)

    def test_loglik_monotone(self):
        # run EM manually mirroring fit_gmm and record the likelihood path
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 1, (100, 2)), rng.normal(4, 0.5, (100, 2))])
        cb = fit_gmm(X, k=3, seed=4)  # would raise internally on any decrease
        assert cb.k == 3

    def test_likelihood_drop_raises_runtime_error(self, monkeypatch):
        # each call lowers every point's log-likelihood by 1000 more than the last
        calls = []

        def decreasing(*args):
            log_gamma, norm = _log_responsibilities(*args)
            calls.append(None)
            return log_gamma, norm - 1000.0 * len(calls)

        monkeypatch.setattr(encoding, "_log_responsibilities", decreasing)
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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(k=2.5), "k must be an integer >= 1, got 2.5"),
        (dict(k=True), "k must be an integer >= 1, got True"),
        (dict(k=0), "k must be an integer >= 1, got 0"),
        (dict(k=2, max_iters=0), "max_iters must be an integer >= 1, got 0"),
        (dict(k=2, max_iters=-1), "max_iters must be an integer >= 1, got -1"),
        (dict(k=2, max_iters=3.0), "max_iters must be an integer >= 1, got 3.0"),
    ], ids=["k_float", "k_bool", "k_zero", "iters_zero", "iters_negative", "iters_float"])
    def test_bad_count_named(self, kwargs, message):
        X = np.random.default_rng(12).normal(0, 1, (20, 2))
        with pytest.raises(ValueError, match=message):
            fit_gmm(X, **kwargs)

    def test_numpy_integer_counts_accepted(self):
        X = np.random.default_rng(13).normal(0, 1, (20, 2))
        assert fit_gmm(X, k=np.int64(2), max_iters=np.int32(3)).k == 2

    @pytest.mark.parametrize("shape", [(20, 0), (20,), (2, 10, 2)])
    def test_descriptor_shape_named(self, shape):
        with pytest.raises(ValueError, match=rf"descriptors must be a 2-D array .*{shape}"):
            fit_gmm(np.zeros(shape), k=1)

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
    offset, so each Mahalanobis term is at most a few thousand and log γ is
    held to 1e-9 absolute; the gradient blocks to 1e-9 of their largest entry.
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

        log_gamma, norm = _log_responsibilities(X, cb.weights, cb.means, cb.variances)
        want_gamma, want_norm = log_responsibilities_oracle(X, cb.weights, cb.means,
                                                            cb.variances)
        assert np.abs(log_gamma - want_gamma).max() <= 1e-9
        assert np.abs(norm - want_norm).max() <= 1e-9

        blocks, want = _fv_blocks(X, cb), fv_blocks_oracle(X, cb)
        for got_block, want_block in zip(blocks, want):
            scale = np.abs(want_block).max()
            assert np.abs(got_block - want_block).max() <= 1e-9 * scale

    def test_points_far_from_every_component(self):
        # every joint log-density is below -2e4, far outside exp's range, so the
        # log-sum-exp must shift by the row maximum
        cb = make_codebook(seed=16, k=3, n=4)
        X = cb.means[[0, 2]] + 120.0 * np.sqrt(cb.variances[[0, 2]])
        log_gamma, norm = _log_responsibilities(X, cb.weights, cb.means, cb.variances)
        want_gamma, want_norm = log_responsibilities_oracle(X, cb.weights, cb.means,
                                                            cb.variances)
        assert np.all(norm < -2e4)
        assert np.allclose(norm, want_norm, rtol=1e-12, atol=0)
        assert np.allclose(log_gamma, want_gamma, rtol=0, atol=1e-8)

    def test_responsibilities_need_no_tkn_temporary(self):
        # the replaced code held two (T, K, N) float64 arrays: about 1.8 GB here
        T, K, N = 20_000, 64, 87
        rng = np.random.default_rng(14)
        X = rng.normal(0, 1, (T, N))
        cb = make_codebook(seed=15, k=K, n=N)
        tracemalloc.start()
        try:
            _log_responsibilities(X, cb.weights, cb.means, cb.variances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * (N + 4 * K) * 8


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
        with pytest.raises(ValueError, match="dimension"):
            fisher_vector(np.zeros((5, 3)), cb)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.random.default_rng(6).normal(0, 1, (50, 4))
        X[7, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
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
        with pytest.raises(ValueError, match=r"X must be \(T, 3\) .*\(5, 2\)"):
            gmm_log_likelihood(np.zeros((5, 2)), cb.weights, cb.means, cb.variances)

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
    ], ids=["weights_k1", "means_n_minus_1", "variances_k_minus_1"])
    def test_bad_shape_rejected(self, damage):
        cb = make_codebook(seed=12, k=4, n=3)
        parts = dict(weights=cb.weights, means=cb.means, variances=cb.variances)
        damage(parts)
        with pytest.raises(ValueError, match="codebook needs weights"):
            FisherCodebook(**parts)

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
