import numpy as np
import pytest

from trailblaze import encoding
from trailblaze.encoding import (
    FisherCodebook, _fv_blocks, _log_responsibilities, fisher_vector, fit_gmm,
    gmm_log_likelihood, read_codebook, write_codebook,
)
from trailblaze.media import save_arrays


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

    def test_variance_floor(self):
        X = np.tile([[1.0, 2.0]], (10, 1))  # zero variance data
        cb = fit_gmm(X, k=1)
        assert np.all(cb.variances >= 1e-6)


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


class TestCodebookIO:
    def test_round_trip(self, tmp_path):
        cb = make_codebook(seed=11, k=4, n=3)
        p = tmp_path / "cb.txt"
        write_codebook(p, cb)
        back = read_codebook(p)
        assert np.array_equal(back.weights, cb.weights)
        assert np.array_equal(back.means, cb.means)
        assert np.array_equal(back.variances, cb.variances)

    @pytest.mark.parametrize("damage", [
        lambda a: a.pop("variances"),
        lambda a: a.update(variances=a["variances"][:-1]),
        lambda a: a.update(means=a["means"][:, :-1]),
        lambda a: a.update(weights=a["weights"][:, None]),
    ])
    def test_damaged_file_names_path(self, tmp_path, damage):
        cb = make_codebook(seed=12, k=4, n=3)
        arrays = dict(weights=cb.weights, means=cb.means, variances=cb.variances)
        damage(arrays)
        p = tmp_path / "cb.npz"
        save_arrays(p, **arrays)
        with pytest.raises(ValueError, match=r"cb\.npz"):
            read_codebook(p)
