import time

import numpy as np
import pytest

from trailblaze import classify
from trailblaze.classify import (
    ConfusionMatrix, LabeledVideo, SvmModel, VideoSample, accuracy,
    leave_one_actor_out, predict, train,
)


def train_oracle(examples, C: float = 1.0, epochs: int = 50, seed: int = 0) -> SvmModel:
    """The per-step averaged Pegasos loop that `train` telescopes."""
    examples = list(examples)
    labels = tuple(sorted({e.label for e in examples}))
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


def clustered_problem(rng, n, dim, classes, spread=1.0):
    """Normal features around one random centre per class; every class present."""
    label = rng.permutation(np.arange(n) % classes)
    X = rng.normal(0, 1, (n, dim)) + spread * rng.normal(0, 1, (classes, dim))[label]
    return [LabeledVideo(X[j], f"class{label[j]}", "x") for j in range(n)]


def separable_blobs(seed=0, per_class=20, gap=4.0):
    """Two classes around (-gap, 0) and (+gap, 0): margin well above 1."""
    rng = np.random.default_rng(seed)
    examples = []
    for cls, cx in (("a", -gap), ("b", gap)):
        for i in range(per_class):
            fv = np.array([cx, 0.0]) + rng.normal(0, 0.3, 2)
            examples.append(LabeledVideo(fv=fv, label=cls, actor=f"actor{i % 4}"))
    return examples


class TestTrain:
    def test_separable_reaches_full_training_accuracy(self):
        examples = separable_blobs()
        model = train(examples, C=1.0, epochs=50, seed=0)
        correct = sum(predict(model, e.fv) == e.label for e in examples)
        assert correct == len(examples)

    def test_deterministic_given_seed(self):
        examples = separable_blobs(seed=1)
        m1 = train(examples, seed=7)
        m2 = train(examples, seed=7)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)

    def test_single_class_rejected(self):
        examples = [LabeledVideo(np.zeros(2), "only", "a") for _ in range(5)]
        with pytest.raises(ValueError, match="2 classes"):
            train(examples)

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        examples = []
        centers = {"a": (0, 8), "b": (8, -4), "c": (-8, -4)}
        for cls, c in centers.items():
            for i in range(15):
                examples.append(LabeledVideo(np.array(c) + rng.normal(0, 0.5, 2), cls, "x"))
        model = train(examples, epochs=50, seed=3)
        assert all(predict(model, e.fv) == e.label for e in examples)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(C=0.0), "C must be > 0, got 0.0"),
        (dict(C=-1.0), "C must be > 0, got -1.0"),
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(C=np.inf), "C must be finite .* got C = inf for n = 40"),
        (dict(C=1e308), r"got C = 1e\+308 for n = 40 and 2000 steps \(lambda = 1/\(C\*n\) = 0.0\)"),
        (dict(C=1e-320), r"got C = 1e-320 for n = 40 and 2000 steps \(lambda = 1/\(C\*n\) = inf\)"),
        (dict(C=np.nan), "C must be > 0, got nan"),
        (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
        (dict(epochs=True), "epochs must be an integer, got True"),
    ])
    def test_bad_parameter_rejected_with_value(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            train(separable_blobs(), **kwargs)

    @pytest.mark.parametrize("row, fv, named", [
        (3, [0.0, np.nan], "example 3 feature 1 is not finite: nan"),
        (0, [-np.inf, 1.0], "example 0 feature 0 is not finite: -inf"),
        (5, [1.0, 2.0, 3.0], r"example 5 has feature shape \(3,\)"),
        (7, [1.0], r"example 7 has feature shape \(1,\)"),
        (0, [[1.0, 2.0]], r"example 0 has feature shape \(1, 2\)"),
    ], ids=["nan", "neg_inf", "longer", "shorter", "matrix"])
    def test_bad_feature_named(self, row, fv, named):
        examples = separable_blobs()
        examples[row] = LabeledVideo(np.array(fv), examples[row].label, examples[row].actor)
        with pytest.raises(ValueError, match=named):
            train(examples)

    def test_numpy_integer_epochs_accepted(self):
        model = train(separable_blobs(), epochs=np.int64(3))
        oracle = train_oracle(separable_blobs(), epochs=3)
        assert np.allclose(model.weights, oracle.weights, rtol=0, atol=1e-12)


class TestTrainOracle:
    """`train` against the per-step loop it replaced.

    Features are normal draws, so no margin lands exactly on 1 where the
    regrouped sums could round a comparison the other way; the sample order,
    the updates and the running biases are the oracle's, so only the
    weights' rounding differs.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 61))
        classes = int(rng.integers(2, min(6, n) + 1))
        examples = clustered_problem(rng, n, int(rng.integers(1, 301)), classes)
        C = float(10.0 ** rng.uniform(-3, 2))
        epochs = int(rng.integers(1, 21))
        model = train(examples, C=C, epochs=epochs, seed=seed)
        oracle = train_oracle(examples, C=C, epochs=epochs, seed=seed)
        assert model.labels == oracle.labels
        scale = max(np.abs(oracle.weights).max(), np.abs(oracle.biases).max())
        assert np.abs(model.weights - oracle.weights).max() <= 1e-9 * scale
        assert np.array_equal(model.biases, oracle.biases)

    def test_loao_encode_sized_problem(self):
        rng = np.random.default_rng(11)
        examples = clustered_problem(rng, 240, 2784, 6, spread=0.1)
        for e in examples:
            e.fv[:] /= np.linalg.norm(e.fv)
        fit, held_out = examples[:180], examples[180:]
        model = train(fit, C=0.01, epochs=20, seed=3)
        oracle = train_oracle(fit, C=0.01, epochs=20, seed=3)
        assert np.abs(model.weights - oracle.weights).max() <= 1e-9 * np.abs(oracle.weights).max()
        assert np.array_equal(model.biases, oracle.biases)
        predictions = [predict(model, e.fv) for e in examples]
        assert predictions == [predict(oracle, e.fv) for e in examples]
        assert 0.3 < np.mean([p == e.label for p, e in zip(predictions[180:], held_out)]) < 1.0

    def test_step_cost_does_not_grow_with_dimension(self):
        # 800 steps at D = 20 000: the loop touches (C, D) arrays three times a
        # step, `train` only one row of the 40 × 40 Gram matrix
        examples = clustered_problem(np.random.default_rng(5), 40, 20_000, 6)

        def best_of(runs, fn):
            times = []
            for _ in range(runs):
                t0 = time.perf_counter()
                fn(examples, C=1.0, epochs=20, seed=0)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of(3, train) < best_of(1, train_oracle) / 3


class TestPredict:
    def test_deep_interior_point(self):
        model = train(separable_blobs(seed=4), seed=0)
        assert predict(model, np.array([-4.0, 0.0])) == "a"
        assert predict(model, np.array([4.0, 0.0])) == "b"

    def test_zero_weights_tie_breaks_to_first(self):
        model = SvmModel(weights=np.zeros((3, 2)), biases=np.zeros(3),
                         labels=("alpha", "beta", "gamma"))
        assert predict(model, np.array([1.0, -1.0])) == "alpha"

    def test_bias_shift_invariance(self):
        model = train(separable_blobs(seed=5), seed=0)
        shifted = SvmModel(weights=model.weights, biases=model.biases + 13.5,
                           labels=model.labels)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(0, 3, 2)
            assert predict(model, x) == predict(shifted, x)

    def test_scale_covariance(self):
        model = train(separable_blobs(seed=7), seed=0)
        scaled = SvmModel(weights=3.0 * model.weights, biases=3.0 * model.biases,
                          labels=model.labels)
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(0, 3, 2)
            assert predict(model, x) == predict(scaled, x)

    def test_dimension_mismatch(self):
        model = SvmModel(weights=np.zeros((2, 3)), biases=np.zeros(2), labels=("a", "b"))
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.zeros(4))

    @pytest.mark.parametrize("fv, named", [
        ([np.nan, 1.0], "feature 0 is not finite: nan"),
        ([1.0, np.inf], "feature 1 is not finite: inf"),
        ([-np.inf, np.nan], "feature 0 is not finite: -inf"),
    ])
    def test_non_finite_feature_names_index(self, fv, named):
        for model in (train(separable_blobs(seed=9), seed=0),
                      SvmModel(weights=np.zeros((2, 2)), biases=np.zeros(2), labels=("a", "b"))):
            with pytest.raises(ValueError, match=named):
                predict(model, np.array(fv))


class TestAccuracy:
    def test_diagonal(self):
        cm = ConfusionMatrix(np.diag([3, 5]), ("a", "b"))
        assert accuracy(cm) == 1.0

    def test_zero_diagonal(self):
        cm = ConfusionMatrix(np.array([[0, 2], [3, 0]]), ("a", "b"))
        assert accuracy(cm) == 0.0

    def test_seven_tenths(self):
        cm = ConfusionMatrix(np.array([[3, 1], [2, 4]]), ("a", "b"))
        assert accuracy(cm) == 0.7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionMatrix(np.zeros((2, 2), int), ("a", "b")))


def one_hot_videos(classes=3, actors=4, reps=3):
    """Descriptor sets whose mean is a one-hot code of the class."""
    videos = []
    for c in range(classes):
        for a in range(actors):
            for r in range(reps):
                desc = np.zeros((12, classes))
                desc[:, c] = 1.0
                videos.append(VideoSample(clip_id=f"c{c}a{a}r{r}", label=f"class{c}",
                                          actor=f"actor{a}", descriptors=desc))
    return videos


class TestLeaveOneActorOut:
    def test_perfectly_separable(self):
        cm = leave_one_actor_out(one_hot_videos(), k=2, epochs=30, seed=0)
        assert accuracy(cm) == 1.0

    def test_row_sums_are_class_totals(self):
        videos = one_hot_videos(classes=2, actors=3, reps=4)
        cm = leave_one_actor_out(videos, k=2, epochs=10, seed=0)
        for i, lab in enumerate(cm.labels):
            assert cm.counts[i].sum() == sum(1 for v in videos if v.label == lab)

    def test_chance_level_on_random_features(self):
        # Monte Carlo oracle: unrelated features converge to 1/C accuracy
        rng = np.random.default_rng(9)
        videos = []
        classes, actors = 4, 10
        per = 440 // (classes * actors)
        for c in range(classes):
            for a in range(actors):
                for r in range(per):
                    videos.append(VideoSample(
                        clip_id=f"{c}-{a}-{r}", label=f"class{c}", actor=f"actor{a}",
                        descriptors=rng.normal(0, 1, (10, 3))))
        assert len(videos) >= 400
        cm = leave_one_actor_out(videos, k=2, epochs=10, seed=1)
        assert abs(accuracy(cm) - 0.25) <= 0.05

    def test_missing_class_in_fold_rejected(self):
        videos = one_hot_videos(classes=2, actors=2, reps=2)
        # class1 exists only for actor0: the actor0 fold trains without it
        videos = [v for v in videos if not (v.label == "class1" and v.actor == "actor1")]
        with pytest.raises(ValueError, match="misses"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    def test_single_actor_rejected(self):
        videos = [v for v in one_hot_videos(actors=1)]
        with pytest.raises(ValueError, match="actors"):
            leave_one_actor_out(videos, k=2)

    def test_fold_without_training_descriptors_names_actor(self):
        videos = [VideoSample(v.clip_id, v.label, v.actor,
                              v.descriptors[:0] if v.actor == "actor0" else v.descriptors)
                  for v in one_hot_videos(classes=2, actors=2, reps=2)]
        with pytest.raises(ValueError, match="actor1"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    def test_clip_id_under_two_actors_named(self):
        videos = one_hot_videos(classes=2, actors=2, reps=2)
        dup = next(v for v in videos if v.actor == "actor1")
        videos.append(VideoSample(dup.clip_id, dup.label, "actor0", dup.descriptors))
        with pytest.raises(ValueError, match=f"clip_id '{dup.clip_id}'.*'actor1' and 'actor0'"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    def test_deterministic(self):
        videos = one_hot_videos()
        a = leave_one_actor_out(videos, k=2, epochs=10, seed=5)
        b = leave_one_actor_out(videos, k=2, epochs=10, seed=5)
        assert np.array_equal(a.counts, b.counts)


    def test_gmm_pool_subsampled_to_cap(self, monkeypatch):
        rng = np.random.default_rng(4)
        videos = [VideoSample(f"c{c}a{a}r{r}", f"class{c}", f"actor{a}", rng.normal(0, 1, (12, 3)))
                  for c in range(2) for a in range(3) for r in range(2)]
        owner = {row.tobytes(): v.actor for v in videos for row in v.descriptors}
        pools, fit_gmm = [], classify.fit_gmm

        def recording_fit_gmm(pool, **kw):
            pools.append(pool)
            return fit_gmm(pool, **kw)

        monkeypatch.setattr(classify, "fit_gmm", recording_fit_gmm)
        monkeypatch.setattr(classify, "GMM_MAX_POINTS", 20)  # each fold pools 48 rows
        leave_one_actor_out(videos, k=2, epochs=5, seed=3)
        first = pools[:]
        leave_one_actor_out(videos, k=2, epochs=5, seed=3)
        assert len(pools) == 6
        for actor, pool in zip(["actor0", "actor1", "actor2"], first):
            assert len(pool) == len(np.unique(pool, axis=0)) == 20
            assert all(owner[row.tobytes()] != actor for row in pool)
        for a, b in zip(first, pools[3:]):
            assert np.array_equal(a, b)


class TestSvmModel:
    @pytest.mark.parametrize("field, value", [
        ("labels", ("a",)),
        ("biases", np.zeros(1)),
        ("weights", np.zeros(6)),
    ], ids=["labels_short", "biases_short", "weights_1d"])
    def test_bad_shape_rejected(self, field, value):
        parts = dict(weights=np.zeros((2, 3)), biases=np.zeros(2), labels=("a", "b"))
        SvmModel(**parts)
        parts[field] = value
        with pytest.raises(ValueError, match="one weight vector and bias per class"):
            SvmModel(**parts)
