import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

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
        (dict(epochs=0), "epochs must be an integer >= 1, got 0"),
        (dict(C=np.inf), "C must be finite .* got C = inf for n = 40"),
        (dict(C=1e308), r"got C = 1e\+308 for n = 40 and 2000 steps \(lambda = 1/\(C\*n\) = 0.0\)"),
        (dict(C=1e-320), r"got C = 1e-320 for n = 40 and 2000 steps \(lambda = 1/\(C\*n\) = inf\)"),
        (dict(C=np.nan), "C must be > 0, got nan"),
        (dict(epochs=2.5), "epochs must be an integer >= 1, got 2.5"),
        (dict(epochs=True), "epochs must be an integer >= 1, got True"),
        (dict(C="1"), "C must be > 0, got '1'"),
        (dict(C=True), "C must be > 0, got True"),
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
        (2, [1 + 5j, 2.0], "^example 2 fv must be a vector of real numbers, got dtype complex128$"),
    ], ids=["nan", "neg_inf", "longer", "shorter", "matrix", "complex"])
    def test_bad_feature_named(self, row, fv, named):
        examples = separable_blobs()
        examples[row] = LabeledVideo(np.array(fv), examples[row].label, examples[row].actor)
        with pytest.raises(ValueError, match=named):
            train(examples)

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            train(separable_blobs(), epochs=2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        want = train(separable_blobs(), epochs=2, seed=3)
        got = train(separable_blobs(), epochs=2, seed=np.int64(3))
        assert np.array_equal(got.weights, want.weights) and np.array_equal(got.biases, want.biases)

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
        # step, `train` only one row of the 40 × 40 Gram matrix.  Timed in a
        # child process with the BLAS and OpenMP pools pinned to one thread, as
        # bench/run.py runs: busy neighbours then slow both sides alike
        script = textwrap.dedent("""
            import sys, time
            import numpy as np
            sys.path[:0] = sys.argv[1:]
            from test_classify import clustered_problem, train_oracle
            from trailblaze.classify import train

            examples = clustered_problem(np.random.default_rng(5), 40, 20_000, 6)

            def best_of(runs, fn):
                times = []
                for _ in range(runs):
                    t0 = time.perf_counter()
                    fn(examples, C=1.0, epochs=20, seed=0)
                    times.append(time.perf_counter() - t0)
                return min(times)

            print(best_of(3, train), best_of(1, train_oracle))
        """)
        pinned = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        paths = [str(Path(__file__).parent), str(Path(classify.__file__).parents[1])]
        child = subprocess.run([sys.executable, "-c", script, *paths], env={**os.environ, **pinned},
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        fast, oracle = map(float, child.stdout.split())
        assert fast < oracle / 3


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

    def test_complex_feature_named(self):
        # the imaginary part used to be dropped with only a ComplexWarning: this gave 'b'
        model = SvmModel(np.eye(2), np.zeros(2), ("a", "b"))
        with pytest.raises(ValueError, match="^fv must be a vector of real numbers, "
                                             "got dtype complex128$"):
            predict(model, np.array([1 + 5j, 2]))

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


class TestConfusionMatrix:
    @pytest.mark.parametrize("counts, named", [
        ([[0.5, 1], [1, 1]], r"counts must be whole and non-negative: count \(0, 0\) is 0.5"),
        ([[1, 1], [-2, 1]], r"counts must be whole and non-negative: count \(1, 0\) is -2.0"),
        ([[1, np.nan], [1, 1]], r"count \(0, 1\) is not finite: nan"),
        ([[1, 1], [1, np.inf]], r"count \(1, 1\) is not finite: inf"),
    ], ids=["half", "negative", "nan", "inf"])
    def test_bad_count_named(self, counts, named):
        # 0.5 used to be truncated to 0 without a word
        with pytest.raises(ValueError, match=f"^{named}$"):
            ConfusionMatrix(counts, ("a", "b"))

    def test_complex_counts_named(self):
        with pytest.raises(ValueError, match="^counts must be an array of real numbers"):
            ConfusionMatrix(np.eye(2) + 1j, ("a", "b"))

    @pytest.mark.parametrize("counts", [np.eye(3) * 2, np.eye(3, dtype=np.int32) * 2,
                                        (np.eye(3) * 2).tolist()], ids=["float", "int32", "list"])
    def test_whole_counts_stored_as_int64(self, counts):
        cm = ConfusionMatrix(counts, ("a", "b", "c"))
        assert cm.counts.dtype == np.int64
        assert np.array_equal(cm.counts, np.eye(3, dtype=np.int64) * 2)


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

    def test_descriptor_widths_differ_names_videos(self):
        # a (0, N) set counts as N wide; the error used to come from np.vstack
        videos = one_hot_videos(classes=2, actors=2, reps=2)
        videos[0] = VideoSample(videos[0].clip_id, videos[0].label, videos[0].actor,
                                np.zeros((0, 2)))
        videos[5] = VideoSample(videos[5].clip_id, videos[5].label, videos[5].actor,
                                np.ones((12, 3)))
        with pytest.raises(ValueError, match=r"^clip_id 'c1a0r1' has descriptors 3 wide, "
                                             r"but clip_id 'c0a0r0' has them 2 wide$"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    @pytest.mark.parametrize("clip_id, bad", [("c1a1", np.nan), ("c{0}a}1", -np.inf)])
    def test_non_finite_descriptor_names_video(self, clip_id, bad):
        # it used to be named by its row in another actor's fold pool, from fit_gmm
        videos = one_hot_videos(classes=2, actors=3, reps=1)
        i = next(i for i, v in enumerate(videos) if v.clip_id == "c1a1r0")
        desc = videos[i].descriptors.copy()
        desc[5, 1] = bad
        videos[i] = VideoSample(clip_id, videos[i].label, videos[i].actor, desc)
        with pytest.raises(ValueError, match=f"^clip_id {re.escape(repr(clip_id))} descriptor 5 "
                                             f"entry 1 is not finite: {bad}$"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    def test_descriptors_not_numbers_name_video(self):
        videos = one_hot_videos(classes=2, actors=2, reps=1)
        videos[1] = VideoSample("odd", videos[1].label, videos[1].actor, [["a", "b"]] * 12)
        with pytest.raises(ValueError, match="^clip_id 'odd' descriptors must be a 2-D array of "
                                             "real numbers"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    def test_ragged_descriptors_name_video(self):
        # numpy's "inhomogeneous shape" error used to come from np.shape, naming no clip
        videos = one_hot_videos(classes=2, actors=2, reps=1)
        videos[1] = VideoSample("ragged", videos[1].label, videos[1].actor, [[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError, match="^clip_id 'ragged' descriptors must be a 2-D array "
                                             "of real numbers: .*inhomogeneous"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    def test_fold_without_training_descriptors_names_actor(self):
        videos = [VideoSample(v.clip_id, v.label, v.actor,
                              v.descriptors[:0] if v.actor == "actor0" else v.descriptors)
                  for v in one_hot_videos(classes=2, actors=2, reps=2)]
        with pytest.raises(ValueError, match="actor1"):
            leave_one_actor_out(videos, k=2, epochs=5, seed=0)

    def test_fold_smaller_than_k_names_actor(self):
        # 3 actors x 2 classes x 1 rep of 12 rows: each fold fits on 48 rows; the
        # error used to come from fit_gmm without naming the fold
        videos = one_hot_videos(classes=2, actors=3, reps=1)
        with pytest.raises(ValueError, match="^fold for actor actor0 fits its codebook on 48 "
                                             "training descriptors, fewer than k = 64$"):
            leave_one_actor_out(videos, k=64, epochs=2, seed=0)

    @pytest.mark.parametrize("k", [0, 2.0, "2"])
    def test_bad_k_named(self, k):
        with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k!r}$"):
            leave_one_actor_out(one_hot_videos(classes=2, actors=2, reps=2), k=k, epochs=2)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(C=0.0), "C must be > 0, got 0.0"),
        (dict(C=np.nan), "C must be > 0, got nan"),
        (dict(C="1"), "C must be > 0, got '1'"),
        (dict(epochs=0), "epochs must be an integer >= 1, got 0"),
        (dict(epochs=2.5), "epochs must be an integer >= 1, got 2.5"),
        (dict(max_iters=0), "max_iters must be an integer >= 1, got 0"),
        (dict(max_iters=True), "max_iters must be an integer >= 1, got True"),
        # each fold trains on 4 videos, so 50 epochs take 200 steps
        (dict(C=np.inf), "C must be finite with steps 1/(lambda t) in float range, got C = inf "
                         "for n = 4 and 200 steps (lambda = 1/(C*n) = 0.0)"),
        (dict(C=1e308), "C must be finite with steps 1/(lambda t) in float range, got C = 1e+308 "
                        "for n = 4 and 200 steps (lambda = 1/(C*n) = 0.0)"),
    ], ids=["C_zero", "C_nan", "C_str", "epochs_zero", "epochs_float", "max_iters_zero",
            "max_iters_bool", "C_inf", "C_1e308"])
    def test_bad_argument_named_before_any_fit(self, kwargs, message, monkeypatch):
        # these used to be named only after the first fold's codebook was fit
        def no_fit(*args, **kw):
            raise AssertionError("fit_gmm ran before the arguments were checked")
        monkeypatch.setattr(classify, "fit_gmm", no_fit)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            leave_one_actor_out(one_hot_videos(classes=2, actors=3, reps=1), k=2, **kwargs)

    @pytest.mark.parametrize("case, message", [
        ("one_class", "need at least 2 classes to train"),
        ("class_of_second_actor", "fold for actor actor1 misses classes ['class2'] in training"),
        ("second_pool_below_k", "fold for actor actor1 fits its codebook on 4 training "
                                "descriptors, fewer than k = 8"),
        ("second_pool_empty", "fold for actor actor1 fits its codebook on 0 training "
                              "descriptors, fewer than k = 8"),
    ], ids=["one_class", "class_of_second_actor", "second_pool_below_k", "second_pool_empty"])
    def test_fold_refused_before_any_fit(self, case, message, monkeypatch):
        # each used to be refused only after one fit, or after the first fold's fit
        def no_fit(*args, **kw):
            raise AssertionError("fit_gmm ran before the folds were checked")
        monkeypatch.setattr(classify, "fit_gmm", no_fit)
        videos = one_hot_videos(classes=3, actors=3, reps=1)
        if case == "one_class":
            videos = [v for v in videos if v.label == "class0"]
        elif case == "class_of_second_actor":
            # actor0's fold trains on actor1, who performs class2; actor1's fold misses it
            videos = [v for v in videos if v.label != "class2" or v.actor == "actor1"]
        else:
            # actor1's fold trains on actor0 alone: 2 rows per set, or none; actor0's
            # fold pools 24 rows
            rows = 2 if case == "second_pool_below_k" else 0
            videos = [VideoSample(v.clip_id, v.label, v.actor,
                                  v.descriptors[:rows] if v.actor == "actor0" else v.descriptors)
                      for v in one_hot_videos(classes=2, actors=2, reps=1)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            leave_one_actor_out(videos, k=8, epochs=2)

    @pytest.mark.parametrize("shape", [(2, 4, 3), (4,), (3,), (2, 0, 3)],
                             ids=["3d", "vector4", "vector3", "3d_size0"])
    def test_descriptors_not_2d_name_video(self, shape, monkeypatch):
        # (2, 4, 3) and (4,) used to fail after a fit naming no clip; (3,), as wide
        # as the other sets, was read as one descriptor; (2, 0, 3), with rows but
        # no entries, failed in np.vstack in the fold loop
        def no_fit(*args, **kw):
            raise AssertionError("fit_gmm ran before the descriptor sets were checked")
        monkeypatch.setattr(classify, "fit_gmm", no_fit)
        videos = one_hot_videos(classes=3, actors=3, reps=1)
        videos[4] = VideoSample("odd", videos[4].label, videos[4].actor, np.ones(shape))
        with pytest.raises(ValueError, match=f"^clip_id 'odd' descriptors must be a 2-D array, "
                                             f"got shape {re.escape(str(shape))}$"):
            leave_one_actor_out(videos, k=2, epochs=2)

    @pytest.mark.parametrize("empty", [np.zeros(0), np.zeros((0, 3))], ids=["(0,)", "(0, 3)"])
    def test_empty_descriptor_set_is_valid(self, empty):
        videos = one_hot_videos(classes=3, actors=3, reps=2)
        videos[4] = VideoSample("empty", videos[4].label, videos[4].actor, empty)
        cm = leave_one_actor_out(videos, k=2, epochs=2)
        assert cm.counts.sum() == len(videos)

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


    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            leave_one_actor_out(one_hot_videos(classes=2, actors=2, reps=2), k=2, epochs=2,
                                seed=seed)

    def test_numpy_integer_seed_accepted(self):
        videos = one_hot_videos(classes=2, actors=3, reps=2)
        want = leave_one_actor_out(videos, k=2, epochs=5, seed=3)
        got = leave_one_actor_out(videos, k=2, epochs=5, seed=np.int64(3))
        assert np.array_equal(got.counts, want.counts)

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
    def test_lists_become_float_arrays(self):
        # lists used to fail on '.ndim'
        model = SvmModel([[1.0, 2.0]], [0.0], ("a",))
        for arr in (model.weights, model.biases):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert predict(model, [1.0, 1.0]) == "a"

    @pytest.mark.parametrize("weights, biases, named", [
        ([[1.0, 2.0], [np.nan, 0.0]], [0.0, 0.0], r"model weight \(class 1, feature 0\) is not "
                                                   r"finite: nan"),
        ([[1.0, 2.0], [3.0, 0.0]], [0.0, -np.inf], "model bias 1 is not finite: -inf"),
    ], ids=["weight", "bias"])
    def test_non_finite_entry_named(self, weights, biases, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            SvmModel(np.array(weights), np.array(biases), ("a", "b"))

    def test_complex_weights_named(self):
        with pytest.raises(ValueError, match="^model weights must be an array of real numbers, "
                                             "got dtype complex128$"):
            SvmModel(np.zeros((2, 3)) + 1j, np.zeros(2), ("a", "b"))

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
