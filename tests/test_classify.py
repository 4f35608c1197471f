import numpy as np
import pytest

from trailblaze.classify import (
    ConfusionMatrix, LabeledVideo, SvmModel, VideoSample, accuracy,
    leave_one_actor_out, predict, read_model, train, write_model,
)
from trailblaze.media import save_arrays


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
    ])
    def test_bad_parameter_rejected_with_value(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            train(separable_blobs(), **kwargs)


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

    def test_deterministic(self):
        videos = one_hot_videos()
        a = leave_one_actor_out(videos, k=2, epochs=10, seed=5)
        b = leave_one_actor_out(videos, k=2, epochs=10, seed=5)
        assert np.array_equal(a.counts, b.counts)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        model = train(separable_blobs(seed=10), seed=0)
        p = tmp_path / "model.txt"
        write_model(p, model)
        back = read_model(p)
        assert back.labels == model.labels
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.biases, model.biases)

    @pytest.mark.parametrize("damage", [
        lambda a: a.pop("biases"),
        lambda a: a.update(labels=a["labels"][:1]),
        lambda a: a.update(biases=a["biases"][:1]),
        lambda a: a.update(weights=a["weights"].ravel()),
    ])
    def test_damaged_file_names_path(self, tmp_path, damage):
        model = train(separable_blobs(seed=11), seed=0)
        arrays = dict(labels=np.array(model.labels), weights=model.weights,
                      biases=model.biases)
        damage(arrays)
        p = tmp_path / "model.npz"
        save_arrays(p, **arrays)
        with pytest.raises(ValueError, match=r"model\.npz"):
            read_model(p)
