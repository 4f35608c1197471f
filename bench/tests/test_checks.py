"""Each ground-truth check accepts the truth and rejects a deliberately wrong input."""

import numpy as np
import pytest

from bench import checks
from trailblaze import classify, encoding, media, shape

SPRITE = 12


@pytest.fixture(scope="module")
def scene():
    spec = media.SceneSpec(
        objects=(media.ObjectPath("line", dict(u0=20, v0=12, du=0.7, z0=3.0, dz=-0.02)),
                 media.ObjectPath("circle", dict(u0=40, v0=34, radius=4, z0=2.5))),
        width=64, height=48, frames=12, patch=SPRITE, seed=3)
    _, _, gt = media.synth_stereo(spec)
    return spec, gt


def true_tracks(gt, start=2, length=6, offset=(2.0, -1.5)):
    """Points riding on each sprite, as a tracker without error would report them."""
    frames = np.arange(start, start + length + 1)
    trajs = gt.left_uv[frames].transpose(1, 0, 2) + np.asarray(offset)
    return trajs, np.full(len(trajs), start)


def true_pairs(gt, offset=(1.0, 2.0)):
    rows = []
    for f in range(len(gt.left_uv)):
        for i in range(gt.left_uv.shape[1]):
            pl = gt.left_uv[f, i] + offset
            pr = pl - (gt.disparity[f, i], 0.0)
            rows.append((f, *pl, *pr))
    return np.array(rows)


class TestTracks:
    def test_truth_passes(self, scene):
        _, gt = scene
        checks.check_tracks(*true_tracks(gt), gt.left_uv, SPRITE)

    def test_drift_of_one_pixel_fails(self, scene):
        _, gt = scene
        trajs, starts = true_tracks(gt)
        trajs[:, 1:, 0] += 1.0
        with pytest.raises(checks.CheckFailed, match="displacement"):
            checks.check_tracks(trajs, starts, gt.left_uv, SPRITE)

    def test_background_track_must_stay_put(self, scene):
        _, gt = scene
        trajs = np.zeros((1, 5, 2)) + (60.0, 2.0)
        trajs[0, :, 0] -= np.arange(5) * 0.5
        with pytest.raises(checks.CheckFailed):
            checks.check_tracks(trajs, np.array([0]), gt.left_uv, SPRITE)


class TestStereoPairs:
    def test_truth_passes(self, scene):
        spec, gt = scene
        ratios = checks.check_stereo_pairs(true_pairs(gt), spec, gt.left_uv, SPRITE, 0.5)
        checks.check_disparity_bias([ratios])

    def test_disparity_scaled_by_1_1_fails(self, scene):
        spec, gt = scene
        pairs = true_pairs(gt)
        disp = pairs[:, 1] - pairs[:, 3]
        pairs[:, 3] = pairs[:, 1] - 1.1 * disp
        # within the loose per-pair tolerance, but biased
        ratios = checks.check_stereo_pairs(pairs, spec, gt.left_uv, SPRITE, 2.5)
        with pytest.raises(checks.CheckFailed, match="median disparity"):
            checks.check_disparity_bias([ratios])

    def test_pair_off_epipolar_line_fails(self, scene):
        spec, gt = scene
        pairs = true_pairs(gt)
        pairs[3, 4] += 1.5
        with pytest.raises(checks.CheckFailed, match="epipolar"):
            checks.check_stereo_pairs(pairs, spec, gt.left_uv, SPRITE, 0.5)

    def test_one_wrong_disparity_fails(self, scene):
        spec, gt = scene
        pairs = true_pairs(gt)
        pairs[5, 3] -= 1.0
        with pytest.raises(checks.CheckFailed, match="tolerance"):
            checks.check_stereo_pairs(pairs, spec, gt.left_uv, SPRITE, 0.5)

    def test_truth_is_focal_baseline_over_depth(self, scene):
        spec, gt = scene
        assert np.allclose(checks.true_disparity(spec), gt.disparity, rtol=1e-12)

    def test_accepted_share_above_floor_passes(self):
        assert checks.check_accepted_share(96, 100, 0.9) == 0.96

    def test_matcher_proposing_wrong_pairs_fails(self):
        with pytest.raises(checks.CheckFailed, match="floor"):
            checks.check_accepted_share(85, 100, 0.9)
        with pytest.raises(checks.CheckFailed, match="floor"):
            checks.check_accepted_share(0, 0, 0.9)


@pytest.fixture(scope="module")
def codebook_and_data():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-2, 1, (150, 3)), rng.normal(2, 0.5, (150, 3))])
    return encoding.fit_gmm(X, k=2, seed=0), X


def test_descriptor_dim_matches_describe():
    traj = np.random.default_rng(1).normal(size=(16, 3))
    assert checks.descriptor_dim(15, 2) == 87
    assert checks.descriptor_dim(15, 2) == len(shape.describe(traj, 2).values)
    assert checks.descriptor_dim(8, 3) == len(shape.describe(traj[:9], 3).values)


class TestFisherVectors:
    def test_real_vectors_pass(self, codebook_and_data):
        cb, X = codebook_and_data
        fvs = [encoding.fisher_vector(X[i::7], cb) for i in range(7)]
        checks.check_fisher_vectors(fvs, 3, 2)

    @pytest.mark.parametrize("damage, message", [
        (lambda fv: fv * 1.001, "norm"),
        (lambda fv: np.where(np.arange(fv.size) == 0, np.nan, fv), "non-finite"),
        (lambda fv: fv[:-1] / np.linalg.norm(fv[:-1]), "dimension"),
    ])
    def test_damaged_vector_fails(self, codebook_and_data, damage, message):
        cb, X = codebook_and_data
        fv = damage(encoding.fisher_vector(X, cb))
        with pytest.raises(checks.CheckFailed, match=message):
            checks.check_fisher_vectors([fv], 3, 2)


class TestLogLikelihood:
    def test_program_agrees_with_reference(self, codebook_and_data):
        cb, X = codebook_and_data
        checks.check_log_likelihood(X, cb)

    def test_wrong_likelihood_fails(self, codebook_and_data, monkeypatch):
        cb, X = codebook_and_data
        real = encoding.gmm_log_likelihood
        monkeypatch.setattr(encoding, "gmm_log_likelihood",
                            lambda X, w, m, v: real(X, w, m, v * 1.01))
        with pytest.raises(checks.CheckFailed, match="differs"):
            checks.check_log_likelihood(X, cb)


class TestConfusion:
    videos = [classify.VideoSample(f"v{i}", lab, f"a{i % 2}", np.zeros((0, 1)))
              for i, lab in enumerate("aabbcc")]

    def cm(self, counts):
        return classify.ConfusionMatrix(np.array(counts), ("a", "b", "c"))

    def test_diagonal_passes(self):
        assert checks.check_confusion(self.cm(np.eye(3) * 2), self.videos) == 1.0

    def test_video_counted_twice_fails(self):
        with pytest.raises(checks.CheckFailed, match="counted"):
            checks.check_confusion(self.cm([[3, 0, 0], [0, 2, 0], [0, 0, 2]]), self.videos)

    def test_chance_accuracy_fails(self):
        with pytest.raises(checks.CheckFailed, match="chance"):
            checks.check_confusion(self.cm([[1, 1, 0], [0, 1, 1], [1, 1, 0]]), self.videos)

    def test_wrong_labels_fail(self):
        cm = classify.ConfusionMatrix(np.eye(3, dtype=int) * 2, ("a", "b", "d"))
        with pytest.raises(checks.CheckFailed, match="labels"):
            checks.check_confusion(cm, self.videos)
