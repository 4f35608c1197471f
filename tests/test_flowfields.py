import numpy as np
import pytest
from scipy import ndimage

from trailblaze.flowfields import FlowField, farneback_flow, lk_track, sample_flow
from trailblaze.keypoints import detect_fast


def smooth_texture(seed, shape=(96, 128), blur=1.5):
    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.uniform(0, 255, shape), blur)
    lo, hi = img.min(), img.max()
    return (img - lo) / (hi - lo) * 220.0 + 10.0


def warp_by(img, dx, dy):
    """Synthetic bilinear-warp oracle: output(x) = input(x - d)."""
    h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    return ndimage.map_coordinates(img, [yy - dy, xx - dx], order=1, mode="nearest")


def interior_corners(img, margin):
    h, w = img.shape
    return [(c.x, c.y) for c in detect_fast(img, threshold=8.0)
            if margin <= c.x < w - margin and margin <= c.y < h - margin]


class TestLkTrack:
    def test_identical_frames_zero_displacement(self):
        img = smooth_texture(0)
        pts = interior_corners(img, 20)[:20]
        assert pts
        for r in lk_track(img, img, pts):
            assert r.status == "tracked"
        for p, r in zip(pts, lk_track(img, img, pts)):
            assert np.hypot(r.point[0] - p[0], r.point[1] - p[1]) < 1e-3

    def test_translation_recovered(self):
        img = smooth_texture(1)
        moved = warp_by(img, 3.0, -2.0)
        pts = interior_corners(img, 24)[:30]
        assert len(pts) >= 5
        errs = []
        for p, r in zip(pts, lk_track(img, moved, pts)):
            if r.status != "tracked":
                continue
            errs.append(np.hypot(r.point[0] - (p[0] + 3.0), r.point[1] - (p[1] - 2.0)))
        assert len(errs) >= 0.9 * len(pts)
        assert np.mean(errs) <= 0.25

    def test_window_outside_is_lost(self):
        img = smooth_texture(2)
        res = lk_track(img, img, [(3.0, 3.0)])
        assert res[0].status == "lost"

    def test_flat_region_is_lost(self):
        img = np.full((64, 64), 100.0)
        img[10:20, 10:20] = 200.0  # some structure elsewhere
        res = lk_track(img, img, [(45.0, 45.0)])
        assert res[0].status == "lost"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            lk_track(np.zeros((20, 20)), np.zeros((30, 30)), [(10, 10)])

    def test_deterministic(self):
        img = smooth_texture(3)
        moved = warp_by(img, 1.3, 0.8)
        pts = interior_corners(img, 20)[:10]
        a = lk_track(img, moved, pts)
        b = lk_track(img, moved, pts)
        assert all(x.point == y.point and x.status == y.status for x, y in zip(a, b))

    def test_zero_motion_identity_at_every_depth(self):
        img = smooth_texture(4)
        pts = interior_corners(img, 24)[:8]
        for levels in (1, 2, 3, 4):
            for p, r in zip(pts, lk_track(img, img, pts, levels=levels)):
                assert r.status == "tracked"
                assert np.hypot(r.point[0] - p[0], r.point[1] - p[1]) < 1e-3


class TestFarneback:
    def test_identical_frames_zero_flow(self):
        img = smooth_texture(5)
        field = farneback_flow(img, img)
        mag = np.hypot(field.u, field.v)
        assert mag.max() < 1e-3

    def test_global_translation_median(self):
        img = smooth_texture(6)
        moved = warp_by(img, 2.0, 1.0)
        field = farneback_flow(img, moved)
        inner = np.s_[24:-24, 24:-24]
        assert abs(np.median(field.u[inner]) - 2.0) < 0.25
        assert abs(np.median(field.v[inner]) - 1.0) < 0.25

    def test_swapped_frames_negate(self):
        img = smooth_texture(7)
        moved = warp_by(img, 2.0, 1.0)
        fwd = farneback_flow(img, moved)
        bwd = farneback_flow(moved, img)
        inner = np.s_[24:-24, 24:-24]
        du = np.median(np.abs(fwd.u[inner] + bwd.u[inner]))
        dv = np.median(np.abs(fwd.v[inner] + bwd.v[inner]))
        assert du < 0.3 and dv < 0.3

    def test_accuracy_at_corners(self):
        img = smooth_texture(8)
        moved = warp_by(img, -3.5, 2.25)
        field = farneback_flow(img, moved)
        pts = interior_corners(img, 24)[:40]
        assert len(pts) >= 5
        errs = [np.hypot(sample_flow(field, p)[0] + 3.5, sample_flow(field, p)[1] - 2.25)
                for p in pts]
        assert np.mean(errs) <= 0.25

    def test_deterministic(self):
        img = smooth_texture(9)
        moved = warp_by(img, 1.0, -1.0)
        f1 = farneback_flow(img, moved)
        f2 = farneback_flow(img, moved)
        assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            farneback_flow(np.zeros((20, 20)), np.zeros((30, 30)))

    def test_one_scale_for_every_frame(self):
        # a [0, 1] frame and the same frame with one 0-255 pixel must share a
        # scale: the single far-corner pixel may not move the central flow
        img = smooth_texture(10, shape=(64, 64))
        img = img / img.max()
        hot = img.copy()
        hot[0, 0] = 200.0
        field = farneback_flow(img, hot)
        inner = np.s_[16:48, 16:48]
        assert np.abs(field.u[inner]).max() < 1e-6
        assert np.abs(field.v[inner]).max() < 1e-6

    def test_finite_everywhere(self):
        img = np.full((48, 64), 80.0)  # flat: solver must stay finite
        field = farneback_flow(img, img)
        assert np.isfinite(field.u).all() and np.isfinite(field.v).all()


class TestSampleFlow:
    def field(self):
        u = np.arange(12, dtype=np.float64).reshape(3, 4)
        v = -np.arange(12, dtype=np.float64).reshape(3, 4)
        return FlowField(u=u, v=v)

    def test_integer_point_exact(self):
        f = self.field()
        assert sample_flow(f, (2, 1)) == (f.u[1, 2], f.v[1, 2])

    def test_midpoint_is_mean(self):
        f = self.field()
        got = sample_flow(f, (1.5, 2))
        assert got[0] == (f.u[2, 1] + f.u[2, 2]) / 2.0
        assert got[1] == (f.v[2, 1] + f.v[2, 2]) / 2.0

    def test_constant_field(self):
        f = FlowField(u=np.full((5, 5), 3.25), v=np.full((5, 5), -1.5))
        for p in [(0.0, 0.0), (2.7, 3.1), (4.0, 4.0)]:
            assert sample_flow(f, p) == (3.25, -1.5)

    def test_single_column_field(self):
        f = FlowField(u=np.array([[1.0], [2.0], [4.0]]), v=np.array([[0.0], [-2.0], [-6.0]]))
        assert sample_flow(f, (0.0, 1.5)) == (3.0, -4.0)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            sample_flow(self.field(), (5.0, 1.0))
