import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from trailblaze import flowfields
from trailblaze.flowfields import (
    LK_EPS, LK_MAX_ITERS, LK_MIN_EIG_FACTOR, FlowField, TrackResult, _gradients, _pyramid,
    farneback_flow, lk_track, sample_flow,
)
from trailblaze.keypoints import detect_fast
from trailblaze.media import _bilinear, _gray


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


def lk_track_oracle(prev, next, points, levels: int = 3, window: int = 15) -> list:
    """The per-point loop lk_track was before it solved all points together."""
    img0 = _gray(prev) / 255.0
    img1 = _gray(next) / 255.0
    if img0.shape != img1.shape:
        raise ValueError("frames must share dimensions")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if window < 5 or window % 2 == 0:
        raise ValueError("window must be odd and >= 5")

    pyr0 = _pyramid(img0, levels, window + 2)
    pyr1 = _pyramid(img1, levels, window + 2)
    grads = [_gradients(im) for im in pyr0]
    half = window // 2
    off = np.arange(-half, half + 1, dtype=np.float64)
    oy, ox = np.meshgrid(off, off, indexing="ij")
    h, w = img0.shape
    min_eig_thresh = LK_MIN_EIG_FACTOR * window * window

    results = []
    for p in points:
        px, py = float(p[0]), float(p[1])
        if not (half + 1 <= px <= w - 2 - half and half + 1 <= py <= h - 2 - half):
            results.append(TrackResult((px, py), "lost"))
            continue
        g = np.zeros(2)
        lost = False
        for lvl in range(len(pyr0) - 1, -1, -1):
            scale = 2.0 ** lvl
            plx, ply = px / scale, py / scale
            gx, gy = grads[lvl]
            sx = plx + ox
            sy = ply + oy
            Ix = _bilinear(gx, sx, sy)
            Iy = _bilinear(gy, sx, sy)
            G = np.array([[np.sum(Ix * Ix), np.sum(Ix * Iy)],
                          [np.sum(Ix * Iy), np.sum(Iy * Iy)]])
            if lvl == 0:
                eig_min = np.linalg.eigvalsh(G)[0]
                if eig_min < min_eig_thresh:
                    lost = True
                    break
            det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
            if det <= 1e-12:
                if lvl == 0:
                    lost = True
                    break
                g = 2.0 * g
                continue
            Ginv = np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]]) / det
            I0 = _bilinear(pyr0[lvl], sx, sy)
            nu = np.zeros(2)
            for _ in range(LK_MAX_ITERS):
                I1 = _bilinear(pyr1[lvl], sx + g[0] + nu[0], sy + g[1] + nu[1])
                dI = I0 - I1
                b = np.array([np.sum(dI * Ix), np.sum(dI * Iy)])
                step = Ginv @ b
                nu += step
                if np.hypot(step[0], step[1]) < LK_EPS:
                    break
            g = (g + nu) if lvl == 0 else 2.0 * (g + nu)
        if lost:
            results.append(TrackResult((px, py), "lost"))
            continue
        qx, qy = px + g[0], py + g[1]
        if not (half + 1 <= qx <= w - 2 - half and half + 1 <= qy <= h - 2 - half):
            results.append(TrackResult((qx, qy), "lost"))
        else:
            results.append(TrackResult((qx, qy), "tracked"))
    return results


class TestLkTrackOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
           st.integers(1, 4), st.sampled_from([5, 9, 15]))
    def test_matches_per_point_oracle(self, seed, dx, dy, levels, window):
        rng = np.random.default_rng(seed)
        img = smooth_texture(seed % 1000, shape=(64, 80))
        img[44:, 56:] = 120.0  # a flat corner: points there have no gradient
        moved = warp_by(img, dx, dy)
        h, w = img.shape
        lo, right, bottom = window // 2 + 1, w - 2 - window // 2, h - 2 - window // 2
        rows = rng.uniform(lo, bottom, 6)
        pts = np.vstack([
            rng.uniform([0, 0], [w, h], (8, 2)),                    # anywhere, some outside
            rng.uniform([lo + 4, lo + 4], [right - 4, bottom - 4], (6, 2)),  # interior
            np.column_stack([lo + rng.uniform(-0.5, 0.5, 3), rows[:3]]),     # left border
            np.column_stack([right + rng.uniform(-0.5, 0.5, 3), rows[3:]]),  # right border
            rng.uniform([64, 50], [72, 54], (3, 2)),                # in the flat corner
        ])
        got = lk_track(img, moved, pts, levels=levels, window=window)
        want = lk_track_oracle(img, moved, pts, levels=levels, window=window)
        assert [r.status for r in got] == [r.status for r in want]
        assert np.abs(np.array([r.point for r in got])
                      - np.array([r.point for r in want])).max() <= 1e-9
        assert all((r.reason is None) == (r.status == "tracked") for r in got)

    def test_singular_coarse_level_doubles_the_guess(self, monkeypatch):
        # zero gradients on pyramid level 1 only: that level is skipped, and the
        # level-2 guess reaches level 0 doubled
        img = smooth_texture(11)
        moved = warp_by(img, 2.6, -1.7)
        gradients = flowfields._gradients

        def flat_level_1(im):
            gx, gy = gradients(im)
            return (0 * gx, 0 * gy) if im.shape == (48, 64) else (gx, gy)

        monkeypatch.setattr(flowfields, "_gradients", flat_level_1)
        monkeypatch.setitem(globals(), "_gradients", flat_level_1)
        pts = interior_corners(img, 24)[:10]
        got = lk_track(img, moved, pts, levels=3, window=9)
        want = lk_track_oracle(img, moved, pts, levels=3, window=9)
        assert [r.status for r in got] == [r.status for r in want]
        assert "tracked" in [r.status for r in got]
        assert np.abs(np.array([r.point for r in got])
                      - np.array([r.point for r in want])).max() <= 1e-9


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
        assert res[0].reason == "outside"
        assert res[0].point == (3.0, 3.0)

    def test_window_leaving_the_frame_is_lost(self):
        img = smooth_texture(2)
        moved = warp_by(img, 3.0, 0.0)
        h, w = img.shape
        x = w - 2 - 7 - 1.0  # inside by 1 px at the start, outside after the move
        res = lk_track(img, moved, [(x, 40.0)])
        assert res[0].status == "lost"
        assert res[0].reason == "outside"
        assert res[0].point[0] > w - 2 - 7

    def test_flat_region_is_lost(self):
        img = np.full((64, 64), 100.0)
        img[10:20, 10:20] = 200.0  # some structure elsewhere
        res = lk_track(img, img, [(45.0, 45.0)])
        assert res[0].status == "lost"
        assert res[0].reason == "weak_gradient"
        assert res[0].point == (45.0, 45.0)

    def test_tracked_has_no_reason(self):
        img = smooth_texture(2)
        pts = interior_corners(img, 20)[:5]
        assert all(r.reason is None for r in lk_track(img, img, pts))

    @pytest.mark.parametrize("points", [[]] + [np.zeros((0, 2))])
    def test_no_points(self, points):
        img = smooth_texture(2)
        assert lk_track(img, img, points) == []

    @pytest.mark.parametrize("points, shape", [
        ([1.0, 2.0], r"\(2,\)"),
        (np.zeros((3, 3)), r"\(3, 3\)"),
        (np.zeros((2, 1, 2)), r"\(2, 1, 2\)"),
        (np.zeros((0, 3)), r"\(0, 3\)"),
    ])
    def test_points_shape_rejected(self, points, shape):
        img = smooth_texture(2)
        with pytest.raises(ValueError, match=shape):
            lk_track(img, img, points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_index(self, bad):
        img = smooth_texture(2)
        pts = [(30.0, 30.0), (40.0, 40.0), (bad, 35.0)]
        with pytest.raises(ValueError, match="point 2 "):
            lk_track(img, img, pts)

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
