import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from bench import corpus, glue
from trailblaze import flowfields
from trailblaze.flowfields import (
    FB_ITERATIONS, FB_LEVELS, FB_POLY_N, FB_POLY_SIGMA, FB_WINDOW, LK_EPS, LK_MAX_ITERS,
    LK_MIN_EIG_FACTOR, FlowField, TrackResult, _gradients, _pyramid, farneback_flow,
    lk_track, sample_flow,
)
from trailblaze.keypoints import detect_fast
from trailblaze.media import (
    Frame, ObjectPath, SceneSpec, _bilinear, _count, _gray, _no_rows, _rows, synth_stereo,
)


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


def gradients_oracle(img):
    """The slice form _gradients had before it called np.gradient."""
    gx = np.empty_like(img)
    gx[:, 1:-1] = (img[:, 2:] - img[:, :-2]) / 2.0
    gx[:, 0] = img[:, 1] - img[:, 0]
    gx[:, -1] = img[:, -1] - img[:, -2]
    gy = np.empty_like(img)
    gy[1:-1, :] = (img[2:, :] - img[:-2, :]) / 2.0
    gy[0, :] = img[1, :] - img[0, :]
    gy[-1, :] = img[-1, :] - img[-2, :]
    return gx, gy


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
            results.append(TrackResult((px, py), "outside"))
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
            results.append(TrackResult((px, py), "weak_gradient"))
            continue
        qx, qy = px + g[0], py + g[1]
        if not (half + 1 <= qx <= w - 2 - half and half + 1 <= qy <= h - 2 - half):
            results.append(TrackResult((qx, qy), "outside"))
        else:
            results.append(TrackResult((qx, qy), None))
    return results


def lk_track_parent(prev, next, points, levels: int = 3, window: int = 15) -> list:
    """lk_track as it was before it compacted the points still iterating,
    verbatim: every per-point array gathered through `act` on every iteration."""

    def _unit_pair(prev, next) -> tuple:
        """Both frames as float64 grayscale in 0-1 units; they must share dimensions."""
        img0 = _gray(prev) / 255.0
        img1 = _gray(next) / 255.0
        if img0.shape != img1.shape:
            raise ValueError(f"frames must share dimensions, got {img0.shape} and {img1.shape}")
        return img0, img1

    img0, img1 = _unit_pair(prev, next)
    _count("levels", levels)
    _count("window", window, 5, "an odd integer", step=2)
    if _no_rows(points) and np.ndim(points) == 1:  # [], while (0, 2) yields [] below
        return []
    pts = _rows("points", points, "point {0}", 2)
    half = window // 2
    h, w = img0.shape

    def inside(p):
        return ((half + 1 <= p[:, 0]) & (p[:, 0] <= w - 2 - half)
                & (half + 1 <= p[:, 1]) & (p[:, 1] <= h - 2 - half))

    started = inside(pts)
    if not started.any():
        return [TrackResult((x, y), "outside") for x, y in pts.tolist()]

    pyr0 = _pyramid(img0, levels, window + 2)
    pyr1 = _pyramid(img1, levels, window + 2)
    off = np.arange(-half, half + 1, dtype=np.float64)
    oy, ox = np.meshgrid(off, off, indexing="ij")
    min_eig_thresh = LK_MIN_EIG_FACTOR * window * window
    weak = np.zeros(len(pts), dtype=bool)
    g = np.zeros_like(pts)
    live = np.flatnonzero(started)
    for lvl in range(len(pyr0) - 1, -1, -1):
        scale = 2.0 ** lvl
        sx = (pts[live, 0] / scale)[:, None, None] + ox
        sy = (pts[live, 1] / scale)[:, None, None] + oy
        Ix, Iy, I0 = _bilinear(np.stack(_gradients(pyr0[lvl]) + (pyr0[lvl],)), sx, sy)
        gxx = (Ix * Ix).sum(axis=(1, 2))
        gxy = (Ix * Iy).sum(axis=(1, 2))
        gyy = (Iy * Iy).sum(axis=(1, 2))
        det = gxx * gyy - gxy * gxy
        fail = det <= 1e-12
        if lvl == 0:
            # closed-form smaller eigenvalue of the symmetric 2x2 G
            eig_min = 0.5 * (gxx + gyy) - np.hypot(0.5 * (gxx - gyy), gxy)
            fail |= eig_min < min_eig_thresh
            weak[live[fail]] = True
        ok = ~fail
        solve = live[ok]
        sx, sy, Ix, Iy, I0 = sx[ok], sy[ok], Ix[ok], Iy[ok], I0[ok]
        i00, i01, i11 = gyy[ok] / det[ok], -gxy[ok] / det[ok], gxx[ok] / det[ok]
        gl = g[solve]
        nu = np.zeros_like(gl)
        act = np.arange(len(solve))  # points still iterating at this level
        for _ in range(LK_MAX_ITERS):
            if act.size == 0:
                break
            I1 = _bilinear(pyr1[lvl], sx[act] + gl[act, 0, None, None] + nu[act, 0, None, None],
                           sy[act] + gl[act, 1, None, None] + nu[act, 1, None, None])
            dI = I0[act] - I1
            b0 = (dI * Ix[act]).sum(axis=(1, 2))
            b1 = (dI * Iy[act]).sum(axis=(1, 2))
            s0 = i00[act] * b0 + i01[act] * b1
            s1 = i01[act] * b0 + i11[act] * b1
            nu[act, 0] += s0
            nu[act, 1] += s1
            act = act[~(np.hypot(s0, s1) < LK_EPS)]  # a NaN step keeps iterating
        g[solve] = gl + nu
        if lvl:
            g[live] *= 2.0  # to the finer level; a singular level added no step

    moved = np.where(weak[:, None], pts, pts + g)
    tracked = started & ~weak & inside(moved)
    reasons = [None if t else ("weak_gradient" if k else "outside")
               for t, k in zip(tracked.tolist(), weak.tolist())]
    return [TrackResult((x, y), r) for (x, y), r in zip(moved.tolist(), reasons)]


def same_tracks(a: list, b: list) -> bool:
    """Equal reasons and bitwise equal points."""
    return ([r.reason for r in a] == [r.reason for r in b]
            and np.array([r.point for r in a]).tobytes() == np.array([r.point for r in b]).tobytes())


# The Farneback path as it was before stacked sampling, the expansion memo and
# the closed-form expansion: one _bilinear call per coefficient, kernels and
# the numerical inverse metric inv(G) built on every call, twelve correlations
# and five box filters.  test_media checks that a stacked _bilinear call equals
# these per-image calls.  The closed form rounds differently, so the flow is
# compared with FLOW_ATOL and the expansion with POLY_ATOL.

def poly_expand_oracle(img: np.ndarray, n: int, sigma: float):
    """Per-pixel quadratic fit f ~ c + b.x + x'Ax under Gaussian applicability.

    Returns (A11, A12, A22, b1, b2) image stacks; coordinates are (x, y)
    with x along columns.
    """
    half = n // 2
    xs = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(xs ** 2) / (2.0 * sigma ** 2))
    g /= g.sum()
    xg = xs * g
    x2g = xs ** 2 * g

    m2 = float(np.sum(x2g))
    m4 = float(np.sum(xs ** 4 * g))
    # metric of basis (1, x, y, x^2, y^2, xy) under separable Gaussian weight
    G = np.array([
        [1.0, 0.0, 0.0, m2, m2, 0.0],
        [0.0, m2, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, m2, 0.0, 0.0, 0.0],
        [m2, 0.0, 0.0, m4, m2 * m2, 0.0],
        [m2, 0.0, 0.0, m2 * m2, m4, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, m2 * m2],
    ])
    Ginv = np.linalg.inv(G)

    def corr(kernel_y, kernel_x):
        out = ndimage.correlate1d(img, kernel_y, axis=0, mode="nearest")
        return ndimage.correlate1d(out, kernel_x, axis=1, mode="nearest")

    v = np.stack([
        corr(g, g),     # <1, f>
        corr(g, xg),    # <x, f>
        corr(xg, g),    # <y, f>
        corr(g, x2g),   # <x^2, f>
        corr(x2g, g),   # <y^2, f>
        corr(xg, xg),   # <xy, f>
    ])
    r = np.einsum("ij,jhw->ihw", Ginv, v)
    b1, b2 = r[1], r[2]
    A11, A22, A12 = r[3], r[4], r[5] / 2.0
    return A11, A12, A22, b1, b2


def solve_flow_oracle(A11, A12, A22, b1, b2, window: int):
    """Window-averaged least squares of A d = delta_b."""
    t11 = A11 * A11 + A12 * A12
    t12 = A12 * (A11 + A22)
    t22 = A12 * A12 + A22 * A22
    h1 = A11 * b1 + A12 * b2
    h2 = A12 * b1 + A22 * b2
    box = lambda im: ndimage.uniform_filter(im, size=window, mode="nearest")
    G11, G12, G22 = box(t11), box(t12), box(t22)
    H1, H2 = box(h1), box(h2)
    det = G11 * G22 - G12 * G12
    det = np.where(np.abs(det) < 1e-12, 1e-12, det)
    u = (G22 * H1 - G12 * H2) / det
    v = (G11 * H2 - G12 * H1) / det
    return u, v


def farneback_flow_oracle(prev, next) -> FlowField:
    """Dense displacement field from prev to next.

    Polynomial expansion of both frames per pyramid level; the displacement
    solves the window-averaged expansion-difference equations and is refined
    FB_ITERATIONS times per level, coarse to fine.
    """
    img0 = _gray(prev) / 255.0
    img1 = _gray(next) / 255.0
    if img0.shape != img1.shape:
        raise ValueError("frames must share dimensions")

    pyr0 = _pyramid(img0, FB_LEVELS, FB_POLY_N + 2)
    pyr1 = _pyramid(img1, FB_LEVELS, FB_POLY_N + 2)
    u = np.zeros_like(pyr0[-1])
    v = np.zeros_like(pyr0[-1])

    for lvl in range(len(pyr0) - 1, -1, -1):
        p0, p1 = pyr0[lvl], pyr1[lvl]
        h, w = p0.shape
        if u.shape != p0.shape:
            u = np.repeat(np.repeat(u, 2, axis=0), 2, axis=1)[:h, :w] * 2.0
            v = np.repeat(np.repeat(v, 2, axis=0), 2, axis=1)[:h, :w] * 2.0
        A11a, A12a, A22a, b1a, b2a = poly_expand_oracle(p0, FB_POLY_N, FB_POLY_SIGMA)
        A11b, A12b, A22b, b1b, b2b = poly_expand_oracle(p1, FB_POLY_N, FB_POLY_SIGMA)
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        for _ in range(FB_ITERATIONS):
            sx = xx + u
            sy = yy + v
            wA11 = _bilinear(A11b, sx, sy)
            wA12 = _bilinear(A12b, sx, sy)
            wA22 = _bilinear(A22b, sx, sy)
            wb1 = _bilinear(b1b, sx, sy)
            wb2 = _bilinear(b2b, sx, sy)
            A11 = 0.5 * (A11a + wA11)
            A12 = 0.5 * (A12a + wA12)
            A22 = 0.5 * (A22a + wA22)
            db1 = -0.5 * (wb1 - b1a) + A11 * u + A12 * v
            db2 = -0.5 * (wb2 - b2a) + A12 * u + A22 * v
            u, v = solve_flow_oracle(A11, A12, A22, db1, db2, FB_WINDOW)
    return FlowField(u=u, v=v)


POLY_ATOL = 1e-14  # expansion of a 0-1 image
FLOW_ATOL = 1e-8   # px


def same_field(a: FlowField, b: FlowField) -> bool:
    return np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def close_field(a: FlowField, b: FlowField) -> bool:
    return all(np.allclose(x, y, rtol=0.0, atol=FLOW_ATOL) for x, y in ((a.u, b.u), (a.v, b.v)))


def digest(arrays) -> list:
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


def stereo_frames():
    """Left t-1, left t and right t of a 96x72 two-sprite scene, as float arrays."""
    spec = SceneSpec(objects=(
        ObjectPath("line", {"u0": 30.0, "v0": 20.0, "du": 1.5, "z0": 3.0, "dz": 0.05}),
        ObjectPath("circle", {"u0": 60.0, "v0": 50.0, "radius": 4.0, "z0": 2.6}),
    ), width=96, height=72, frames=3, seed=7, patch=16)
    left, right, _ = synth_stereo(spec)
    return (left.frames[1].data.astype(np.float64), left.frames[2].data.astype(np.float64),
            right.frames[2].data.astype(np.float64))


@pytest.fixture
def cold_memo():
    """An empty expansion memo before and after the test."""
    flowfields._expansions.clear()
    yield flowfields._expansions
    flowfields._expansions.clear()


@pytest.fixture
def cold_pyramids():
    """An empty Lucas-Kanade pyramid memo before and after the test."""
    flowfields._pyramids.clear()
    yield flowfields._pyramids
    flowfields._pyramids.clear()


class TestGradients:
    @pytest.mark.parametrize("shape", [(72, 96), (36, 48), (2, 5), (5, 2), (2, 2)])
    def test_matches_slice_oracle_bitwise(self, shape):
        img = smooth_texture(3, shape, blur=0.0) / 255.0
        got, want = _gradients(img), gradients_oracle(img)
        assert isinstance(got, tuple) and len(got) == 2
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


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
        assert same_tracks(got, lk_track_parent(img, moved, pts, levels=levels, window=window))
        want = lk_track_oracle(img, moved, pts, levels=levels, window=window)
        assert [r.reason for r in got] == [r.reason for r in want]
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
        assert same_tracks(got, lk_track_parent(img, moved, pts, levels=3, window=9))
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

    @pytest.mark.parametrize("shape", [(1, 20), (20, 1), (1, 1)])
    def test_frame_smaller_than_any_window_loses_every_point(self, shape):
        img = np.zeros(shape)
        pts = [(0.0, 0.0), (shape[1] - 1.0, shape[0] - 1.0)]
        res = lk_track(img, img, pts, levels=2, window=5)
        assert [(r.point, r.status, r.reason) for r in res] == [(p, "lost", "outside")
                                                                for p in pts]

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
        ([(30.0, 30.0), (40.0,)], r"^points must be a 2-D array of real numbers: .*inhomogeneous"),
        (5.0, r"^points must be a 2-D array of width 2, got \(\)$"),
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

    @pytest.mark.parametrize("kw, message", [
        (dict(levels=2.5), "levels must be an integer >= 1, got 2.5"),
        (dict(levels=True), "levels must be an integer >= 1, got True"),
        (dict(levels=0), "levels must be an integer >= 1, got 0"),
        (dict(window=9.0), "window must be an odd integer >= 5, got 9.0"),
        (dict(window=True), "window must be an odd integer >= 5, got True"),
        (dict(window=8), "window must be an odd integer >= 5, got 8"),
        (dict(window=3), "window must be an odd integer >= 5, got 3"),
        (dict(window=6), "window must be an odd integer >= 5, got 6"),
    ])
    def test_bad_parameter_named(self, kw, message):
        img = smooth_texture(2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            lk_track(img, img, [(40.0, 40.0)], **kw)

    def test_numpy_integer_parameters_accepted(self):
        img = smooth_texture(3)
        moved = warp_by(img, 1.3, 0.8)
        pts = interior_corners(img, 20)[:6]
        want = lk_track(img, moved, pts, levels=2, window=9)
        assert lk_track(img, moved, pts, levels=np.int64(2), window=np.int32(9)) == want

    def test_frames_without_rows_named(self):
        empty = np.zeros((0, 5))
        with pytest.raises(ValueError, match=r"^image sides must be >= 1, got shape \(0, 5\)$"):
            lk_track(empty, empty, [(2.0, 0.0)])
        with pytest.raises(ValueError, match=r"^image sides must be >= 1, got shape \(0, 5\)$"):
            farneback_flow(empty, empty)

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_pixel_named(self, which):
        frames = [smooth_texture(2), smooth_texture(2)]
        frames[which][33, 44] = np.nan
        with pytest.raises(ValueError, match=r"pixel \(x=44, y=33\) is not finite"):
            lk_track(*frames, [(40.0, 40.0)])
        with pytest.raises(ValueError, match=r"pixel \(x=44, y=33\) is not finite"):
            farneback_flow(*frames)

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


class TestFarnebackOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 44), st.integers(1, 60),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 2.0), st.booleans())
    def test_matches_oracle(self, seed, h, w, dx, dy, blur, warm):
        # a side below 33 px truncates the pyramid to two levels, below 17 px to one
        rng = np.random.default_rng(seed)
        img = ndimage.gaussian_filter(rng.uniform(10.0, 230.0, (h, w)), blur)
        moved = warp_by(img, dx, dy) + rng.normal(0.0, 1.0, (h, w))
        if not warm:
            flowfields._expansions.clear()
        got = farneback_flow(img, moved)
        assert close_field(got, farneback_flow_oracle(img, moved))
        assert same_field(farneback_flow(img, moved), got)  # both frames memoised
        assert close_field(farneback_flow(moved, img), farneback_flow_oracle(moved, img))

    def test_stereo_frames_at_corpus_size_match_oracle(self, cold_memo):
        # the dense tracker's two calls per frame: left t-1 -> t, left t -> right t
        prev, now, right = stereo_frames()
        assert len(flowfields._expansions(now)) == FB_LEVELS == 3
        cold_memo.clear()
        for a, b in [(prev, now), (now, right)]:
            got = farneback_flow(a, b)
            assert close_field(got, farneback_flow_oracle(a, b))
            assert same_field(farneback_flow(a, b), got)  # both frames memoised

    def test_poly_expand_matches_oracle(self):
        rng = np.random.default_rng(12)
        for shape in [(40, 52), (72, 96), (3, 60), (1, 2)]:
            for img in (smooth_texture(12, shape=shape) / 255.0, rng.uniform(0.0, 1.0, shape)):
                want = np.stack(poly_expand_oracle(img, FB_POLY_N, FB_POLY_SIGMA))
                assert np.allclose(flowfields._poly_expand(img), want, rtol=0.0, atol=POLY_ATOL)

    def test_poly_expand_recovers_a_quadratic(self):
        # f = c + b.p + p'Ap is its own fit: at pixel p the local linear term is b + 2Ap
        h, w = 30, 40
        A = np.array([[0.013, -0.004], [-0.004, 0.021]])
        b = np.array([0.3, -0.2])
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        p = np.stack([xs - 17.0, ys - 11.0])
        img = 0.4 + np.einsum("i,ihw->hw", b, p) + np.einsum("ihw,ij,jhw->hw", p, A, p)
        got = flowfields._poly_expand(img)[:, 3:-3, 3:-3]
        lin = b[:, None, None] + np.einsum("ij,jhw->ihw", 2.0 * A, p)
        want = np.stack([np.full((h, w), A[0, 0]), np.full((h, w), A[0, 1]),
                         np.full((h, w), A[1, 1]), lin[0], lin[1]])[:, 3:-3, 3:-3]
        assert np.abs(got - want).max() <= 1e-13


class TestNoWrites:
    def test_flow_leaves_inputs_and_memoised_expansions_unchanged(self, cold_memo):
        prev, now, right = stereo_frames()
        inputs = digest([prev, now, right])
        farneback_flow(prev, now)                           # both frames cold
        prev_levels, now_levels = (flowfields._expansions(im) for im in (prev, now))
        held = digest(prev_levels + now_levels)
        farneback_flow(prev, now)                           # both warm
        farneback_flow(now, right)                          # one warm, one cold
        assert digest([prev, now, right]) == inputs
        assert digest(prev_levels + now_levels) == held
        assert len(cold_memo.slots) == 2         # now and right
        assert flowfields._expansions(now) is now_levels

    def test_solve_flow_leaves_its_arguments_unchanged(self):
        rng = np.random.default_rng(40)
        args = [rng.normal(0.0, 1.0, (30, 44)) for _ in range(5)]
        for a in args:
            a[:, :20] = 0.0                                 # singular left columns
        before = digest(args)
        for a in args:
            a.flags.writeable = False
        u, v = flowfields._solve_flow(*args)
        assert digest(args) == before
        want = solve_flow_oracle(*args, FB_WINDOW)
        assert np.array_equal(u, want[0]) and np.array_equal(v, want[1])


class TestExpansionMemo:
    def test_frame_changed_in_place_gives_cold_result(self, cold_memo):
        a, b = smooth_texture(13, (40, 48)), smooth_texture(14, (40, 48))
        before = farneback_flow(a, b)
        a[20:24, 20:24] += 30.0
        after = farneback_flow(a, b)
        cold_memo.clear()
        assert same_field(after, farneback_flow(a, b))
        assert close_field(after, farneback_flow_oracle(a, b))
        assert not same_field(after, before)

    def test_holds_at_most_two_frames_and_expands_each_once(self, cold_memo, monkeypatch):
        # the dense tracker's order: left t-1 -> t, then left t -> right t
        expanded = []
        pyramid = flowfields._pyramid
        monkeypatch.setattr(flowfields, "_pyramid",
                            lambda img, *a: expanded.append(img) or pyramid(img, *a))
        left = [smooth_texture(20 + t, (36, 44)) for t in range(5)]
        right = [np.roll(im, -3, axis=1) for im in left]
        for t in range(1, 5):
            if t > 1:
                farneback_flow(left[t - 1], left[t])
                assert len(cold_memo.slots) <= cold_memo.SLOTS == 2
            farneback_flow(left[t], right[t])
            assert len(cold_memo.slots) <= 2
        # every frame after the first is expanded once: left 1-4 and right 1-4
        assert len(expanded) == 8

    def test_alternating_shapes(self, cold_memo):
        a, b = smooth_texture(30, (24, 36)), smooth_texture(31, (24, 36))
        # the same bytes under another shape must not hit
        at, bt = a.reshape(36, 24), b.reshape(36, 24)
        c, d = smooth_texture(32, (30, 20)), smooth_texture(33, (30, 20))
        seen = {}
        for prev, nxt in [(a, b), (at, bt), (c, d), (a, b), (at, bt), (b, a), (d, c)]:
            got = farneback_flow(prev, nxt)
            assert close_field(got, farneback_flow_oracle(prev, nxt))
            key = (prev.shape, prev.tobytes(), nxt.tobytes())
            assert same_field(got, seen.setdefault(key, got))  # a repeat gives the first result
            assert len(cold_memo.slots) <= 2

    def test_memoised_expansions_are_read_only(self, cold_memo):
        img = smooth_texture(34, (24, 30))
        farneback_flow(img, img)
        assert len(cold_memo.slots) == 1
        levels = flowfields._expansions(img)
        assert len(cold_memo.slots) == 1
        for stack in levels:
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0


NINE_POINTS = [(12.0, 12.0), (20.4, 17.6), (30.0, 22.0)]


def lk_nine(prev, next):
    return lk_track(prev, next, NINE_POINTS, window=9)


def same_result(a, b) -> bool:
    return same_field(a, b) if isinstance(a, FlowField) else same_tracks(a, b)


class TestFrameMemoRule:
    def test_sparse_tracker_builds_each_frame_pyramid_once(self, tmp_path, monkeypatch,
                                                           cold_pyramids):
        # lk_track used to build both frames' pyramids on every call: 28 for 16 frames
        built = []
        pyramid = flowfields._pyramid
        monkeypatch.setattr(flowfields, "_pyramid",
                            lambda img, *a: built.append(img) or pyramid(img, *a))
        video = corpus.stereo_corpus(1)[0]
        truth = corpus.render_stereo([video], tmp_path)
        result = glue.track_sparse(tmp_path / video.clip_id, video.clip_id,
                                   truth[video.clip_id].F)
        assert len(result.step_ms) == corpus.FRAMES - 2
        assert 1 <= len(built) <= corpus.FRAMES

    @pytest.mark.parametrize("track", [lk_nine, farneback_flow], ids=["lk_track", "farneback"])
    def test_frames_of_two_sizes_named(self, track, cold_memo, cold_pyramids):
        a, b = smooth_texture(49, (40, 48)), smooth_texture(49, (40, 50))
        track(a, a)                      # one of them memoised
        with pytest.raises(ValueError, match=r"^frames must share dimensions, got \(40, 48\) "
                                             r"and \(40, 50\)$"):
            track(a, b)

    @pytest.mark.parametrize("track", [lk_nine, farneback_flow], ids=["lk_track", "farneback"])
    def test_non_finite_pixel_named_after_mutation(self, track, cold_memo, cold_pyramids):
        a, b = smooth_texture(50, (40, 48)), smooth_texture(51, (40, 48))
        track(a, b)                      # both frames memoised clean
        a[25, 18] = np.nan
        with pytest.raises(ValueError, match=r"pixel \(x=18, y=25\) is not finite: nan"):
            track(a, b)
        a[25, 18] = 100.0
        b[3, 30] = -np.inf
        with pytest.raises(ValueError, match=r"pixel \(x=30, y=3\) is not finite: -inf"):
            track(a, b)

    @pytest.mark.parametrize("track", [lk_nine, farneback_flow], ids=["lk_track", "farneback"])
    @pytest.mark.parametrize("channels", [1, 3], ids=["grey", "rgb"])
    def test_frame_input_matches_its_float_array(self, track, channels, cold_memo,
                                                 cold_pyramids):
        rng = np.random.default_rng(53)
        texture = smooth_texture(53, (36, 44))
        planes = [texture + rng.normal(0.0, 8.0, texture.shape) for _ in range(channels)]
        prev = Frame.from_array(np.stack(planes, axis=-1) if channels == 3 else planes[0])
        next = Frame.from_array(np.roll(prev.data, (1, 2), axis=(0, 1)))
        arrays = (_gray(prev), _gray(next))
        want = None
        for pair in [(prev, next), arrays, (prev, arrays[1]), (arrays[0], next)]:
            for cold in (True, False):
                if cold:
                    cold_memo.clear()
                    cold_pyramids.clear()
                got = track(*pair)
                want = got if want is None else want
                assert same_result(got, want)
        if track is lk_nine:
            assert same_tracks(want, lk_track_parent(prev, next, NINE_POINTS, window=9))


class TestSampleFlow:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_matches_bilinear(self, data, h, w, seed):
        rng = np.random.default_rng(seed)
        f = FlowField(u=rng.normal(0, 5, (h, w)), v=rng.normal(0, 5, (h, w)))
        coord = lambda hi: st.one_of(st.sampled_from([0.0, float(hi)]),
                                     st.floats(0.0, float(hi)))
        x, y = data.draw(coord(w - 1)), data.draw(coord(h - 1))
        xs, ys = np.array([x]), np.array([y])
        got = sample_flow(f, (x, y))
        assert got == (float(_bilinear(f.u, xs, ys)[0]), float(_bilinear(f.v, xs, ys)[0]))
        assert all(type(c) is float for c in got)

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

    @pytest.mark.parametrize("u, v, got", [
        (np.zeros(3), np.zeros(3), r"\(3,\) and \(3,\)"),
        (np.zeros((2, 3)), np.zeros((3, 2)), r"\(2, 3\) and \(3, 2\)"),
        ([[0.0]], [[0.0]], "list and list"),
    ], ids=["one_d", "different_shapes", "lists"])
    def test_field_needs_two_2d_arrays_of_one_shape(self, u, v, got):
        # a 1-D field used to be accepted and to fail in sample_flow's unpacking
        with pytest.raises(ValueError, match=f"^u and v must be two 2-D arrays of one shape, "
                                             f"got {got}$"):
            FlowField(u=u, v=v)

    @pytest.mark.parametrize("plane, bad", [("u", np.inf), ("v", np.nan)])
    def test_non_finite_field_named(self, plane, bad):
        # sample_flow used to return (nan, 0.0) from an infinite u
        planes = dict(u=np.zeros((3, 3)), v=np.zeros((3, 3)))
        planes[plane][2, 1] = bad
        named = rf"^flow {plane} at \(x=1, y=2\) is not finite: {bad}$"
        with pytest.raises(ValueError, match=named):
            FlowField(**planes)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            sample_flow(self.field(), (5.0, 1.0))

    @pytest.mark.parametrize("p", [(-0.01, 1.0), (1.0, 2.01), (np.nan, 1.0), (1.0, np.inf)])
    def test_just_outside_or_non_finite_rejected(self, p):
        # a NaN or infinite coordinate fails the point rule before the bounds test
        message = "outside" if np.isfinite(p).all() else r"is not two finite real numbers"
        with pytest.raises(ValueError, match=message):
            sample_flow(self.field(), p)

    @pytest.mark.parametrize("p", [(1.0,), (1, 2, 3), "12", np.array([1.0, 2.0, 3.0]),
                                   ("1", 2), 1.5, None, (True, 1.0), (1.0, np.bool_(True))])
    def test_malformed_point_named(self, p):
        with pytest.raises(ValueError, match=r"point .* is not two finite real numbers"):
            sample_flow(self.field(), p)

    @pytest.mark.parametrize("p", [(1, 2), [1.0, 2.0], np.array([1.0, 2.0]),
                                   (np.int64(1), np.float32(2.0))])
    def test_any_two_reals_accepted(self, p):
        assert sample_flow(self.field(), p) == (9.0, -9.0)


@pytest.fixture(scope="module")
def rendered_stereo():
    """Every third video of `stereo_corpus` seeds 1-3: left and right frames as
    float arrays, with the scene's `GroundTruth`."""
    videos = []
    for seed in (1, 2, 3):
        for v in corpus.stereo_corpus(seed)[::3]:
            left, right, gt = synth_stereo(v.spec, v.clip_id)
            videos.append((f"seed {seed} {v.clip_id}",
                           [f.data.astype(np.float64) for f in left.frames],
                           [f.data.astype(np.float64) for f in right.frames], gt))
    return videos


def sprite_steps(rendered_stereo):
    """(video name, t, left t, left t + 1, right t, gt) for frames 2 to frames - 2."""
    for name, left, right, gt in rendered_stereo:
        for t in range(2, len(left) - 1):
            yield name, t, left[t], left[t + 1], right[t], gt


class TestGroundTruth:
    """Each tracker layer against the generator's exact sprite centres."""

    def test_lk_track_lands_on_next_centres(self, rendered_stereo):
        for name, t, l0, l1, _, gt in sprite_steps(rendered_stereo):
            res = lk_track(l0, l1, gt.left_uv[t], levels=3, window=9)
            assert [r.reason for r in res] == [None] * len(res), (name, t)
            err = np.hypot(*(np.array([r.point for r in res]) - gt.left_uv[t + 1]).T)
            assert err.max() <= 0.2, (name, t, err)

    def test_farneback_motion_at_centres(self, rendered_stereo):
        for name, t, l0, l1, _, gt in sprite_steps(rendered_stereo):
            field = farneback_flow(l0, l1)
            got = np.array([sample_flow(field, p) for p in gt.left_uv[t]])
            err = np.hypot(*(got - (gt.left_uv[t + 1] - gt.left_uv[t])).T)
            assert err.max() <= 0.1, (name, t, err)

    def test_farneback_left_to_right_is_minus_disparity(self, rendered_stereo):
        for name, t, l0, _, r0, gt in sprite_steps(rendered_stereo):
            field = farneback_flow(l0, r0)
            u, v = np.array([sample_flow(field, p) for p in gt.left_uv[t]]).T
            assert np.abs(-u - gt.disparity[t]).max() <= 0.1, (name, t, u, gt.disparity[t])
            assert np.abs(v).max() < 0.1, (name, t, v)
