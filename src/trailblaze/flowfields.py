"""Sparse pyramidal Lucas-Kanade tracking and dense Farneback-style flow.

Both take frames or 2-D arrays in 0-255 units and divide every frame by 255,
so all frames of a clip share one scale.  Borders replicate the edge; a
pyramid of n levels is the full image plus up to n - 1 halvings (5x5 binomial
antialiasing).
Lucas-Kanade solves all points together, per pyramid level and per
iteration, each point with its own convergence test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .media import _bilinear, _gray

BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

LK_MAX_ITERS = 20
LK_EPS = 0.01
LK_MIN_EIG_FACTOR = 1e-4  # threshold = factor * window**2

FB_LEVELS = 3
FB_WINDOW = 15            # side of the box that averages the flow equations
FB_ITERATIONS = 3         # refinements per pyramid level
FB_POLY_N = 7             # side of the polynomial-expansion neighbourhood
FB_POLY_SIGMA = 1.5       # its Gaussian applicability


@dataclass(frozen=True)
class TrackResult:
    point: tuple
    status: str                # "tracked" | "lost"
    reason: str | None = None  # None when tracked, else "outside" | "weak_gradient"


@dataclass(frozen=True)
class FlowField:
    """Dense displacement field; u is the x component, v the y component."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must share shape")

    @property
    def width(self):
        return self.u.shape[1]

    @property
    def height(self):
        return self.u.shape[0]


def _downsample(img: np.ndarray) -> np.ndarray:
    sm = ndimage.correlate1d(img, BINOMIAL5, axis=0, mode="nearest")
    sm = ndimage.correlate1d(sm, BINOMIAL5, axis=1, mode="nearest")
    return sm[::2, ::2]


def _pyramid(img: np.ndarray, levels: int, min_dim: int) -> list:
    pyr = [img]
    for _ in range(1, levels):
        nxt = _downsample(pyr[-1])
        if min(nxt.shape) < min_dim:
            break
        pyr.append(nxt)
    return pyr


def _gradients(img: np.ndarray) -> tuple:
    gx = np.empty_like(img)
    gx[:, 1:-1] = (img[:, 2:] - img[:, :-2]) / 2.0
    gx[:, 0] = img[:, 1] - img[:, 0]
    gx[:, -1] = img[:, -1] - img[:, -2]
    gy = np.empty_like(img)
    gy[1:-1, :] = (img[2:, :] - img[:-2, :]) / 2.0
    gy[0, :] = img[1, :] - img[0, :]
    gy[-1, :] = img[-1, :] - img[-2, :]
    return gx, gy


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (0,):
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"point {bad[0]} is not finite: {tuple(pts[bad[0]].tolist())}")
    return pts


def lk_track(prev, next, points, levels: int = 3, window: int = 15) -> list:
    """Track `points` (n, 2) from prev to next with iterative coarse-to-fine LK.

    All points are solved together, level by level and iteration by
    iteration; each point stops iterating on its own convergence test.
    Results come in input order.  A point is lost with reason "outside" when
    its window leaves the frame at the start or at the end, and with reason
    "weak_gradient", at its start, when its finest-level gradient matrix is
    too weak (smaller eigenvalue below 1e-4 * window^2).
    """
    img0 = _gray(prev) / 255.0
    img1 = _gray(next) / 255.0
    if img0.shape != img1.shape:
        raise ValueError("frames must share dimensions")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if window < 5 or window % 2 == 0:
        raise ValueError("window must be odd and >= 5")
    pts = _as_points(points)
    if len(pts) == 0:
        return []

    pyr0 = _pyramid(img0, levels, window + 2)
    pyr1 = _pyramid(img1, levels, window + 2)
    grads = [_gradients(im) for im in pyr0]
    half = window // 2
    off = np.arange(-half, half + 1, dtype=np.float64)
    oy, ox = np.meshgrid(off, off, indexing="ij")
    h, w = img0.shape
    min_eig_thresh = LK_MIN_EIG_FACTOR * window * window

    def inside(p):
        return ((half + 1 <= p[:, 0]) & (p[:, 0] <= w - 2 - half)
                & (half + 1 <= p[:, 1]) & (p[:, 1] <= h - 2 - half))

    started = inside(pts)
    weak = np.zeros(len(pts), dtype=bool)
    g = np.zeros_like(pts)
    live = np.flatnonzero(started)
    for lvl in range(len(pyr0) - 1, -1, -1):
        scale = 2.0 ** lvl
        sx = (pts[live, 0] / scale)[:, None, None] + ox
        sy = (pts[live, 1] / scale)[:, None, None] + oy
        gx, gy = grads[lvl]
        Ix = _bilinear(gx, sx, sy)
        Iy = _bilinear(gy, sx, sy)
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
        else:
            g[live[fail]] *= 2.0  # singular coarse level: skip it
        ok = ~fail
        solve = live[ok]
        sx, sy, Ix, Iy = sx[ok], sy[ok], Ix[ok], Iy[ok]
        i00, i01, i11 = gyy[ok] / det[ok], -gxy[ok] / det[ok], gxx[ok] / det[ok]
        I0 = _bilinear(pyr0[lvl], sx, sy)
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
        g[solve] = (gl + nu) if lvl == 0 else 2.0 * (gl + nu)

    moved = np.where(weak[:, None], pts, pts + g)
    tracked = started & ~weak & inside(moved)
    reasons = [None if t else ("weak_gradient" if k else "outside")
               for t, k in zip(tracked.tolist(), weak.tolist())]
    return [TrackResult((x, y), "lost" if r else "tracked", r)
            for (x, y), r in zip(moved.tolist(), reasons)]


# ---------------------------------------------------------------------------
# Farneback polynomial-expansion flow


def _poly_expand(img: np.ndarray, n: int, sigma: float):
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


def _solve_flow(A11, A12, A22, b1, b2, window: int):
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


def farneback_flow(prev, next) -> FlowField:
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
        A11a, A12a, A22a, b1a, b2a = _poly_expand(p0, FB_POLY_N, FB_POLY_SIGMA)
        A11b, A12b, A22b, b1b, b2b = _poly_expand(p1, FB_POLY_N, FB_POLY_SIGMA)
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
            u, v = _solve_flow(A11, A12, A22, db1, db2, FB_WINDOW)
    return FlowField(u=u, v=v)


def sample_flow(field: FlowField, p) -> tuple:
    """Bilinearly interpolated displacement at subpixel point p = (x, y)."""
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= field.width - 1 and 0.0 <= y <= field.height - 1):
        raise ValueError(f"point {p} outside flow field bounds")
    xs = np.array([x])
    ys = np.array([y])
    return (float(_bilinear(field.u, xs, ys)[0]), float(_bilinear(field.v, xs, ys)[0]))
