"""Sparse pyramidal Lucas-Kanade tracking and dense Farneback-style flow.

Both take frames or 2-D arrays in 0-255 units and divide every frame by 255,
so all frames of a clip share one scale.  Borders replicate the edge; a
pyramid of n levels is the full image plus up to n - 1 halvings (5x5 binomial
antialiasing), built once per frame through `media._FrameMemo` (its rule is
in the `media` docstring).  Lucas-Kanade solves all points together, per
pyramid level and per iteration, each point with its own convergence test;
whenever points converge, the per-point arrays of those still iterating
shrink once.

Farneback fits every pixel of every pyramid level a quadratic under a
separable Gaussian applicability, in closed form: one separable filter per
coefficient (A11, A12, A22, b1, b2), memoised per frame like the pyramids.
Each refinement warps the second frame's coefficients with one stacked
`_bilinear` call and solves in buffers the call allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .media import _bilinear, _count, _finite, _FrameMemo, _no_rows, _point, _rows

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
    reason: str | None  # None when tracked, else "outside" | "weak_gradient"

    @property
    def status(self) -> str:
        return "tracked" if self.reason is None else "lost"


@dataclass(frozen=True)
class FlowField:
    """Dense displacement field; u is the x component, v the y component,
    two finite 2-D arrays of one shape."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u, v = self.u, self.v
        if not (isinstance(u, np.ndarray) and isinstance(v, np.ndarray) and u.ndim == 2
                and u.shape == v.shape):
            raise ValueError(f"u and v must be two 2-D arrays of one shape, got "
                             f"{getattr(u, 'shape', type(u).__name__)} and "
                             f"{getattr(v, 'shape', type(v).__name__)}")
        _finite(u, "flow u at (x={1}, y={0})")
        _finite(v, "flow v at (x={1}, y={0})")


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
    # np.gradient gives (d/dy, d/dx): central differences, one-sided at the borders
    return tuple(np.gradient(img)[::-1])


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"frames must share dimensions, got {a.shape[-2:]} and {b.shape[-2:]}")


# each frame's 0-1 pyramid down to the smallest side any window accepts, 5 + 2
# (sides halve, so min(shape) levels is no cap); `lk_track` takes a prefix
_pyramids = _FrameMemo(lambda img: tuple(_pyramid(img / 255.0, min(img.shape), 7)))


def lk_track(prev, next, points, levels: int = 3, window: int = 15) -> list:
    """Track `points` (n, 2) from prev to next with iterative coarse-to-fine LK.

    All points are solved together, level by level and iteration by
    iteration; each point stops iterating on its own convergence test.
    Results come in input order.  A point is lost with reason "outside" when
    its window leaves the frame at the start or at the end, and with reason
    "weak_gradient", at its start, when its finest-level gradient matrix is
    too weak (smaller eigenvalue below 1e-4 * window^2).  When no window
    fits in the frame at the start, no gradient is taken.
    """
    pyr0, pyr1 = _pyramids(prev), _pyramids(next)
    _same_shape(pyr0[0], pyr1[0])
    _count("levels", levels)
    _count("window", window, 5, "an odd integer", step=2)
    if _no_rows(points) and np.ndim(points) == 1:  # [], while (0, 2) yields [] below
        return []
    pts = _rows("points", points, "point {0}", 2)
    half = window // 2
    h, w = pyr0[0].shape

    def inside(p):
        return ((half + 1 <= p[:, 0]) & (p[:, 0] <= w - 2 - half)
                & (half + 1 <= p[:, 1]) & (p[:, 1] <= h - 2 - half))

    started = inside(pts)
    if not started.any():
        return [TrackResult((x, y), "outside") for x, y in pts.tolist()]

    # the levels `_pyramid(img, levels, window + 2)` keeps: sides only shrink
    top = 1 + sum(min(p.shape) >= window + 2 for p in pyr0[1:levels])
    off = np.arange(-half, half + 1, dtype=np.float64)
    oy, ox = np.meshgrid(off, off, indexing="ij")
    min_eig_thresh = LK_MIN_EIG_FACTOR * window * window
    weak = np.zeros(len(pts), dtype=bool)
    g = np.zeros_like(pts)
    live = np.flatnonzero(started)
    for lvl in range(top - 1, -1, -1):
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
        # the points still iterating at this level, as g's rows and per-point
        # arrays compacted whenever some of them converge
        act = live[ok]
        sx, sy, Ix, Iy, I0 = sx[ok], sy[ok], Ix[ok], Iy[ok], I0[ok]
        i00, i01, i11 = gyy[ok] / det[ok], -gxy[ok] / det[ok], gxx[ok] / det[ok]
        gl = g[act]
        nu = np.zeros_like(gl)
        for _ in range(LK_MAX_ITERS):
            if act.size == 0:
                break
            I1 = _bilinear(pyr1[lvl], sx + gl[:, 0, None, None] + nu[:, 0, None, None],
                           sy + gl[:, 1, None, None] + nu[:, 1, None, None])
            dI = I0 - I1
            b0 = (dI * Ix).sum(axis=(1, 2))
            b1 = (dI * Iy).sum(axis=(1, 2))
            s0 = i00 * b0 + i01 * b1
            s1 = i01 * b0 + i11 * b1
            nu[:, 0] += s0
            nu[:, 1] += s1
            going = ~(np.hypot(s0, s1) < LK_EPS)  # a NaN step keeps iterating
            if not going.all():
                g[act[~going]] = gl[~going] + nu[~going]
                act, sx, sy, Ix, Iy, I0, i00, i01, i11, gl, nu = (
                    a[going] for a in (act, sx, sy, Ix, Iy, I0, i00, i01, i11, gl, nu))
        g[act] = gl + nu
        if lvl:
            g[live] *= 2.0  # to the finer level; a singular level added no step

    moved = np.where(weak[:, None], pts, pts + g)
    tracked = started & ~weak & inside(moved)
    reasons = [None if t else ("weak_gradient" if k else "outside")
               for t, k in zip(tracked.tolist(), weak.tolist())]
    return [TrackResult((x, y), r) for (x, y), r in zip(moved.tolist(), reasons)]


# ---------------------------------------------------------------------------
# Farneback polynomial-expansion flow


def _poly_kernels(n: int, sigma: float):
    """Gaussian applicability g (sum 1) on offsets x = -n//2..n//2, x·g,
    q = (x² - m2)·g / (m4 - m2²) and m2, where mk = sum x^k·g."""
    xs = np.arange(-(n // 2), n // 2 + 1, dtype=np.float64)
    g = np.exp(-(xs ** 2) / (2.0 * sigma ** 2))
    g /= g.sum()
    m2, m4 = (float(np.sum(xs ** k * g)) for k in (2, 4))
    return g, xs * g, (xs ** 2 - m2) * g / (m4 - m2 * m2), m2


_POLY_KERNELS = _poly_kernels(FB_POLY_N, FB_POLY_SIGMA)


def _poly_expand(img: np.ndarray) -> np.ndarray:
    """Per-pixel quadratic fit f ~ c + b.x + x'Ax under Gaussian applicability.

    Returns the (5, h, w) stack (A11, A12, A22, b1, b2); coordinates are
    (x, y) with x along columns.  1, x, y, x² - m2, y² - m2 and xy are
    orthogonal under the separable applicability, so each coefficient is one
    separable filter: three passes along y (g, x·g, q) feed five along x.
    """
    g, xg, q, m2 = _POLY_KERNELS
    by_g, by_xg, by_q = (ndimage.correlate1d(img, k, axis=0, mode="nearest") for k in (g, xg, q))
    out = np.empty((5,) + img.shape)
    for (by, kernel_x), plane in zip([
        (by_g, q),                      # A11 = <x² - m2, f> / (m4 - m2²)
        (by_xg, xg / (2.0 * m2 * m2)),  # A12 = half the xy coefficient <xy, f> / m2²
        (by_q, g),                      # A22
        (by_g, xg / m2),                # b1 = <x, f> / m2
        (by_xg, g / m2),                # b2
    ], out):
        ndimage.correlate1d(by, kernel_x, axis=1, output=plane, mode="nearest")
    return out


# the `_poly_expand` stacks of each pyramid level of a frame in 0-1 units,
# memoised for two frames: enough for the dense tracker's order, left t-1 -> t
# and then left t -> right t
_expansions = _FrameMemo(
    lambda img: tuple(_poly_expand(p) for p in _pyramid(img / 255.0, FB_LEVELS, FB_POLY_N + 2)))


def _solve_flow(A11, A12, A22, b1, b2):
    """Window-averaged least squares of A d = delta_b.

    Works in one (5, h, w) stack it allocates and leaves its arguments
    unchanged; u and v are two of its planes.
    """
    products = np.empty((5,) + A11.shape)
    G11, G12, G22, H1, H2 = products
    tmp = A12 * A12
    np.multiply(A11, A11, out=G11)
    G11 += tmp                       # A11² + A12²
    np.add(A11, A22, out=G12)
    G12 *= A12                       # A12 (A11 + A22)
    np.multiply(A22, A22, out=G22)
    G22 += tmp                       # A12² + A22²
    np.multiply(A11, b1, out=H1)
    H1 += np.multiply(A12, b2, out=tmp)  # A11 b1 + A12 b2
    np.multiply(A12, b1, out=H2)
    H2 += np.multiply(A22, b2, out=tmp)  # A12 b1 + A22 b2
    ndimage.uniform_filter(products, size=(1, FB_WINDOW, FB_WINDOW), mode="nearest",
                           output=products)
    det = G11 * G22
    det -= np.multiply(G12, G12, out=tmp)
    np.copyto(det, 1e-12, where=np.abs(det) < 1e-12)
    u, v = G22, G11
    u *= H1
    u -= np.multiply(G12, H2, out=tmp)   # G22 H1 - G12 H2
    u /= det
    v *= H2
    v -= np.multiply(G12, H1, out=tmp)   # G11 H2 - G12 H1
    v /= det
    return u, v


def farneback_flow(prev, next) -> FlowField:
    """Dense displacement field from prev to next.

    Polynomial expansion of both frames per pyramid level; the displacement
    solves the window-averaged expansion-difference equations and is refined
    FB_ITERATIONS times per level, coarse to fine.
    """
    exp0, exp1 = _expansions(prev), _expansions(next)
    _same_shape(exp0[0], exp1[0])
    u = v = np.zeros(exp0[-1].shape[1:])  # read only: every update rebinds u and v

    for lvl in range(len(exp0) - 1, -1, -1):
        h, w = exp0[lvl].shape[1:]
        A0, b0 = exp0[lvl][:3], exp0[lvl][3:]
        if u.shape != (h, w):
            u = np.repeat(np.repeat(u, 2, axis=0), 2, axis=1)[:h, :w] * 2.0
            v = np.repeat(np.repeat(v, 2, axis=0), 2, axis=1)[:h, :w] * 2.0
        xs = np.arange(w, dtype=np.float64)
        ys = np.arange(h, dtype=np.float64)[:, None]
        tmp = np.empty((h, w))
        for _ in range(FB_ITERATIONS):
            warped = _bilinear(exp1[lvl], xs + u, ys + v)
            A = warped[:3]
            A += A0
            A *= 0.5                 # 0.5 (A_prev + A_next warped)
            A11, A12, A22 = A
            db = warped[3:]
            db -= b0
            db *= -0.5               # -0.5 (b_next warped - b_prev)
            db1, db2 = db
            db1 += np.multiply(A11, u, out=tmp)
            db1 += np.multiply(A12, v, out=tmp)
            db2 += np.multiply(A12, u, out=tmp)
            db2 += np.multiply(A22, v, out=tmp)
            u, v = _solve_flow(A11, A12, A22, db1, db2)
    return FlowField(u=u, v=v)


def sample_flow(field: FlowField, p) -> tuple:
    """Bilinearly interpolated displacement at subpixel point p = (x, y).

    Computed in Python floats with `_bilinear`'s corners, weights and order
    of operations, so it returns the same values without numpy's per-call cost.
    A point that is not two finite real numbers, or lies outside the field,
    is a ValueError naming it.
    """
    x, y = _point(p)
    h, w = field.u.shape
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        raise ValueError(f"point {p} outside flow field bounds")
    x0 = min(math.floor(x), max(w - 2, 0))
    y0 = min(math.floor(y), max(h - 2, 0))
    x1 = x0 + (w > 1)
    y1 = y0 + (h > 1)
    fx = x - x0
    fy = y - y0
    gx = 1 - fx
    gy = 1 - fy

    def at(img):
        return (img.item(y0, x0) * gx * gy + img.item(y0, x1) * fx * gy
                + img.item(y1, x0) * gx * fy + img.item(y1, x1) * fx * fy)

    return (at(field.u), at(field.v))
