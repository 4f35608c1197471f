"""FAST corners, gradient-orientation patch descriptors, reciprocal matching.

Images are Frames (color ones converted to grayscale) or 2-D arrays in 0-255
units.  The segment test ANDs rotations of the ring masks, and the matcher
computes its distances one row of ``a`` at a time and runs its ratio test on
whole rows and columns at once.

A descriptor reads its window from the frame's gradient magnitude and
orientation-bin planes, built once per frame through ``media._FrameMemo``,
whose rule the ``media`` docstring states.  The histogram is then one
``bincount`` over the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import ndimage

from .media import _count, _finite_real, _FrameMemo, _gray, _no_rows, _point, _rows

# 16-pixel Bresenham circle of radius 3, clockwise from the top
CIRCLE = [(0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
          (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3)]

DESCRIPTOR_DIM = 128  # 4x4 cells x 8 orientation bins
FAST_ARC = 9          # contiguous circle pixels that make a corner
MATCH_RATIO = 0.8     # Lowe's ratio test: best distance < MATCH_RATIO * second best


@dataclass(frozen=True)
class Corner:
    x: int
    y: int
    score: float


def _has_arc(mask: np.ndarray) -> np.ndarray:
    """True where the (16, ...) ring mask holds FAST_ARC contiguous True
    entries, the ring wrapping around: the AND of its first FAST_ARC
    rotations, each a window of the ring extended by its own start."""
    ring = np.concatenate([mask, mask[:FAST_ARC - 1]])
    arc = mask.copy()
    for k in range(1, FAST_ARC):
        arc &= ring[k:k + len(mask)]
    return arc.any(axis=0)


def detect_fast(gray, threshold: float = 20.0) -> list:
    """Segment-test corners: >= FAST_ARC contiguous circle pixels all brighter
    than center+threshold or all darker than center-threshold, followed by
    3x3 non-maximum suppression on the exceedance-sum score."""
    img = _gray(gray)
    h, w = img.shape
    if h < 7 or w < 7:
        raise ValueError(f"frame {w}x{h} smaller than 7x7")
    if not (_finite_real(threshold) and threshold > 0):
        raise ValueError(f"threshold must be a finite number > 0, got {threshold!r}")

    center = img[3:h - 3, 3:w - 3]
    ring = np.stack([img[3 + dy:h - 3 + dy, 3 + dx:w - 3 + dx] for dx, dy in CIRCLE])
    brighter = ring > center + threshold
    darker = ring < center - threshold
    is_corner = _has_arc(brighter) | _has_arc(darker)

    # scored at segment-test corners only; each sum runs along the ring in ring
    # order, as numpy sums a whole (16, h, w) stack with more than one pixel
    ys, xs = np.nonzero(is_corner)
    r, c = ring[:, ys, xs], center[ys, xs]
    exceed_b = np.where(brighter[:, ys, xs], r - (c + threshold), 0.0).cumsum(axis=0)[-1]
    exceed_d = np.where(darker[:, ys, xs], (c - threshold) - r, 0.0).cumsum(axis=0)[-1]
    score = np.zeros(is_corner.shape)
    score[ys, xs] = np.maximum(exceed_b, exceed_d)

    local_max = ndimage.maximum_filter(score, size=3, mode="constant", cval=0.0)
    keep = is_corner & (score >= local_max)
    ys, xs = np.nonzero(keep)
    return [Corner(x=int(x) + 3, y=int(y) + 3, score=float(score[y, x]))
            for y, x in zip(ys, xs)]


def _planes(img: np.ndarray) -> tuple:
    """Gradient magnitude and 8-bin orientation planes of a float64 frame's
    interior pixels: entry (i, j) belongs to pixel (x=j+1, y=i+1), from
    central differences."""
    gx = (img[1:-1, 2:] - img[1:-1, :-2]) / 2.0
    gy = (img[2:, 1:-1] - img[:-2, 1:-1]) / 2.0
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx) % (2.0 * np.pi)
    bins = np.minimum((ang / (np.pi / 4.0)).astype(int), 7)
    return mag, bins


# the planes of the last two frames described: the KLT tracker describes its
# left and right views in turn, each frame's points and corners in runs
_frame_planes = _FrameMemo(_planes)


@cache
def _cells(patch: int) -> np.ndarray:
    """The read-only (patch, patch) histogram index of each pixel's bin 0."""
    c = np.arange(patch) // (patch // 4)
    cell = (c[:, None] * 4 + c[None, :]) * 8
    cell.flags.writeable = False
    return cell


def describe_patch(gray, p, patch: int = 16) -> np.ndarray:
    """Simplified SIFT descriptor of the `patch` x `patch` window centered at p.

    Central-difference gradients, magnitude-weighted 8-bin orientation
    histograms over a 4x4 cell grid, L2-normalized, entries clamped at 0.2
    and renormalized.  A gradient-free patch yields the zero vector.  A point
    that is not two finite real numbers (x, y) is a ValueError naming it.
    """
    _count("patch", patch, 4, "a multiple of 4", step=4)
    x, y = _point(p)
    mag, bins = _frame_planes(gray)
    h, w = mag.shape  # the frame's interior
    # the window's top-left entry in the planes, at pixel (x0 + 1, y0 + 1)
    x0, y0 = int(round(x)) - patch // 2 - 1, int(round(y)) - patch // 2 - 1
    if x0 < 0 or y0 < 0 or x0 + patch > w or y0 + patch > h:
        raise ValueError(f"descriptor window at {p} outside frame")

    window = np.s_[y0:y0 + patch, x0:x0 + patch]
    v = np.bincount((_cells(patch) + bins[window]).ravel(), weights=mag[window].ravel(),
                    minlength=DESCRIPTOR_DIM)
    norm = np.sqrt(v.dot(v))  # what np.linalg.norm computes, without its overhead
    if norm == 0.0:
        return v
    v = np.minimum(v / norm, 0.2)
    return v / np.sqrt(v.dot(v))


def match_reciprocal(a, b) -> list:
    """Mutual nearest-neighbor pairs (i, j) passing Lowe's ratio test with
    MATCH_RATIO in both directions; singleton sets skip the ratio test.
    Sorted by index_a."""
    if _no_rows(a) or _no_rows(b):
        return []
    A = _rows("a", a, "a descriptor {0} entry {1}", ndmin=2)
    B = _rows("b", b, "b descriptor {0} entry {1}", A.shape[1], ndmin=2)
    # one row of a at a time, so the difference array is only (nb, D)
    d = np.sqrt([np.square(row - B).sum(axis=1) for row in A])

    rows = np.arange(A.shape[0])
    nn_ab = np.argmin(d, axis=1)  # first index on ties
    nn_ba = np.argmin(d, axis=0)
    best = d[rows, nn_ab]
    keep = nn_ba[nn_ab] == rows
    # ratio test: the best distance against the second smallest of its row
    # and of its column; a singleton row or column skips it
    if B.shape[0] > 1:
        keep &= best < MATCH_RATIO * np.partition(d, 1, axis=1)[:, 1]
    if A.shape[0] > 1:
        keep &= best < MATCH_RATIO * np.partition(d, 1, axis=0)[1, nn_ab]
    return list(zip(rows[keep].tolist(), nn_ab[keep].tolist()))
