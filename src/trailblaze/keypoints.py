"""FAST corners, gradient-orientation patch descriptors, reciprocal matching.

Images are Frames (color ones converted to grayscale) or 2-D arrays in 0-255
units.  The descriptor histogram is one ``bincount`` over the patch, and the
matcher runs its ratio test on whole rows and columns at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .media import _gray

# 16-pixel Bresenham circle of radius 3, clockwise from the top
CIRCLE = [(0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
          (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3)]

DESCRIPTOR_DIM = 128  # 4x4 cells x 8 orientation bins
FAST_ARC = 9          # contiguous circle pixels that make a corner


@dataclass(frozen=True)
class Corner:
    x: int
    y: int
    score: float


def detect_fast(gray, threshold: float = 20.0) -> list:
    """Segment-test corners: >= FAST_ARC contiguous circle pixels all brighter
    than center+threshold or all darker than center-threshold, followed by
    3x3 non-maximum suppression on the exceedance-sum score."""
    img = _gray(gray)
    h, w = img.shape
    if h < 7 or w < 7:
        raise ValueError(f"frame {w}x{h} smaller than 7x7")
    if threshold <= 0:
        raise ValueError("threshold must be > 0")

    center = img[3:h - 3, 3:w - 3]
    ring = np.stack([img[3 + dy:h - 3 + dy, 3 + dx:w - 3 + dx] for dx, dy in CIRCLE])
    brighter = ring > center + threshold
    darker = ring < center - threshold

    def has_arc(mask):
        # max run length over the wrapped ring
        doubled = np.concatenate([mask, mask], axis=0)
        run = np.zeros(mask.shape[1:], dtype=np.int32)
        best = np.zeros_like(run)
        for k in range(2 * len(CIRCLE)):
            run = np.where(doubled[k], run + 1, 0)
            best = np.maximum(best, run)
        return np.minimum(best, len(CIRCLE)) >= FAST_ARC

    is_corner = has_arc(brighter) | has_arc(darker)
    if not is_corner.any():
        return []

    exceed_b = np.where(brighter, ring - (center + threshold), 0.0).sum(axis=0)
    exceed_d = np.where(darker, (center - threshold) - ring, 0.0).sum(axis=0)
    score = np.where(is_corner, np.maximum(exceed_b, exceed_d), 0.0)

    local_max = ndimage.maximum_filter(score, size=3, mode="constant", cval=0.0)
    keep = is_corner & (score >= local_max)
    ys, xs = np.nonzero(keep)
    return [Corner(x=int(x) + 3, y=int(y) + 3, score=float(score[y, x]))
            for y, x in zip(ys, xs)]


def describe_patch(gray, p, patch: int = 16) -> np.ndarray:
    """Simplified SIFT descriptor of the `patch` x `patch` window centered at p.

    Central-difference gradients, magnitude-weighted 8-bin orientation
    histograms over a 4x4 cell grid, L2-normalized, entries clamped at 0.2
    and renormalized.  A gradient-free patch yields the zero vector.
    """
    if patch < 4 or patch % 4:
        raise ValueError(f"patch must be a positive multiple of 4, got {patch}")
    img = _gray(gray)
    h, w = img.shape
    half = patch // 2
    x0 = int(round(p[0])) - half
    y0 = int(round(p[1])) - half
    if x0 - 1 < 0 or y0 - 1 < 0 or x0 + patch + 1 > w or y0 + patch + 1 > h:
        raise ValueError(f"descriptor window at {p} outside frame")

    win = img[y0 - 1:y0 + patch + 1, x0 - 1:x0 + patch + 1]
    gx = (win[1:-1, 2:] - win[1:-1, :-2]) / 2.0
    gy = (win[2:, 1:-1] - win[:-2, 1:-1]) / 2.0
    mag = np.hypot(gx, gy)
    ang = np.arctan2(gy, gx) % (2.0 * np.pi)
    bins = np.minimum((ang / (np.pi / 4.0)).astype(int), 7)

    cell = np.arange(patch) // (patch // 4)
    index = (cell[:, None] * 4 + cell[None, :]) * 8 + bins
    v = np.bincount(index.ravel(), weights=mag.ravel(), minlength=DESCRIPTOR_DIM)
    norm = np.sqrt(v.dot(v))  # what np.linalg.norm computes, without its overhead
    if norm == 0.0:
        return v
    v = np.minimum(v / norm, 0.2)
    return v / np.sqrt(v.dot(v))


def match_reciprocal(a, b, ratio: float = 0.8) -> list:
    """Mutual nearest-neighbor pairs (i, j) passing Lowe's ratio test in both
    directions; singleton sets skip the ratio test.  Sorted by index_a."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    A = np.atleast_2d(np.asarray(a, dtype=np.float64)) if len(a) else np.zeros((0, 1))
    B = np.atleast_2d(np.asarray(b, dtype=np.float64)) if len(b) else np.zeros((0, 1))
    if A.shape[0] == 0 or B.shape[0] == 0:
        return []
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"descriptor widths differ: a is {A.shape}, b is {B.shape}")
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(np.maximum(d2, 0.0))

    rows = np.arange(A.shape[0])
    nn_ab = np.argmin(d, axis=1)  # first index on ties
    nn_ba = np.argmin(d, axis=0)
    best = d[rows, nn_ab]
    keep = nn_ba[nn_ab] == rows
    # ratio test: the best distance against the second smallest of its row
    # and of its column; a singleton row or column skips it
    if B.shape[0] > 1:
        keep &= best < ratio * np.partition(d, 1, axis=1)[:, 1]
    if A.shape[0] > 1:
        keep &= best < ratio * np.partition(d, 1, axis=0)[1, nn_ab]
    return list(zip(rows[keep].tolist(), nn_ab[keep].tolist()))
