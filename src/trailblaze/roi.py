"""Moving-region detection: per-pixel Gaussian mixture background model and
proximity-merged bounding boxes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .media import _gray

COMPONENTS = 3
ALPHA = 0.02            # learning rate of matched components
MATCH_K = 2.5           # a pixel matches a component within MATCH_K sigma
INIT_VARIANCE = 225.0   # sigma 15 for fresh components
MIN_VARIANCE = 4.0
NEW_WEIGHT = 0.05
BG_RATIO = 0.7          # cumulative weight that counts as background
PROXIMITY = 10          # blobs whose boxes are this close (px) share a region


@dataclass
class BackgroundModel:
    """Per-pixel mixture of K = COMPONENTS Gaussians; arrays have shape (K, h, w)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @classmethod
    def initialize(cls, frame):
        img = _gray(frame)
        h, w = img.shape
        weights = np.zeros((COMPONENTS, h, w))
        weights[0] = 1.0
        means = np.zeros((COMPONENTS, h, w))
        means[0] = img
        variances = np.full((COMPONENTS, h, w), INIT_VARIANCE)
        return cls(weights, means, variances)

    @property
    def shape(self):
        return self.means.shape[1:]


def update_and_subtract(model: BackgroundModel, frame) -> tuple:
    """One background-model step; returns (updated model, foreground mask).

    A pixel is background iff it matches (within MATCH_K sigma) one of the
    highest-weight components whose cumulative weight reaches BG_RATIO.
    Matched components adapt with rate ALPHA; a pixel matching nothing
    replaces its lowest-weight component and is foreground.
    """
    img = _gray(frame)
    if img.shape != model.shape:
        raise ValueError(f"frame shape {img.shape} does not match model {model.shape}")
    w = model.weights.copy()
    mu = model.means.copy()
    var = model.variances.copy()

    diff = img[None] - mu
    matches = diff ** 2 <= (MATCH_K ** 2) * var

    # among matching components pick the highest-weight one
    cand = np.where(matches, w, -1.0)
    best = np.argmax(cand, axis=0)
    any_match = np.take_along_axis(matches, best[None], axis=0)[0]

    # background set: weight-sorted prefix reaching BG_RATIO
    order = np.argsort(-w, axis=0, kind="stable")
    sorted_w = np.take_along_axis(w, order, axis=0)
    cum = np.cumsum(sorted_w, axis=0)
    in_prefix_sorted = (cum - sorted_w) < BG_RATIO
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(w.shape[0])[:, None, None], axis=0)
    best_rank = np.take_along_axis(rank, best[None], axis=0)[0]
    best_in_bg = np.take_along_axis(in_prefix_sorted, best_rank[None], axis=0)[0]
    foreground = ~(any_match & best_in_bg)

    # adapt matched component: w_k <- (1-a)w_k + a*m_k, only where a match exists
    hit = np.zeros_like(matches)
    np.put_along_axis(hit, best[None], any_match[None], axis=0)
    updated = np.where(hit, w + ALPHA * (1.0 - w), w * (1.0 - ALPHA))
    w = np.where(any_match[None], updated, w)
    mu = np.where(hit, mu + ALPHA * diff, mu)
    var = np.where(hit, var + ALPHA * (diff ** 2 - var), var)

    # unmatched pixel: replace its lowest-weight component
    lowest = np.argmin(model.weights, axis=0)
    repl = np.zeros_like(hit)
    np.put_along_axis(repl, lowest[None], (~any_match)[None], axis=0)
    mu = np.where(repl, img[None], mu)
    var = np.where(repl, INIT_VARIANCE, var)
    w = np.where(repl, NEW_WEIGHT, w)

    var = np.maximum(var, MIN_VARIANCE)
    w = w / w.sum(axis=0, keepdims=True)
    return BackgroundModel(w, mu, var), foreground


@dataclass(frozen=True)
class Roi:
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError("Roi must have positive size")


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _box_gap(a, b) -> float:
    gx = max(max(a[0], b[0]) - min(a[0] + a[2], b[0] + b[2]), 0)
    gy = max(max(a[1], b[1]) - min(a[1] + a[3], b[1] + b[3]), 0)
    return max(gx, gy)


def _boxes_overlap(a, b) -> bool:
    return a[0] < b[0] + b[2] and b[0] < a[0] + a[2] and a[1] < b[1] + b[3] and b[1] < a[1] + a[3]


def _merge_boxes(boxes, edge):
    uf = _UnionFind(len(boxes))
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if edge(boxes[i], boxes[j]):
                uf.union(i, j)
    groups = {}
    for i, b in enumerate(boxes):
        groups.setdefault(uf.find(i), []).append(b)
    merged = []
    for members in groups.values():
        x0 = min(b[0] for b in members)
        y0 = min(b[1] for b in members)
        x1 = max(b[0] + b[2] for b in members)
        y1 = max(b[1] + b[3] for b in members)
        merged.append((x0, y0, x1 - x0, y1 - y0))
    return merged


def extract_regions(mask: np.ndarray) -> list:
    """Bounding boxes of 8-connected foreground blobs, merged when boxes
    overlap or their gap is within PROXIMITY, then merged again until the
    result is pairwise disjoint.  Sorted by (x, y)."""
    mask = np.asarray(mask, dtype=bool)
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if n == 0:
        return []
    boxes = []
    for sl in ndimage.find_objects(labels):
        boxes.append((sl[1].start, sl[0].start,
                      sl[1].stop - sl[1].start, sl[0].stop - sl[0].start))

    merged = _merge_boxes(boxes, lambda a, b: _boxes_overlap(a, b) or _box_gap(a, b) <= PROXIMITY)
    # union boxes may newly overlap; keep merging so every pixel gets one box
    while True:
        again = _merge_boxes(merged, _boxes_overlap)
        if len(again) == len(merged):
            merged = again
            break
        merged = again
    return [Roi(*b) for b in sorted(merged)]
