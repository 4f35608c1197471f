"""Moving-region detection: a per-pixel Gaussian mixture background model
(Stauffer & Grimson, CVPR 1999) updated with elementwise passes over its
(K, h, w) stacks, and bounding boxes merged through a pairwise gap matrix
whose groups are found by min-label propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .media import _gray, _rows

COMPONENTS = 3
ALPHA = 0.02            # learning rate of matched components
MATCH_K = 2.5           # a pixel matches a component within MATCH_K sigma
INIT_VARIANCE = 225.0   # sigma 15 for fresh components
MIN_VARIANCE = 4.0
NEW_WEIGHT = 0.05
BG_RATIO = 0.7          # a match is background with less weight than this ranked ahead
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

    A pixel is background iff its highest-weight matching component (within
    MATCH_K sigma) has less than BG_RATIO of weight ranked ahead of it.
    Matched components adapt with rate ALPHA; a pixel matching nothing
    replaces its lowest-weight component and is foreground.
    """
    img = _gray(frame)
    if img.shape != model.shape:
        raise ValueError(f"frame shape {img.shape} does not match model {model.shape}")
    w, mu, var = model.weights, model.means, model.variances

    diff = img[None] - mu
    matches = diff ** 2 <= (MATCH_K ** 2) * var

    # among matching components pick the highest-weight one
    best = np.argmax(np.where(matches, w, -1.0), axis=0)
    any_match = matches.any(axis=0)

    # background iff the weight ranked ahead of `best` is below BG_RATIO; a
    # stable descending order ranks a heavier component, or an equally heavy
    # earlier one, first
    component = np.arange(len(w))[:, None, None]
    w_best = np.take_along_axis(w, best[None], axis=0)
    ahead = np.where((w > w_best) | ((w == w_best) & (component < best)), w, 0.0).sum(axis=0)
    foreground = ~(any_match & (ahead < BG_RATIO))

    # adapt matched component: w_k <- (1-a)w_k + a*m_k, only where a match exists
    hit = (component == best) & any_match
    updated = np.where(hit, w + ALPHA * (1.0 - w), w * (1.0 - ALPHA))
    w = np.where(any_match[None], updated, w)
    mu = np.where(hit, mu + ALPHA * diff, mu)
    var = np.where(hit, var + ALPHA * (diff ** 2 - var), var)

    # unmatched pixel: replace its lowest-weight component
    repl = (component == np.argmin(model.weights, axis=0)) & ~any_match
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


def _merge(boxes: np.ndarray, reach) -> np.ndarray:
    """Union boxes of the linked groups of `boxes` (n, 4) as (x, y, w, h).

    Two boxes link when their signed gap, the larger over both axes of
    max(lo) - min(hi), is <= reach: reach -1 links only overlapping boxes.
    Groups are the connected components of the link matrix, found by min-label
    propagation; each is listed once, at its first member, which labels it.
    """
    lo = boxes[:, :2]
    hi = lo + boxes[:, 2:]
    gap = (np.maximum(lo[:, None], lo) - np.minimum(hi[:, None], hi)).max(axis=2)
    linked = gap <= reach  # reflexive: a box's gap to itself is -min(w, h)
    group = np.arange(len(boxes))
    while not np.array_equal(group, low := np.where(linked, group, len(boxes)).min(axis=1)):
        group = low[low]  # every box takes its links' least label, then that label's label
    x0y0, x1y1 = lo.copy(), hi.copy()
    np.minimum.at(x0y0, group, lo)  # each group's union lands on its first member's row
    np.maximum.at(x1y1, group, hi)
    first = group == np.arange(len(boxes))
    return np.hstack([x0y0[first], x1y1[first] - x0y0[first]])


def extract_regions(mask: np.ndarray) -> list:
    """Bounding boxes of 8-connected foreground blobs, merged when boxes
    overlap or their gap is within PROXIMITY, then merged again until the
    result is pairwise disjoint.  Sorted by (x, y).  Any non-zero pixel is
    foreground; a NaN or infinite pixel is a ValueError naming it."""
    mask = _rows("mask", mask, "mask pixel (x={1}, y={0})") != 0
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if n == 0:
        return []
    boxes = np.array([(sl[1].start, sl[0].start, sl[1].stop - sl[1].start, sl[0].stop - sl[0].start)
                      for sl in ndimage.find_objects(labels)])
    merged = _merge(boxes, PROXIMITY)
    # union boxes may newly overlap; keep merging so every pixel gets one box
    while len(again := _merge(merged, -1)) < len(merged):
        merged = again
    return [Roi(*b) for b in sorted(merged.tolist())]
