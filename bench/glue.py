"""The paper's two stereo trackers, built from the public functions of each layer.

The program has no tracking module yet, so this file supplies the glue: it
keeps the per-track books in arrays and calls one layer function per job.

* KLT (``track_sparse``): ``keypoints.detect_fast`` inside ``roi`` regions
  starts tracks, ``flowfields.lk_track`` carries them frame to frame, and
  ``keypoints.describe_patch`` + ``keypoints.match_reciprocal`` against
  corners of the right view give each point its disparity.
* Dense (``track_dense``): textured grid points inside the regions start
  tracks, ``flowfields.farneback_flow`` + ``flowfields.sample_flow`` carry
  them, and a left-to-right Farneback field gives the disparity.

Both reject a stereo pair farther than ``EPIPOLAR_TOL_PX`` from the epipolar
line of the calibrated F, or with a disparity outside the rig's search range.
A track ends after ``TRACK_LENGTH`` steps; its (x, y, d) points become one
``shape.describe`` descriptor of order ``SHAPE_ORDER``.  Every layer function is called through its module, so the
traced run sees each call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from trailblaze import flowfields, keypoints, media, roi, shape

TRACK_LENGTH = 8          # l: a finished trajectory has l + 1 points
SHAPE_ORDER = 2
MAX_TRACKS = 24
MIN_SPACING_PX = 4.0      # a new track keeps this distance to live ones
EPIPOLAR_TOL_PX = 1.0
DISPARITY_RANGE_PX = (5.5, 10.5)   # the corpus spans 6.9-8.8; look-alike corners lie ~6 px off
MIN_DISPARITY_SHARE = 1 / 3  # share of a track's points that need a stereo match
ROI_MARGIN = 4            # pixels added around a region before corner search
FAST_THRESHOLD = 20.0
LK_LEVELS, LK_WINDOW = 3, 9
PATCH = 16
GRID_STEP = 4
TEXTURE_MIN_STD = 8.0     # grid points in flatter 5x5 patches start no track


@dataclass
class VideoResult:
    """What one video gives the rest of the pipeline and the checks."""

    clip_id: str
    descriptors: np.ndarray          # (T, N)
    trajectories: np.ndarray         # (T, l + 1, 3): x, y, d
    starts: np.ndarray               # (T,) first frame of each trajectory
    pairs: np.ndarray                # (P, 5): frame, x_left, y_left, x_right, y_right
    step_ms: list                    # wall time of each step (frames 2 onwards)
    candidates: int                  # stereo pairs proposed before the epipolar test


class _Tracks:
    """Live tracks as arrays: positions, point history and disparity history."""

    def __init__(self):
        self.xy = np.zeros((0, TRACK_LENGTH + 1, 2))
        self.d = np.zeros((0, TRACK_LENGTH + 1))
        self.age = np.zeros(0, dtype=int)
        self.start = np.zeros(0, dtype=int)
        self.done_xy, self.done_d, self.done_start = [], [], []

    @property
    def pos(self) -> np.ndarray:
        return self.xy[np.arange(len(self.age)), self.age - 1]

    def keep(self, mask):
        self.xy, self.d = self.xy[mask], self.d[mask]
        self.age, self.start = self.age[mask], self.start[mask]

    def advance(self, new_pos, alive):
        """Append each survivor's new position; finished tracks move to done."""
        self.keep(alive)
        self.xy[np.arange(len(self.age)), self.age] = new_pos[alive]
        self.age += 1
        done = self.age == TRACK_LENGTH + 1
        self.done_xy.append(self.xy[done])
        self.done_d.append(self.d[done])
        self.done_start.append(self.start[done])
        self.keep(~done)

    def seed(self, cand, frame):
        """Start tracks at candidate points far enough from live ones."""
        room = MAX_TRACKS - len(self.age)
        if room <= 0 or len(cand) == 0:
            return
        taken = self.pos
        chosen = []
        for p in cand:
            near = np.concatenate([taken, np.array(chosen).reshape(-1, 2)])
            if len(near) and np.min(np.hypot(*(near - p).T)) < MIN_SPACING_PX:
                continue
            chosen.append(p)
            if len(chosen) == room:
                break
        if not chosen:
            return
        n = len(chosen)
        xy = np.zeros((n, TRACK_LENGTH + 1, 2))
        xy[:, 0] = chosen
        d = np.full((n, TRACK_LENGTH + 1), np.nan)
        self.xy = np.concatenate([self.xy, xy])
        self.d = np.concatenate([self.d, d])
        self.age = np.concatenate([self.age, np.ones(n, dtype=int)])
        self.start = np.concatenate([self.start, np.full(n, frame)])

    def set_disparity(self, idx, disp):
        self.d[idx, self.age[idx] - 1] = disp

    def finished(self):
        """(trajectories, starts) whose disparity is known often enough.

        Missing disparities are filled by linear interpolation along the track.
        """
        xy = np.concatenate(self.done_xy)
        d = np.concatenate(self.done_d)
        start = np.concatenate(self.done_start)
        ok = np.isfinite(d).mean(axis=1) >= MIN_DISPARITY_SHARE
        xy, d, start = xy[ok], d[ok], start[ok]
        steps = np.arange(TRACK_LENGTH + 1)
        for row in d:
            have = np.isfinite(row)
            row[~have] = np.interp(steps[~have], steps[have], row[have])
        return np.concatenate([xy, d[:, :, None]], axis=2), start


def epipolar_distance(F, left, right) -> np.ndarray:
    """Distance of each left point to the epipolar line F @ right (p_l^T F p_r = 0)."""
    pr = np.column_stack([right, np.ones(len(right))])
    pl = np.column_stack([left, np.ones(len(left))])
    lines = pr @ F.T
    return np.abs((pl * lines).sum(axis=1)) / np.hypot(lines[:, 0], lines[:, 1])


def _regions(model, frame):
    model, fg = roi.update_and_subtract(model, frame)
    return model, roi.extract_regions(fg)


def _boxes(regions, w, h):
    """Regions grown by ROI_MARGIN, clipped to the frame, as (x0, y0, x1, y1)."""
    for r in regions:
        x0, y0 = max(r.x - ROI_MARGIN, 0), max(r.y - ROI_MARGIN, 0)
        x1, y1 = min(r.x + r.w + ROI_MARGIN, w), min(r.y + r.h + ROI_MARGIN, h)
        if x1 - x0 >= 7 and y1 - y0 >= 7:
            yield x0, y0, x1, y1


def _corners(img, boxes):
    """FAST corners inside the boxes, strongest first, in frame coordinates."""
    found = []
    for x0, y0, x1, y1 in boxes:
        for c in keypoints.detect_fast(img[y0:y1, x0:x1], threshold=FAST_THRESHOLD):
            found.append((c.score, c.x + x0, c.y + y0))
    found = sorted(set(found), reverse=True)
    return np.array([(x, y) for _, x, y in found], dtype=float).reshape(-1, 2)


def _describable(pts, w, h):
    half = PATCH // 2
    r = np.round(pts)
    return ((r[:, 0] - half - 1 >= 0) & (r[:, 1] - half - 1 >= 0)
            & (r[:, 0] + half + 1 <= w) & (r[:, 1] + half + 1 <= h))


def _sparse_disparity(tracks, left, right, regions, F, pairs, frame):
    """Match the points of each region against right-view corners of the same region.

    Matching region by region keeps a point from pairing with a look-alike
    corner of another sprite.
    """
    h, w = left.shape
    pos = tracks.pos
    free = _describable(pos, w, h)
    proposed = 0
    for x0, y0, x1, y1 in _boxes(regions, w, h):
        li = np.flatnonzero(free & (pos[:, 0] >= x0) & (pos[:, 0] < x1)
                            & (pos[:, 1] >= y0) & (pos[:, 1] < y1))
        free[li] = False
        rc = _corners(right, [(max(x0 - int(np.ceil(DISPARITY_RANGE_PX[1])), 0), y0, x1, y1)])
        rc = rc[_describable(rc, w, h)]
        if len(li) == 0 or len(rc) == 0:
            continue
        dl = [keypoints.describe_patch(left, pos[i], patch=PATCH) for i in li]
        dr = [keypoints.describe_patch(right, p, patch=PATCH) for p in rc]
        m = np.array(keypoints.match_reciprocal(dl, dr), dtype=int).reshape(-1, 2)
        proposed += len(m)
        idx, pl, pr = li[m[:, 0]], pos[li[m[:, 0]]], rc[m[:, 1]]
        disp = pl[:, 0] - pr[:, 0]
        ok = ((epipolar_distance(F, pl, pr) <= EPIPOLAR_TOL_PX)
              & (disp >= DISPARITY_RANGE_PX[0]) & (disp <= DISPARITY_RANGE_PX[1]))
        tracks.set_disparity(idx[ok], disp[ok])
        pairs.append(np.column_stack([np.full(ok.sum(), frame), pl[ok], pr[ok]]))
    return proposed


def _dense_disparity(tracks, left, right, F, pairs, frame):
    pos = tracks.pos
    if len(pos) == 0:
        return 0
    flow = flowfields.farneback_flow(left, right)
    uv = np.array([flowfields.sample_flow(flow, p) for p in pos])
    pr = pos + uv
    disp = -uv[:, 0]
    ok = ((epipolar_distance(F, pos, pr) <= EPIPOLAR_TOL_PX)
          & (disp >= DISPARITY_RANGE_PX[0]) & (disp <= DISPARITY_RANGE_PX[1]))
    tracks.set_disparity(np.flatnonzero(ok), disp[ok])
    pairs.append(np.column_stack([np.full(ok.sum(), frame), pos[ok], pr[ok]]))
    return len(pos)


def _grid_points(img, regions):
    """Grid points inside the regions whose 5x5 neighbourhood is textured."""
    h, w = img.shape
    pts = []
    for x0, y0, x1, y1 in _boxes(regions, w, h):
        ys, xs = np.mgrid[max(y0, 2):min(y1, h - 2):GRID_STEP, max(x0, 2):min(x1, w - 2):GRID_STEP]
        pts.append(np.column_stack([xs.ravel(), ys.ravel()]))
    if not pts:
        return np.zeros((0, 2))
    pts = np.unique(np.concatenate(pts), axis=0)
    off = np.arange(-2, 3)
    patches = img[pts[:, 1, None, None] + off[None, :, None],
                  pts[:, 0, None, None] + off[None, None, :]]
    return pts[patches.reshape(len(pts), -1).std(axis=1) >= TEXTURE_MIN_STD].astype(float)


def _inside(pos, w, h, margin):
    return ((pos[:, 0] >= margin) & (pos[:, 0] <= w - 1 - margin)
            & (pos[:, 1] >= margin) & (pos[:, 1] <= h - 1 - margin))


def _track(clip_dir, clip_id, F, dense):
    left = media.load_clip(clip_dir / "left")
    right = media.load_clip(clip_dir / "right")
    L = [f.data.astype(np.float64) for f in left.frames]
    R = [f.data.astype(np.float64) for f in right.frames]
    h, w = L[0].shape
    tracks = _Tracks()
    pairs, step_ms = [], []
    candidates = 0
    model = roi.BackgroundModel.initialize(left.frames[0])

    def frame_work(t, model):
        nonlocal candidates
        model, regions = _regions(model, left.frames[t])
        if t > 1:
            prev = tracks.pos
            if dense:
                flow = flowfields.farneback_flow(L[t - 1], L[t])
                moved = prev + np.array([flowfields.sample_flow(flow, p) for p in prev]).reshape(-1, 2)
                alive = _inside(moved, w, h, 1.0)
            else:
                res = flowfields.lk_track(L[t - 1], L[t], prev, levels=LK_LEVELS, window=LK_WINDOW)
                moved = np.array([r.point for r in res]).reshape(-1, 2)
                alive = np.array([r.status == "tracked" for r in res], dtype=bool)
            tracks.advance(moved, alive)
        tracks.seed(_grid_points(L[t], regions) if dense else _corners(L[t], _boxes(regions, w, h)), t)
        if dense:
            candidates += _dense_disparity(tracks, L[t], R[t], F, pairs, t)
        else:
            candidates += _sparse_disparity(tracks, L[t], R[t], regions, F, pairs, t)
        return model

    # frame 0 only primes the background model and frame 1 starts the first
    # tracks, so every timed step (frames 2 onwards) does the same kinds of work
    model = frame_work(1, model)
    for t in range(2, len(L)):
        t0 = time.perf_counter()
        model = frame_work(t, model)
        step_ms.append((time.perf_counter() - t0) * 1e3)

    traj, starts = tracks.finished()
    desc = np.array([shape.describe(p, SHAPE_ORDER).values for p in traj]).reshape(
        len(traj), shape.descriptor_dim(3, TRACK_LENGTH, SHAPE_ORDER))
    pairs = np.concatenate(pairs) if pairs else np.zeros((0, 5))
    return VideoResult(clip_id, desc, traj, starts, pairs, step_ms, candidates)


def track_sparse(clip_dir, clip_id, F) -> VideoResult:
    """KLT tracks with descriptor-matched disparity for one stereo clip."""
    return _track(clip_dir, clip_id, F, dense=False)


def track_dense(clip_dir, clip_id, F) -> VideoResult:
    """Farneback grid tracks with flow disparity for one stereo clip."""
    return _track(clip_dir, clip_id, F, dense=True)
