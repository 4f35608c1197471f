import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from bench import corpus, glue
from trailblaze import keypoints, media, roi
from trailblaze.keypoints import (
    CIRCLE, DESCRIPTOR_DIM, Corner, describe_patch, detect_fast, match_reciprocal,
)
from trailblaze.media import Frame, _count, _gray, _point


def segment_test_oracle(img, x, y, threshold):
    """Exhaustive FAST-9 test at one pixel, independent of the detector: nine
    contiguous circle pixels all brighter or all darker than the threshold."""
    c = float(img[y, x])
    ring = [float(img[y + dy, x + dx]) for dx, dy in CIRCLE]
    for states in [[v > c + threshold for v in ring], [v < c - threshold for v in ring]]:
        for start in range(16):
            if all(states[(start + k) % 16] for k in range(9)):
                return True
    return False


def run_length_arc_oracle(mask):
    """The run-length walk over the doubled ring that detect_fast used before
    it ANDed rotations: longest run of True, capped at the ring size, against
    FAST_ARC."""
    doubled = np.concatenate([mask, mask], axis=0)
    run = np.zeros(mask.shape[1:], dtype=np.int32)
    best = np.zeros_like(run)
    for k in range(2 * len(CIRCLE)):
        run = np.where(doubled[k], run + 1, 0)
        best = np.maximum(best, run)
    return np.minimum(best, len(CIRCLE)) >= keypoints.FAST_ARC


def detect_fast_oracle(gray, threshold: float = 20.0) -> list:
    """detect_fast as it was before it scored only segment-test corners: both
    exceedance sums over every pixel, then masked to the corners."""
    img = _gray(gray)
    h, w = img.shape
    center = img[3:h - 3, 3:w - 3]
    ring = np.stack([img[3 + dy:h - 3 + dy, 3 + dx:w - 3 + dx] for dx, dy in CIRCLE])
    brighter = ring > center + threshold
    darker = ring < center - threshold
    is_corner = keypoints._has_arc(brighter) | keypoints._has_arc(darker)
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


class TestDetectFast:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(7, 40), st.integers(7, 40),
           st.sampled_from([8.0, 20.0, 12.3]), st.floats(0.0, 2.0), st.booleans())
    def test_matches_all_pixel_oracle_exactly(self, seed, h, w, threshold, blur, whole):
        # numpy sums a one-pixel (16, 1, 1) stack pairwise rather than in ring
        # order, so a 7x7 frame is compared on whole-valued pixels, whose sums
        # are exact in any order
        whole = whole or (h, w) == (7, 7)
        rng = np.random.default_rng(seed)
        img = ndimage.gaussian_filter(rng.uniform(0.0, 255.0, (h, w)), blur)
        if whole:
            img = np.round(img)
            threshold = round(threshold)
        assert detect_fast(img, threshold) == detect_fast_oracle(img, threshold)

    def test_single_corner_in_a_large_frame_matches_oracle(self):
        # one corner among many pixels: its sums must run in ring order too
        img = 20.0 + np.random.default_rng(1).uniform(0.0, 10.0, (24, 30))
        img[11, 13] = 240.6
        got = detect_fast(img, threshold=17.3)
        assert [(c.x, c.y) for c in got] == [(13, 11)]
        assert got == detect_fast_oracle(img, threshold=17.3)

    def test_arc_test_matches_run_length_oracle_on_every_ring(self):
        # bit k of a pattern is ring pixel k: all 2^16 rings side by side
        patterns = np.arange(2 ** 16)
        mask = ((patterns >> np.arange(len(CIRCLE))[:, None]) & 1).astype(bool)
        got = keypoints._has_arc(mask[:, None, :])
        assert np.array_equal(got, run_length_arc_oracle(mask[:, None, :]))
        # nine in a row, nine wrapping past pixel 15, and only eight
        assert got[0, 0b0000000111111111] and got[0, 0b1111000000011111]
        assert not got[0, 0b0000000011111111]

    def test_uniform_frame_no_corners(self):
        assert detect_fast(np.full((32, 32), 80.0)) == []

    def test_single_bright_pixel_detected(self):
        img = np.full((31, 31), 20.0)
        img[15, 15] = 240.0
        assert segment_test_oracle(img, 15, 15, 20.0)
        found = {(c.x, c.y) for c in detect_fast(img, threshold=20.0)}
        assert (15, 15) in found

    def test_straight_step_edge_not_corner(self):
        img = np.full((31, 31), 20.0)
        img[:, 16:] = 240.0
        # midpoint of a long vertical step edge: darker arc has only 8 contiguous
        for x in (15, 16):
            assert not segment_test_oracle(img, x, 15, 20.0)
        found = {(c.x, c.y) for c in detect_fast(img, threshold=20.0)}
        assert (15, 15) not in found and (16, 15) not in found

    def test_matches_oracle_on_random_images(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (24, 24)).astype(np.float64)
        corners = detect_fast(img, threshold=30.0)
        # every reported corner passes the exhaustive segment test
        for c in corners:
            assert segment_test_oracle(img, c.x, c.y, 30.0)
        # every oracle corner that is a 3x3 score maximum is reported
        oracle_hits = {(x, y)
                       for y in range(3, 21) for x in range(3, 21)
                       if segment_test_oracle(img, x, y, 30.0)}
        assert {(c.x, c.y) for c in corners} <= oracle_hits

    def test_brightness_shift_invariance(self):
        rng = np.random.default_rng(4)
        img = rng.integers(60, 180, (24, 24)).astype(np.float64)
        a = detect_fast(img, threshold=25.0)
        b = detect_fast(img + 40.0, threshold=25.0)
        assert [(c.x, c.y) for c in a] == [(c.x, c.y) for c in b]

    @pytest.mark.parametrize("threshold", [0.0, -5.0, np.nan, np.inf,
                                           True, np.bool_(True), "20", None])
    def test_bad_threshold_named(self, threshold):
        with pytest.raises(ValueError, match=rf"threshold must be .*, got {threshold!r}"):
            detect_fast(np.full((16, 16), 80.0), threshold=threshold)

    def test_non_finite_pixel_named(self):
        # a single NaN pixel gave hundreds of corners: every comparison with it is False
        img = np.random.default_rng(1).uniform(0, 255, (48, 64))
        img[20, 30] = np.nan
        with pytest.raises(ValueError, match=r"pixel \(x=30, y=20\) is not finite"):
            detect_fast(img)

    def test_small_frame_rejected(self):
        with pytest.raises(ValueError, match="smaller than 7x7"):
            detect_fast(np.zeros((6, 6)))

    def test_border_margin(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (20, 20)).astype(np.float64)
        for c in detect_fast(img, threshold=10.0):
            assert 3 <= c.x < 17 and 3 <= c.y < 17

    def test_rgb_frame_converted(self):
        rng = np.random.default_rng(5)
        frame = Frame.from_array(rng.integers(0, 256, (32, 40, 3)).astype(np.uint8))
        gray = _gray(frame)
        corners = detect_fast(frame)
        assert corners and corners == detect_fast(gray)
        assert np.array_equal(describe_patch(frame, (20, 16)), describe_patch(gray, (20, 16)))


def describe_patch_oracle(gray, p, patch: int = 16) -> np.ndarray:
    """The loop-built histogram describe_patch had before it used bincount."""
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

    cell = patch // 4
    desc = np.zeros((4, 4, 8))
    cy = np.arange(patch) // cell
    cx = np.arange(patch) // cell
    for i in range(patch):
        for j in range(patch):
            desc[cy[i], cx[j], bins[i, j]] += mag[i, j]
    v = desc.ravel()
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v
    v = v / norm
    v = np.minimum(v, 0.2)
    return v / np.linalg.norm(v)


def describe_patch_parent(gray, p, patch: int = 16) -> np.ndarray:
    """describe_patch as it was before its planes were memoised per frame,
    verbatim: the window's gradients and bins, and the pixel gate over the
    whole frame, on every call."""
    _count("patch", patch, 4, "a multiple of 4", step=4)
    x, y = _point(p)
    img = _gray(gray)
    h, w = img.shape
    half = patch // 2
    x0 = int(round(x)) - half
    y0 = int(round(y)) - half
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


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def cold_planes():
    """An empty plane memo before and after the test."""
    keypoints._frame_planes.clear()
    yield keypoints._frame_planes
    keypoints._frame_planes.clear()


@pytest.fixture(scope="module")
def corpus_views():
    """(left, right) float frames of stereo_corpus seeds 1 and 3, one frame per
    video, the frame index running through the clip."""
    views = []
    for seed in (1, 3):
        for i, video in enumerate(corpus.stereo_corpus(seed)):
            left, right, _ = media.synth_stereo(video.spec)
            t = i % corpus.FRAMES
            views.append(tuple(c.frames[t].data.astype(np.float64) for c in (left, right)))
    return views


class TestDescribePatch:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([4, 8, 12, 16, 20]),
           st.sampled_from(["noise", "flat", "ramp", "half-flat"]))
    def test_matches_loop_oracle(self, seed, patch, texture):
        rng = np.random.default_rng(seed)
        img = {"noise": lambda: rng.uniform(0, 255, (30, 34)),
               "flat": lambda: np.full((30, 34), rng.uniform(0, 255)),
               "ramp": lambda: np.add.outer(np.arange(30.0), rng.uniform(-3, 3) * np.arange(34.0)),
               "half-flat": lambda: np.where(np.arange(34) < 17, 90.0, rng.uniform(0, 255, (30, 34))),
               }[texture]()
        half = patch // 2
        p = (rng.uniform(half + 1, 34 - half - 1.5), rng.uniform(half + 1, 30 - half - 1.5))
        got = describe_patch(img, p, patch=patch)
        want = describe_patch_oracle(img, p, patch=patch)
        assert got.shape == want.shape == (128,)
        assert np.abs(got - want).max() <= 1e-12
        if texture == "flat":
            assert np.all(got == 0.0)

    @pytest.mark.parametrize("patch", [0, 2, 6, 18, 16.0, True])
    def test_patch_not_multiple_of_4_rejected(self, patch):
        with pytest.raises(ValueError, match=f"got {patch}"):
            describe_patch(np.zeros((40, 40)), (20, 20), patch=patch)

    def test_numpy_integer_patch_accepted(self):
        img = np.random.default_rng(2).uniform(0, 255, (40, 40))
        assert np.array_equal(describe_patch(img, (20, 20), patch=np.int64(8)),
                              describe_patch(img, (20, 20), patch=8))

    def test_non_finite_pixel_named(self):
        img = np.random.default_rng(3).uniform(0, 255, (40, 40))
        img[25, 18] = np.inf
        with pytest.raises(ValueError, match=r"pixel \(x=18, y=25\) is not finite: inf"):
            describe_patch(img, (20, 20))

    @pytest.mark.parametrize("p", [(20.0, 20.0, 5.0), (np.inf, 20.0), (20.0, np.nan), (20.0,),
                                   "20", 20.0, None, ("20", 20), (True, 20.0)],
                             ids=["three", "inf", "nan", "one", "text", "scalar", "none", "text_x",
                                  "bool_x"])
    def test_bad_point_named(self, p):
        img = np.random.default_rng(2).uniform(0, 255, (40, 40))
        with pytest.raises(ValueError, match=f"^point {re.escape(repr(p))} is not two finite real"):
            describe_patch(img, p)

    def test_array_row_and_numpy_scalar_points_accepted(self):
        img = np.random.default_rng(2).uniform(0, 255, (40, 40))
        want = describe_patch(img, (20, 20))
        for p in (np.array([[20.0, 20.0]])[0], (np.float32(20.0), np.int64(20)), [20, 20.2]):
            assert np.array_equal(describe_patch(img, p), want)

    def test_uniform_patch_zero_vector(self):
        img = np.full((32, 32), 90.0)
        v = describe_patch(img, (16, 16))
        assert v.shape == (128,)
        assert np.all(v == 0.0)

    def test_brightness_offset_cancels(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(40, 160, (32, 32))
        a = describe_patch(img, (16, 16))
        b = describe_patch(img + 50.0, (16, 16))
        assert np.allclose(a, b)

    def test_identical_patches_distance_zero(self):
        rng = np.random.default_rng(7)
        patch = rng.uniform(0, 255, (20, 20))
        img = np.full((40, 60), 70.0)
        img[4:24, 4:24] = patch
        img[14:34, 34:54] = patch
        a = describe_patch(img, (14, 14))
        b = describe_patch(img, (44, 24))
        assert np.linalg.norm(a - b) == 0.0

    def test_unit_norm_and_nonnegative(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 255, (32, 32))
        v = describe_patch(img, (16, 16))
        assert np.all(v >= 0.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_window_outside_frame(self):
        img = np.zeros((32, 32))
        with pytest.raises(ValueError, match="outside"):
            describe_patch(img, (4, 16))


class TestDescribePatchMemo:
    """describe_patch against its verbatim parent, and the per-frame plane memo."""

    def test_matches_parent_bitwise_on_corpus_views(self, corpus_views, cold_planes):
        # every window centre the frame allows on a 5 px grid plus the four
        # limits, at subpixel offsets; the views alternate as the tracker calls them
        h, w = corpus_views[0][0].shape
        half = 8
        xs = np.unique(np.r_[half + 1:w - half:5, w - half - 1])
        ys = np.unique(np.r_[half + 1:h - half:5, h - half - 1])
        offsets = [(0.0, 0.0), (0.49, -0.3), (-0.49, 0.49)]
        windows = 0
        for left, right in corpus_views:
            for k, (y, x) in enumerate((y, x) for y in ys for x in xs):
                dx, dy = offsets[k % 3]
                p = (x + dx, y + dy)
                for img in (left, right):
                    assert same_bytes(describe_patch(img, p), describe_patch_parent(img, p))
                    windows += 1
            for p in [(half - 0.6, 30.0), (w - half - 0.4, 30.0), (30.0, half), (30.0, h - half)]:
                for fn in (describe_patch, describe_patch_parent):
                    with pytest.raises(ValueError, match="outside frame"):
                        fn(left, p)
        assert windows > 7000

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 24), st.integers(0, 24),
           st.sampled_from([4, 8, 12, 16]), st.sampled_from(["noise", "levels", "flat"]))
    def test_matches_parent_bitwise_on_random_images(self, seed, dh, dw, patch, texture):
        rng = np.random.default_rng(seed)
        h, w = patch + 2 + dh, patch + 2 + dw  # the smallest frames fit one window
        imgs = [{"noise": lambda: rng.uniform(0, 255, (h, w)),
                 "levels": lambda: rng.integers(0, 4, (h, w)) * 60.0,
                 "flat": lambda: np.full((h, w), 90.0)}[texture]() for _ in range(3)]
        half = patch // 2
        for _ in range(12):  # three frames in turn: each call may evict a memoised one
            img = imgs[rng.integers(3)]
            p = (rng.uniform(half + 1, w - half - 1), rng.uniform(half + 1, h - half - 1))
            assert same_bytes(describe_patch(img, p, patch=patch),
                              describe_patch_parent(img, p, patch=patch))

    def test_frame_changed_in_place_gives_cold_result(self, cold_planes):
        img = np.random.default_rng(40).uniform(0, 255, (40, 48))
        before = describe_patch(img, (20, 20))
        img[18:22, 18:22] += 30.0
        after = describe_patch(img, (20, 20))
        cold_planes.clear()
        assert same_bytes(after, describe_patch(img, (20, 20)))
        assert same_bytes(after, describe_patch_parent(img, (20, 20)))
        assert not same_bytes(after, before)

    def test_alternating_views_build_each_frame_once(self, cold_planes, monkeypatch):
        # the KLT tracker's order: each step describes left points and right
        # corners region by region, so its two views alternate
        built = []
        build = cold_planes.build
        monkeypatch.setattr(cold_planes, "build", lambda img: built.append(img) or build(img))
        rng = np.random.default_rng(41)
        left = [rng.uniform(0, 255, (36, 44)) for _ in range(4)]
        right = [np.roll(im, -3, axis=1) for im in left]
        for t in range(4):
            for _ in range(3):
                for img in (left[t], right[t]):
                    for p in [(12, 12), (20.4, 17.6), (30, 22)]:
                        assert same_bytes(describe_patch(img, p), describe_patch_parent(img, p))
                    assert len(cold_planes.slots) <= cold_planes.SLOTS == 2
        assert [id(img) for img in built] == [id(im) for pair in zip(left, right) for im in pair]

    def test_planes_are_read_only(self, cold_planes):
        img = np.random.default_rng(42).uniform(0, 255, (30, 34))
        describe_patch(img, (15, 15))
        assert len(cold_planes.slots) == 1
        planes = cold_planes(img)
        assert len(cold_planes.slots) == 1
        assert [plane.shape for plane in planes] == [(28, 32), (28, 32)]
        for plane in planes:
            with pytest.raises(ValueError, match="read-only"):
                plane[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            keypoints._cells(16)[0, 0] = 1

    def test_non_finite_pixel_named_fresh_and_after_mutation(self, cold_planes):
        img = np.random.default_rng(43).uniform(0, 255, (40, 40))
        fresh = img.copy()
        fresh[3, 30] = np.nan
        with pytest.raises(ValueError, match=r"pixel \(x=30, y=3\) is not finite: nan"):
            describe_patch(fresh, (20, 20))
        describe_patch(img, (20, 20))   # memoised clean
        img[25, 18] = -np.inf
        with pytest.raises(ValueError, match=r"pixel \(x=18, y=25\) is not finite: -inf"):
            describe_patch(img, (20, 20))
        assert len(cold_planes.slots) == 1

    def test_threads_never_read_another_frames_planes(self, cold_planes):
        # three frames through two slots from four threads, switching often:
        # a slot read half-replaced would describe the wrong frame
        rng = np.random.default_rng(45)
        frames = [rng.uniform(0, 255, (30, 34)) for _ in range(3)]
        points = [(12, 12), (20.4, 17.6)]
        want = {(f, p): describe_patch_parent(frames[f], p) for f in range(3) for p in points}
        wrong, finished = [], []

        def work(seed):
            r = np.random.default_rng(seed)
            for _ in range(300):
                f, p = int(r.integers(3)), points[int(r.integers(2))]
                if not same_bytes(describe_patch(frames[f], p), want[f, p]):
                    wrong.append((f, p))
            finished.append(seed)

        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and sorted(finished) == [0, 1, 2, 3]
        assert wrong == [] and len(cold_planes.slots) <= 2

    @pytest.mark.parametrize("shape", [(32, 40), (32, 40, 3)], ids=["grey", "rgb"])
    def test_frame_input_matches_its_float_array(self, shape, cold_planes):
        frame = Frame(np.random.default_rng(44).integers(0, 256, shape).astype(np.uint8))
        gray = _gray(frame)
        for p in [(20, 16), (10.6, 9.5), (30, 22)]:
            for first, second in [(frame, gray), (gray, frame)]:
                a, b = describe_patch(first, p), describe_patch(second, p)
                assert same_bytes(a, b) and same_bytes(a, describe_patch_parent(frame, p))


class TestTrackerCallPattern:
    def test_sparse_tracker_builds_each_view_once_per_step(self, tmp_path, monkeypatch,
                                                           cold_planes):
        # a memo key that missed on every call would still give equal
        # descriptors; only the build count shows it
        video = corpus.stereo_corpus(1)[0]
        truth = corpus.render_stereo([video], tmp_path)
        events = []
        build, update = cold_planes.build, roi.update_and_subtract
        monkeypatch.setattr(cold_planes, "build", lambda img: events.append("build") or build(img))
        monkeypatch.setattr(roi, "update_and_subtract",  # called once per step
                            lambda *a: events.append("step") or update(*a))
        result = glue.track_sparse(tmp_path / video.clip_id, video.clip_id,
                                   truth[video.clip_id].F)
        per_step = [s.count("build") for s in " ".join(events).split("step")[1:]]
        assert len(per_step) == len(result.step_ms) + 1  # frame 1 and the timed steps
        assert max(per_step) <= 2 and sum(per_step) >= len(per_step)


def brute_force_pairs(a, b, ratio):
    """All-pairs distance table oracle for reciprocal ratio matching."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    d = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))
    out = []
    for i in range(len(a)):
        j = int(np.argmin(d[i]))
        if int(np.argmin(d[:, j])) != i:
            continue
        row = sorted(np.delete(d[i], j))
        col = sorted(np.delete(d[:, j], i))
        if row and not d[i, j] < ratio * row[0]:
            continue
        if col and not d[i, j] < ratio * col[0]:
            continue
        out.append((i, j))
    return out


def match_reciprocal_oracle(a, b, ratio: float = 0.8) -> list:
    """The per-row matcher match_reciprocal was before its ratio test ran on
    whole rows and columns."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    A = np.atleast_2d(np.asarray(a, dtype=np.float64)) if len(a) else np.zeros((0, 1))
    B = np.atleast_2d(np.asarray(b, dtype=np.float64)) if len(b) else np.zeros((0, 1))
    if A.shape[0] == 0 or B.shape[0] == 0:
        return []
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(np.maximum(d2, 0.0))

    nn_ab = np.argmin(d, axis=1)
    nn_ba = np.argmin(d, axis=0)

    def passes_ratio(dists, best_idx):
        if dists.size < 2:
            return True
        rest = np.delete(dists, best_idx)
        return dists[best_idx] < ratio * rest.min()

    pairs = []
    for i in range(A.shape[0]):
        j = int(nn_ab[i])
        if int(nn_ba[j]) != i:
            continue
        if not passes_ratio(d[i, :], j):
            continue
        if not passes_ratio(d[:, j], i):
            continue
        pairs.append((i, j))
    return pairs


def match_with_ratio(a, b, ratio):
    """match_reciprocal with MATCH_RATIO set to `ratio` for this one call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keypoints, "MATCH_RATIO", ratio)
        return match_reciprocal(a, b)


class TestMatchReciprocal:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40),
           st.integers(1, 6), st.sampled_from([0.5, 0.8, 1.0]), st.booleans())
    def test_matches_per_row_oracle(self, seed, na, nb, dim, ratio, coarse):
        # coarse integer descriptors tie often; copied rows and columns tie exactly
        rng = np.random.default_rng(seed)
        draw = (lambda n: rng.integers(0, 3, (n, dim)).astype(float)) if coarse else (
            lambda n: rng.uniform(0, 1, (n, dim)))
        a, b = draw(na), draw(nb)
        a[rng.integers(na, size=na // 3)] = a[rng.integers(na, size=na // 3)]
        b[rng.integers(nb, size=nb // 3)] = b[rng.integers(nb, size=nb // 3)]
        b[: min(na, nb) // 4] = a[: min(na, nb) // 4]
        got = match_with_ratio(a, b, ratio)
        assert got == match_reciprocal_oracle(a, b, ratio)
        assert all(type(i) is int and type(j) is int for i, j in got)

    def test_width_mismatch_names_b_width_and_shape(self):
        with pytest.raises(ValueError, match=r"^b must be a 2-D array of width 4, got \(2, 5\)$"):
            match_reciprocal(np.ones((3, 4)), np.ones((2, 5)))

    @pytest.mark.parametrize("a, b, named", [
        (np.ones((3, 4, 2)), np.ones((2, 4, 2)), r"a must be a 2-D array of width >= 1, "
                                                  r"got \(3, 4, 2\)$"),
        (np.ones((3, 4)), np.ones((2, 4, 2)), r"b must be a 2-D array of width 4, got \(2, 4, 2\)$"),
        ([[1.0, 2.0], [3.0]], [[1.0, 2.0]], r"a must be a 2-D array of real numbers: .*inhomogeneous"),
        ([[1.0, 2.0]], [[1.0, 2.0], [3.0]], r"b must be a 2-D array of real numbers: .*inhomogeneous"),
        (np.ones((3, 0)), np.ones((2, 0)), r"a must be a 2-D array of width >= 1, got \(3, 0\)$"),
    ], ids=["a_three_d", "b_three_d", "a_ragged", "b_ragged", "no_columns"])
    def test_bad_shape_named(self, a, b, named):
        # (3, 4, 2) against (2, 4, 2) used to raise an IndexError inside numpy
        with pytest.raises(ValueError, match=f"^{named}"):
            match_reciprocal(a, b)

    def test_non_finite_descriptor_names_side_row_and_entry(self):
        with pytest.raises(ValueError, match=r"^a descriptor 0 entry 0 is not finite: nan$"):
            match_reciprocal([[np.nan, 0.0]], [[0.0, 0.0]])
        b = np.ones((3, 4))
        b[2, 3] = np.inf
        with pytest.raises(ValueError, match=r"^b descriptor 2 entry 3 is not finite: inf$"):
            match_reciprocal(np.ones((2, 4)), b)

    def test_identity_pairing(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, (5, 8))
        assert match_reciprocal(a, a.copy()) == [(i, i) for i in range(5)]

    def test_empty_input(self):
        assert match_reciprocal([], np.ones((3, 4))) == []
        assert match_reciprocal(np.ones((3, 4)), []) == []

    def test_non_reciprocal_excluded(self):
        # a0's best in b is b0, but b0's best in a is a1
        a = np.array([[0.0, 0.0], [0.9, 0.0], [5.0, 5.0]])
        b = np.array([[1.0, 0.0], [6.0, 5.0]])
        got = match_with_ratio(a, b, 0.99)
        assert got == brute_force_pairs(a, b, 0.99)
        assert (0, 0) not in got

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_matches_brute_force_oracle(self, seed, na, nb):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (na, 4))
        b = rng.uniform(0, 1, (nb, 4))
        assert match_reciprocal(a, b) == brute_force_pairs(a, b, keypoints.MATCH_RATIO)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_swap_transposes(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (7, 5))
        b = rng.uniform(0, 1, (9, 5))
        ab = match_reciprocal(a, b)
        ba = match_reciprocal(b, a)
        assert sorted((j, i) for i, j in ab) == sorted(ba)

    def test_matched_distance_minimal_in_both_rows(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, (10, 6))
        b = rng.uniform(0, 1, (12, 6))
        d = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))
        for i, j in match_reciprocal(a, b):
            assert d[i, j] == d[i].min()
            assert d[i, j] == d[:, j].min()

    def test_singleton_skips_ratio(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.5, 0.0]])
        assert match_with_ratio(a, b, 0.5) == [(0, 0)]

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["one_row", "ragged", "default"])
    def test_row_blocks_match_oracle(self, rows):
        # a block of one row of a, of three, and of all 23 against 17 rows of b;
        # coarse values and copied rows tie exactly
        rng = np.random.default_rng(23)
        a, b = rng.integers(0, 3, (23, 8)).astype(float), rng.integers(0, 3, (17, 8)).astype(float)
        b[:5] = a[:5]
        a = a[:rows]
        assert match_reciprocal(a, b) == match_reciprocal_oracle(a, b, keypoints.MATCH_RATIO)

    def test_difference_array_memory_is_capped(self):
        # the whole (200, 200, 128) float64 difference array would be 39 MiB
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (200, 128))
        b = np.vstack([a[:100] + rng.normal(0, 0.01, (100, 128)), rng.uniform(0, 1, (100, 128))])
        tracemalloc.start()
        try:
            got = match_reciprocal(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20
        assert got == match_reciprocal_oracle(a, b, keypoints.MATCH_RATIO)
        assert len(got) >= 90
