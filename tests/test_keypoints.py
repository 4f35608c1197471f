import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailblaze.keypoints import CIRCLE, describe_patch, detect_fast, match_reciprocal
from trailblaze.media import Frame, _gray, to_grayscale


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


class TestDetectFast:
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
        gray = to_grayscale(frame).data
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

    @pytest.mark.parametrize("patch", [0, 2, 6, 18])
    def test_patch_not_multiple_of_4_rejected(self, patch):
        with pytest.raises(ValueError, match=f"got {patch}"):
            describe_patch(np.zeros((40, 40)), (20, 20), patch=patch)

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
        got = match_reciprocal(a, b, ratio)
        assert got == match_reciprocal_oracle(a, b, ratio)
        assert all(type(i) is int and type(j) is int for i, j in got)

    def test_width_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(3, 4\).*\(2, 5\)"):
            match_reciprocal(np.ones((3, 4)), np.ones((2, 5)))

    def test_identity_pairing(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, (5, 8))
        assert match_reciprocal(a, a.copy(), 0.8) == [(i, i) for i in range(5)]

    def test_empty_input(self):
        assert match_reciprocal([], np.ones((3, 4)), 0.8) == []
        assert match_reciprocal(np.ones((3, 4)), [], 0.8) == []

    def test_non_reciprocal_excluded(self):
        # a0's best in b is b0, but b0's best in a is a1
        a = np.array([[0.0, 0.0], [0.9, 0.0], [5.0, 5.0]])
        b = np.array([[1.0, 0.0], [6.0, 5.0]])
        got = match_reciprocal(a, b, ratio=0.99)
        assert got == brute_force_pairs(a, b, 0.99)
        assert (0, 0) not in got

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_matches_brute_force_oracle(self, seed, na, nb):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (na, 4))
        b = rng.uniform(0, 1, (nb, 4))
        assert match_reciprocal(a, b, 0.8) == brute_force_pairs(a, b, 0.8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_swap_transposes(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, (7, 5))
        b = rng.uniform(0, 1, (9, 5))
        ab = match_reciprocal(a, b, 0.8)
        ba = match_reciprocal(b, a, 0.8)
        assert sorted((j, i) for i, j in ab) == sorted(ba)

    def test_matched_distance_minimal_in_both_rows(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, (10, 6))
        b = rng.uniform(0, 1, (12, 6))
        d = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))
        for i, j in match_reciprocal(a, b, 0.8):
            assert d[i, j] == d[i].min()
            assert d[i, j] == d[:, j].min()

    def test_singleton_skips_ratio(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.5, 0.0]])
        assert match_reciprocal(a, b, 0.5) == [(0, 0)]
