import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailblaze.roi import BackgroundModel, Roi, extract_regions, update_and_subtract


def run_model(frames):
    model = BackgroundModel.initialize(frames[0])
    mask = None
    for f in frames:
        model, mask = update_and_subtract(model, f)
    return model, mask


class TestBackgroundModel:
    def test_constant_clip_converges_to_empty_mask(self):
        frame = np.full((20, 30), 90.0)
        _, mask = run_model([frame] * 20)
        assert not mask.any()

    def test_jumping_pixel_flagged(self):
        frame = np.full((20, 30), 10.0)
        model, _ = run_model([frame] * 20)
        hot = frame.copy()
        hot[5, 7] = 255.0
        _, mask = update_and_subtract(model, hot)
        assert mask[5, 7]
        assert mask.sum() == 1

    def test_within_band_is_background(self):
        frame = np.full((10, 10), 100.0)
        model, _ = run_model([frame] * 20)
        sigma = np.sqrt(model.variances[0, 0, 0])
        near = frame + 2.0 * sigma  # inside 2.5 sigma of dominant component
        _, mask = update_and_subtract(model, near)
        assert not mask.any()

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        frames = [rng.uniform(0, 255, (12, 12)) for _ in range(8)]
        model, _ = run_model(frames)
        assert np.allclose(model.weights.sum(axis=0), 1.0, atol=1e-6)
        assert np.all(model.variances > 0)

    def test_dimension_mismatch(self):
        model = BackgroundModel.initialize(np.zeros((10, 10)))
        with pytest.raises(ValueError, match="match"):
            update_and_subtract(model, np.zeros((5, 5)))


def union_find_oracle(boxes, proximity):
    """Independent transitive closure over the pairwise overlap/proximity relation."""
    n = len(boxes)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, b = boxes[i], boxes[j]
            gx = max(max(a[0], b[0]) - min(a[0] + a[2], b[0] + b[2]), 0)
            gy = max(max(a[1], b[1]) - min(a[1] + a[3], b[1] + b[3]), 0)
            overlap = (a[0] < b[0] + b[2] and b[0] < a[0] + a[2]
                       and a[1] < b[1] + b[3] and b[1] < a[1] + a[3])
            adj[i][j] = overlap or max(gx, gy) <= proximity
    groups = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], set()
        while stack:
            k = stack.pop()
            if k in comp:
                continue
            comp.add(k)
            stack.extend(j for j in range(n) if adj[k][j] and j not in comp)
        seen |= comp
        xs0 = min(boxes[k][0] for k in comp)
        ys0 = min(boxes[k][1] for k in comp)
        xs1 = max(boxes[k][0] + boxes[k][2] for k in comp)
        ys1 = max(boxes[k][1] + boxes[k][3] for k in comp)
        groups.append((xs0, ys0, xs1 - xs0, ys1 - ys0))
    return sorted(groups)


def put_blob(mask, x, y, w, h):
    mask[y:y + h, x:x + w] = True


class TestExtractRegions:
    def test_empty_mask(self):
        assert extract_regions(np.zeros((10, 10), dtype=bool), 5) == []

    def test_overlapping_union(self):
        mask = np.zeros((30, 30), dtype=bool)
        put_blob(mask, 0, 0, 10, 10)
        put_blob(mask, 5, 5, 10, 10)
        assert extract_regions(mask, 0) == [Roi(0, 0, 15, 15)]

    def test_chain_merges_transitively(self):
        # A near B, B near C, A far from C -> single covering box
        mask = np.zeros((20, 60), dtype=bool)
        put_blob(mask, 0, 0, 8, 8)    # A
        put_blob(mask, 12, 0, 8, 8)   # B: gap 4 from A
        put_blob(mask, 24, 0, 8, 8)   # C: gap 4 from B, gap 16 from A
        boxes = [(0, 0, 8, 8), (12, 0, 8, 8), (24, 0, 8, 8)]
        expected = union_find_oracle(boxes, 5)
        assert expected == [(0, 0, 32, 8)]
        got = extract_regions(mask, 5)
        assert [(r.x, r.y, r.w, r.h) for r in got] == expected

    def test_far_blobs_stay_separate(self):
        mask = np.zeros((40, 40), dtype=bool)
        put_blob(mask, 0, 0, 5, 5)
        put_blob(mask, 30, 30, 5, 5)
        got = extract_regions(mask, 3)
        assert len(got) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6))
    def test_matches_union_find_oracle(self, seed, proximity):
        rng = np.random.default_rng(seed)
        mask = np.zeros((40, 50), dtype=bool)
        boxes = []
        for _ in range(rng.integers(1, 6)):
            w, h = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            x, y = int(rng.integers(0, 50 - w)), int(rng.integers(0, 40 - h))
            put_blob(mask, x, y, w, h)
        # oracle needs the actual connected-component boxes (solid blobs may fuse)
        from scipy import ndimage
        labels, n = ndimage.label(mask, structure=np.ones((3, 3), bool))
        for sl in ndimage.find_objects(labels):
            boxes.append((sl[1].start, sl[0].start,
                          sl[1].stop - sl[1].start, sl[0].stop - sl[0].start))
        expected = union_find_oracle(boxes, proximity)
        # fixpoint of overlap merging, as documented
        while True:
            again = union_find_oracle(expected, -1)
            if again == expected:
                break
            expected = again
        got = [(r.x, r.y, r.w, r.h) for r in extract_regions(mask, proximity)]
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_partition_invariant(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.uniform(0, 1, (30, 30)) < 0.08
        rois = extract_regions(mask, 4)
        ys, xs = np.nonzero(mask)
        for x, y in zip(xs, ys):
            containing = [r for r in rois if r.x <= x < r.x + r.w and r.y <= y < r.y + r.h]
            assert len(containing) == 1
        for r in rois:
            assert mask[r.y:r.y + r.h, r.x:r.x + r.w].any()
