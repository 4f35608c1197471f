import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench import corpus
from trailblaze import roi
from trailblaze.media import _gray, synth_stereo
from trailblaze.roi import (
    ALPHA, BG_RATIO, INIT_VARIANCE, MATCH_K, MIN_VARIANCE, NEW_WEIGHT, BackgroundModel, Roi,
    extract_regions, update_and_subtract,
)


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

    def test_frame_without_rows_named(self):
        with pytest.raises(ValueError, match=r"^image sides must be >= 1, got shape \(0, 5\)$"):
            BackgroundModel.initialize(np.zeros((0, 5)))
        model = BackgroundModel.initialize(np.zeros((10, 10)))
        with pytest.raises(ValueError, match=r"^image sides must be >= 1, got shape \(0, 10\)$"):
            update_and_subtract(model, np.zeros((0, 10)))

    def test_non_finite_pixel_named(self):
        model = BackgroundModel.initialize(np.zeros((10, 10)))
        frame = np.zeros((10, 10))
        frame[3, 6] = np.nan
        with pytest.raises(ValueError, match=r"pixel \(x=6, y=3\)"):
            update_and_subtract(model, frame)
        with pytest.raises(ValueError, match=r"pixel \(x=6, y=3\)"):
            BackgroundModel.initialize(frame)

    @pytest.mark.parametrize("field, value, named", [
        ("means", np.zeros((3, 20, 29)),
         r"^means has shape \(3, 20, 29\), but weights have \(3, 20, 30\)$"),
        ("variances", np.nan, r"^variances entry \(component 2, x=7, y=5\) is not finite: nan$"),
        ("weights", np.ones((20, 30)),
         r"^weights must be a \(K, h, w\) array with sides >= 1, got shape \(20, 30\)$"),
        ("weights", np.ones((0, 20, 30)),
         r"^weights must be a \(K, h, w\) array with sides >= 1, got shape \(0, 20, 30\)$"),
        ("means", np.full((3, 20, 30), -np.inf),
         r"^means entry \(component 0, x=0, y=0\) is not finite: -inf$"),
        ("weights", -0.5,
         r"^weights entry \(component 2, x=7, y=5\) must be >= 0, got -0.5$"),
        ("variances", 0.0, r"^variances entry \(component 2, x=7, y=5\) must be > 0, got 0.0$"),
        ("means", np.zeros((3, 20, 30)) + 1j,
         r"^means must be a \(K, h, w\) array of real numbers, got dtype complex128$"),
    ], ids=["two_shapes", "nan_variance", "2d", "no_component", "inf_mean", "negative_weight",
            "zero_variance", "complex_means"])
    def test_bad_field_named(self, field, value, named):
        # two shapes used to fail in update_and_subtract with numpy's broadcast
        # error, NaN variances made every pixel foreground, and 2-D arrays were
        # named only as a frame that does not match the model
        model = BackgroundModel.initialize(np.zeros((20, 30)))
        arrays = {name: getattr(model, name) for name in ("weights", "means", "variances")}
        if np.ndim(value) == 0:  # one bad entry, at component 2, x=7, y=5
            arrays[field] = arrays[field].copy()
            arrays[field][2, 5, 7] = value
        else:
            arrays[field] = value
        with pytest.raises(ValueError, match=named):
            BackgroundModel(**arrays)

    def test_fields_stored_as_float_arrays(self):
        model = BackgroundModel.initialize(np.zeros((2, 3)))
        got = BackgroundModel(model.weights.tolist(), model.means.astype(np.float32),
                              model.variances.astype(np.int64))
        for name in ("weights", "means", "variances"):
            assert same_bits(getattr(got, name), getattr(model, name)), name


def update_and_subtract_oracle(model: BackgroundModel, frame) -> tuple:
    """update_and_subtract with a rank inversion and put_along_axis picks: a
    match is background when the sum of the weights ranked ahead of it in a
    stable descending sort is below BG_RATIO."""
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
    # the sum of the weights ranked ahead of each sorted position: 0, s0, s0 + s1, ...
    ahead_sorted = np.concatenate([np.zeros_like(sorted_w[:1]), np.cumsum(sorted_w[:-1], axis=0)])
    in_prefix_sorted = ahead_sorted < BG_RATIO
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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBackgroundModelOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 10), st.booleans())
    def test_matches_rank_oracle_bitwise(self, seed, h, w, steps, tied_start):
        rng = np.random.default_rng(seed)
        levels = np.array([0.0, 40.0, 100.0, 101.0, 200.0, 255.0])

        def frame():
            # few levels, so pixels match, miss and tie; sometimes a little noise
            img = rng.choice(levels, (h, w))
            return img + rng.normal(0.0, 3.0, (h, w)) if rng.random() < 0.3 else img

        if tied_start:
            # weights from a small set, so components tie in weight (as [1, 0, 0] does)
            k = roi.COMPONENTS
            model = BackgroundModel(rng.choice([0.0, 0.25, 0.5, 1.0], (k, h, w)),
                                    rng.choice(levels, (k, h, w)),
                                    rng.choice([4.0, 25.0, 225.0], (k, h, w)))
        else:
            model = BackgroundModel.initialize(frame())
        want = model
        for _ in range(steps):
            f = frame()
            model, mask = update_and_subtract(model, f)
            want, want_mask = update_and_subtract_oracle(want, f)
            assert same_bits(mask, want_mask)
            for name in ("weights", "means", "variances"):
                assert same_bits(getattr(model, name), getattr(want, name)), name

    def test_initial_tie_is_broken_the_same_way(self):
        # initialize gives weights [1, 0, 0]: a miss replaces component 1, the
        # first of the two lowest
        model = BackgroundModel.initialize(np.zeros((2, 3)))
        got, mask = update_and_subtract(model, np.full((2, 3), 200.0))
        want, want_mask = update_and_subtract_oracle(model, np.full((2, 3), 200.0))
        assert mask.all() and same_bits(mask, want_mask)
        assert (got.means[1] == 200.0).all() and (got.means[2] == 0.0).all()
        for name in ("weights", "means", "variances"):
            assert same_bits(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("view", [0, 1], ids=["left", "right"])
    def test_stereo_corpus_frames_bitwise(self, view):
        # every frame of every rendered video of the stereo benchmark's corpus
        for video in corpus.stereo_corpus(3):
            frames = synth_stereo(video.spec, clip_id=video.clip_id)[view].frames
            model = want = BackgroundModel.initialize(frames[0])
            for f in frames:
                model, mask = update_and_subtract(model, f)
                want, want_mask = update_and_subtract_oracle(want, f)
                assert same_bits(mask, want_mask), video.clip_id
                for name in ("weights", "means", "variances"):
                    assert same_bits(getattr(model, name), getattr(want, name)), name

    def test_weight_ranked_ahead_just_below_ratio_is_background(self):
        # only w0 = 0.6999999999999998 < 0.7 ranks ahead of the matched
        # component 1; the cumulative sum minus itself, (w0 + w1) - w1, gives 0.7
        weights = np.array([0.6999999999999998, 0.2863771481072213, 0.013622851892778842])
        model = BackgroundModel(weights[:, None, None].copy(),
                                np.array([0.0, 100.0, 200.0])[:, None, None],
                                np.full((3, 1, 1), 4.0))
        _, mask = update_and_subtract(model, np.full((1, 1), 100.0))
        assert not mask.any()


class TestRoi:
    @pytest.mark.parametrize("args, named", [
        ((1.5, 0, 1, 2), "^Roi x must be an integer >= 0, got 1.5$"),
        ((0, -1, 1, 2), "^Roi y must be an integer >= 0, got -1$"),
        ((0, 0, True, 2), "^Roi w must be an integer >= 1, got True$"),
        ((0, 0, 0, 2), "^Roi w must be an integer >= 1, got 0$"),
        ((0, 0, 2, 2.0), r"^Roi h must be an integer >= 1, got 2\.0$"),
    ], ids=["float_x", "negative_y", "bool_w", "zero_w", "float_h"])
    def test_bad_field_named(self, args, named):
        # floats and bools used to construct, and a size error named no field
        with pytest.raises(ValueError, match=named):
            Roi(*args)

    def test_numpy_integers_accepted(self):
        assert Roi(np.int64(1), np.int32(0), np.int64(2), 3) == Roi(1, 0, 2, 3)


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


def merge_by_squaring_oracle(boxes, reach):
    """The closure by repeated boolean squaring that `roi._merge` replaced."""
    lo = boxes[:, :2]
    hi = lo + boxes[:, 2:]
    gap = (np.maximum(lo[:, None], lo) - np.minimum(hi[:, None], hi)).max(axis=2)
    linked = gap <= reach  # reflexive: a box's gap to itself is -min(w, h)
    while not np.array_equal(wider := linked @ linked, linked):
        linked = wider
    first = linked.argmax(axis=1) == np.arange(len(boxes))
    group = linked[first, :, None]
    x0y0 = np.where(group, lo, lo.max()).min(axis=1)
    x1y1 = np.where(group, hi, hi.min()).max(axis=1)
    return np.hstack([x0y0, x1y1 - x0y0])


def put_blob(mask, x, y, w, h):
    mask[y:y + h, x:x + w] = True


def regions_within(mask, proximity):
    """extract_regions with PROXIMITY set to `proximity` for this one call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roi, "PROXIMITY", proximity)
        return extract_regions(mask)


class TestExtractRegions:
    def test_empty_mask(self):
        assert extract_regions(np.zeros((10, 10), dtype=bool)) == []

    def test_overlapping_union(self):
        mask = np.zeros((30, 30), dtype=bool)
        put_blob(mask, 0, 0, 10, 10)
        put_blob(mask, 5, 5, 10, 10)
        assert regions_within(mask, 0) == [Roi(0, 0, 15, 15)]

    def test_chain_merges_transitively(self):
        # A near B, B near C, A far from C -> single covering box
        mask = np.zeros((20, 60), dtype=bool)
        put_blob(mask, 0, 0, 8, 8)    # A
        put_blob(mask, 12, 0, 8, 8)   # B: gap 4 from A
        put_blob(mask, 24, 0, 8, 8)   # C: gap 4 from B, gap 16 from A
        boxes = [(0, 0, 8, 8), (12, 0, 8, 8), (24, 0, 8, 8)]
        expected = union_find_oracle(boxes, 5)
        assert expected == [(0, 0, 32, 8)]
        got = regions_within(mask, 5)
        assert [(r.x, r.y, r.w, r.h) for r in got] == expected

    def test_far_blobs_stay_separate(self):
        mask = np.zeros((40, 40), dtype=bool)
        put_blob(mask, 0, 0, 5, 5)
        put_blob(mask, 30, 30, 5, 5)
        got = regions_within(mask, 3)
        assert len(got) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6))
    def test_matches_union_find_oracle(self, seed, proximity):
        # up to 40 blobs: long chains need several rounds of label propagation
        rng = np.random.default_rng(seed)
        mask = np.zeros((40, 50), dtype=bool)
        boxes = []
        for _ in range(rng.integers(1, 41)):
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
        got = [(r.x, r.y, r.w, r.h) for r in regions_within(mask, proximity)]
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_partition_invariant(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.uniform(0, 1, (30, 30)) < 0.08
        rois = regions_within(mask, 4)
        ys, xs = np.nonzero(mask)
        for x, y in zip(xs, ys):
            containing = [r for r in rois if r.x <= x < r.x + r.w and r.y <= y < r.y + r.h]
            assert len(containing) == 1
        for r in rois:
            assert mask[r.y:r.y + r.h, r.x:r.x + r.w].any()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(-1, 12))
    def test_merge_matches_squaring_oracle(self, seed, n, reach):
        rng = np.random.default_rng(seed)
        side = int(rng.integers(20, 400))
        sizes = rng.integers(1, 16, (n, 2))
        boxes = np.hstack([rng.integers(0, side, (n, 2)), sizes])
        got = roi._merge(boxes, reach)
        want = merge_by_squaring_oracle(boxes, reach)
        assert got.tolist() == want.tolist()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    def test_regions_match_squaring_oracle(self, seed, density):
        mask = np.random.default_rng(seed).uniform(0, 1, (72, 96)) < density
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roi, "_merge", merge_by_squaring_oracle)
            want = extract_regions(mask)
        assert extract_regions(mask) == want

    @pytest.mark.parametrize("mask, shape", [
        (np.zeros(5, dtype=bool), r"\(5,\)"), (np.zeros((4, 5, 2)), r"\(4, 5, 2\)"),
        (np.float64(1.0), r"\(\)"),
    ], ids=["one_d", "three_d", "scalar"])
    def test_mask_not_2d_named(self, mask, shape):
        with pytest.raises(ValueError, match=f"^mask must be a 2-D array of width >= 1, got {shape}$"):
            extract_regions(mask)

    def test_non_finite_mask_pixel_named(self):
        mask = np.zeros((2, 3))
        mask[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"^mask pixel \(x=2, y=1\) is not finite: nan$"):
            extract_regions(mask)

    def test_any_nonzero_pixel_is_foreground(self):
        mask = np.array([[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5]])
        assert regions_within(mask, 0) == [Roi(1, 0, 1, 1), Roi(3, 1, 1, 1)]
