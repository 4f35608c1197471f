"""The names and keywords of the program that the benchmark calls.

The benchmark under ``bench/`` is kept fixed, so a renamed function, a
dropped keyword or a dropped field in ``src/`` would otherwise fail only the
benchmark run.  Its ground-truth checks read ``SceneSpec.toein``, ``focal``,
``baseline`` and ``objects`` and ``GroundTruth.left_uv``; its glue reads
``GroundTruth.F``.
"""

import numpy as np
import pytest

from bench import checks, corpus, glue


@pytest.mark.parametrize("kind, track", [("sparse", glue.track_sparse),
                                         ("dense", glue.track_dense)],
                         ids=["sparse", "dense"])
def test_tracker_runs_on_a_rendered_clip(kind, track, tmp_path):
    video = corpus.stereo_corpus(1)[0]
    truth = corpus.render_stereo([video], tmp_path)
    gt = truth[video.clip_id]
    result = track(tmp_path / video.clip_id, video.clip_id, gt.F)
    # order-2 (x, y, d) descriptors of 9-point tracks: 3 * (2 * 9 - 3) = 45 values
    assert len(result.trajectories) >= 1
    assert result.descriptors.shape == (len(result.trajectories), 45)
    assert np.isfinite(result.descriptors).all()
    checks.check_tracks(result.trajectories, result.starts, gt.left_uv, corpus.SPRITE)
    checks.check_stereo_pairs(result.pairs, video.spec, gt.left_uv, corpus.SPRITE,
                              checks.DISPARITY_TOL_PX[kind])


@pytest.mark.parametrize("track", [glue.track_sparse, glue.track_dense], ids=["sparse", "dense"])
def test_tracker_carries_no_state_across_clips(track, tmp_path):
    # Lucas-Kanade pyramids, descriptor planes and Farneback expansions are
    # memoised across calls; running clip B between two runs of clip A must
    # leave A's result unchanged
    a, b = corpus.stereo_corpus(1)[:2]
    truth = corpus.render_stereo([a, b], tmp_path)
    runs = [track(tmp_path / v.clip_id, v.clip_id, truth[v.clip_id].F) for v in (a, b, a)]
    first, _, again = runs
    for name in ("descriptors", "trajectories", "starts", "pairs"):
        assert np.array_equal(getattr(first, name), getattr(again, name)), name
    assert first.candidates == again.candidates
    assert len(first.trajectories) >= 1
