"""The names and keywords of the program that the benchmark's glue calls.

The benchmark under ``bench/`` is kept fixed, so a renamed function or a
dropped keyword in ``src/`` would otherwise fail only the benchmark run.
"""

import numpy as np
import pytest

from bench import corpus, glue


@pytest.mark.parametrize("track", [glue.track_sparse, glue.track_dense],
                         ids=["sparse", "dense"])
def test_tracker_runs_on_a_rendered_clip(track, tmp_path):
    video = corpus.stereo_corpus(1)[0]
    truth = corpus.render_stereo([video], tmp_path)
    result = track(tmp_path / video.clip_id, video.clip_id, truth[video.clip_id].F)
    # order-2 (x, y, d) descriptors of 9-point tracks: 3 * (2 * 9 - 3) = 45 values
    assert len(result.trajectories) >= 1
    assert result.descriptors.shape == (len(result.trajectories), 45)
    assert np.isfinite(result.descriptors).all()
