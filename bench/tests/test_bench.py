import numpy as np
import pytest

from bench import corpus, trace, workloads
from trailblaze import classify, encoding, shape


def loao_accuracy(videos, n):
    samples = [classify.VideoSample(v.clip_id, v.label, v.actor,
                                    np.array([shape.describe(p[:, :n], 2).values for p in v.points]))
               for v in videos]
    cm = classify.leave_one_actor_out(samples, k=4, C=1.0, epochs=20, seed=0,
                                      max_iters=10)
    return classify.accuracy(cm)


def test_disparity_beats_2d_on_dz_only_classes():
    # the two classes share their 2-D path distribution and differ only in dz
    videos = [v for v in corpus.trajectory_corpus(5)
              if v.label.startswith("line-") and v.actor != "b4"]
    with_d, without_d = loao_accuracy(videos, 3), loao_accuracy(videos, 2)
    assert with_d > without_d
    assert with_d >= 0.9


class TestPercentile:
    def test_p90_needs_100_samples(self):
        assert workloads.percentile(np.arange(100.0), 90) == pytest.approx(89.1)
        with pytest.raises(ValueError, match="fewer than 10"):
            workloads.percentile(np.arange(99.0), 90)

    def test_median_needs_20_samples(self):
        assert workloads.percentile(np.arange(20.0), 50) == 9.5
        with pytest.raises(ValueError):
            workloads.percentile(np.arange(19.0), 50)


class TestRecorder:
    def test_wraps_rebound_names_and_restores_them(self):
        original = (encoding.fit_gmm, classify.fit_gmm, classify.fisher_vector)
        rec = trace.Recorder()
        rec.install()
        try:
            assert encoding.fit_gmm is not original[0]
            assert classify.fit_gmm is not original[1]
            X = np.random.default_rng(0).normal(size=(40, 2))
            rec.video = "v1"
            with rec.span("bench.glue.video"):
                classify.fisher_vector(X, classify.fit_gmm(X, k=2, seed=0, max_iters=3))
        finally:
            rec.uninstall()
        assert (encoding.fit_gmm, classify.fit_gmm, classify.fisher_vector) == original
        names = [s[0] for s in rec.spans]
        assert names[:3] == ["bench.glue.video", "encoding.fit_gmm", "encoding.fisher_vector"]
        assert all(s[3] == 0 and s[4] == "v1" for s in rec.spans[1:3])
        assert rec.counts["encoding.fit_gmm"]["points"] == 40
        assert rec.peaks["encoding.fit_gmm"] > 0
        calls = rec.calls()
        glue_self = calls["bench.glue.video"][2]
        children = calls["encoding.fit_gmm"][1] + calls["encoding.fisher_vector"][1]
        assert glue_self == pytest.approx(calls["bench.glue.video"][1] - children)
