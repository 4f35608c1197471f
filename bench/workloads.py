"""The benchmark's workloads: set-up, timed phase and checks.

Each workload is a closed loop in one thread: the next video is sent only
after the last one is done.  The timed phase runs until ``seconds`` have
passed and at least one whole pass over the corpus is done, because the
LOAO evaluation at its end needs every video.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from trailblaze import classify, encoding, shape

from bench import checks, corpus, glue

SETUP_REPEATS = 5
MIN_BEYOND = 10           # samples a reported percentile must leave above it

# LOAO after tracking
STEREO_K, STEREO_EM_ITERS, STEREO_EPOCHS, STEREO_C = 2, 20, 50, 1.0
# loao_encode: the EM cap keeps a round short; the pool keeps (T, K, N) large
ENCODE_K, ENCODE_EM_ITERS, ENCODE_EPOCHS, ENCODE_C = 16, 4, 20, 0.01
ENCODE_ORDER = 2
LOGLIK_CHECK_POINTS = 1000


def percentile(samples, q: float) -> float:
    """The q-th percentile, refused unless at least MIN_BEYOND samples lie above it."""
    n = len(samples)
    if n * (100.0 - q) / 100.0 < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples leaves fewer than {MIN_BEYOND} above it")
    return float(np.percentile(samples, q))


@dataclass
class Outcome:
    """What a timed phase measured; ``checks`` run on ``payload`` afterwards."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    step_ms: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    @property
    def videos_per_s(self) -> float:
        return (self.attempted - self.failed) / self.seconds


def timed_setup(build):
    """Run ``build`` SETUP_REPEATS times; returns (outputs, median seconds).

    The caller checks that the builds agree, since the same seed has to give
    the same inputs.
    """
    times, outputs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        outputs.append(build())
        times.append(time.perf_counter() - t0)
    return outputs, statistics.median(times)


# ---------------------------------------------------------------------------
# sparse_stereo and dense_stereo


class StereoWorkload:
    def __init__(self, dense: bool, seed: int, work_dir):
        self.dense = dense
        self.seed = seed
        self.clip_dir = work_dir / "clips"
        self.track = glue.track_dense if dense else glue.track_sparse

    def build(self):
        videos = corpus.stereo_corpus(self.seed)
        return videos, corpus.render_stereo(videos, self.clip_dir)

    def setup(self):
        builds, setup_s = timed_setup(self.build)
        self.videos, self.truth = builds[-1]
        for _, truth in builds[:-1]:
            for clip_id, gt in truth.items():
                if not np.array_equal(gt.left_uv, self.truth[clip_id].left_uv):
                    raise checks.CheckFailed(f"{clip_id}: corpus differs between builds")
        return setup_s

    def warm_up(self):
        v = self.videos[0]
        self.track(self.clip_dir / v.clip_id, v.clip_id, self.truth[v.clip_id].F)

    def timed(self, seconds, rec, out: Outcome) -> None:
        results = {}
        t0 = time.perf_counter()
        i = 0
        while i < len(self.videos) or time.perf_counter() - t0 < seconds:
            v = self.videos[i % len(self.videos)]
            i += 1
            out.attempted += 1
            rec.video = v.clip_id
            try:
                with rec.span("bench.glue.video"):
                    r = self.track(self.clip_dir / v.clip_id, v.clip_id, self.truth[v.clip_id].F)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.failed += 1
                continue
            out.step_ms += r.step_ms
            rec.count(glue.__name__, "pairs", len(r.pairs))
            rec.count(glue.__name__, "candidates", r.candidates)
            first = results.setdefault(v.clip_id, r)
            if first is not r and not np.array_equal(first.descriptors, r.descriptors):
                raise checks.CheckFailed(f"{v.clip_id}: descriptors differ between passes")
        done = [v for v in self.videos if v.clip_id in results]
        samples = [classify.VideoSample(v.clip_id, v.label, v.actor, results[v.clip_id].descriptors)
                   for v in done]
        rec.video = "loao"
        cm = classify.leave_one_actor_out(samples, k=STEREO_K, C=STEREO_C, epochs=STEREO_EPOCHS,
                                          seed=self.seed, max_iters=STEREO_EM_ITERS)
        out.seconds = time.perf_counter() - t0
        out.payload = {"videos": done, "results": results, "cm": cm}

    def check(self, out: Outcome) -> dict:
        results = out.payload["results"]
        dim = checks.descriptor_dim(glue.TRACK_LENGTH, glue.SHAPE_ORDER)
        kind = "dense" if self.dense else "sparse"
        tol = checks.DISPARITY_TOL_PX[kind]
        ratios = []
        for v in out.payload["videos"]:
            r = results[v.clip_id]
            if len(r.trajectories) == 0:
                raise checks.CheckFailed(f"{v.clip_id}: no trajectory survived")
            if r.descriptors.shape != (len(r.trajectories), dim):
                raise checks.CheckFailed(f"{v.clip_id}: descriptors {r.descriptors.shape}")
            gt = self.truth[v.clip_id]
            checks.check_tracks(r.trajectories, r.starts, gt.left_uv, corpus.SPRITE)
            ratios.append(checks.check_stereo_pairs(r.pairs, v.spec, gt.left_uv, corpus.SPRITE, tol))
        checks.check_disparity_bias(ratios)
        share = checks.check_accepted_share(
            sum(len(results[v.clip_id].pairs) for v in out.payload["videos"]),
            sum(results[v.clip_id].candidates for v in out.payload["videos"]),
            checks.ACCEPTED_SHARE_MIN[kind])
        return {"accuracy": checks.check_confusion(out.payload["cm"], out.payload["videos"]),
                "accepted_share": share}


# ---------------------------------------------------------------------------
# loao_encode


class EncodeWorkload:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        builds, setup_s = timed_setup(lambda: corpus.trajectory_corpus(self.seed))
        self.videos = builds[-1]
        for other in builds[:-1]:
            for a, b in zip(other, self.videos):
                if not np.array_equal(a.points, b.points):
                    raise checks.CheckFailed(f"{a.clip_id}: corpus differs between builds")
        return setup_s

    @staticmethod
    def describe(points):
        return np.array([shape.describe(p, ENCODE_ORDER).values for p in points])

    def warm_up(self):
        desc = self.describe(self.videos[0].points)
        cb = encoding.fit_gmm(desc, k=2, seed=self.seed, max_iters=2)
        encoding.fisher_vector(desc, cb)

    def _round(self, rec, out):
        # phase 1: descriptors, then leave-one-actor-out
        rec.video = "describe"
        samples = [classify.VideoSample(v.clip_id, v.label, v.actor, self.describe(v.points))
                   for v in self.videos]
        rec.video = "loao"
        cm = classify.leave_one_actor_out(samples, k=ENCODE_K, C=ENCODE_C, epochs=ENCODE_EPOCHS,
                                          seed=self.seed, max_iters=ENCODE_EM_ITERS)
        # phase 2: one codebook and one SVM on the whole corpus, then one query per video
        rec.video = "fit"
        pool = np.vstack([s.descriptors for s in samples])
        cb = encoding.fit_gmm(pool, k=ENCODE_K, seed=self.seed, max_iters=ENCODE_EM_ITERS)
        model = classify.train(
            [classify.LabeledVideo(encoding.fisher_vector(s.descriptors, cb), s.label, s.actor)
             for s in samples], C=ENCODE_C, epochs=ENCODE_EPOCHS, seed=self.seed)
        fvs, predicted = [], []
        for s in samples:
            rec.video = s.clip_id
            t0 = time.perf_counter()
            fv = encoding.fisher_vector(s.descriptors, cb)
            predicted.append(classify.predict(model, fv))
            out.step_ms.append((time.perf_counter() - t0) * 1e3)
            fvs.append(fv)
        out.attempted += len(samples)
        return {"cm": cm, "pool": pool, "codebook": cb, "fvs": np.array(fvs),
                "predicted": predicted}

    def timed(self, seconds, rec, out: Outcome) -> None:
        t0 = time.perf_counter()
        first = None
        while first is None or time.perf_counter() - t0 < seconds:
            got = self._round(rec, out)
            if first is None:
                first = got
            elif got["predicted"] != first["predicted"] or not np.array_equal(
                    got["cm"].counts, first["cm"].counts):
                raise checks.CheckFailed("a repeated round classified differently")
        out.seconds = time.perf_counter() - t0
        out.payload = first

    def check(self, out: Outcome) -> dict:
        p = out.payload
        checks.check_fisher_vectors(
            p["fvs"], checks.descriptor_dim(corpus.TRAJ_LENGTH, ENCODE_ORDER), ENCODE_K)
        checks.check_log_likelihood(p["pool"][:LOGLIK_CHECK_POINTS], p["codebook"])
        labels = tuple(sorted({v.label for v in self.videos}))
        index = {lab: i for i, lab in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for v, pred in zip(self.videos, p["predicted"]):
            counts[index[v.label], index[pred]] += 1
        query_acc = checks.check_confusion(classify.ConfusionMatrix(counts, labels), self.videos)
        return {"accuracy": checks.check_confusion(p["cm"], self.videos),
                "query_accuracy": query_acc}


def make(name: str, seed: int, work_dir):
    if name == "sparse_stereo":
        return StereoWorkload(False, seed, work_dir)
    if name == "dense_stereo":
        return StereoWorkload(True, seed, work_dir)
    if name == "loao_encode":
        return EncodeWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sparse_stereo", "dense_stereo", "loao_encode")
