"""Per-layer metrics of a traced run, named ``<layer>.<function>.<quantity>``.

Times come from spans; counts from ``trace.COUNTERS``.  A quantity of a
function the workload never calls reads 0.  "Per video" divides by the
videos of the traced phase; "per frame" by its ``roi.update_and_subtract``
calls, which run once per left frame.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench import trace

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIB = float(2 ** 20)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(rec: trace.Recorder, untraced, traced) -> dict:
    calls = rec.calls()
    counts = rec.counts
    videos = traced.attempted - traced.failed

    def n(name):
        return calls[name][0] if name in calls else 0

    def total(name):
        return calls[name][1] if name in calls else 0.0

    def per_call(name, scale):
        return _ratio(total(name) * scale, n(name))

    def count(name, key):
        return counts[name][key] if name in counts else 0.0

    frames = n("roi.update_and_subtract")
    lk_points = count("flowfields.lk_track", "points")
    m = {
        "media.synth_stereo.ms_per_video": per_call("media.synth_stereo", 1e3),
        "media.write_clip.ms_per_clip": per_call("media.write_clip", 1e3),
        "media.load_clip.ms_per_clip": per_call("media.load_clip", 1e3),
        "media.load_clip.mb_per_s": _ratio(count("media.load_clip", "bytes") / MIB,
                                           total("media.load_clip")),
        "roi.update_and_subtract.ms_per_frame": per_call("roi.update_and_subtract", 1e3),
        "roi.extract_regions.ms_per_frame": per_call("roi.extract_regions", 1e3),
        "roi.regions_per_frame": _ratio(count("roi.extract_regions", "regions"),
                                        n("roi.extract_regions")),
        "keypoints.detect_fast.ms_per_frame": _ratio(total("keypoints.detect_fast") * 1e3, frames),
        "keypoints.detect_fast.corners_per_frame": _ratio(count("keypoints.detect_fast", "corners"),
                                                          frames),
        "keypoints.describe_patch.ms_per_patch": per_call("keypoints.describe_patch", 1e3),
        "keypoints.match_reciprocal.ms_per_call": per_call("keypoints.match_reciprocal", 1e3),
        "keypoints.match_reciprocal.pairs_per_query": _ratio(
            count("keypoints.match_reciprocal", "pairs"),
            count("keypoints.match_reciprocal", "queries")),
        "keypoints.match_reciprocal.peak_mb": rec.peaks.get("keypoints.match_reciprocal", 0) / MIB,
        "flowfields.lk_track.ms_per_point": _ratio(total("flowfields.lk_track") * 1e3, lk_points),
        "flowfields.lk_track.points": _ratio(lk_points, videos),
        "flowfields.lk_track.tracked_per_point": _ratio(count("flowfields.lk_track", "tracked"),
                                                        lk_points),
        "flowfields.farneback_flow.ms_per_call": per_call("flowfields.farneback_flow", 1e3),
        "flowfields.sample_flow.us_per_call": per_call("flowfields.sample_flow", 1e6),
        "flowfields.sample_flow.calls": _ratio(n("flowfields.sample_flow"), videos),
        "bench.glue.epipolar_accepted_per_pair": _ratio(count(trace.GLUE, "pairs"),
                                                        count(trace.GLUE, "candidates")),
        "shape.describe.us_per_call": per_call("shape.describe", 1e6),
        "shape.describe.calls": _ratio(n("shape.describe"), videos),
        "encoding.fit_gmm.s_per_call": per_call("encoding.fit_gmm", 1.0),
        "encoding.fit_gmm.points": _ratio(count("encoding.fit_gmm", "points"), n("encoding.fit_gmm")),
        "encoding.fit_gmm.peak_mb": rec.peaks.get("encoding.fit_gmm", 0) / MIB,
        "encoding.fit_gmm.tkn_mb": _ratio(count("encoding.fit_gmm", "tkn_bytes") / MIB,
                                          n("encoding.fit_gmm")),
        "encoding.fisher_vector.ms_per_call": per_call("encoding.fisher_vector", 1e3),
        "encoding.fisher_vector.peak_mb": rec.peaks.get("encoding.fisher_vector", 0) / MIB,
        "classify.train.s_per_call": per_call("classify.train", 1.0),
        "classify.predict.us_per_call": per_call("classify.predict", 1e6),
        "classify.leave_one_actor_out.s": per_call("classify.leave_one_actor_out", 1.0),
        "bench.trace.videos_per_s_untraced": untraced.videos_per_s,
        "bench.trace.videos_per_s_traced": traced.videos_per_s,
        "bench.trace.overhead_videos_per_s": untraced.videos_per_s - traced.videos_per_s,
    }
    for layer, (_, self_s) in sorted(rec.layer_self_seconds().items()):
        m[f"{layer}.self_ms_per_video"] = _ratio(self_s * 1e3, videos)
    for layer in trace.LAYERS + (trace.GLUE,):
        m.setdefault(f"{layer}.self_ms_per_video", 0.0)
    units = per_layer_units()
    if set(m) != set(units):
        raise ValueError(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(m) ^ set(units))}")
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in units.items()}


def per_layer_units() -> dict:
    """Unit of each per-layer metric, as BENCHMARK.json lists it."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


def table(rec: trace.Recorder) -> str:
    """Self time and calls per layer, largest first."""
    rows = sorted(rec.layer_self_seconds().items(), key=lambda kv: -kv[1][1])
    total = sum(s for _, (_, s) in rows) or 1.0
    lines = [f"{'layer':<12} {'calls':>9} {'self s':>9} {'share':>6}"]
    for layer, (n, s) in rows:
        lines.append(f"{layer:<12} {n:>9d} {s:>9.3f} {100 * s / total:>5.1f}%")
    return "\n".join(lines) + "\n"
