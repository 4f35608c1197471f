"""Seeded inputs of the three workloads.

Every value here is drawn from ``numpy.random.default_rng`` seeded with a
tag derived from the run seed, so the same seed builds the same corpus.

Stereo corpus (``sparse_stereo``, ``dense_stereo``): each video is one
``media.synth_stereo`` scene of two textured sprites, a "torso" in the top
band and a "limb" in the bottom band, whose motions make the class.  The
bands never overlap, so every corner has one owner sprite.  Actors differ in
start position, speed, texture, depth and depth drift.

Trajectory corpus (``loao_encode``): point paths taken straight from
``media.ObjectPath.center`` with Gaussian noise, as (x, y, d) with
d = focal * baseline / Z.  Classes come in pairs whose 2-D paths are drawn
from the same distribution and that differ only in ``dz``, so only the
disparity coordinate separates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trailblaze import classify, media

# stereo corpus
WIDTH, HEIGHT = 96, 72
FRAMES = 16
SPRITE = 16
STEREO_ACTORS = ("a1", "a2", "a3")
STEREO_CLASSES = ("walk", "wave", "circle")
STEREO_REPS = 2

# trajectory corpus
FOCAL, BASELINE = 80.0, 0.3
TRAJ_ACTORS = ("b1", "b2", "b3", "b4")
TRAJ_KINDS = ("line", "vosc", "circle")
TRAJ_LABELS = tuple(f"{kind}-{drift}" for kind in TRAJ_KINDS for drift in ("near", "far"))
TRAJ_REPS = 10
TRAJ_LENGTH = 15          # l: a trajectory has l + 1 points
TRAJ_PER_VIDEO = 40
TRAJ_NOISE_PX = 0.15
TRAJ_DZ = 0.03            # depth drift that separates the paired classes


@dataclass(frozen=True)
class StereoVideo:
    clip_id: str
    label: str
    actor: str
    spec: media.SceneSpec


@dataclass(frozen=True)
class TrajectoryVideo:
    clip_id: str
    label: str
    actor: str
    points: np.ndarray     # (T, l + 1, 3): x, y, d


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(classify.derive_seed(seed, tag))


def _stereo_objects(label: str, rng: np.random.Generator) -> tuple:
    speed = rng.uniform(0.8, 1.2)
    z0 = rng.uniform(2.8, 3.2)
    dz = rng.uniform(-0.005, 0.005)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    top = dict(u0=rng.uniform(34.0, 40.0), v0=rng.uniform(14.0, 17.0), z0=z0, dz=dz,
               patch=SPRITE)
    low = dict(u0=rng.uniform(50.0, 56.0), v0=rng.uniform(54.0, 57.0), z0=z0 + 0.2, dz=dz,
               patch=SPRITE)
    if label == "walk":
        return (media.ObjectPath("line", dict(top, du=0.9 * speed)),
                media.ObjectPath("line", dict(low, du=0.9 * speed)))
    if label == "wave":
        return (media.ObjectPath("vosc", dict(top, du=-0.3 * speed, amp=1.5, period=14.0,
                                              phase=phase)),
                media.ObjectPath("vosc", dict(low, du=0.0, amp=3.0 * speed, period=12.0,
                                              phase=phase)))
    if label == "circle":
        return (media.ObjectPath("line", dict(top, du=-0.6 * speed, dv=0.2)),
                media.ObjectPath("circle", dict(low, radius=3.5 * speed, period=14.0,
                                                phase=phase)))
    raise ValueError(f"unknown stereo class {label!r}")


def stereo_corpus(seed: int) -> list:
    """Scene specs of one round: every actor performs every class STEREO_REPS times."""
    videos = []
    for actor in STEREO_ACTORS:
        for label in STEREO_CLASSES:
            for rep in range(STEREO_REPS):
                clip_id = f"{actor}-{label}-{rep}"
                rng = _rng(seed, clip_id)
                spec = media.SceneSpec(
                    objects=_stereo_objects(label, rng), width=WIDTH, height=HEIGHT,
                    frames=FRAMES, seed=int(rng.integers(2 ** 31)), patch=SPRITE)
                videos.append(StereoVideo(clip_id, label, actor, spec))
    return videos


def render_stereo(videos, out_dir) -> dict:
    """Render every scene and write both views under ``out_dir``.

    Returns {clip_id: GroundTruth}; the clips are read back in the timed phase.
    """
    truth = {}
    for v in videos:
        left, right, gt = media.synth_stereo(v.spec, clip_id=v.clip_id)
        media.write_clip(left, out_dir / v.clip_id / "left")
        media.write_clip(right, out_dir / v.clip_id / "right")
        truth[v.clip_id] = gt
    return truth


def _trajectory_path(label: str, rng: np.random.Generator) -> media.ObjectPath:
    kind, drift = label.rsplit("-", 1)
    dz = {"near": -TRAJ_DZ, "far": TRAJ_DZ}[drift]
    speed = rng.uniform(0.7, 1.3)
    params = dict(u0=rng.uniform(20.0, 60.0), v0=rng.uniform(15.0, 45.0),
                  z0=rng.uniform(2.8, 3.2), dz=dz * rng.uniform(0.8, 1.2),
                  phase=rng.uniform(0.0, 2.0 * np.pi))
    if kind == "line":
        angle = rng.uniform(-0.3, 0.3)
        params.update(du=speed * np.cos(angle), dv=speed * np.sin(angle))
    elif kind == "vosc":
        params.update(du=0.3 * speed, amp=4.0 * speed, period=rng.uniform(10.0, 14.0))
    else:
        params.update(radius=4.0 * speed, period=rng.uniform(12.0, 16.0))
    return media.ObjectPath(kind, params)


def trajectory_corpus(seed: int) -> list:
    """(x, y, d) trajectories sampled from ObjectPath.center with pixel noise."""
    videos = []
    for actor in TRAJ_ACTORS:
        for label in TRAJ_LABELS:
            for rep in range(TRAJ_REPS):
                clip_id = f"{actor}-{label}-{rep}"
                rng = _rng(seed, clip_id)
                pts = np.empty((TRAJ_PER_VIDEO, TRAJ_LENGTH + 1, 3))
                for i in range(TRAJ_PER_VIDEO):
                    path = _trajectory_path(label, rng)
                    start = rng.uniform(0.0, 20.0)
                    for j in range(TRAJ_LENGTH + 1):
                        u, v, z = path.center(start + j)
                        pts[i, j] = (u, v, FOCAL * BASELINE / z)
                pts += rng.normal(0.0, TRAJ_NOISE_PX, pts.shape)
                videos.append(TrajectoryVideo(clip_id, label, actor, pts))
    return videos
