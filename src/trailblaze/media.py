"""Frame and clip handling, the shared pixel helpers, and a
ground-truth-bearing synthetic stereo generator.

Clips are directories of binary PGM (P5) / PPM (P6) frames named
``frame_000000.pgm`` onwards.  The layers that read pixels convert them with
``_gray`` (float64 grayscale in 0-255 units) and sample them with
``_bilinear``.  The synthetic generator renders textured square sprites
moving along parametric paths, seen by a pinhole stereo pair with horizontal
baseline (optionally toed-in), and reports exact per-frame projections,
disparities and the fundamental matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRAY_WEIGHTS = (0.299, 0.587, 0.114)  # BT.601


@dataclass(frozen=True)
class Frame:
    """A single image; ``data`` is uint8, shape (h, w) or (h, w, 3)."""

    width: int
    height: int
    channels: int
    data: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("frame dimensions must be >= 1")
        if self.channels not in (1, 3):
            raise ValueError(f"unsupported channel count {self.channels}")
        expected = (self.height, self.width) if self.channels == 1 else (self.height, self.width, 3)
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} does not match {expected}")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Frame":
        arr = np.asarray(arr)
        if arr.ndim not in (2, 3):
            raise ValueError(f"expected an (h, w) or (h, w, C) array, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            arr = np.clip(np.round(arr), 0, 255).astype(np.uint8)
        channels = 1 if arr.ndim == 2 else arr.shape[2]
        return cls(width=arr.shape[1], height=arr.shape[0], channels=channels, data=arr)


@dataclass(frozen=True)
class Clip:
    """An ordered frame sequence from one camera."""

    frames: tuple
    clip_id: str = "clip"

    def __post_init__(self):
        if len(self.frames) < 2:
            raise ValueError("a clip needs at least 2 frames")
        first = self.frames[0]
        for f in self.frames[1:]:
            if (f.width, f.height, f.channels) != (first.width, first.height, first.channels):
                raise ValueError("clip frames must share dimensions and channel count")


def to_grayscale(frame: Frame) -> Frame:
    """Convert to single channel with BT.601 weights, rounding half-up."""
    if frame.channels == 1:
        return frame
    rgb = frame.data.astype(np.float64)
    y = rgb[..., 0] * GRAY_WEIGHTS[0] + rgb[..., 1] * GRAY_WEIGHTS[1] + rgb[..., 2] * GRAY_WEIGHTS[2]
    y = np.clip(np.floor(y + 0.5), 0, 255).astype(np.uint8)
    return Frame(frame.width, frame.height, 1, y)


def _gray(image) -> np.ndarray:
    """Grayscale intensities as float64 (h, w) in 0-255 units.

    A Frame goes through `to_grayscale`; a 2-D array is cast to float64.
    """
    if isinstance(image, Frame):
        return to_grayscale(image).data.astype(np.float64)
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a Frame or a 2-D grayscale array, got shape {arr.shape}")
    return arr


def _bilinear(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Replicate-edge bilinear sampling of `img` at float coordinates."""
    h, w = img.shape
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xs).astype(int), max(w - 2, 0))
    y0 = np.minimum(np.floor(ys).astype(int), max(h - 2, 0))
    x1 = x0 + (w > 1)
    y1 = y0 + (h > 1)
    fx = xs - x0
    fy = ys - y0
    return (img[y0, x0] * (1 - fx) * (1 - fy) + img[y0, x1] * fx * (1 - fy)
            + img[y1, x0] * (1 - fx) * fy + img[y1, x1] * fx * fy)


# ---------------------------------------------------------------------------
# PGM / PPM input-output


def _read_pnm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    # header: magic, width, height, maxval; '#' comments allowed
    pos = 0
    tokens = []
    while len(tokens) < 4:
        m = re.compile(rb"\s*(#[^\n]*\n|\S+)").match(raw, pos)
        if m is None:
            raise ValueError(f"malformed frame file {path.name}: truncated header")
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"malformed frame file {path.name}: unsupported magic {magic!r}")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ValueError(f"malformed frame file {path.name}: non-numeric header") from None
    if maxval != 255:
        raise ValueError(f"malformed frame file {path.name}: maxval must be 255")
    channels = 1 if magic == b"P5" else 3
    pos += 1  # single whitespace byte after maxval
    count = width * height * channels
    body = raw[pos:pos + count]
    if len(body) != count:
        raise ValueError(f"malformed frame file {path.name}: expected {count} pixel bytes")
    arr = np.frombuffer(body, dtype=np.uint8)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return arr.reshape(shape).copy()


def _write_pnm(path: Path, arr: np.ndarray) -> None:
    channels = 1 if arr.ndim == 2 else arr.shape[2]
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    path.write_bytes(header + np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def load_clip(path, clip_id: str | None = None) -> Clip:
    """Load a clip from a directory of PGM/PPM frames in lexicographic order."""
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"missing directory {path}")
    files = sorted(p for p in path.iterdir() if p.suffix in (".pgm", ".ppm"))
    if not files:
        raise ValueError(f"no frames in {path}")
    if len(files) < 2:
        raise ValueError(f"fewer than 2 frames in {path}")
    frames = []
    first_shape = None
    for p in files:
        arr = _read_pnm(p)
        if first_shape is None:
            first_shape = arr.shape
        elif arr.shape != first_shape:
            raise ValueError(
                f"inconsistent dimensions in {p.name}: {arr.shape[1]}x{arr.shape[0]} "
                f"vs {first_shape[1]}x{first_shape[0]}")
        frames.append(Frame.from_array(arr))
    return Clip(frames=tuple(frames), clip_id=clip_id or path.name)


def write_clip(clip: Clip, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    ext = ".pgm" if clip.frames[0].channels == 1 else ".ppm"
    for i, frame in enumerate(clip.frames):
        _write_pnm(path / f"frame_{i:06d}{ext}", frame.data)


# ---------------------------------------------------------------------------
# Synthetic stereo scenes


@dataclass(frozen=True)
class ObjectPath:
    """Parametric sprite path in left-image coordinates plus depth.

    Kinds: line (velocity du, dv), vosc (du plus a vertical sine of amp,
    period and phase) and circle (radius, period, phase).  All kinds accept
    z0/dz so any of them can drift in depth, and ``patch`` sets the sprite
    size.  Any other key is rejected, so a misspelt one cannot fall back to
    its default.
    """

    kind: str
    params: dict = field(default_factory=dict)

    _KINDS = ("line", "vosc", "circle")
    _KEYS = frozenset(("u0", "v0", "z0", "dz", "du", "dv", "amp", "period", "phase",
                       "radius", "patch"))

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown object path kind {self.kind!r}")
        if not self._KEYS.issuperset(self.params):
            bad = sorted(self.params.keys() - self._KEYS)
            raise ValueError(f"unknown object path parameters {bad} for kind {self.kind!r}")

    def center(self, t: float) -> tuple:
        """(u, v, Z): left-image position and depth at frame t."""
        p = self.params
        u0, v0 = p.get("u0", 0.0), p.get("v0", 0.0)
        z = p.get("z0", 3.0) + p.get("dz", 0.0) * t
        if self.kind == "line":
            return (u0 + p.get("du", 0.0) * t, v0 + p.get("dv", 0.0) * t, z)
        if self.kind == "vosc":
            ph = 2.0 * math.pi * t / p.get("period", 20.0) + p.get("phase", 0.0)
            return (u0 + p.get("du", 0.0) * t, v0 + p.get("amp", 5.0) * math.sin(ph), z)
        # circle
        ph = 2.0 * math.pi * t / p.get("period", 24.0) + p.get("phase", 0.0)
        r = p.get("radius", 6.0)
        return (u0 + r * math.cos(ph), v0 + r * math.sin(ph), z)


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic stereo scene."""

    objects: tuple
    focal: float = 80.0
    baseline: float = 0.3
    width: int = 64
    height: int = 48
    frames: int = 40
    noise_sigma: float = 2.0
    seed: int = 0
    patch: int = 14
    toein: float = 0.0      # right-camera convergence half-angle, degrees
    background: float = 96.0

    def __post_init__(self):
        if self.baseline <= 0 or self.focal <= 0:
            raise ValueError("baseline and focal must be > 0")
        if self.frames < 2:
            raise ValueError("need at least 2 frames")
        for obj in self.objects:
            for t in range(self.frames):
                if obj.center(t)[2] <= 0:
                    raise ValueError(f"object depth must stay > 0 (kind {obj.kind})")


@dataclass(frozen=True)
class GroundTruth:
    """Exact geometry of a synthetic scene.

    left_uv / right_uv have shape (frames, n_objects, 2); disparity is
    focal*baseline/Z with shape (frames, n_objects).  F is the canonical
    fundamental matrix with p_left^T F p_right = 0.
    """

    left_uv: np.ndarray
    right_uv: np.ndarray
    disparity: np.ndarray
    F: np.ndarray


def canonicalize_fundamental(F: np.ndarray) -> np.ndarray:
    """Unit Frobenius norm, sign fixed so the first largest-|entry| is positive."""
    F = np.asarray(F, dtype=np.float64)
    F = F / np.linalg.norm(F)
    flat = np.abs(F).ravel()
    k = int(np.argmax(flat))
    if F.ravel()[k] < 0:
        F = -F
    return F


def _rotation_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _camera_pair(spec: SceneSpec):
    """K, right-camera rotation R and translation t (X_r = R X_l + t)."""
    cx, cy = (spec.width - 1) / 2.0, (spec.height - 1) / 2.0
    K = np.array([[spec.focal, 0.0, cx], [0.0, spec.focal, cy], [0.0, 0.0, 1.0]])
    R = _rotation_y(math.radians(spec.toein))
    C = np.array([spec.baseline, 0.0, 0.0])
    t = -R @ C
    return K, R, t


def exact_fundamental(spec: SceneSpec) -> np.ndarray:
    K, R, t = _camera_pair(spec)
    Kinv = np.linalg.inv(K)
    F_rl = Kinv.T @ _skew(t) @ R @ Kinv   # p_r^T F_rl p_l = 0
    return canonicalize_fundamental(F_rl.T)


def _make_texture(size: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    checker = np.where(((xx // 3) + (yy // 3)) % 2 == 0, 70.0, 190.0)
    noise = rng.uniform(-30.0, 30.0, (size, size))
    k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    noise = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 0, noise)
    noise = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 1, noise)
    return np.clip(checker + noise, 0.0, 255.0)


def _paint_sprite(img: np.ndarray, tex: np.ndarray, topleft, Hinv: np.ndarray | None):
    """Draw tex into img; Hinv maps image pixels back to left-image coords."""
    h, w = img.shape
    size = tex.shape[0]
    tlx, tly = topleft
    if Hinv is None:
        x0, y0 = int(math.floor(tlx)), int(math.floor(tly))
        x1, y1 = int(math.ceil(tlx)) + size, int(math.ceil(tly)) + size
    else:
        corners = np.array([[tlx, tly, 1.0], [tlx + size - 1, tly, 1.0],
                            [tlx, tly + size - 1, 1.0], [tlx + size - 1, tly + size - 1, 1.0]])
        H = np.linalg.inv(Hinv)
        proj = corners @ H.T
        proj = proj[:, :2] / proj[:, 2:3]
        x0, y0 = int(math.floor(proj[:, 0].min())) - 1, int(math.floor(proj[:, 1].min())) - 1
        x1, y1 = int(math.ceil(proj[:, 0].max())) + 2, int(math.ceil(proj[:, 1].max())) + 2
    x0, y0 = max(x0, 0), max(y0, 0)
    x1, y1 = min(x1, w), min(y1, h)
    if x0 >= x1 or y0 >= y1:
        return
    py, px = np.mgrid[y0:y1, x0:x1]
    if Hinv is None:
        lx, ly = px.astype(np.float64), py.astype(np.float64)
    else:
        pts = np.stack([px.ravel(), py.ravel(), np.ones(px.size)])
        back = Hinv @ pts
        lx = (back[0] / back[2]).reshape(px.shape)
        ly = (back[1] / back[2]).reshape(px.shape)
    tx, ty = lx - tlx, ly - tly
    inside = (tx >= 0) & (tx <= size - 1) & (ty >= 0) & (ty <= size - 1)
    if not inside.any():
        return
    sub = img[y0:y1, x0:x1]
    sub[inside] = _bilinear(tex, tx[inside], ty[inside])


def synth_stereo(spec: SceneSpec, clip_id: str = "scene") -> tuple:
    """Render a stereo clip pair and its ground truth.

    Objects are fronto-parallel textured sprites at their path depth; the
    right view is drawn through the exact plane-induced homography so all
    rendered correspondences obey the returned fundamental matrix.
    """
    K, R, t = _camera_pair(spec)
    Kinv = np.linalg.inv(K)
    rng = np.random.default_rng(spec.seed)
    n_obj = len(spec.objects)
    if n_obj == 0:
        raise ValueError("scene needs at least one object")

    textures, sizes = [], []
    for obj in spec.objects:
        size = int(obj.params.get("patch", spec.patch))
        sizes.append(size)
        textures.append(_make_texture(size, rng))

    left_uv = np.zeros((spec.frames, n_obj, 2))
    right_uv = np.zeros((spec.frames, n_obj, 2))
    disparity = np.zeros((spec.frames, n_obj))
    seen = [False] * n_obj
    left_frames, right_frames = [], []

    for f in range(spec.frames):
        li = np.full((spec.height, spec.width), spec.background, dtype=np.float64)
        ri = np.full((spec.height, spec.width), spec.background, dtype=np.float64)
        for i, obj in enumerate(spec.objects):
            u, v, z = obj.center(f)
            X = Kinv @ np.array([u, v, 1.0]) * z       # 3D center in left camera
            qr = K @ (R @ X + t)
            ur, vr = qr[0] / qr[2], qr[1] / qr[2]
            left_uv[f, i] = (u, v)
            right_uv[f, i] = (ur, vr)
            disparity[f, i] = spec.focal * spec.baseline / z
            size = sizes[i]
            tl = (u - (size - 1) / 2.0, v - (size - 1) / 2.0)
            if (-size < tl[0] < spec.width and -size < tl[1] < spec.height):
                seen[i] = True
            _paint_sprite(li, textures[i], tl, None)
            # plane n=(0,0,1), d=z in left coords induces H = K(R - t n^T/z)K^-1
            Hplane = K @ (R - np.outer(t, np.array([0.0, 0.0, -1.0 / z]))) @ Kinv
            _paint_sprite(ri, textures[i], tl, np.linalg.inv(Hplane))
        li += rng.normal(0.0, spec.noise_sigma, li.shape)
        ri += rng.normal(0.0, spec.noise_sigma, ri.shape)
        left_frames.append(Frame.from_array(np.clip(np.round(li), 0, 255)))
        right_frames.append(Frame.from_array(np.clip(np.round(ri), 0, 255)))

    for i, ok in enumerate(seen):
        if not ok:
            raise ValueError(f"object {i} ({spec.objects[i].kind}) never projects inside the image")

    gt = GroundTruth(left_uv=left_uv, right_uv=right_uv, disparity=disparity,
                     F=exact_fundamental(spec))
    left = Clip(tuple(left_frames), clip_id=clip_id)
    right = Clip(tuple(right_frames), clip_id=clip_id)
    return left, right, gt
