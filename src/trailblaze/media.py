"""Frame and clip handling, the shared pixel helpers and input rules, and a
ground-truth-bearing synthetic stereo generator.

Clips are directories of binary PGM (P5) / PPM (P6) frames named
``frame_000000.pgm`` onwards.  A frame file holds its magic at byte 0, then
width, height and maxval as unsigned decimals below 10**18, each after
whitespace that may hold ``#`` comments to the end of their line, then one
whitespace byte and the raster; sides must be >= 1 and maxval 255.  Only the
first image is read: bytes after it are ignored.  Layers that read pixels
convert them with ``_gray`` and sample them with ``_bilinear``; every layer
checks its inputs with the shared rules ``_count``, ``_finite``, ``_point``,
``_no_rows``, ``_real_array``, ``_rows``, ``_real`` and ``_finite_real``.
Whole-frame work that several calls share is memoised with ``_FrameMemo``,
one rule for every layer: it takes the caller's frame, compares a float64
2-D array as it is and anything else after ``_gray``, on exact shape and
bytes with no hash, with the last two distinct frames; only a miss runs
``_gray``'s pixel gate and then the build, whose values are read-only.  The
synthetic generator renders textured square sprites moving along parametric
paths, seen by a rectified pinhole stereo pair with horizontal baseline, and
reports exact per-frame projections, disparities and the fundamental matrix.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRAY_WEIGHTS = (0.299, 0.587, 0.114)  # BT.601
_REAL = (float, numbers.Real)  # float first: np.float64 skips the ABC check


def _real(value) -> bool:
    """True for a real number, numpy's included; False for a bool."""
    return isinstance(value, _REAL) and not isinstance(value, bool)


def _finite_real(value) -> bool:
    """True for a finite real number, numpy's included, a float without a call; False for a bool."""
    return (isinstance(value, float) or _real(value)) and abs(value) < math.inf


def _count(name: str, value, least: int = 1, what: str = "an integer", step: int = 1) -> None:
    """A ValueError naming `name` unless `value` is one of least, least + step, ...,
    worded as `what`, e.g. "an odd integer"; numpy integers pass, bools and floats do not."""
    # int first: a plain int skips the slower ABC check
    if (isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < least
            or (value - least) % step):
        raise ValueError(f"{name} must be {what} >= {least}, got {value!r}")


def _finite(arr: np.ndarray, entry: str) -> None:
    """A ValueError naming the first NaN or infinite entry of `arr` in C order:
    `entry` formatted with its index, e.g. "pixel (x={1}, y={0})" or "point {0}"."""
    if not np.isfinite(arr).all():
        at = tuple(np.argwhere(~np.isfinite(arr))[0])
        raise ValueError(f"{entry.format(*at)} is not finite: {arr[at]}")


def _point(p) -> tuple:
    """(x, y) as Python floats; a ValueError naming `p` unless it is two finite reals."""
    try:  # indexed, not unpacked: unpacking a numpy row costs a microsecond
        x, y = (p[0], p[1]) if len(p) == 2 else (None, None)
    except (TypeError, LookupError):
        x = y = None
    if not (_finite_real(x) and _finite_real(y)):
        raise ValueError(f"point {p!r} is not two finite real numbers (x, y)")
    return float(x), float(y)


def _no_rows(values) -> bool:
    """True for [] or a (0, N) array; False for a scalar, left for `_rows` to name."""
    try:
        return len(values) == 0
    except TypeError:
        return False


def _real_array(name: str, values, what: str) -> np.ndarray:
    """`values` as a float64 array.  Input that is ragged or not numbers is a
    ValueError naming `name` ("{name} must be {what} of real numbers"), as is
    an array of complex dtype, whose conversion would drop the imaginary part
    with only a warning; that test reads one attribute rather than calling
    `np.iscomplexobj`, which would convert a list."""
    if getattr(getattr(values, "dtype", None), "kind", None) == "c":
        raise ValueError(f"{name} must be {what} of real numbers, got dtype {values.dtype}")
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{name} must be {what} of real numbers: {e}") from None


def _rows(name: str, values, entry: str, width: int | None = None, ndmin: int = 0) -> np.ndarray:
    """`values` as a float64 2-D array `width` wide (>= 1 when None); ndmin=2 takes
    one row (N,) as (1, N).  Other input is `_real_array`'s error naming `name`;
    a NaN or infinite entry is `_finite`'s error with `entry`."""
    arr = _real_array(name, values, "a 2-D array")
    if ndmin == 2:
        arr = np.atleast_2d(arr)
    if not (arr.ndim == 2 and (arr.shape[1] == width if width else arr.shape[1] > 0)):
        raise ValueError(f"{name} must be a 2-D array of width {width or '>= 1'}, got {arr.shape}")
    _finite(arr, entry)
    return arr


@dataclass(frozen=True)
class Frame:
    """A single image; ``data`` is uint8, shape (h, w) or (h, w, 3)."""

    data: np.ndarray

    def __post_init__(self):
        shape = self.data.shape
        if self.data.dtype != np.uint8:
            raise ValueError(f"frame data must be uint8, got {self.data.dtype} of shape {shape}")
        if len(shape) not in (2, 3) or shape[2:] not in ((), (3,)):
            raise ValueError(f"frame data must have shape (h, w) or (h, w, 3), got {shape}")
        if min(shape[:2]) < 1:
            raise ValueError(f"frame sides must be >= 1, got shape {shape}")

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 2 else 3

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Frame":
        """A Frame of uint8 data as it is, or of other real pixels rounded and
        clipped to 0-255; a complex array or a NaN or infinite pixel is a
        ValueError naming it."""
        if getattr(arr, "dtype", None) == np.uint8:
            return cls(np.asarray(arr))
        arr = _real_array("frame", arr, "an array")
        _finite(np.atleast_2d(arr), "pixel (x={1}, y={0})")
        return cls(np.clip(np.round(arr), 0, 255).astype(np.uint8))


@dataclass(frozen=True)
class Clip:
    """An ordered frame sequence from one camera."""

    frames: tuple
    clip_id: str = "clip"

    def __post_init__(self):
        if not isinstance(self.frames, (tuple, list)):
            raise ValueError(f"frames must be a tuple or list, got {type(self.frames).__name__}")
        object.__setattr__(self, "frames", tuple(self.frames))  # a list passed in stays outside
        if len(self.frames) < 2:
            raise ValueError("a clip needs at least 2 frames")
        for i, f in enumerate(self.frames):
            if not isinstance(f, Frame):
                raise ValueError(f"clip frame {i} must be a Frame, got {type(f).__name__}")
            if f.data.shape != self.frames[0].data.shape:
                raise ValueError(f"clip frames must share dimensions and channel count: frame "
                                 f"{i} has {f.data.shape}, frame 0 {self.frames[0].data.shape}")


def _gray(image) -> np.ndarray:
    """Grayscale intensities as float64 (h, w) in 0-255 units.

    A colour Frame is weighted with BT.601 and rounded half-up to whole
    levels; a grey Frame or a 2-D array is cast to float64.  This is the
    pixel gate of every layer: an array goes through `_rows`, which names
    its first NaN or infinite pixel, and must have a row (a Frame is uint8
    with sides >= 1, so always finite and non-empty).
    """
    if not isinstance(image, Frame):
        img = _rows("image", image, "pixel (x={1}, y={0})")
        if not len(img):
            raise ValueError(f"image sides must be >= 1, got shape {img.shape}")
        return img
    rgb = image.data.astype(np.float64)
    if image.channels == 1:
        return rgb
    y = rgb[..., 0] * GRAY_WEIGHTS[0] + rgb[..., 1] * GRAY_WEIGHTS[1] + rgb[..., 2] * GRAY_WEIGHTS[2]
    return np.clip(np.floor(y + 0.5), 0, 255)


class _FrameMemo:
    """The tuple of arrays `build` derives from a frame's float64 grayscale,
    under the module docstring's memo rule.  ``slots`` is one immutable tuple,
    most recently used first, replaced whole, so a thread sees either the old
    pair or the new pair and never a mix.
    """

    SLOTS = 2

    def __init__(self, build):
        self.build = build
        self.slots = ()  # ((shape, bytes, value), ...)

    def __call__(self, frame):
        plane = isinstance(frame, np.ndarray) and frame.dtype == np.float64 and frame.ndim == 2
        img = frame if plane else _gray(frame)
        slots = self.slots
        data = img.tobytes()
        for i, (shape, held, value) in enumerate(slots):
            if shape == img.shape and held == data:
                if i:
                    self.slots = (slots[i],) + slots[:i] + slots[i + 1:]
                return value
        value = self.build(_gray(img))
        for arr in value:
            arr.flags.writeable = False
        self.slots = ((img.shape, data, value),) + slots[:self.SLOTS - 1]
        return value

    def clear(self) -> None:
        self.slots = ()


def _bilinear(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Replicate-edge bilinear sampling of `img` at float coordinates.

    `img` is one image (h, w) or a stack (c, h, w) whose images share the
    coordinates; the result has shape xs.shape or (c,) + xs.shape.  Clipping,
    corner indices and weights are computed once for the whole stack, and
    each value is v00·(1−fx)·(1−fy) + v01·fx·(1−fy) + v10·(1−fx)·fy +
    v11·fx·fy, summed in that order.
    """
    h, w = img.shape[-2:]
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xs).astype(int), max(w - 2, 0))
    y0 = np.minimum(np.floor(ys).astype(int), max(h - 2, 0))
    fx = xs - x0
    fy = ys - y0
    gx = 1 - fx
    gy = 1 - fy
    i00 = y0 * w + x0
    i10 = i00 + w * (h > 1)
    flat = img.reshape(img.shape[:-2] + (h * w,))
    dx = int(w > 1)

    def corner(idx, wx, wy):
        v = flat.take(idx, axis=-1)
        v *= wx
        v *= wy
        return v

    out = corner(i00, gx, gy)
    out += corner(i00 + dx, fx, gy)
    out += corner(i10, gx, fy)
    out += corner(i10 + dx, fx, fy)
    return out


# ---------------------------------------------------------------------------
# PGM / PPM input-output


# the frame file header of the module docstring: magic, width, height, maxval
_PNM_HEADER = re.compile(rb"P([56])" + rb"(?:\s|#[^\r\n]*[\r\n])+0*(\d{1,18})" * 3 + rb"\s")


def _read_pnm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    m = _PNM_HEADER.match(raw)
    if m is None:
        raise ValueError(f"malformed frame file {path.name}: no P5 or P6 header with width, "
                         f"height and maxval as unsigned decimals")
    width, height, maxval = map(int, m.group(2, 3, 4))
    if min(width, height) < 1 or maxval != 255:
        raise ValueError(f"malformed frame file {path.name}: sides must be >= 1 and maxval "
                         f"255, got {width}x{height} and maxval {maxval}")
    shape = (height, width) if m[1] == b"5" else (height, width, 3)
    count = math.prod(shape)
    if len(raw) < m.end() + count:
        raise ValueError(f"malformed frame file {path.name}: expected {count} pixel bytes")
    return np.frombuffer(raw, np.uint8, count, m.end()).reshape(shape).copy()


def _write_pnm(path: Path, arr: np.ndarray) -> None:
    header = b"%s\n%d %d\n255\n" % (b"P5" if arr.ndim == 2 else b"P6", arr.shape[1], arr.shape[0])
    path.write_bytes(header + np.ascontiguousarray(arr, dtype=np.uint8).tobytes())


def load_clip(path) -> Clip:
    """Load a clip from a directory of PGM/PPM frames in lexicographic order;
    its clip_id is the directory's name.  Raises FileNotFoundError for a missing
    directory, and ValueError for fewer than 2 frames or, naming the file, for a
    malformed frame file or a frame whose size differs from the first."""
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"missing directory {path}")
    files = sorted(p for p in path.iterdir() if p.suffix in (".pgm", ".ppm"))
    if len(files) < 2:
        raise ValueError(f"{'fewer than 2' if files else 'no'} frames in {path}")
    arrays = [_read_pnm(p) for p in files]
    for p, arr in zip(files, arrays):
        if arr.shape != arrays[0].shape:  # named width x height, then x3 for colour
            got, want = ("x".join(map(str, a.shape[1::-1] + a.shape[2:])) for a in (arr, arrays[0]))
            raise ValueError(f"inconsistent dimensions in {p.name}: {got} vs {want}")
    return Clip(frames=tuple(Frame.from_array(arr) for arr in arrays), clip_id=path.name)


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
    its default, and every value but ``patch`` must be a finite number; a
    ``period`` must also leave 2*pi/period finite, and `center` names the
    period when the phase 2*pi*t/period + phase it asks for is not finite,
    so a `SceneSpec` rejects a period too short for its frame count.
    """

    kind: str
    params: dict = field(default_factory=dict)

    _KINDS = ("line", "vosc", "circle")
    _KEYS = frozenset(("u0", "v0", "z0", "dz", "du", "dv", "amp", "period", "phase",
                       "radius", "patch"))

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown object path kind {self.kind!r}")
        if not isinstance(self.params, Mapping):
            raise ValueError(f"params must be a mapping, got {type(self.params).__name__}")
        if not self._KEYS.issuperset(self.params):
            bad = sorted(self.params.keys() - self._KEYS)
            raise ValueError(f"unknown object path parameters {bad} for kind {self.kind!r}")
        for k, v in self.params.items():  # patch is the scene's to check
            if not _finite_real(v) and k != "patch":
                raise ValueError(f"object path {k} must be a finite number, got {v!r}")
            if k == "period" and not (v and math.isfinite(math.tau / float(v))):
                raise ValueError(f"object path period must leave 2*pi/period finite, got {v!r}")

    def center(self, t: float) -> tuple:
        """(u, v, Z): left-image position and depth at frame t."""
        p = self.params
        u0, v0 = p.get("u0", 0.0), p.get("v0", 0.0)
        z = p.get("z0", 3.0) + p.get("dz", 0.0) * t
        if self.kind == "line":
            return (u0 + p.get("du", 0.0) * t, v0 + p.get("dv", 0.0) * t, z)
        period = p.get("period", 20.0 if self.kind == "vosc" else 24.0)
        ph = 2.0 * math.pi * t / period + p.get("phase", 0.0)
        if not math.isfinite(ph):
            raise ValueError(f"object path period {period!r} leaves the phase at frame {t!r} "
                             f"infinite")
        if self.kind == "vosc":
            return (u0 + p.get("du", 0.0) * t, v0 + p.get("amp", 5.0) * math.sin(ph), z)
        # circle
        r = p.get("radius", 6.0)
        return (u0 + r * math.cos(ph), v0 + r * math.sin(ph), z)


def _check_sprite_size(name: str, size) -> None:
    # whole floats such as 9.0 pass, unlike `_count`
    if not (_real(size) and float(size).is_integer() and size >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {size!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene seen by a rectified stereo rig.

    Every object must stay in front of the rig and come into view at least once.
    """

    objects: tuple
    focal: float = 80.0
    baseline: float = 0.3
    width: int = 64
    height: int = 48
    frames: int = 40
    noise_sigma: float = 2.0
    seed: int = 0
    patch: int = 14
    background: float = 96.0

    toein = 0.0  # a class constant, not a field: the right camera is never turned in

    def __post_init__(self):
        # every disparity is focal * baseline / Z, so the product must be finite
        if not (_real(self.baseline) and _real(self.focal) and self.baseline > 0
                and self.focal > 0 and math.isfinite(self.focal * self.baseline)):
            raise ValueError(f"baseline and focal must be > 0 with a finite product, "
                             f"got baseline={self.baseline!r}, focal={self.focal!r}")
        for name, least in (("width", 1), ("height", 1), ("frames", 2), ("seed", 0)):
            _count(name, getattr(self, name), least)
        if not (_finite_real(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not _finite_real(self.background):
            raise ValueError(f"background must be a finite number, got {self.background!r}")
        if not isinstance(self.objects, (tuple, list)):
            raise ValueError(f"objects must be a tuple or list, got {type(self.objects).__name__}")
        object.__setattr__(self, "objects", tuple(self.objects))  # a list passed in stays outside
        if not self.objects:
            raise ValueError("scene needs at least one object")
        _check_sprite_size("patch", self.patch)
        for i, obj in enumerate(self.objects):
            if not isinstance(obj, ObjectPath):
                raise ValueError(f"object {i} must be an ObjectPath, got {type(obj).__name__}")
            size = obj.params.get("patch", self.patch)
            _check_sprite_size(f"object {i} patch", size)
            centers = np.array([obj.center(t) for t in range(self.frames)], dtype=np.float64)
            if not (centers[:, 2] > 0).all():
                raise ValueError(f"object depth must stay > 0 (kind {obj.kind})")
            tl = centers[:, :2] - (size - 1) / 2.0
            if not ((-size < tl) & (tl < (self.width, self.height))).all(axis=1).any():
                raise ValueError(f"object {i} ({obj.kind}) never projects inside the image")


# canonical form: unit norm, first largest |entry| positive
_RECTIFIED_F = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]) / math.sqrt(2.0)


@dataclass(frozen=True)
class GroundTruth:
    """Exact geometry of a synthetic scene.

    left_uv has shape (frames, n_objects, 2); disparity is focal*baseline/Z
    with shape (frames, n_objects).  The pair is rectified, so right_uv is
    left_uv shifted left by the disparity, and F is the rectified pair's
    fundamental matrix: p_left^T F p_right = (v_left - v_right) / sqrt(2).
    """

    left_uv: np.ndarray
    disparity: np.ndarray

    @property
    def right_uv(self) -> np.ndarray:
        uv = self.left_uv.copy()
        uv[..., 0] -= self.disparity
        return uv

    @property
    def F(self) -> np.ndarray:
        return _RECTIFIED_F.copy()


def _make_texture(size: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    checker = np.where(((xx // 3) + (yy // 3)) % 2 == 0, 70.0, 190.0)
    noise = rng.uniform(-30.0, 30.0, (size, size))
    k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    # the full convolution's centre: "same" mode would return 5 samples for size < 5
    noise = np.apply_along_axis(lambda r: np.convolve(r, k)[2:-2], 0, noise)
    noise = np.apply_along_axis(lambda r: np.convolve(r, k)[2:-2], 1, noise)
    return np.clip(checker + noise, 0.0, 255.0)


def _paint_sprite(img: np.ndarray, tex: np.ndarray, topleft) -> None:
    """Draw tex into img with its first texel at `topleft`, bilinearly resampled."""
    h, w = img.shape
    size = tex.shape[0]
    tlx, tly = topleft
    x0, y0 = max(math.floor(tlx), 0), max(math.floor(tly), 0)
    x1, y1 = min(math.ceil(tlx) + size, w), min(math.ceil(tly) + size, h)
    if x0 >= x1 or y0 >= y1:
        return
    py, px = np.mgrid[y0:y1, x0:x1]
    tx, ty = px - tlx, py - tly
    inside = (tx >= 0) & (tx <= size - 1) & (ty >= 0) & (ty <= size - 1)
    img[y0:y1, x0:x1][inside] = _bilinear(tex, tx[inside], ty[inside])


def synth_stereo(spec: SceneSpec, clip_id: str = "scene") -> tuple:
    """Render a stereo clip pair and its ground truth.

    Objects are fronto-parallel textured sprites at their path depth.  The
    rig is rectified, so each view paints a sprite by translation: the right
    view shifts it left by its disparity focal*baseline/Z.
    """
    rng = np.random.default_rng(spec.seed)
    textures = [_make_texture(int(obj.params.get("patch", spec.patch)), rng)
                for obj in spec.objects]
    centers = np.array([[obj.center(f) for obj in spec.objects] for f in range(spec.frames)],
                       dtype=np.float64)
    left_uv, disparity = centers[..., :2], spec.focal * spec.baseline / centers[..., 2]

    left_frames, right_frames = [], []
    for f in range(spec.frames):
        li = np.full((spec.height, spec.width), spec.background, dtype=np.float64)
        ri = li.copy()
        for tex, (u, v), d in zip(textures, left_uv[f], disparity[f]):
            half = (tex.shape[0] - 1) / 2.0
            _paint_sprite(li, tex, (u - half, v - half))
            _paint_sprite(ri, tex, (u - half - d, v - half))
        li += rng.normal(0.0, spec.noise_sigma, li.shape)
        ri += rng.normal(0.0, spec.noise_sigma, ri.shape)
        left_frames.append(Frame.from_array(li))
        right_frames.append(Frame.from_array(ri))

    left = Clip(tuple(left_frames), clip_id=clip_id)
    right = Clip(tuple(right_frames), clip_id=clip_id)
    return left, right, GroundTruth(left_uv=left_uv, disparity=disparity)
