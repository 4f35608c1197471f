import dataclasses
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from trailblaze import media
from trailblaze.media import (
    Clip, Frame, ObjectPath, SceneSpec, load_clip, synth_stereo, write_clip,
)


def bilinear_oracle(img, xs, ys):
    """The one-image _bilinear as it was before it took stacks: fancy-indexed corners."""
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


def rgb_frame(r, g, b):
    data = np.zeros((2, 2, 3), dtype=np.uint8)
    data[..., 0], data[..., 1], data[..., 2] = r, g, b
    return Frame.from_array(data)


def weighted_sum_oracle(r, g, b):
    # independent oracle: direct BT.601 weighted sum, rounded half-up
    import decimal
    v = decimal.Decimal("0.299") * r + decimal.Decimal("0.587") * g + decimal.Decimal("0.114") * b
    return int(v.quantize(decimal.Decimal("1"), rounding=decimal.ROUND_HALF_UP))


class TestToGrayscale:
    def test_white(self):
        assert media._gray(rgb_frame(255, 255, 255))[0, 0] == 255

    def test_black(self):
        assert media._gray(rgb_frame(0, 0, 0))[0, 0] == 0

    def test_pure_red(self):
        assert weighted_sum_oracle(255, 0, 0) == 76
        assert media._gray(rgb_frame(255, 0, 0))[0, 0] == 76

    def test_matches_oracle_on_random_colors(self):
        rng = np.random.default_rng(0)
        for r, g, b in rng.integers(0, 256, (50, 3)):
            got = media._gray(rgb_frame(r, g, b))[0, 0]
            assert got == weighted_sum_oracle(int(r), int(g), int(b))


class TestFrame:
    @pytest.mark.parametrize("shape", [(5,), ()])
    def test_from_array_other_shape_rejected_with_shape(self, shape):
        for dtype in (np.uint8, np.float64):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                Frame.from_array(np.zeros(shape, dtype=dtype))

    @pytest.mark.parametrize("shape", [(4, 5, 1), (4, 5, 4), (5,), (2, 3, 3, 1)])
    def test_other_shape_rejected_with_shape(self, shape):
        with pytest.raises(ValueError, match=r"\(h, w\) or \(h, w, 3\).*" + re.escape(str(shape))):
            Frame(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0, 3)])
    def test_empty_side_rejected_with_shape(self, shape):
        with pytest.raises(ValueError, match=r">= 1.*" + re.escape(str(shape))):
            Frame(np.zeros(shape, dtype=np.uint8))

    def test_non_uint8_rejected_with_shape(self):
        with pytest.raises(ValueError, match=r"uint8.*\(4, 5\)"):
            Frame(np.zeros((4, 5)))

    @pytest.mark.parametrize("shape, channels", [((4, 5), 1), ((4, 5, 3), 3)])
    def test_sizes_come_from_data(self, shape, channels):
        f = Frame(np.zeros(shape, dtype=np.uint8))
        assert [field.name for field in dataclasses.fields(f)] == ["data"]
        assert (f.data.shape[:2], f.channels) == ((4, 5), channels)

    def test_clip_frames_must_share_shape(self):
        gray = Frame(np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(ValueError, match="share"):
            Clip((gray, Frame(np.zeros((4, 5, 3), dtype=np.uint8))))

    @pytest.mark.parametrize("arr, named", [
        (np.array([[7.0, 7.0, 7.0], [7.0, 7.0, np.nan]]), r"pixel \(x=2, y=1\) is not finite: nan"),
        (np.array([[7.0, 7.0, 7.0], [7.0, 7.0, np.inf]]), r"pixel \(x=2, y=1\) is not finite: inf"),
        (np.array([7.0, -np.inf]), r"pixel \(x=1, y=0\) is not finite: -inf"),
    ], ids=["nan", "inf", "one_row"])
    def test_from_array_non_finite_pixel_named(self, arr, named):
        # a NaN pixel used to become 0 with only a RuntimeWarning from the cast
        with pytest.raises(ValueError, match=f"^{named}$"):
            Frame.from_array(arr)

    def test_from_array_complex_named(self):
        # the imaginary part used to be dropped with only a ComplexWarning
        with pytest.raises(ValueError, match="^frame must be an array of real numbers, "
                                             "got dtype complex128$"):
            Frame.from_array(np.full((3, 4), 7.0 + 1j))

    def test_from_array_rounds_and_clips(self):
        got = Frame.from_array([[-3.0, 1.5, 254.4], [255.6, 300, 2]])
        assert got.data.dtype == np.uint8
        assert got.data.tolist() == [[0, 2, 254], [255, 255, 2]]

    @pytest.mark.parametrize("frames, named", [
        ((1, 2), "clip frame 0 must be a Frame, got int"),
        ((Frame(np.zeros((4, 5), dtype=np.uint8)), np.zeros((4, 5), dtype=np.uint8)),
         "clip frame 1 must be a Frame, got ndarray"),
    ], ids=["ints", "array"])
    def test_clip_items_must_be_frames(self, frames, named):
        # an array used to pass and to fail in write_clip on '.channels'
        with pytest.raises(ValueError, match=f"^{named}$"):
            Clip(frames)

    @pytest.mark.parametrize("frames, got", [
        (5, "int"), (None, "NoneType"), ("ab", "str"),
        (np.zeros((2, 4, 5), dtype=np.uint8), "ndarray"),
    ])
    def test_clip_frames_not_a_sequence_named(self, frames, got):
        # an int used to raise "object of type 'int' has no len()"
        with pytest.raises(ValueError, match=f"^frames must be a tuple or list, got {got}$"):
            Clip(frames)

    def test_clip_frames_tuple_or_list(self):
        frames = [Frame(np.full((4, 5), i, dtype=np.uint8)) for i in range(2)]
        for given in (frames, tuple(frames)):
            assert [f is g for f, g in zip(Clip(given).frames, frames)] == [True, True]

    def test_clip_frames_stored_as_a_tuple(self):
        # a list used to be kept as given: .frames.append(5) made a 3-frame clip
        frames = [Frame(np.full((4, 5), i, dtype=np.uint8)) for i in range(2)]
        clip = Clip(frames)
        frames.append(5)
        assert type(clip.frames) is tuple and len(clip.frames) == 2
        with pytest.raises(AttributeError):
            clip.frames.append(5)


def to_grayscale_oracle(frame: Frame) -> Frame:
    """The uint8 Frame converter that _gray went through before it did the work itself."""
    if frame.channels == 1:
        return frame
    rgb = frame.data.astype(np.float64)
    y = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    y = np.clip(np.floor(y + 0.5), 0, 255).astype(np.uint8)
    return Frame(y)


class TestGray:
    def test_rgb_frame_goes_through_to_grayscale(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, (9, 11, 3)).astype(np.uint8)
        data[0, :3] = [[0, 0, 0], [255, 255, 255], [255, 0, 0]]
        f = Frame(data)
        got = media._gray(f)
        assert got.dtype == np.float64 and got.shape == (9, 11)
        assert got.tobytes() == to_grayscale_oracle(f).data.astype(np.float64).tobytes()

    def test_gray_frame_cast_keeps_units(self):
        f = Frame(np.array([[0, 9], [255, 128]], dtype=np.uint8))
        assert np.array_equal(media._gray(f), f.data.astype(np.float64))

    def test_array_cast_keeps_units(self):
        arr = np.array([[0, 200], [255, 17]], dtype=np.uint8)
        assert np.array_equal(media._gray(arr), arr.astype(np.float64))

    def test_other_shape_rejected_with_shape(self):
        with pytest.raises(ValueError, match=r"\(4, 5, 3\)"):
            media._gray(np.zeros((4, 5, 3)))

    @pytest.mark.parametrize("shape", [(0, 5), (0, 1)])
    def test_array_without_rows_rejected_with_shape(self, shape):
        message = f"image sides must be >= 1, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            media._gray(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_names_first_pixel(self, bad):
        arr = np.full((6, 8), 50.0)
        arr[4, 2] = arr[5, 7] = bad
        with pytest.raises(ValueError, match=rf"pixel \(x=2, y=4\) is not finite: {bad}"):
            media._gray(arr)

    def test_complex_array_rejected_naming_image(self):
        # casting would drop the imaginary part with only a ComplexWarning
        img = np.full((4, 5), 100.0) + 1j
        with pytest.raises(ValueError, match=r"^image must be a 2-D array of real numbers, "
                                             r"got dtype complex128$"):
            media._gray(img)


class TestInputRules:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.int32(1), np.uint8(2)])
    def test_count_accepts_integers(self, value):
        media._count("n", value)

    @pytest.mark.parametrize("value, least", [
        (True, 1), (np.bool_(True), 1), (False, 0), (2.0, 1), (2.5, 1), ("2", 1), (None, 1),
        (0, 1), (np.int64(-1), 0), (1, 2),
    ])
    def test_count_rejects_with_bound_and_value(self, value, least):
        message = f"n must be an integer >= {least}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            media._count("n", value, least)

    @pytest.mark.parametrize("value, least, step", [
        (5, 5, 2), (9, 5, 2), (np.int64(9), 5, 2), (4, 4, 4), (8, 4, 4), (np.int64(8), 4, 4),
    ])
    def test_count_accepts_each_step(self, value, least, step):
        media._count("n", value, least, "a counted integer", step)

    @pytest.mark.parametrize("name, value, least, what, step", [
        ("window", 6, 5, "an odd integer", 2), ("window", 8, 5, "an odd integer", 2),
        ("window", np.int64(8), 5, "an odd integer", 2), ("patch", 6, 4, "a multiple of 4", 4),
        ("patch", np.int64(6), 4, "a multiple of 4", 4),
    ])
    def test_count_rejects_off_step(self, name, value, least, what, step):
        message = f"{name} must be {what} >= {least}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            media._count(name, value, least, what, step)

    def test_finite_names_first_entry_in_c_order(self):
        arr = np.zeros((3, 4))
        arr[2, 0] = np.nan
        arr[1, 3] = -np.inf
        with pytest.raises(ValueError, match=r"^row 1 col 3 is not finite: -inf$"):
            media._finite(arr, "row {0} col {1}")
        with pytest.raises(ValueError, match=r"^point 1 is not finite: -inf$"):
            media._finite(arr, "point {0}")

    def test_finite_passes_finite_and_empty_arrays(self):
        media._finite(np.arange(6.0).reshape(2, 3), "entry {0}")
        media._finite(np.zeros((0, 3)), "entry {0}")

    @pytest.mark.parametrize("p", [(1, 2), [1.5, -2.0], np.array([1.0, 2.0]),
                                   (np.int64(1), np.float32(2.0)), (Fraction(1, 2), 2)])
    def test_point_gives_python_floats(self, p):
        x, y = media._point(p)
        assert type(x) is float and type(y) is float
        assert (x, y) == (float(p[0]), float(p[1]))

    @pytest.mark.parametrize("p", [(True, 1.0), (1.0, np.bool_(False)), (np.nan, 1.0),
                                   (1.0, -np.inf), (1.0,), (1, 2, 3), "12", ("1", 2), 1.5, None,
                                   np.zeros((1, 2))])
    def test_point_rejects_with_value(self, p):
        message = f"point {p!r} is not two finite real numbers (x, y)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            media._point(p)

    def test_rows_converts_without_copying_float_arrays(self):
        arr = np.arange(6.0).reshape(3, 2)
        assert media._rows("v", arr, "v {0}", 2) is arr
        got = media._rows("v", [[1, 2]], "v {0}")
        assert got.dtype == np.float64 and got.shape == (1, 2)
        assert media._rows("v", np.zeros((0, 4)), "v {0}", 4).shape == (0, 4)
        assert media._rows("v", [1.0, 2.0], "v {0}", 2, ndmin=2).shape == (1, 2)
        assert media._rows("v", arr, "v {0}", 2, ndmin=2) is arr
        assert media._rows("v", 5.0, "v {0}", 1, ndmin=2).shape == (1, 1)

    @pytest.mark.parametrize("values, empty", [
        ([], True), ((), True), (np.zeros(0), True), (np.zeros((0, 2)), True),
        ([[1.0, 2.0]], False), ([[1.0], [2.0, 3.0]], False),
        (5.0, False), (np.float64(5.0), False), (np.array(5.0), False), (None, False),
    ])
    def test_no_rows_only_for_empty_sequences(self, values, empty):
        assert media._no_rows(values) is empty

    @pytest.mark.parametrize("value, finite", [
        (1, True), (-2.5, True), (np.float32(2.0), True), (np.int64(3), True),
        (Fraction(1, 2), True), (True, False), (np.bool_(True), False), (math.nan, False),
        (math.inf, False), (np.float64(-np.inf), False), ("1", False), (None, False),
        (1 + 0j, False),
    ])
    def test_finite_real(self, value, finite):
        assert media._finite_real(value) == finite

    @pytest.mark.parametrize("values, width, message", [
        (np.zeros((3, 2, 2)), None, r"v must be a 2-D array of width >= 1, got (3, 2, 2)"),
        (np.zeros((3, 0)), None, r"v must be a 2-D array of width >= 1, got (3, 0)"),
        (np.zeros(3), None, r"v must be a 2-D array of width >= 1, got (3,)"),
        (np.zeros((3, 2)), 3, r"v must be a 2-D array of width 3, got (3, 2)"),
        ([[1.0, 2.0], [3.0]], None, "v must be a 2-D array of real numbers: setting an array"),
        ([["a", "b"]], None, "v must be a 2-D array of real numbers: could not convert"),
        ([[1.0, np.inf], [np.nan, 0.0]], None, "v row 0 col 1 is not finite: inf"),
    ], ids=["three_d", "no_columns", "one_d", "width", "ragged", "text", "inf"])
    def test_rows_rejects_naming_input(self, values, width, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            media._rows("v", values, "v row {0} col {1}", width)


class TestBilinear:
    @pytest.mark.parametrize("shape", [(6, 7), (1, 5), (5, 1), (1, 1)])
    def test_matches_map_coordinates(self, shape):
        rng = np.random.default_rng(sum(shape))
        img = rng.uniform(0, 255, shape)
        h, w = shape
        # inside and up to two pixels outside on every side
        xs = rng.uniform(-2.0, w + 1.0, 200)
        ys = rng.uniform(-2.0, h + 1.0, 200)
        want = ndimage.map_coordinates(img, [ys, xs], order=1, mode="nearest")
        assert np.abs(media._bilinear(img, xs, ys) - want).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(6, 7), (1, 5), (5, 1), (1, 1)])
    def test_stack_equals_per_image_calls(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        stack = rng.uniform(-50, 255, (3,) + shape)
        h, w = shape
        xs = rng.uniform(-2.0, w + 1.0, (4, 9))
        ys = rng.uniform(-2.0, h + 1.0, (4, 9))
        xs[0, :4] = [0.0, w - 1.0, 0.0, w - 1.0]  # the corners themselves
        ys[0, :4] = [0.0, 0.0, h - 1.0, h - 1.0]
        got = media._bilinear(stack, xs, ys)
        assert got.shape == (3, 4, 9)
        for k in range(3):
            one = media._bilinear(stack[k], xs, ys)
            assert np.array_equal(got[k], one)
            assert np.array_equal(one, bilinear_oracle(stack[k], xs, ys))

    def test_integer_points_exact(self):
        img = np.arange(12.0).reshape(3, 4)
        ys, xs = np.mgrid[0:3, 0:4]
        assert np.array_equal(media._bilinear(img, xs.astype(float), ys.astype(float)), img)


GREY = np.arange(6, dtype=np.uint8).reshape(2, 3)
RASTER = GREY.tobytes()
READER_TABLE = [pytest.param(*row[1:], id=row[0]) for row in [
    # accepted: what _write_pnm writes (data None), then headers written by hand
    ("written_p5", None, GREY),
    ("written_p6", None, np.arange(18, dtype=np.uint8).reshape(2, 3, 3)),
    ("written_1x1", None, np.full((1, 1), 200, dtype=np.uint8)),
    ("written_48x64", None, np.random.default_rng(3).integers(0, 256, (48, 64), np.uint8)),
    ("comment_after_magic", b"P5# made by hand\n3 2\n255\n" + RASTER, GREY),
    ("comments_between_fields", b"P5\n# size\n3 # width\n#\n2#height\r255\n" + RASTER, GREY),
    ("tabs_and_crlf", b"P5\t3\r\n2 \t 255\r" + RASTER, GREY),
    ("zero_padded", b"P5 003 02 0255\n" + RASTER, GREY),
    ("zero_padded_to_30_digits", b"P5\n" + b"0" * 29 + b"3 2\n255\n" + RASTER, GREY),
    ("trailing_bytes_ignored", b"P5 3 2 255\n" + RASTER + b"P5 1 1 255\n\0", GREY),
    # rejected: the message after "malformed frame file frame_000001.pgm: "
    ("magic_p7", b"P7\n3 2\n255\n" + RASTER, "no P5 or P6 header"),
    ("magic_p2", b"P2\n3 2\n255\n0 1 2 3 4 5\n", "no P5 or P6 header"),
    ("non_numeric_field", b"P5\n3 x\n255\n" + RASTER, "no P5 or P6 header"),
    ("cut_before_maxval", b"P5\n3 2\n", "no P5 or P6 header"),
    ("comment_to_end_of_file", b"P5\n3 2 # no maxval", "no P5 or P6 header"),
    ("no_byte_after_maxval", b"P5\n3 2\n255", "no P5 or P6 header"),
    ("comment_before_raster", b"P5\n3 2\n255# pixels\n" + RASTER, "no P5 or P6 header"),
    ("signed_field", b"P5\n3 +2\n255\n" + RASTER, "no P5 or P6 header"),
    ("negative_sides", b"P5\n-3 -2\n255\n" + RASTER, "no P5 or P6 header"),
    ("leading_whitespace", b" P5\n3 2\n255\n" + RASTER, "no P5 or P6 header"),
    ("no_space_after_magic", b"P53 2\n255\n" + RASTER, "no P5 or P6 header"),
    ("field_of_10_to_the_18", b"P5\n1" + b"0" * 18 + b" 2\n255\n" + RASTER,
     "no P5 or P6 header"),
    ("field_of_5000_digits", b"P5\n" + b"9" * 5000 + b" 2\n255\n", "no P5 or P6 header"),
    ("maxval_65535", b"P5\n3 2\n65535\n" + RASTER * 2, "sides must be >= 1 and maxval 255, "
                                                      "got 3x2 and maxval 65535$"),
    ("width_0", b"P5\n0 2\n255\n", "sides must be >= 1 and maxval 255, got 0x2 and maxval 255$"),
    ("height_0", b"P5\n3 0\n255\n", "sides must be >= 1 and maxval 255, got 3x0 and maxval 255$"),
    ("short_raster", b"P5\n3 2\n255\n" + RASTER[:5], "expected 6 pixel bytes$"),
    ("short_p6_raster", b"P6\n3 2\n255\n" + RASTER * 2, "expected 18 pixel bytes$"),
]]


class TestClipIO:
    def make_clip(self, n=3, w=64, h=48, seed=1):
        rng = np.random.default_rng(seed)
        frames = tuple(Frame.from_array(rng.integers(0, 256, (h, w)).astype(np.uint8))
                       for _ in range(n))
        return Clip(frames, clip_id="t")

    def test_round_trip_bit_exact(self, tmp_path):
        clip = self.make_clip()
        write_clip(clip, tmp_path / "c")
        loaded = load_clip(tmp_path / "c")
        assert len(loaded.frames) == 3
        for a, b in zip(clip.frames, loaded.frames):
            assert np.array_equal(a.data, b.data)

    def test_loader_contract(self, tmp_path):
        write_clip(self.make_clip(), tmp_path / "c")
        clip = load_clip(tmp_path / "c")
        assert len(clip.frames) == 3 and clip.frames[0].data.shape[1] == 64
        assert clip.clip_id == "c"

    def test_empty_directory(self, tmp_path):
        (tmp_path / "c").mkdir()
        with pytest.raises(ValueError, match="no frames"):
            load_clip(tmp_path / "c")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_clip(tmp_path / "nope")

    def test_inconsistent_dimensions_names_file(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        media._write_pnm(d / "frame_000000.pgm", np.zeros((48, 64), dtype=np.uint8))
        media._write_pnm(d / "frame_000001.pgm", np.zeros((48, 64), dtype=np.uint8))
        media._write_pnm(d / "frame_000002.pgm", np.zeros((24, 32), dtype=np.uint8))
        with pytest.raises(ValueError, match="frame_000002"):
            load_clip(d)

    def test_first_inconsistent_file_named(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        for name, shape in [("frame_000000.pgm", (48, 64)), ("frame_000001.pgm", (24, 32)),
                            ("frame_000002.ppm", (48, 64, 3)), ("frame_000003.pgm", (48, 64))]:
            media._write_pnm(d / name, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ValueError, match="^inconsistent dimensions in frame_000001.pgm: 32x24 vs 64x48"):
            load_clip(d)

    def test_colour_frame_among_gray_names_channels(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        media._write_pnm(d / "frame_000000.pgm", np.zeros((48, 64), dtype=np.uint8))
        media._write_pnm(d / "frame_000001.ppm", np.zeros((48, 64, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="^inconsistent dimensions in frame_000001.ppm: "
                                             "64x48x3 vs 64x48$"):
            load_clip(d)

    def test_malformed_file_names_file(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        media._write_pnm(d / "frame_000000.pgm", np.zeros((4, 4), dtype=np.uint8))
        (d / "frame_000001.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        with pytest.raises(ValueError, match="frame_000001"):
            load_clip(d)

    @pytest.mark.parametrize("data, want", READER_TABLE)
    def test_reader_table(self, tmp_path, data, want):
        # frame_000000 is a good frame of the expected shape; frame_000001 is
        # `data`, or `want` as _write_pnm writes it when `data` is None
        d = tmp_path / "c"
        d.mkdir()
        accepted = isinstance(want, np.ndarray)
        media._write_pnm(d / "frame_000000.pgm", want if accepted else GREY)
        if data is None:
            media._write_pnm(d / "frame_000001.pgm", want)
        else:
            (d / "frame_000001.pgm").write_bytes(data)
        if accepted:
            got = load_clip(d).frames[1].data
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        else:
            with pytest.raises(ValueError, match="^malformed frame file frame_000001.pgm: "
                                                 + want):
                load_clip(d)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = tuple(Frame.from_array(rng.integers(0, 256, (8, 10, 3)).astype(np.uint8))
                       for _ in range(2))
        clip = Clip(frames)
        write_clip(clip, tmp_path / "c")
        loaded = load_clip(tmp_path / "c")
        assert np.array_equal(loaded.frames[1].data, frames[1].data)


def simple_spec(**kw):
    defaults = dict(
        objects=(ObjectPath("line", {"u0": 20.0, "v0": 24.0, "du": 0.5, "z0": 3.0}),),
        focal=100.0, baseline=0.3, width=64, height=48, frames=6,
        noise_sigma=0.0, seed=5,
    )
    defaults.update(kw)
    return SceneSpec(**defaults)


def pinhole_oracle(spec, u, v, z):
    """Independent pinhole projection: left pixel and right pixel of the 3D point."""
    cx, cy = (spec.width - 1) / 2, (spec.height - 1) / 2
    X = (u - cx) * z / spec.focal
    Y = (v - cy) * z / spec.focal
    ur = spec.focal * (X - spec.baseline) / z + cx
    return (u, v), (ur, v)


class TestSynthStereo:
    def test_static_scene_zero_flow(self):
        spec = simple_spec(objects=(ObjectPath("line", {"u0": 30.0, "v0": 20.0, "z0": 3.0}),))
        _, _, gt = synth_stereo(spec)
        assert np.all(np.diff(gt.left_uv, axis=0) == 0)
        assert np.all(np.diff(gt.right_uv, axis=0) == 0)

    def test_far_object_near_zero_disparity(self):
        spec = simple_spec(objects=(ObjectPath("line", {"u0": 32.0, "v0": 24.0, "z0": 1e9}),))
        _, _, gt = synth_stereo(spec)
        assert np.all(gt.disparity < 1e-6)

    def test_disparity_is_fb_over_z(self):
        # f=100, b=0.3, Z=3 -> d = 10, via direct pinhole oracle u - u'
        spec = simple_spec(objects=(ObjectPath("line", {"u0": 32.0, "v0": 24.0, "z0": 3.0}),))
        _, _, gt = synth_stereo(spec)
        (u, v), (ur, vr) = pinhole_oracle(spec, 32.0, 24.0, 3.0)
        assert abs((u - ur) - 10.0) < 1e-12
        assert np.allclose(gt.disparity, 10.0, rtol=1e-9)
        assert np.allclose(gt.left_uv[:, 0, 0] - gt.right_uv[:, 0, 0], 10.0, atol=1e-9)

    def test_disparity_matches_fb_over_z_everywhere(self):
        spec = simple_spec(objects=(
            ObjectPath("line", {"u0": 24.0, "v0": 20.0, "du": 0.5, "z0": 2.0, "dz": 0.2}),))
        _, _, gt = synth_stereo(spec)
        for t in range(spec.frames):
            z = 2.0 + 0.2 * t
            assert abs(gt.disparity[t, 0] - spec.focal * spec.baseline / z) <= 1e-9 * abs(gt.disparity[t, 0])

    def test_deterministic_given_seed(self):
        spec = simple_spec(noise_sigma=2.0)
        l1, r1, _ = synth_stereo(spec)
        l2, r2, _ = synth_stereo(spec)
        for a, b in zip(l1.frames + r1.frames, l2.frames + r2.frames):
            assert np.array_equal(a.data, b.data)

    def test_object_never_visible_errors(self):
        with pytest.raises(ValueError, match="never projects"):
            simple_spec(objects=(ObjectPath("line", {"u0": 500.0, "v0": 500.0, "z0": 3.0}),))

    def test_ground_truth_stores_each_fact_once(self):
        spec = simple_spec(objects=(
            ObjectPath("line", {"u0": 20.0, "v0": 18.0, "du": 1.0, "dv": 0.5, "z0": 2.0,
                                "dz": 0.3}),))
        _, _, gt = synth_stereo(spec)
        assert [f.name for f in dataclasses.fields(gt)] == ["left_uv", "disparity"]
        assert np.array_equal(gt.right_uv[..., 0], gt.left_uv[..., 0] - gt.disparity)
        assert np.array_equal(gt.right_uv[..., 1], gt.left_uv[..., 1])
        s = 1.0 / math.sqrt(2.0)
        assert np.array_equal(gt.F, [[0.0, 0.0, 0.0], [0.0, 0.0, s], [0.0, -s, 0.0]])

    def test_parallel_cameras_share_rows(self):
        spec = simple_spec()
        _, _, gt = synth_stereo(spec)
        assert np.allclose(gt.left_uv[..., 1], gt.right_uv[..., 1], atol=1e-9)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            simple_spec(objects=(ObjectPath("line", {"u0": 20.0, "v0": 20.0, "z0": 1.0,
                                                     "dz": -0.5}),))


class TestSceneSpec:
    def test_toein_is_a_constant_not_an_argument(self):
        assert simple_spec().toein == 0.0
        with pytest.raises(TypeError, match="toein"):
            simple_spec(toein=1.0)

    @pytest.mark.parametrize("field, value", [
        ("width", 0), ("height", 0), ("width", -3), ("noise_sigma", -1.0),
        ("noise_sigma", float("nan")), ("patch", 0), ("patch", 1.5), ("patch", -2),
        ("width", 64.5), ("height", 48.0), ("frames", 2.5), ("frames", 1), ("frames", "6"),
        ("seed", -1), ("seed", 1.5), ("background", float("nan")), ("width", True),
        ("height", np.bool_(True)), ("frames", True),
        ("background", float("inf")), ("background", None),
        ("seed", True), ("seed", np.bool_(True)), ("patch", True), ("noise_sigma", float("inf")),
        ("noise_sigma", True), ("noise_sigma", "1"), ("background", True),
    ])
    def test_bad_value_names_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            simple_spec(**{field: value})

    @pytest.mark.parametrize("objects, got", [
        (5, "int"), (None, "NoneType"), ({"a": 1}, "dict"),
        (ObjectPath("line", {"u0": 20.0, "v0": 20.0}), "ObjectPath"),
    ])
    def test_objects_not_a_sequence_named(self, objects, got):
        # an int used to raise "'int' object is not iterable"
        with pytest.raises(ValueError, match=f"^objects must be a tuple or list, got {got}$"):
            simple_spec(objects=objects)

    def test_objects_tuple_or_list(self):
        path = ObjectPath("line", {"u0": 20.0, "v0": 20.0})
        assert simple_spec(objects=[path]).objects == (path,)

    def test_objects_stored_as_a_tuple(self):
        # a list used to be kept as given, so it could change after the checks
        path = ObjectPath("line", {"u0": 20.0, "v0": 20.0})
        given = [path]
        spec = simple_spec(objects=given)
        given.append(5)
        assert type(spec.objects) is tuple and spec.objects == (path,)

    def test_object_not_a_path_named(self):
        # a string used to fail on '.params'
        with pytest.raises(ValueError, match="^object 1 must be an ObjectPath, got str$"):
            SceneSpec(objects=(ObjectPath("line", {"u0": 20.0, "v0": 20.0}), "x"))

    @pytest.mark.parametrize("kw", [dict(focal=float("nan")), dict(baseline=float("nan")),
                                    dict(focal=0.0), dict(focal=float("inf")),
                                    dict(baseline=1e308), dict(focal="1"), dict(baseline=True)])
    def test_bad_rig_rejected(self, kw):
        with pytest.raises(ValueError, match="baseline and focal"):
            simple_spec(**kw)

    @pytest.mark.parametrize("kind", ["vosc", "circle"])
    def test_period_too_short_for_the_frames_named(self, kind):
        # 2*pi/period is finite, but 2*pi*t/period overflows from frame 3 on;
        # it used to be a bare "math domain error" from math.sin
        path = ObjectPath(kind, {"u0": 20.0, "v0": 20.0, "period": 1e-307})
        with pytest.raises(ValueError, match=r"^object path period 1e-307 leaves the phase at "
                                             r"frame 3 infinite$"):
            SceneSpec(objects=(path,), frames=40)
        assert SceneSpec(objects=(path,), frames=3).frames == 3

    def test_nan_depth_rejected(self):
        with pytest.raises(ValueError, match="^object path z0 must be a finite number, got nan$"):
            simple_spec(objects=(ObjectPath("line", {"u0": 20.0, "v0": 20.0,
                                                     "z0": float("nan")}),))

    def test_scene_without_objects_rejected(self):
        with pytest.raises(ValueError, match="at least one object"):
            simple_spec(objects=())

    @pytest.mark.parametrize("size", [0, 1.5, -4, float("nan"), "16", True])
    def test_bad_object_patch_names_object(self, size):
        obj = ObjectPath("line", {"u0": 20.0, "v0": 24.0, "patch": size})
        with pytest.raises(ValueError, match="^object 0 patch must be"):
            simple_spec(objects=(obj,))

    def test_integral_patch_values_accepted(self):
        objects = (ObjectPath("line", {"u0": 20.0, "v0": 24.0, "patch": 9.0}),
                   ObjectPath("line", {"u0": 40.0, "v0": 24.0}))
        left, _, _ = synth_stereo(simple_spec(objects=objects, patch=np.int64(5),
                                              background=0.0))
        painted = left.frames[0].data > 0
        assert painted[20:29, 16:25].all() and painted[22:27, 38:43].all()
        assert painted.sum() == 9 * 9 + 5 * 5


    def test_numpy_integer_counts_accepted(self):
        want, _, _ = synth_stereo(simple_spec())
        got, _, _ = synth_stereo(simple_spec(width=np.int64(64), height=np.int64(48),
                                             frames=np.int64(6), seed=np.int64(5)))
        assert all(np.array_equal(a.data, b.data) for a, b in zip(got.frames, want.frames))

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_small_sprite_fills_its_footprint(self, size):
        # centred so the sprite's first texel lands on pixel (10, 12): it covers
        # exactly size x size pixels of the black background
        half = (size - 1) / 2
        obj = ObjectPath("line", {"u0": 10.0 + half, "v0": 12.0 + half})
        left, _, _ = synth_stereo(simple_spec(objects=(obj,), patch=size, background=0.0))
        for frame in left.frames:
            painted = frame.data > 0
            assert painted[12:12 + size, 10:10 + size].all()
            assert painted.sum() == size * size


class TestObjectPath:
    @pytest.mark.parametrize("t", [0.0, 2.5, 7.0, 31.0])
    def test_circle_stays_radius_from_center(self, t):
        path = ObjectPath("circle", {"u0": 30.0, "v0": 20.0, "radius": 4.5, "period": 13.0,
                                     "phase": 0.7, "z0": 3.0, "dz": -0.05})
        u, v, z = path.center(t)
        assert math.hypot(u - 30.0, v - 20.0) == pytest.approx(4.5, abs=1e-12)
        assert z == pytest.approx(3.0 - 0.05 * t, abs=1e-12)

    def test_circle_starts_at_phase_and_closes_after_one_period(self):
        path = ObjectPath("circle", {"u0": 30.0, "v0": 20.0, "radius": 4.5, "period": 13.0,
                                     "phase": 0.7})
        want = (30.0 + 4.5 * math.cos(0.7), 20.0 + 4.5 * math.sin(0.7))
        assert path.center(0.0)[:2] == pytest.approx(want, abs=1e-12)
        assert path.center(13.0)[:2] == pytest.approx(want, abs=1e-12)

    def test_vosc_is_a_vertical_sine(self):
        p = {"u0": 10.0, "v0": 20.0, "du": 0.4, "amp": 3.0, "period": 12.0, "phase": 0.9}
        path = ObjectPath("vosc", p)
        # v - v0 = amp sin(phase) at t = 0, amp cos(phase) a quarter period later
        assert path.center(0.0)[1] - 20.0 == pytest.approx(3.0 * math.sin(0.9), abs=1e-12)
        assert path.center(3.0)[1] - 20.0 == pytest.approx(3.0 * math.cos(0.9), abs=1e-12)
        assert path.center(12.0)[1] == pytest.approx(path.center(0.0)[1], abs=1e-12)
        assert [path.center(t)[0] for t in (0.0, 5.0)] == pytest.approx([10.0, 12.0], abs=1e-12)

    @pytest.mark.parametrize("kind, key", [("circle", "raduis"), ("line", "speed"),
                                           ("vosc", "Amp")])
    def test_unknown_parameter_named(self, kind, key):
        with pytest.raises(ValueError, match=repr(key)):
            ObjectPath(kind, {"u0": 10.0, key: 2.0})

    @pytest.mark.parametrize("key, value", [
        ("u0", "3"), ("u0", float("nan")), ("dz", float("inf")), ("period", True), ("amp", None),
        ("period", 0.0), ("period", -0.0), ("period", 0), ("period", 1e-320),
        ("period", -5e-324), ("period", np.float64(1e-320)),
    ])
    def test_bad_value_named(self, key, value):
        # the sprite size is left to SceneSpec, which names the object; a finite
        # period too small for a finite 2*pi/period (zero, subnormal) has its own rule
        rule = "leave 2\\*pi/period finite" if media._finite_real(value) else "be a finite number"
        with pytest.raises(ValueError, match=f"^object path {key} must {rule}, "
                                             f"got {re.escape(repr(value))}$"):
            ObjectPath("vosc", {"u0": 10.0, key: value})

    @pytest.mark.parametrize("params, got", [
        (5, "int"), (None, "NoneType"), ([("u0", 1.0)], "list"), ("u0", "str"),
    ])
    def test_params_not_a_mapping_named(self, params, got):
        # an int or None used to raise "... object is not iterable"
        with pytest.raises(ValueError, match=f"^params must be a mapping, got {got}$"):
            ObjectPath("line", params)

    def test_params_any_mapping(self):
        params = types.MappingProxyType({"u0": 1.0, "du": 2.0})
        assert ObjectPath("line", params).center(3.0) == (7.0, 0.0, 3.0)

    def test_every_known_parameter_accepted_by_every_kind(self):
        # keys are not checked per kind: the trajectory corpus gives `line` paths a phase
        params = dict.fromkeys(["u0", "v0", "z0", "dz", "du", "dv", "amp", "period", "phase",
                                "radius", "patch"], 1.0)
        for kind in ObjectPath._KINDS:
            assert ObjectPath(kind, params).center(0.0)[2] == 1.0


@st.composite
def moving_object(draw):
    """One object of each kind the corpora use, inside a 64x48 frame for 6 frames."""
    kind = draw(st.sampled_from(["line", "vosc", "circle"]))
    p = dict(u0=draw(st.floats(20.0, 44.0)), v0=draw(st.floats(16.0, 32.0)),
             z0=draw(st.floats(2.0, 5.0)), dz=draw(st.floats(-0.1, 0.1)))
    if kind == "line":
        p.update(du=draw(st.floats(-1.0, 1.0)), dv=draw(st.floats(-1.0, 1.0)))
    else:
        p.update(period=draw(st.floats(6.0, 20.0)), phase=draw(st.floats(0.0, 2.0 * math.pi)))
    if kind == "vosc":
        p.update(du=draw(st.floats(-1.0, 1.0)), amp=draw(st.floats(0.5, 4.0)))
    elif kind == "circle":
        p.update(radius=draw(st.floats(1.0, 6.0)))
    return ObjectPath(kind, p)


class TestGroundTruthProperties:
    @settings(max_examples=30, deadline=None)
    @given(moving_object())
    def test_projections_satisfy_epipolar_constraint(self, obj):
        spec = simple_spec(objects=(obj,), focal=80.0)
        _, _, gt = synth_stereo(spec)
        pl = np.concatenate([gt.left_uv[:, 0], np.ones((spec.frames, 1))], axis=1)
        pr = np.concatenate([gt.right_uv[:, 0], np.ones((spec.frames, 1))], axis=1)
        assert np.abs(np.einsum("ti,ij,tj->t", pl, gt.F, pr)).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(moving_object())
    def test_parallel_rig_shares_rows_and_disparity_is_fb_over_z(self, obj):
        spec = simple_spec(objects=(obj,), focal=80.0)
        _, _, gt = synth_stereo(spec)
        fb_over_z = np.array([80.0 * 0.3 / obj.center(t)[2] for t in range(spec.frames)])
        assert np.allclose(gt.left_uv[:, 0, 1], gt.right_uv[:, 0, 1], rtol=0, atol=1e-9)
        assert np.allclose(gt.left_uv[:, 0, 0] - gt.right_uv[:, 0, 0], fb_over_z,
                           rtol=0, atol=1e-9)
        assert np.allclose(gt.disparity[:, 0], fb_over_z, rtol=1e-12, atol=0)


def paint_sprite_oracle(img: np.ndarray, tex: np.ndarray, topleft, Hinv: np.ndarray | None):
    """The painter synth_stereo used while it modelled a toed-in right camera,
    kept verbatim: Hinv maps image pixels back to left-image coords."""
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
    sub[inside] = media._bilinear(tex, tx[inside], ty[inside])


def right_view_homography_oracle(focal, baseline, width, height, z):
    """Inverse of the plane-induced homography K(R - t n^T / z)K^-1 that drew
    the right view of a fronto-parallel sprite at depth z, for the parallel
    rig: R = rotation about y by 0, t = -R (baseline, 0, 0)."""
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    K = np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])
    c, s = math.cos(0.0), math.sin(0.0)
    R = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    t = -R @ np.array([baseline, 0.0, 0.0])
    Kinv = np.linalg.inv(K)
    Hplane = K @ (R - np.outer(t, np.array([0.0, 0.0, -1.0 / z]))) @ Kinv
    return np.linalg.inv(Hplane)


# quarter-pixel corners and round depths put sprite edges on pixel centres,
# where the two painters' round-off can disagree
coord = st.one_of(st.floats(-20.0, 70.0), st.integers(-80, 280).map(lambda k: k / 4.0))
depth = st.one_of(st.floats(0.5, 20.0), st.sampled_from([1.5, 2.0, 2.4, 3.0, 4.0, 6.0]))
focal = st.one_of(st.floats(10.0, 200.0), st.sampled_from([64.0, 80.0, 100.0]))
baseline = st.one_of(st.floats(0.05, 1.0), st.sampled_from([0.25, 0.3, 0.5]))


def on_sprite_edge(exact: Fraction, size: int) -> bool:
    return min(abs(exact), abs(exact - (size - 1))) <= 1e-9


class TestRightViewPainter:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 18), coord, coord, depth, focal, baseline, st.integers(0, 2 ** 32 - 1))
    def test_translation_matches_homography_oracle(self, size, tlx, tly, z, f, b, seed):
        w, h = 64, 48
        tex = np.random.default_rng(seed).uniform(0.0, 255.0, (size, size))
        want = np.full((h, w), np.nan)
        got = want.copy()
        paint_sprite_oracle(want, tex, (tlx, tly), right_view_homography_oracle(f, b, w, h, z))
        media._paint_sprite(got, tex, (tlx - f * b / z, tly))
        both = ~np.isnan(want) & ~np.isnan(got)
        assert np.abs(want[both] - got[both]).max(initial=0.0) <= 1e-9
        # a pixel only one painter covers sits on the sprite edge in exact arithmetic
        d = Fraction(f) * Fraction(b) / Fraction(z)
        for y, x in zip(*np.nonzero(np.isnan(want) != np.isnan(got))):
            tx = int(x) - Fraction(tlx) + d
            ty = int(y) - Fraction(tly)
            assert on_sprite_edge(tx, size) or on_sprite_edge(ty, size), (x, y, float(tx), float(ty))
