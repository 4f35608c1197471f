import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from trailblaze import media
from trailblaze.media import (
    Clip, Frame, ObjectPath, SceneSpec, load_clip, synth_stereo, to_grayscale, write_clip,
)


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
        assert to_grayscale(rgb_frame(255, 255, 255)).data[0, 0] == 255

    def test_black(self):
        assert to_grayscale(rgb_frame(0, 0, 0)).data[0, 0] == 0

    def test_pure_red(self):
        assert weighted_sum_oracle(255, 0, 0) == 76
        assert to_grayscale(rgb_frame(255, 0, 0)).data[0, 0] == 76

    def test_matches_oracle_on_random_colors(self):
        rng = np.random.default_rng(0)
        for r, g, b in rng.integers(0, 256, (50, 3)):
            got = to_grayscale(rgb_frame(r, g, b)).data[0, 0]
            assert got == weighted_sum_oracle(int(r), int(g), int(b))

    def test_gray_passthrough(self):
        f = Frame.from_array(np.full((3, 4), 9, dtype=np.uint8))
        assert to_grayscale(f) is f


class TestFrame:
    @pytest.mark.parametrize("shape", [(5,), ()])
    def test_from_array_other_shape_rejected_with_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            Frame.from_array(np.zeros(shape, dtype=np.uint8))


class TestGray:
    def test_rgb_frame_goes_through_to_grayscale(self):
        f = rgb_frame(255, 0, 0)
        got = media._gray(f)
        assert got.dtype == np.float64 and got.shape == (2, 2)
        assert np.array_equal(got, to_grayscale(f).data)

    def test_array_cast_keeps_units(self):
        arr = np.array([[0, 200], [255, 17]], dtype=np.uint8)
        assert np.array_equal(media._gray(arr), arr.astype(np.float64))

    def test_other_shape_rejected_with_shape(self):
        with pytest.raises(ValueError, match=r"\(4, 5, 3\)"):
            media._gray(np.zeros((4, 5, 3)))


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

    def test_integer_points_exact(self):
        img = np.arange(12.0).reshape(3, 4)
        ys, xs = np.mgrid[0:3, 0:4]
        assert np.array_equal(media._bilinear(img, xs.astype(float), ys.astype(float)), img)


class TestArrays:
    def test_round_trip_at_exact_path(self, tmp_path):
        p = tmp_path / "a.bin"
        w = np.random.default_rng(0).normal(size=(3, 4))
        media.save_arrays(p, w=w, names=np.array(["x", "y z"]))
        assert [q.name for q in tmp_path.iterdir()] == ["a.bin"]
        back = media.load_arrays(p, ("w", "names"))
        assert np.array_equal(back["w"], w)
        assert back["names"].tolist() == ["x", "y z"]

    def test_missing_array_names_path(self, tmp_path):
        p = tmp_path / "a.npz"
        media.save_arrays(p, w=np.zeros(2))
        with pytest.raises(ValueError, match=r"a\.npz.*'v'"):
            media.load_arrays(p, ("w", "v"))

    @pytest.mark.parametrize("content", [b"", b"1 2 3\n", b"PK\x03\x04 truncated"])
    def test_unreadable_file_names_path(self, tmp_path, content):
        p = tmp_path / "a.npz"
        p.write_bytes(content)
        with pytest.raises(ValueError, match=r"a\.npz"):
            media.load_arrays(p, ("w",))

    def test_single_array_file_rejected(self, tmp_path):
        p = tmp_path / "a.npy"
        np.save(p, np.zeros(3))
        with pytest.raises(ValueError, match=r"a\.npy"):
            media.load_arrays(p, ("w",))

    def test_pickled_array_rejected(self, tmp_path):
        p = tmp_path / "a.npz"
        media.save_arrays(p, w=np.array([{"a": 1}], dtype=object))
        with pytest.raises(ValueError, match=r"a\.npz"):
            media.load_arrays(p, ("w",))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            media.load_arrays(tmp_path / "none.npz", ("w",))


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
        assert len(loaded) == 3
        for a, b in zip(clip.frames, loaded.frames):
            assert np.array_equal(a.data, b.data)

    def test_loader_contract(self, tmp_path):
        write_clip(self.make_clip(), tmp_path / "c")
        clip = load_clip(tmp_path / "c")
        assert len(clip) == 3 and clip.width == 64

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

    def test_malformed_file_names_file(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        media._write_pnm(d / "frame_000000.pgm", np.zeros((4, 4), dtype=np.uint8))
        (d / "frame_000001.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        with pytest.raises(ValueError, match="frame_000001"):
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
        spec = simple_spec(objects=(ObjectPath("line", {"u0": 500.0, "v0": 500.0, "z0": 3.0}),))
        with pytest.raises(ValueError, match="never projects"):
            synth_stereo(spec)

    def test_exact_fundamental_annihilates_projections(self):
        spec = simple_spec(
            objects=(ObjectPath("line", {"u0": 20.0, "v0": 18.0, "du": 1.0, "dv": 0.5,
                                         "z0": 2.0, "dz": 0.3}),),
            toein=2.0)
        _, _, gt = synth_stereo(spec)
        for t in range(spec.frames):
            p = np.array([*gt.left_uv[t, 0], 1.0])
            q = np.array([*gt.right_uv[t, 0], 1.0])
            assert abs(p @ gt.F @ q) < 1e-6

    def test_parallel_cameras_share_rows(self):
        spec = simple_spec()
        _, _, gt = synth_stereo(spec)
        assert np.allclose(gt.left_uv[..., 1], gt.right_uv[..., 1], atol=1e-9)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            simple_spec(objects=(ObjectPath("line", {"u0": 20.0, "v0": 20.0, "z0": 1.0,
                                                     "dz": -0.5}),))



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
    @given(moving_object(), st.floats(-3.0, 3.0))
    def test_projections_satisfy_epipolar_constraint(self, obj, toein):
        spec = simple_spec(objects=(obj,), focal=80.0, toein=toein)
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
