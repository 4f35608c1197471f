import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailblaze.media import save_arrays
from trailblaze.shape import (
    ShapeDescriptor, describe, descriptor_dim, read_descriptors, write_descriptors,
)


def forward_difference_oracle(pts):
    """Independent index-loop forward difference."""
    out = []
    for i in range(len(pts) - 1):
        out.append([pts[i + 1][j] - pts[i][j] for j in range(len(pts[i]))])
    return np.array(out)


def iterated_oracle(pts, r):
    cur = np.asarray(pts, dtype=np.float64)
    blocks = []
    for _ in range(r):
        cur = forward_difference_oracle(cur)
        blocks.append(cur.ravel())
    return np.concatenate(blocks)


class TestDerivative:
    """Order 1 of `describe` is the flattened forward difference."""

    def test_constant_sequence_zero(self):
        assert np.all(describe([[2.0, 3.0]] * 5, r=1).values == 0.0)

    def test_linear_sequence_constant(self):
        pts = [[i * 1.5, -i * 0.5] for i in range(6)]
        d = describe(pts, r=1).values.reshape(-1, 2)
        assert np.allclose(d, [[1.5, -0.5]] * 5)

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            length = int(rng.integers(2, 12))
            pts = rng.normal(0, 10, (length, n))
            assert np.array_equal(describe(pts, r=1).values,
                                  forward_difference_oracle(pts).ravel())

    def test_too_short(self):
        with pytest.raises(ValueError):
            describe([[1.0, 2.0]], r=1)


class TestDescribe:
    def test_worked_example(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
        d = describe(pts, r=2)
        assert np.array_equal(d.values, [1, 0, 2, 1, 1, 1])
        assert (d.n, d.l, d.r) == (2, 2, 2)

    def test_uniform_motion_second_block_zero(self):
        # dyadic step sizes keep the forward differences exact
        for l in (4, 9, 15):
            pts = np.array([[0.25 * i, -0.5 * i] for i in range(l + 1)])
            d = describe(pts, r=2)
            assert np.all(d.values[2 * l:] == 0.0)

    def test_dimension_counting(self):
        pts = np.zeros((3, 2))
        assert describe(pts, r=2).values.size == 6 == descriptor_dim(2, 2, 2)

    def test_order_exceeds_length(self):
        with pytest.raises(ValueError, match="exceeds"):
            describe(np.zeros((3, 2)), r=3)

    @pytest.mark.parametrize("row, value", [(0, np.nan), (3, np.inf), (5, -np.inf)])
    def test_non_finite_point_names_row(self, row, value):
        pts = np.arange(18.0).reshape(6, 3)
        pts[row, 1] = value
        with pytest.raises(ValueError, match=f"point {row} is not finite"):
            describe(pts, r=2)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="maximum"):
            describe(np.zeros((20, 2)), r=8)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(9, 27),
           st.integers(1, 7))
    def test_oracle_equivalence_and_dimension(self, seed, n, l, r):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 5, (l + 1, n))
        d = describe(pts, r=r)
        assert np.array_equal(d.values, iterated_oracle(pts, r))
        assert d.values.size == n * (r * (l + 1) - r * (r + 1) // 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 5, (12, 3))
        offset = rng.normal(0, 100, (1, 3))
        a = describe(pts, r=3)
        b = describe(pts + offset, r=3)
        assert np.allclose(a.values, b.values, rtol=0, atol=1e-9)

    def test_prefix_nesting(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 5, (10, 2))
        for r in range(1, 7):
            a = describe(pts, r=r)
            b = describe(pts, r=r + 1)
            assert np.array_equal(b.values[:a.values.size], a.values)

    def test_composition_equals_iterated_first_order(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(0, 5, (9, 2))
        cur = pts
        for j in range(1, 8):
            cur = forward_difference_oracle(cur)
            d = describe(pts, r=j)
            assert np.array_equal(d.values[-cur.size:], cur.ravel())


class TestDescriptorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(4):
            pts = rng.normal(0, 3, (8, 2))
            rows.append((f"clip{i}", "walk", describe(pts, r=2)))
        p = tmp_path / "d.txt"
        write_descriptors(p, rows)
        back = read_descriptors(p)
        assert len(back) == 4
        for (cid, lab, d), (cid2, lab2, d2) in zip(rows, back):
            assert (cid, lab) == (cid2, lab2)
            assert (d.n, d.l, d.r) == (d2.n, d2.l, d2.r)
            assert np.array_equal(d.values, d2.values)

    def test_empty_round_trip(self, tmp_path):
        p = tmp_path / "d.npz"
        write_descriptors(p, [])
        assert read_descriptors(p) == []

    def test_mixed_shapes_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = [("a b", "wave", describe(rng.normal(0, 3, (9, 3)), r=2)),
                ("c", "walk", describe(rng.normal(0, 3, (5, 2)), r=1))]
        p = tmp_path / "d.npz"
        write_descriptors(p, rows)
        back = read_descriptors(p)
        assert [(c, lab, d.n, d.l, d.r) for c, lab, d in back] == [("a b", "wave", 3, 8, 2),
                                                                  ("c", "walk", 2, 4, 1)]
        for (_, _, d), (_, _, d2) in zip(rows, back):
            assert np.array_equal(d.values, d2.values)

    @pytest.mark.parametrize("shapes, n_values", [
        ([[2, 4, 1]], 7),            # one value short
        ([[2, 4, 1], [2, 4, 1]], 8),  # two (n, l, r) rows for one clip id
    ])
    def test_inconsistent_file_names_path(self, tmp_path, shapes, n_values):
        p = tmp_path / "d.npz"
        save_arrays(p, clip_ids=np.array(["c"]), labels=np.array(["walk"]),
                    shapes=np.array(shapes), values=np.zeros(n_values))
        with pytest.raises(ValueError, match="d.npz"):
            read_descriptors(p)
