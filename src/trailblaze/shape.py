"""Trajectory shape descriptors: concatenated forward-difference derivatives.

The order-r descriptor of an (l+1, n) point array stacks the difference
sequences of orders 1..r, each point flattened x,y[,d] and points laid out in
time order.  Its dimension is n*(r*(l+1) - r*(r+1)/2).  Descriptor files are
``media.save_arrays`` archives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .media import load_arrays, save_arrays

MAX_ORDER = 7


@dataclass(frozen=True)
class ShapeDescriptor:
    values: np.ndarray
    r: int
    n: int
    l: int

    def __post_init__(self):
        if self.values.size != descriptor_dim(self.n, self.l, self.r):
            raise ValueError("descriptor size does not match (n, l, r)")


def descriptor_dim(n: int, l: int, r: int) -> int:
    return n * (r * (l + 1) - r * (r + 1) // 2)


def describe(traj, r: int) -> ShapeDescriptor:
    """Concatenation of derivatives of orders 1..r of an (l+1, n) point array."""
    pts = np.asarray(traj, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("trajectory must be a 2-D point array")
    if not np.isfinite(pts).all():
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
        raise ValueError(f"trajectory point {bad} is not finite: {pts[bad].tolist()}")
    l = len(pts) - 1
    n = pts.shape[1]
    if r < 1:
        raise ValueError("order must be >= 1")
    if r > l:
        raise ValueError(f"order {r} exceeds trajectory length {l}")
    if r > MAX_ORDER:
        raise ValueError(f"order {r} exceeds the supported maximum {MAX_ORDER}")
    blocks = []
    cur = pts
    for _ in range(r):
        cur = np.diff(cur, axis=0)
        blocks.append(cur.ravel())
    return ShapeDescriptor(values=np.concatenate(blocks), r=r, n=n, l=l)


# ---------------------------------------------------------------------------
# Descriptor files: per row a clip id, a label and (n, l, r); the values of all
# rows concatenated in row order


def write_descriptors(path, rows) -> None:
    """rows: iterable of (clip_id, label, ShapeDescriptor)."""
    rows = list(rows)
    shapes = np.array([(d.n, d.l, d.r) for _, _, d in rows], dtype=np.int64).reshape(-1, 3)
    save_arrays(path,
                clip_ids=np.array([c for c, _, _ in rows], dtype=str),
                labels=np.array([lab for _, lab, _ in rows], dtype=str),
                shapes=shapes,
                values=np.concatenate([np.zeros(0)] + [d.values.ravel() for _, _, d in rows]))


def read_descriptors(path) -> list:
    """Returns a list of (clip_id, label, ShapeDescriptor)."""
    a = load_arrays(path, ("clip_ids", "labels", "shapes", "values"))
    ids, labels, shapes, values = a["clip_ids"], a["labels"], a["shapes"], a["values"]
    if (ids.ndim != 1 or labels.shape != ids.shape or shapes.shape != (len(ids), 3)
            or values.ndim != 1):
        raise ValueError(f"descriptor file {path}: needs one clip id, label and (n, l, r) per row")
    sizes = [descriptor_dim(*(int(x) for x in s)) for s in shapes]
    if sum(sizes) != values.size:
        raise ValueError(f"descriptor file {path}: {values.size} values for {sum(sizes)} entries")
    parts = np.split(values, np.cumsum(sizes)[:-1])
    return [(str(c), str(lab), ShapeDescriptor(values=v, r=int(r), n=int(n), l=int(l)))
            for c, lab, (n, l, r), v in zip(ids, labels, shapes, parts)]
