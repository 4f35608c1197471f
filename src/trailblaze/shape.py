"""Trajectory shape descriptors: concatenated forward-difference derivatives.

The order-r descriptor of an (l+1, n) point array stacks the difference
sequences of orders 1..r, each point flattened x,y[,d] and points laid out in
time order.  Its dimension is n*(r*(l+1) - r*(r+1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        cur = cur[1:] - cur[:-1]
        blocks.append(cur.ravel())
    return ShapeDescriptor(values=np.concatenate(blocks), r=r, n=n, l=l)
