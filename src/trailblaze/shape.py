"""Trajectory shape descriptors: concatenated forward-difference derivatives.

The order-r descriptor of an (l+1, n) point array stacks the difference
sequences of orders 1..r, each point flattened x,y[,d] and points laid out in
time order.  Its dimension is n*(r*(l+1) - r*(r+1)/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .media import _count, _rows


@dataclass(frozen=True)
class ShapeDescriptor:
    values: np.ndarray


def descriptor_dim(n: int, l: int, r: int) -> int:
    """Length of `describe`'s output for order r of an (l+1, n) point array;
    a ValueError unless n >= 1, l >= 0 and 1 <= r <= l are integers, as
    `describe` requires (it checks r itself, to keep its per-call cost)."""
    _count("n", n)
    _count("order", r)
    _count("trajectory length l", l, 0)
    if r > l:
        raise ValueError(f"order {r} exceeds trajectory length {l}")
    return n * (r * (l + 1) - r * (r + 1) // 2)


def describe(traj, r: int) -> ShapeDescriptor:
    """Concatenation of derivatives of orders 1..r of an (l+1, n) point array."""
    pts = _rows("trajectory", traj, "trajectory point {0}")
    l = len(pts) - 1
    _count("order", r)
    if r > l:
        raise ValueError(f"order {r} exceeds trajectory length {l}")
    blocks = []
    cur = pts
    for _ in range(r):
        cur = cur[1:] - cur[:-1]
        blocks.append(cur.ravel())
    return ShapeDescriptor(values=np.concatenate(blocks))
