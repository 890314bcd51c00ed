"""ndarray helpers shared by the geometry modules.

All functions treat the last axis as the 3-vector axis and broadcast over
leading axes.

Reductions over that axis are written out column by column in `dot` and
`norm`, which take a fraction of the time of `np.sum(u * w, axis=-1)` and
`np.linalg.norm(v, axis=-1)` on large stacks and give the same bits: numpy
adds the three products left to right onto its reduction's starting value,
+0.0, which is why `dot` starts there too (a row whose products are all -0.0
sums to +0.0, not -0.0).  Reductions that sum in another order stay as numpy
calls: `np.matmul` and `@`, `np.linalg.norm` of a 1-D vector (BLAS `dot`),
and sums along longer axes, which numpy adds pairwise from length 8 on.
`blas_dot` is the stacked form of the 1-D `np.dot`: numpy hands each
(1, 3) by (3, 1) product of a stacked `np.matmul` to the same BLAS `dot`, so
every row gets the bits of `np.dot` and `np.linalg.norm` of that row alone,
which the column sum of `dot` does not (BLAS may fuse a multiply and add).
"""

from __future__ import annotations

import numpy as np


def dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dot product along the last axis, bit-identical to np.sum(u * w, axis=-1)."""
    return 0.0 + u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1] + u[..., 2] * w[..., 2]


def blas_dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dot product along the last axis, each row bit-identical to np.dot of
    the two 1-D rows; np.sqrt(blas_dot(v, v)) is np.linalg.norm of each row."""
    return np.matmul(u[..., None, :], w[..., :, None])[..., 0, 0]


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, bit-identical to np.linalg.norm(v, axis=-1)."""
    return np.sqrt(dot(v, v))


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize along the last axis."""
    v = np.asarray(v, dtype=float)
    return v / norm(v)[..., None]


def cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cross product of ndarrays along the last axis, broadcasting like
    np.cross and bit-identical to it (same products and differences),
    without its axis-handling overhead."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    return np.stack((u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0), axis=-1)


def ang(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Angle in [0, pi] between unit vectors, accurate near 0 and pi.

    Uses atan2(|u x w|, u . w) rather than arccos of the dot product, which
    loses roughly half the significant digits at both ends of the range.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return np.arctan2(norm(cross(u, w)), dot(u, w))


def reject(v: np.ndarray, axis_vec: np.ndarray) -> np.ndarray:
    """Component of v orthogonal to the unit vector axis_vec (not normalized)."""
    v = np.asarray(v, dtype=float)
    axis_vec = np.asarray(axis_vec, dtype=float)
    return v - dot(v, axis_vec)[..., None] * axis_vec


def slerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points along the shorter great-circle arc from a to b at parameters t.

    a, b are unit 3-vectors; t broadcasts to the leading shape of the result.
    For nearly coincident endpoints the arc is treated as the single point a.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    theta = ang(a, b)
    if theta < 1e-12:
        return np.broadcast_to(a, t.shape[:-1] + (3,)).copy()
    s = np.sin(theta)
    return (np.sin((1.0 - t) * theta) * a + np.sin(t * theta) * b) / s
