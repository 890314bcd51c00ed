"""The column-wise reductions of `vecmath` give numpy's bits.

`dot` and `norm` write out the sum over the 3-long last axis; they, and the
helpers built on them, must match the numpy formulas they replace byte for
byte, so that no reported number moves.
"""

import numpy as np
import pytest

from sphereconvex import vecmath

NUMPY = {
    "dot": lambda u, w: np.sum(u * w, axis=-1),
    "norm": lambda u, w: np.linalg.norm(u, axis=-1),
    "unit": lambda u, w: u / np.linalg.norm(u, axis=-1, keepdims=True),
    "ang": lambda u, w: np.arctan2(np.linalg.norm(np.cross(u, w), axis=-1), np.sum(u * w, axis=-1)),
    "reject": lambda u, w: u - np.sum(u * w, axis=-1, keepdims=True) * w,
}
OURS = {
    "dot": vecmath.dot,
    "norm": lambda u, w: vecmath.norm(u),
    "unit": lambda u, w: vecmath.unit(u),
    "ang": vecmath.ang,
    "reject": vecmath.reject,
}


def vectors(rng, shape):
    """Gaussian 3-vectors with scales spread over ten decades and some zero coordinates."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape[:-1] + (1,))
    v[rng.uniform(size=shape) < 0.1] = 0.0
    v[np.all(v == 0.0, axis=-1)] = 1.0  # `unit` needs a nonzero row
    return v


def same_bits(name, u, w):
    want = np.asarray(NUMPY[name](u, w))
    got = np.asarray(OURS[name](u, w))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SHAPES = [((3,), (3,)), ((50, 3), (50, 3)), ((6, 9, 3), (6, 9, 3)), ((4, 7, 7, 3), (4, 7, 7, 3))]
BROADCAST = [((3,), (40, 3)), ((40, 3), (3,)), ((5, 8, 1, 3), (5, 1, 8, 3)), ((8, 3), (5, 1, 3))]


@pytest.mark.parametrize("name", sorted(NUMPY))
@pytest.mark.parametrize("shapes", SHAPES + BROADCAST, ids=str)
def test_matches_numpy(name, shapes):
    rng = np.random.default_rng(7)
    for _ in range(20):
        same_bits(name, *(vectors(rng, shape) for shape in shapes))


@pytest.mark.parametrize("name", sorted(NUMPY))
def test_non_contiguous_input(name):
    rng = np.random.default_rng(3)
    u = np.ascontiguousarray(vectors(rng, (60, 3)).T).T  # a transposed view: rows 60 elements apart
    w = np.asfortranarray(vectors(rng, (60, 3)))
    assert not u.flags.c_contiguous and not w.flags.c_contiguous
    same_bits(name, u, w)


@pytest.mark.parametrize("name", sorted(NUMPY))
def test_negative_zero_products(name):
    # every product in each row is -0.0; numpy's sum starts at +0.0
    u = np.array([[-0.0, 1.0, -1.0], [0.0, -2.0, 0.0], [-3.0, -0.0, 0.5]])
    w = np.array([[1.0, -0.0, 0.0], [-1.0, 0.0, -4.0], [0.0, 1.0, -0.0]])
    assert np.all(np.signbit(u * w))
    same_bits(name, u, w)


def test_blas_dot_matches_one_dimensional_numpy():
    # np.dot and np.linalg.norm of one 3-vector call BLAS dot, which may
    # fuse a multiply and add, so the column sums of `dot` and `norm` can
    # differ from them in the last bit; `blas_dot` gives every row their bits
    rng = np.random.default_rng(11)
    u = vectors(rng, (100_000, 3))
    want = np.array([np.linalg.norm(row) for row in u])
    assert np.sqrt(vecmath.blas_dot(u, u)).tobytes() == want.tobytes()
    u, w = vectors(rng, (4, 7, 3)), np.asfortranarray(vectors(rng, (7, 3)))
    want = np.array([[np.dot(a, b) for a, b in zip(row, w)] for row in u])
    assert vecmath.blas_dot(u, w).tobytes() == want.tobytes()


def test_slerp_of_equal_endpoints_is_copies_of_a():
    a = np.array([0.6, 0.0, 0.8])
    out = vecmath.slerp(a, a.copy(), [0.0, 0.25, 1.0])
    assert out.shape == (3, 3) and out.flags.writeable
    assert out.tobytes() == np.tile(a, (3, 1)).tobytes()
    out[0, 0] = 1.0  # each row is its own copy, not a view of a
    assert a[0] == 0.6 and out[1, 0] == 0.6
