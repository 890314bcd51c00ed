"""Spherical quadrilaterals with right angles at three vertices.

A quadrilateral abcd with right angles at a, b, c is determined up to
isometry by the two sides meeting at b.  Writing kappa = |ab|, lam = |bc|,
mu = |cd|, nu = |da| and xi = |bd| for the diagonal, the sides satisfy

    sin(mu) = sin(kappa) * cos(nu)                         (eq. 1)
    tan(mu) = tan(kappa) * cos(lam)                        (eq. 2)
    cos(nu) = sqrt(cos(mu)^2 cos(lam)^2 + sin(mu)^2)       (eq. 3)
    cos(nu) = cos(lam) / sqrt(1 - sin(lam)^2 sin(kappa)^2) (eq. 4)

and both right-triangle splits of the diagonal give
cos(xi) = cos(mu) cos(lam) = cos(nu) cos(kappa).  These are the spherical
counterparts of the Lambert-quadrilateral relations of the hyperbolic plane
(sinh mu = sinh kappa cosh nu, tanh mu = cosh lam tanh kappa, and so on);
only the spherical case is implemented here.

The module provides the closed-form solver, an explicit geometric embedding
that serves as an independent route to the same numbers, and the extremal
function `phi` relating a lune thickness to the half-side of the equilateral
triangle inscribed in the lune (see the `lune` module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SpherePoint
from . import vecmath
from .errors import DomainError

# Inputs closer than this to the degenerate strip (kappa or lam == 0) are
# rejected; the limits are exercised by tests, not extrapolated by the code.
_DEGENERATE_SIDE = 1e-8


def _phi_formula(delta: float) -> float:
    c = math.cos(delta)
    return math.acos(0.25 * (c + math.sqrt(c * c + 8.0)))


def phi(delta: float) -> float:
    """Extremal half-side function for thickness delta in (pi/2, pi).

    phi(delta) = arccos((cos(delta) + sqrt(cos(delta)^2 + 8)) / 4) is the
    half-side of the chord such that the inscribed triangle of the matching
    lune is equilateral; it increases from pi/4 to pi/3 over the open
    interval (pi/2, pi).
    """
    if not math.pi / 2 < delta < math.pi:
        raise DomainError(f"delta={delta} outside the open interval (pi/2, pi)")
    return _phi_formula(delta)


def phi_inverse_delta(phi_val: float) -> float:
    """Inverse of `phi`: the thickness whose extremal half-side is phi_val.

    Uses cos(delta) = (2 cos(phi)^2 - 1) / cos(phi), valid for
    phi_val in (pi/4, pi/3); the round trip phi(phi_inverse_delta(x)) == x
    holds to double precision.
    """
    if not math.pi / 4 < phi_val < math.pi / 3:
        raise DomainError(f"phi={phi_val} outside the open interval (pi/4, pi/3)")
    c = math.cos(phi_val)
    return math.acos((2.0 * c * c - 1.0) / c)


@dataclass(frozen=True)
class QuadSolution:
    """Side lengths of a quadrilateral with right angles at a, b, c.

    kappa = |ab|, lam = |bc|, mu = |cd|, nu = |da|, xi = |bd| (diagonal).
    Construction only range-checks the values; use `check_identities` to
    measure how well a solution satisfies the four side relations, e.g. for
    values measured off an embedding or deliberately perturbed.
    """

    kappa: float
    lam: float
    mu: float
    nu: float
    xi: float

    def __post_init__(self):
        for name in ("kappa", "lam", "mu", "nu"):
            val = getattr(self, name)
            if not 0.0 < val < math.pi / 2:
                raise DomainError(f"{name}={val} outside the open interval (0, pi/2)")
        if not 0.0 < self.xi < math.pi:
            raise DomainError(f"xi={self.xi} outside the open interval (0, pi)")

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "lambda": self.lam,
            "mu": self.mu,
            "nu": self.nu,
            "xi": self.xi,
        }


def _check_side_domain(kappa: float, lam: float) -> None:
    if not 0.0 < kappa < math.pi / 2:
        raise DomainError(f"kappa={kappa} outside the open interval (0, pi/2)")
    if not 0.0 < lam < math.pi / 2:
        raise DomainError(f"lam={lam} outside the open interval (0, pi/2)")
    if kappa < _DEGENERATE_SIDE or lam < _DEGENERATE_SIDE:
        raise DomainError("side below the degeneracy floor 1e-8; limits are not extrapolated")


def solve_quad(kappa: float, lam: float) -> QuadSolution:
    """Closed-form side lengths from the two sides meeting at b.

    mu comes from eq. 2 and nu from the tangent form of eq. 4
    (tan(nu) = cos(kappa) tan(lam)), because those need only the inputs;
    eqs. 1, 3, and the literal eq. 4 are then available as independent
    residuals.  The tangent and atan2 forms stay accurate where the arccos
    forms collapse (tiny sides, or both sides near pi/2).
    """
    _check_side_domain(kappa, lam)
    mu = math.atan(math.tan(kappa) * math.cos(lam))
    nu = math.atan2(math.cos(kappa) * math.sin(lam), math.cos(lam))
    # diagonal: cos(xi) = cos(mu) cos(lam), with the matching sine
    # sin(xi)^2 = sin(mu)^2 + cos(mu)^2 sin(lam)^2 for small-angle accuracy
    sin_xi = math.sqrt(math.sin(mu) ** 2 + (math.cos(mu) * math.sin(lam)) ** 2)
    xi = math.atan2(sin_xi, math.cos(mu) * math.cos(lam))
    return QuadSolution(kappa=kappa, lam=lam, mu=mu, nu=nu, xi=xi)


def _measured(Q: np.ndarray) -> np.ndarray:
    """(K, 5) sides kappa, lam, mu, nu, xi read off a (K, 4, 3) stack of vertices a, b, c, d."""
    return vecmath.ang(Q[:, [0, 1, 2, 3, 1]], Q[:, [1, 2, 3, 0, 3]])


@dataclass(frozen=True)
class QuadEmbedding:
    """Vertices of a quadrilateral with right angles at a, b, c, as
    `construct_quad` builds them: a plain value, right-angled by
    construction (see `_embed`)."""

    a: SpherePoint
    b: SpherePoint
    c: SpherePoint
    d: SpherePoint

    def measured(self) -> QuadSolution:
        """Side lengths read off the embedded vertices."""
        return QuadSolution(*_measured(np.array([[self.a.v, self.b.v, self.c.v, self.d.v]]))[0].tolist())


def _embed(kappa: Sequence[float], lam: Sequence[float]) -> np.ndarray:
    """(K, 4, 3) vertices a, b, c, d of `construct_quad` at each (kappa, lam)
    pair, checked pair by pair against `solve_quad`'s domain.  The vertices
    and the norm of w take the one-pair formulas' bits: the sines and
    cosines from `math`, the norm through `vecmath.blas_dot`, the stacked
    form of the 1-D BLAS dot.

    Every pair of the domain has right angles at a, b and c, so nothing is
    checked after the domain.  On [1e-8, pi/2)^2 the sines and cosines sk,
    ck, sl, cl of kappa and lam are all above 0 (the least is
    cos(nextafter(pi/2, 0)) = 2.8e-16), and:

    - the tangents at b toward a and c are (0, 0, sk) and (0, sl, 0), so
      the angle at b is exactly right;
    - n_a and n_c are the unit tangents of ba at a and of bc at c, so the
      circles with those normals pass through a and c (n_a . a = sk ck -
      ck sk = 0 exactly) at right angles to ba and bc;
    - w = n_c x n_a = (cl ck, sl ck, cl sk), each component one rounded
      product of positives, the least 8.0e-32 (at kappa = lam =
      nextafter(pi/2, 0)), so |w| > 0 with no underflow, and d = w / |w|
      is the circles' intersection to a few ulps however small |w| is:
      |d . n_a| and |d . n_c| stay within 2 eps;
    - d and a + c = (ck + cl, sl, sk) have no negative component, so
      d . (a + c) > 0: d is the intersection on the quadrilateral's side,
      never its antipode.
    """
    for k, l in zip(kappa, lam):
        _check_side_domain(k, l)
    ck, sk, cl, sl = (
        np.array([f(x) for x in xs], dtype=float)
        for f, xs in ((math.cos, kappa), (math.sin, kappa), (math.cos, lam), (math.sin, lam))
    )
    zero = np.zeros_like(ck)
    b = np.stack([zero + 1.0, zero, zero], axis=-1)
    c = np.stack([cl, sl, zero], axis=-1)
    a = np.stack([ck, zero, sk], axis=-1)
    n_a = np.stack([sk, zero, -ck], axis=-1)
    n_c = np.stack([sl, -cl, zero], axis=-1)
    w = vecmath.cross(n_c, n_a)
    d = w / np.sqrt(vecmath.blas_dot(w, w))[:, None]
    return np.stack([a, b, c, d], axis=1)


def construct_quad(kappa: float, lam: float) -> QuadEmbedding:
    """Geometric realization, independent of the closed-form solver.

    Canonical pose: b at (1, 0, 0), bc along the equator, ba along the prime
    meridian, which makes the right angle at b exact.  Perpendicular great
    circles are erected at a and c, and d is their one intersection on the
    quadrilateral's side (see `_embed`).  This is `measure_quads`' embedding
    for one pair.
    """
    return QuadEmbedding(*(SpherePoint(v) for v in _embed([kappa], [lam])[0]))


def measure_quads(kappa: Sequence[float], lam: Sequence[float]) -> np.ndarray:
    """(K, 5) sides kappa, lam, mu, nu, xi measured off the embeddings of K
    (kappa, lam) pairs; row k has the bits of
    construct_quad(kappa[k], lam[k]).measured(), and the same domain check."""
    return _measured(_embed(kappa, lam))


def check_identities(q: QuadSolution) -> tuple[float, float, float, float]:
    """Absolute residuals of eqs. 1-4 for the given side lengths."""
    r1 = abs(math.sin(q.mu) - math.sin(q.kappa) * math.cos(q.nu))
    r2 = abs(math.tan(q.mu) - math.tan(q.kappa) * math.cos(q.lam))
    r3 = abs(math.cos(q.nu) - math.sqrt(math.cos(q.mu) ** 2 * math.cos(q.lam) ** 2 + math.sin(q.mu) ** 2))
    r4 = abs(math.cos(q.nu) - math.cos(q.lam) / math.sqrt(1.0 - math.sin(q.lam) ** 2 * math.sin(q.kappa) ** 2))
    return (r1, r2, r3, r4)


def diagonal_residuals(q: QuadSolution) -> tuple[float, float]:
    """Residuals of the two right-triangle splits of the diagonal:
    |cos(xi) - cos(mu) cos(lam)| and |cos(xi) - cos(nu) cos(kappa)|."""
    cx = math.cos(q.xi)
    return (
        abs(cx - math.cos(q.mu) * math.cos(q.lam)),
        abs(cx - math.cos(q.nu) * math.cos(q.kappa)),
    )
