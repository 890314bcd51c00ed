"""Lunes, their thickness, and the inscribed equilateral-triangle bounds.

A lune is the intersection of two different, non-opposite hemispheres.  Its
boundary consists of two semicircles meeting at a pair of antipodal corners;
the thickness is the distance between the semicircle centers.

For thickness delta in (pi/2, pi) the two points of one bounding semicircle
at distance phi(delta) from its center, together with the opposite center,
form an equilateral triangle of side 2*phi(delta).  Every point k of the
chord arc between those two points satisfies |k h| >= 2*phi(delta) for the
opposite center h, and more generally |k l| >= 2*phi(delta) for every l on
the arc from h to the orthogonal drop of k onto the far semicircle; on that
arc |k l| is least at l = h (`min_sampled_distance`).  The operations below
construct these objects and measure the inequalities.

The measurements run on stacks of lunes (`_Frames`): `lune_rows` computes
the rows of a whole thickness grid in blocks of _LUNE_BLOCK lunes, and
`equilateral_points`, `min_sampled_distance` and `lune_checks` are the same
kernels at K = 1.  A canonical frame inside the lune domain passes every
check of `Lune` and its parts by construction (`_lune_frames`), so
`lune_rows` checks only the domain, and `construct_lune` wraps one frame in
the checking constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import vecmath
from .core import GreatCircle, Semicircle, SpherePoint, distance
from .errors import DomainError
from .quad import phi

# Least norm of the cross product of a lune's two circle normals, the sine of
# the angle between its circles: nearer coincident or opposite circles are
# no lune.
EPS_LUNE = 1e-9

# `lune_rows` takes its grid in blocks of at most _LUNE_BLOCK lunes (the
# default 50-step grid is two), so no temporary grows with the grid: a
# block's (K, n, 3) stacks at 200 samples are 120 KB each.
_LUNE_BLOCK = 25


class _Frames(NamedTuple):
    """K lunes as (K, 3) stacks: the centers a of side_a and b of side_b,
    the corners c0 and c1, and the circle normals na of side_a and nb of
    side_b."""

    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    na: np.ndarray
    nb: np.ndarray


@dataclass(frozen=True, eq=False)
class Lune:
    """Intersection of two different, non-opposite hemispheres.

    side_a and side_b are the bounding semicircles; corners are the two
    antipodal points where their circles cross.  Operations that break the
    symmetry (chord sampling, orthogonal drops) live on side_a and measure
    against side_b.
    """

    side_a: Semicircle
    side_b: Semicircle
    corners: tuple[SpherePoint, SpherePoint]

    def __post_init__(self):
        cross = vecmath.cross(self.side_a.circle.n, self.side_b.circle.n)
        if float(np.linalg.norm(cross)) < EPS_LUNE:
            raise DomainError("bounding circles coincide or are opposite; not a lune")
        for corner in self.corners:
            for side in (self.side_a, self.side_b):
                if not side.circle.contains(corner):
                    raise DomainError("corner does not lie on both bounding circles")
                if abs(distance(corner, side.center) - math.pi / 2) > 1e-10:
                    raise DomainError("corner is not an endpoint of a bounding semicircle")
        if distance(self.corners[0], self.corners[1]) < math.pi - 1e-9:
            raise DomainError("corners must be antipodal")

    @cached_property
    def thickness(self) -> float:
        return distance(self.side_a.center, self.side_b.center)


def _frames(lune: Lune) -> _Frames:
    """The stack of one lune."""
    vectors = (lune.side_a.center, lune.side_b.center, *lune.corners)
    return _Frames(*(p.v[None] for p in vectors), lune.side_a.circle.n[None], lune.side_b.circle.n[None])


def _lune_frames(deltas: Sequence[float]) -> tuple[_Frames, list[str | None]]:
    """The canonical lunes of thickness deltas as one stack and, per delta,
    its domain error, or None for 0 < delta < pi with sin(delta) >= EPS_LUNE.

    Pose: corners c0, c1 = (0, +-1, 0) on the y-axis, centers a, b =
    (c, 0, +-s) with c, s the `math` cosine and sine of delta / 2, and
    normals na, nb = c0 x a, c0 x b.  A delta outside the domain gets the
    frame of delta = 0, which is not read.

    A frame inside the domain passes every check of `SpherePoint`,
    `GreatCircle`, `Semicircle` and `Lune`, so `construct_lune` only wraps
    its row and `lune_rows` checks nothing more:

    - c0 x (c, 0, +-s) = (+-s, 0, -c) exactly, each coordinate one product
      with 1 or 0: a normal is its center's coordinates permuted, exactly as
      unit as the center.  c^2 + s^2 is within a few ulps of 1, so every row
      is within EPS_UNIT of unit, and the unit rule keeps its bits.
    - A center's dot with its normal is cs - sc, 0 or one rounding of cs,
      within EPS_ON.
    - A corner's dot with each normal and with each center is exactly 0,
      and its cross product with a center is that center's normal, so its
      `distance` to the center, atan2(|normal|, 0), is exactly pi/2.
    - c0 . c1 = -1 and c0 x c1 = 0: the corners are exactly pi apart.
    - na x nb = (0, 2 fl(cs), 0), of norm 2 fl(cs), which `Lune` needs at
      least EPS_LUNE where the domain needs sin(delta).  Near delta = 1e-9,
      c = 1 and s = delta / 2 exactly, so 2 fl(cs) = delta = sin(delta) to
      the bit.  Near pi - 1e-9, s = 1 and 2c differs from sin(delta) by
      rounding, but no double falls between the two tests: none of the 6000
      doubles on either side of that end does.
    """
    faults = [
        None
        if 0.0 < d < math.pi and math.sin(d) >= EPS_LUNE
        else f"thickness delta={d} outside the lune domain 0 < delta < pi, sin(delta) >= {EPS_LUNE}"
        for d in deltas
    ]
    halves = [d / 2.0 if fault is None else 0.0 for d, fault in zip(deltas, faults)]
    cos_sin = [(math.cos(half), math.sin(half)) for half in halves]
    a = np.array([(c, 0.0, s) for c, s in cos_sin])
    b = np.array([(c, 0.0, -s) for c, s in cos_sin])
    c0, c1 = (np.broadcast_to(corner, a.shape) for corner in ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0)))
    return _Frames(a, b, c0, c1, vecmath.cross(c0, a), vecmath.cross(c0, b)), faults


def construct_lune(delta: float) -> Lune:
    """Canonical lune of thickness delta, for 0 < delta < pi with
    sin(delta) >= EPS_LUNE: its circle normals have a cross product of norm
    sin(delta), which `Lune` needs at least EPS_LUNE, so no thickness within
    about 1e-9 of 0 or pi has a lune.

    Row 0 of `_lune_frames` in the checking constructors, whose checks it
    passes with its bits kept.
    """
    f, faults = _lune_frames([delta])
    if faults[0] is not None:
        raise DomainError(faults[0])
    a, b, c0, c1, na, nb = (rows[0] for rows in f)
    return Lune(
        side_a=Semicircle(GreatCircle(na), SpherePoint(a)),
        side_b=Semicircle(GreatCircle(nb), SpherePoint(b)),
        corners=(SpherePoint(c0), SpherePoint(c1)),
    )


def _require_wide(thickness: float) -> float:
    if not math.pi / 2 < thickness < math.pi:
        raise DomainError(f"thickness {thickness} outside (pi/2, pi); the bounds need a wide lune")
    return thickness


def equilateral_points(lune: Lune) -> tuple[SpherePoint, SpherePoint]:
    """The two points of side_a at distance phi(thickness) from its center.

    Both lie at distance 2*phi(thickness) from the center of side_b, so the
    two points and that center form an equilateral triangle.  The first
    returned point is the one toward corners[0].
    """
    i, j = _equilateral_points(_frames(lune), [phi(_require_wide(lune.thickness))])
    return SpherePoint(i[0]), SpherePoint(j[0])


def _equilateral_points(f: _Frames, half_sides: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(K, 3) stacks of the `equilateral_points` of the lunes of f, at the
    given half-sides, phi of each lune's thickness, before the unit rule.

    A canonical frame (`_lune_frames`) needs none: its corner c0 is
    orthogonal to its center a to the bit, so u = c0, and each point
    (cos a0, sin, cos a2) is within a few ulps of unit."""
    g = f.a
    u = vecmath.unit(vecmath.reject(f.c0, g))
    cos = np.array([math.cos(ph) for ph in half_sides])[:, None]
    sin = np.array([math.sin(ph) for ph in half_sides])[:, None]
    return cos * g + sin * u, cos * g - sin * u


def _drops(f: _Frames, points: np.ndarray) -> np.ndarray:
    """Drops of the (K, n, 3) points onto side_b's circle of their lunes:
    the far foot -w / |w|, for the projection w of each point onto the
    circle's plane, or side_b's center h for a point within 1e-12 of the
    circle's pole, which is within 1e-12 of pi/2 from every point of the
    circle and has no drop to the rounding of w.  Rounding tilts the short w
    of a point near the pole off the plane; a second projection puts it
    back ("twice is enough", as for Gram-Schmidt).  Each product with a
    normal is one (n, 3) by (3, 1) product per lune, as numpy computes it
    for one lune alone."""
    n_b = f.nb[:, :, None]
    w = points - (points @ n_b) * f.nb[:, None]
    w -= (w @ n_b) * f.nb[:, None]
    norms = vecmath.norm(w)[..., None]
    with np.errstate(invalid="ignore"):  # a pole's w may vanish; h replaces its drop
        w /= -norms
    return np.where(norms < 1e-12, f.b[:, None], w)


def min_sampled_distance(lune: Lune, samples_k: int, samples_l: int) -> float:
    """Minimum of |k l| over a sampling grid.

    k runs over `samples_k` points of the chord arc (endpoints included) and,
    for each k, l runs over `samples_l` points of the arc from the center h
    of side_b to the orthogonal drop of k.  The returned minimum is a
    deterministic function of the grid; it is bounded below by
    2*phi(thickness) up to rounding.

    The least |k l| on each arc is at l = h.  Let w be k's projection onto
    the plane of side_b's circle.  A point x of the circle at angle psi from
    the near foot w / |w| has k.x = w.x = |w| cos(psi), so |k x| grows with
    psi from the near foot (psi = 0) to the far foot, the drop (psi = pi),
    along either half of the circle.  The chord point at distance
    t <= phi < pi/2 from side_a's center has cos|k h| = cos(delta) cos(t) < 0
    (spherical Pythagoras: the arc from that center to h is perpendicular to
    side_a's circle), so the drop lies on side_b: drop.h = -(k.h) / |w| >= 0.
    The arc from h to the drop, of length L <= pi/2, therefore runs psi from
    pi - L to pi, where |k l| only grows.  A pole, dropped onto h
    (`_drops`), has the one-point arc h.

    So only the grid's s = 0 cells are computed (`_min_distances`), and
    they give the grid's computed minimum, not only its true one.  The cell
    at fraction s of an arc is unit(sin((1 - s) L) h + sin(s L) drop), or
    unit(h) on an arc shorter than 1e-12.  Its computed angle with k is
    within e = 1e-15, a few ulps, of the true angle of k with that point on
    the true arc: the arc is at most pi/2 long, so the vector normalized is
    at least 1/sqrt(2) times the sum of its two sines long; and the computed
    drop is the far foot to within e / |w|, which moves |k l| by at most
    |w| (e / |w|)^2 < e^2 / 1e-12.  Along the arc,
    cos|k h| - cos|k l_s| = |w| (cos((1 - s) L) - cos(L)) is a concave
    function of s that is 0 at s = 0, so it is at least s |w| (1 - cos L),
    and the angle rises by at least as much as the cosine falls.  So a
    row's cells s > 0 compute above its own s = 0 cell where
    |w| (1 - cos L) / (samples_l - 1) > 2e, and above the least s = 0 cell
    of the grid where the row's own exceeds it by more than 2e.  That leaves
    the rows with a flat first step whose |k h| is within 2e of the chord's
    least.  The chord's ends have arcs of at least pi/3 and |w| of at least
    1/sqrt(2) (on 900 thicknesses across the domain); a short arc belongs to
    a k near side_a's center, at about delta from h, which is
    |cos delta| (1 - cos phi) in cosine above the ends, so only lunes within
    about 1e-14 of pi/2 have such rows.  That the s = 0 cell wins there too
    rests on a scan, not a bound: against `tests/support.py`'s full grid,
    it keeps the bits on every double within 3000 ulps above pi/2 and on
    400 thicknesses log-spaced from pi/2 + 1e-15 to pi/2 + 0.1, at 2, 7, 41
    and 201 samples, and on 39,000 rotated lunes of 2 to 251 samples, 16,200
    of them within 8 ulps above pi/2.
    """
    i, j = equilateral_points(lune)
    _require_samples(samples_k, samples_l)
    return float(_min_distances(_frames(lune), _chords(i.v[None], j.v[None], samples_k))[0])


def _require_samples(*counts: int) -> None:
    if min(counts) < 2:
        raise DomainError("need at least 2 samples on each arc")


def _chords(i: np.ndarray, j: np.ndarray, samples: int) -> np.ndarray:
    """(K, samples, 3) evenly spaced points of the chord arcs from the rows
    of i to those of j, ends included, by `vecmath.slerp`'s formula.  Each
    arc is 2*phi > pi/2 long, never slerp's single point."""
    t = np.linspace(0.0, 1.0, samples)[:, None]
    theta = vecmath.ang(i, j)[:, None, None]
    chords = np.sin((1.0 - t) * theta) * i[:, None]
    chords += np.sin(t * theta) * j[:, None]
    chords /= np.sin(theta)
    return chords


def _min_distances(f: _Frames, chords: np.ndarray) -> np.ndarray:
    """`min_sampled_distance` of each lune of f over its row of the
    (K, n, 3) chord points given: the least angle of a chord point k with
    its arc's s = 0 cell, unit(sin(L) h) for an arc of length L, or unit(h)
    for an arc shorter than 1e-12, as in the grid."""
    h = f.b[:, None]
    lengths = vecmath.ang(h, _drops(f, chords))[..., None]
    with np.errstate(invalid="ignore"):  # a zero-length arc's cell is 0 / 0; unit(h) replaces it
        cells = vecmath.unit(np.sin(lengths) * h)
    cells = np.where(lengths < 1e-12, vecmath.unit(h), cells)
    return vecmath.ang(chords, cells).min(axis=1)


def lune_rows(deltas: Sequence[float], samples: int) -> list[dict]:
    """`lune_checks` rows of the thicknesses deltas, in order.

    The grid is computed in blocks of _LUNE_BLOCK lunes, each as one stack.
    A delta that `lune_checks` would reject raises what it would raise;
    the first such delta in grid order decides.
    """
    deltas = list(deltas)
    rows = []
    for start in range(0, len(deltas), _LUNE_BLOCK):
        rows += _block_rows(deltas[start : start + _LUNE_BLOCK], samples)
    return rows


def _block_rows(deltas: list, samples: int) -> list[dict]:
    """`lune_rows` of one block."""
    f, faults = _lune_frames(deltas)
    half_sides, point_half_sides = [], []
    # each delta's checks in `lune_checks`' order, delta by delta
    for delta, thickness, fault in zip(deltas, vecmath.ang(f.a, f.b).tolist(), faults):
        if fault is not None:
            raise DomainError(fault)
        half_sides.append(phi(delta))
        point_half_sides.append(phi(_require_wide(thickness)))  # `equilateral_points` takes phi of the thickness
        _require_samples(samples)
    i, j = _equilateral_points(f, point_half_sides)
    chords = _chords(i, j, samples)
    apex = f.b
    sides = zip(*(vecmath.ang(u, v).tolist() for u, v in ((i, j), (i, apex), (j, apex))))
    # Worst slack of |k apex| >= 2*phi over the sampled chord.
    min_kh = vecmath.ang(chords, apex[:, None]).min(axis=1).tolist()
    min_kl = _min_distances(f, chords).tolist()
    columns = zip(deltas, half_sides, i.tolist(), j.tolist(), apex.tolist(), sides, min_kh, min_kl)
    return [
        {
            "thickness": delta,
            "half_side": ph,
            "point_i": point_i,
            "point_j": point_j,
            "apex": point_h,
            "equilateral_sides": list(ijh),
            "equilateral_max_residual": max(abs(s - 2.0 * ph) for s in ijh),
            "chord_to_apex_min": kh,
            "chord_to_apex_min_margin": kh - 2.0 * ph,
            "sampled_min_distance": kl,
            "sampled_min_margin": kl - 2.0 * ph,
            "thickness_gap": delta - 2.0 * ph,
            "samples": samples,
        }
        for delta, ph, point_i, point_j, point_h, ijh, kh, kl in columns
    ]


def lune_checks(delta: float, samples: int) -> dict:
    """The inscribed-triangle checks of the canonical lune of thickness delta.

    Returns the equilateral triangle (the two points of side_a and the center
    of side_b) with its worst side deviation from 2*phi(delta), the least
    distance from `samples` chord points to that center, and
    `min_sampled_distance` on a samples x samples grid, each with its margin
    over 2*phi(delta).  `verify` reduces the equilateral residual and the
    sampled margin over its delta grid; `sphereconvex lune` prints the row.
    It is `lune_rows` of the one thickness.
    """
    return lune_rows([delta], samples)[0]
