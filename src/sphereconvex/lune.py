"""Lunes, their thickness, and the inscribed equilateral-triangle bounds.

A lune is the intersection of two different, non-opposite hemispheres.  Its
boundary consists of two semicircles meeting at a pair of antipodal corners;
the thickness is the distance between the semicircle centers.

For thickness delta in (pi/2, pi) the two points of one bounding semicircle
at distance phi(delta) from its center, together with the opposite center,
form an equilateral triangle of side 2*phi(delta).  Every point k of the
chord arc between those two points satisfies |k h| >= 2*phi(delta) for the
opposite center h, and more generally |k l| >= 2*phi(delta) for every l on
the arc from h to the orthogonal drop of k onto the far semicircle.  The
operations below construct these objects and measure the inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import vecmath
from .core import (
    EPS_ON,
    GreatCircle,
    Semicircle,
    SpherePoint,
    distance,
)
from .errors import DomainError, NotOnArc
from .quad import phi


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
        if float(np.linalg.norm(cross)) < 1e-9:
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


def construct_lune(delta: float) -> Lune:
    """Canonical lune of thickness delta in (0, pi).

    Pose: corners on the y-axis, semicircle centers on the x-z great circle
    separated by delta and symmetric about (1, 0, 0).
    """
    if not 0.0 < delta < math.pi:
        raise DomainError(f"thickness delta={delta} outside the open interval (0, pi)")
    half = delta / 2.0
    center_a = SpherePoint((math.cos(half), 0.0, math.sin(half)))
    center_b = SpherePoint((math.cos(half), 0.0, -math.sin(half)))
    corners = (SpherePoint((0.0, 1.0, 0.0)), SpherePoint((0.0, -1.0, 0.0)))
    side_a = Semicircle(GreatCircle(vecmath.cross(corners[0].v, center_a.v)), center_a)
    side_b = Semicircle(GreatCircle(vecmath.cross(corners[0].v, center_b.v)), center_b)
    return Lune(side_a=side_a, side_b=side_b, corners=corners)


def _require_wide(lune: Lune) -> float:
    delta = lune.thickness
    if not math.pi / 2 < delta < math.pi:
        raise DomainError(f"thickness {delta} outside (pi/2, pi); the bounds need a wide lune")
    return delta


def equilateral_points(lune: Lune) -> tuple[SpherePoint, SpherePoint]:
    """The two points of side_a at distance phi(thickness) from its center.

    Both lie at distance 2*phi(thickness) from the center of side_b, so the
    two points and that center form an equilateral triangle.  The first
    returned point is the one toward corners[0].
    """
    delta = _require_wide(lune)
    ph = phi(delta)
    g = lune.side_a.center.v
    u = vecmath.unit(vecmath.reject(lune.corners[0].v, g))
    i = math.cos(ph) * g + math.sin(ph) * u
    j = math.cos(ph) * g - math.sin(ph) * u
    return SpherePoint(i), SpherePoint(j)


def perpendicular_drop(lune: Lune, k: SpherePoint) -> SpherePoint:
    """Intersection of side_b with the great circle through k orthogonal to it.

    k must lie on the chord arc between the two equilateral points of side_a.
    The drop is the intersection candidate lying on the semicircle side_b
    (the one within pi/2 of its center); for a wide lune it is the far
    crossing, at distance at least the thickness from k.
    """
    delta = _require_wide(lune)
    if not lune.side_a.circle.contains(k, EPS_ON):
        raise NotOnArc("point is not on the circle carrying the chord arc")
    if distance(k, lune.side_a.center) > phi(delta) + 1e-9:
        raise NotOnArc("point is outside the chord arc between the equilateral points")
    drops, norms = _drops(lune, k.v[None])
    if norms[0] < 1e-12:
        raise NotOnArc("point is a pole of the far circle; the drop is not unique")
    return SpherePoint(drops[0])


def _drops(lune: Lune, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drops of the (n, 3) points onto side_b (w / |w| toward its center) and
    the norms of their projections w onto its plane.  Rounding tilts the short
    w of a point near the pole off the plane; a second projection puts it
    back ("twice is enough", as for Gram-Schmidt)."""
    n_b = lune.side_b.circle.n
    w = points - (points @ n_b)[:, None] * n_b
    w -= (w @ n_b)[:, None] * n_b
    norms = vecmath.norm(w)
    with np.errstate(invalid="ignore"):  # a pole's w may vanish; `perpendicular_drop` rejects it by its norm
        feet = w / norms[:, None]
    flip = np.where(feet @ lune.side_b.center.v >= 0.0, 1.0, -1.0)
    return feet * flip[:, None], norms


# An arc shorter than _SHORT_ARC gets no row bound (`_row_bounds`), and
# `min_sampled_distance` adds _ROW_SLACK to a row's bound before it drops it.
_SHORT_ARC = 1e-6
_ROW_SLACK = 1e-12


def _cells(s: np.ndarray, lengths: np.ndarray, kh, kd, hd) -> tuple:
    """The grid's cells at arc fractions s for rows of arc length `lengths`:
    the sines sa, sb of the two parts of the arc at each cell and the cell's
    cosine (sa kh + sb kd) / sqrt(sa^2 + sb^2 + 2 sa sb hd), with kh, kd, hd
    the rows' (n, 1) columns k.h, k.drop and drop.h.  A row whose arc is
    shorter than 1e-12 is the point h: its cells are k.h."""
    sa = np.sin((1.0 - s)[None, :] * lengths[:, None])  # (n, ns)
    sb = np.sin(s[None, :] * lengths[:, None])
    # cos = (sa kh + sb kd) / sqrt(sa (sa + 2 hd sb) + sb^2), in place
    den = sb * (2.0 * hd)
    den += sa
    den *= sa
    den += sb * sb
    cos = sa * kh
    cos += sb * kd
    with np.errstate(invalid="ignore"):  # a zero-length arc's cells are 0 / 0; kh replaces them
        cos /= np.sqrt(den, out=den)
    degenerate = lengths < 1e-12
    cos[degenerate] = kh[degenerate]
    return sa, sb, cos


def _row_bounds(kh: np.ndarray, kd: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Largest cosine of each chord point k with the points of its arc from h
    to its drop, from the row's geometry alone; inf for an arc shorter than
    _SHORT_ARC.

    The arc point at angle theta from h is cos(theta) h + sin(theta) e, with
    e = (drop - cos(L) h) / sin(L) for the arc's length L, so its cosine with
    k is A cos(theta) + B sin(theta), with A = k.h and
    B = (k.drop - k.h cos(L)) / sin(L): a sinusoid that peaks at hypot(A, B)
    at theta0 = atan2(B, A).  On [0, L] it rises to its peak and falls after
    it, so its largest value there is the peak if theta0 is in [0, L], and
    the larger end value, max(k.h, k.drop), otherwise.

    B's rounding is a few ulps divided by sin(L), but the peak's derivative
    in B is sin(theta0) <= sin(L), so the peak is within a few ulps too; the
    second-order term, and the peak lost when rounding moves theta0 just
    past an end, are of order (ulp / L)^2 < 1e-19 for L >= _SHORT_ARC.
    Shorter arcs, where 1 / sin(L) takes over, get no bound.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # L = 0: no bound is used
        b = (kd - kh * np.cos(lengths)) / np.sin(lengths)
    peak = np.arctan2(b, kh)
    bound = np.where((0.0 <= peak) & (peak <= lengths), np.hypot(kh, b), np.maximum(kh, kd))
    return np.where(lengths < _SHORT_ARC, np.inf, bound)


def min_sampled_distance(lune: Lune, samples_k: int, samples_l: int) -> float:
    """Minimum of |k l| over a sampling grid.

    k runs over `samples_k` points of the chord arc (endpoints included) and,
    for each k, l runs over `samples_l` points of the arc from the center h
    of side_b to the orthogonal drop of k.  The returned minimum is a
    deterministic function of the grid; it is bounded below by
    2*phi(thickness) up to rounding.

    Point l is num / |num| with num = sa h + sb drop, the sines sa and sb of
    the two parts of the arc at l, so its cosine with k is
    (sa (k.h) + sb (k.drop)) / sqrt(sa^2 + sb^2 + 2 sa sb (h.drop)), one
    scalar per cell (`_cells`).  The arc is at most pi/2 long and sa, sb >= 0,
    so |num| >= (sa + sb) / sqrt(2), and this cosine is within a few ulps of
    the true one; `vecmath.ang` is within a few ulps of the true angle.  A
    cell whose cosine is below the largest by more than 1e-12 is so at least
    1e-12 - 1e-15 truly, so it is truly farther by as much (|d cos| <=
    |d angle|), and its angle rounds above that of the cell of largest
    cosine: it is not the minimum.  Only the cells within 1e-12 of the
    largest cosine get their point and angle, by the formulas of the full
    grid, so the minimum has the full grid's bits.  An arc shorter than
    1e-12 is the point h.

    Only the rows (chord points k) that can hold such a cell get their
    cells.  Every cell's point lies on its row's arc (sa, sb >= 0), so its
    cosine is at most the row's bound (`_row_bounds`, the largest cosine of
    k with any point of the arc) plus the cell's rounding and the bound's,
    a few ulps each; _ROW_SLACK = 1e-12 covers both with room to spare.
    The two end cells of every row (s = 0 and s = 1), by the same formula,
    are cells of the grid, so their largest cosine `top` is at most the
    grid's largest.  A row whose bound + _ROW_SLACK is below top - 1e-12 has
    no cell within 1e-12 of the grid's largest cosine, and is left out.  The
    bound uses only the row's geometry, never the inequality the grid checks.
    """
    _require_wide(lune)
    _require_samples(samples_k, samples_l)
    return _min_distance(lune, _chord(*equilateral_points(lune), samples_k), samples_l)


def _require_samples(*counts: int) -> None:
    if min(counts) < 2:
        raise DomainError("need at least 2 samples on each arc")


def _chord(i: SpherePoint, j: SpherePoint, samples: int) -> np.ndarray:
    """(samples, 3) evenly spaced points of the chord arc from i to j, ends included."""
    return vecmath.slerp(i.v, j.v, np.linspace(0.0, 1.0, samples))


def _min_distance(lune: Lune, chord: np.ndarray, samples_l: int) -> float:
    """`min_sampled_distance` over the chord points given."""
    h = lune.side_b.center.v
    drops = _drops(lune, chord)[0]  # (nk, 3)
    lengths = vecmath.ang(h, drops)  # (nk,)
    kh, kd, hd = (vecmath.dot(u, v)[:, None] for u, v in ((chord, h), (chord, drops), (drops, h)))
    top = _cells(np.array([0.0, 1.0]), lengths, kh, kd, hd)[2].max()
    rows = np.flatnonzero(_row_bounds(kh[:, 0], kd[:, 0], lengths) + _ROW_SLACK >= top - 1e-12)
    chord, drops, lengths = chord[rows], drops[rows], lengths[rows]
    sa, sb, cos = _cells(np.linspace(0.0, 1.0, samples_l), lengths, kh[rows], kd[rows], hd[rows])
    ki, li = np.nonzero(cos >= cos.max() - 1e-12)
    num = sa[ki, li, None] * h + sb[ki, li, None] * drops[ki]
    num[lengths[ki] < 1e-12] = h
    return float(vecmath.ang(chord[ki], vecmath.unit(num)).min())


def lune_checks(delta: float, samples: int) -> dict:
    """The inscribed-triangle checks of the canonical lune of thickness delta.

    Returns the equilateral triangle (the two points of side_a and the center
    of side_b) with its worst side deviation from 2*phi(delta), the least
    distance from `samples` chord points to that center, and
    `min_sampled_distance` on a samples x samples grid, each with its margin
    over 2*phi(delta).  `verify` reduces the equilateral residual and the
    sampled margin over its delta grid; `sphereconvex lune` prints the row.
    """
    lune = construct_lune(delta)
    ph = phi(delta)
    i, j = equilateral_points(lune)
    _require_samples(samples)
    # the chord of `min_sampled_distance(lune, samples, samples)`
    chord = _chord(i, j, samples)
    min_kl = _min_distance(lune, chord, samples)
    apex = lune.side_b.center
    sides = [distance(i, j), distance(i, apex), distance(j, apex)]
    # Worst slack of |k apex| >= 2*phi over the sampled chord.
    min_kh = float(vecmath.ang(chord, apex.v).min())
    return {
        "thickness": delta,
        "half_side": ph,
        "point_i": i.tolist(),
        "point_j": j.tolist(),
        "apex": apex.tolist(),
        "equilateral_sides": sides,
        "equilateral_max_residual": max(abs(s - 2.0 * ph) for s in sides),
        "chord_to_apex_min": min_kh,
        "chord_to_apex_min_margin": min_kh - 2.0 * ph,
        "sampled_min_distance": min_kl,
        "sampled_min_margin": min_kl - 2.0 * ph,
        "thickness_gap": delta - 2.0 * ph,
        "samples": samples,
    }
