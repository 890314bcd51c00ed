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

The measurements run on stacks of lunes (`_Frames`): `lune_rows` computes
the rows of a whole thickness grid in blocks of _LUNE_BLOCK lunes, and
`equilateral_points`, `perpendicular_drop`, `min_sampled_distance` and
`lune_checks` are the same kernels at K = 1.  A canonical frame inside the
lune domain passes every check of `Lune` and its parts by construction
(`_lune_frames`), so `lune_rows` checks only the domain, and
`construct_lune` wraps one frame in the checking constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

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

# Least norm of the cross product of a lune's two circle normals, the sine of
# the angle between its circles: nearer coincident or opposite circles are
# no lune.
EPS_LUNE = 1e-9

# `lune_rows` takes its grid in blocks of at most _LUNE_BLOCK lunes (the
# default 50-step grid is two), and one `_cells` call takes at most _CELLS
# cells (chord rows x arc samples), or one row, so no temporary grows with
# the grid.  A block's (K, n, 3) stacks at 200 samples are 120 KB each, and
# _CELLS cells are 256 KB per array, less than the 320 KB of one 200 x 200
# lune.
_LUNE_BLOCK = 25
_CELLS = 1 << 15


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


def perpendicular_drop(lune: Lune, k: SpherePoint) -> SpherePoint:
    """Intersection of side_b with the great circle through k orthogonal to it.

    k must lie on the chord arc between the two equilateral points of side_a.
    The drop is the intersection candidate lying on the semicircle side_b
    (the one within pi/2 of its center); for a wide lune it is the far
    crossing, at distance at least the thickness from k.
    """
    delta = _require_wide(lune.thickness)
    if not lune.side_a.circle.contains(k, EPS_ON):
        raise NotOnArc("point is not on the circle carrying the chord arc")
    if distance(k, lune.side_a.center) > phi(delta) + 1e-9:
        raise NotOnArc("point is outside the chord arc between the equilateral points")
    drops, norms = _drops(_frames(lune), k.v[None, None])
    if norms[0, 0] < 1e-12:
        raise NotOnArc("point is a pole of the far circle; the drop is not unique")
    return SpherePoint(drops[0, 0])


def _drops(f: _Frames, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drops of the (K, n, 3) points onto side_b of their lunes (w / |w|
    toward its center) and the (K, n) norms of their projections w onto its
    plane.  Rounding tilts the short w of a point near the pole off the
    plane; a second projection puts it back ("twice is enough", as for
    Gram-Schmidt).  Each product with a normal is one (n, 3) by (3, 1)
    product per lune, as numpy computes it for one lune alone."""
    n_b = f.nb[:, :, None]
    w = points - (points @ n_b) * f.nb[:, None]
    w -= (w @ n_b) * f.nb[:, None]
    norms = vecmath.norm(w)
    with np.errstate(invalid="ignore"):  # a pole's w may vanish; `perpendicular_drop` rejects it by its norm
        w /= norms[..., None]
    w *= np.where(w @ f.b[:, :, None] >= 0.0, 1.0, -1.0)
    return w, norms


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


def _row_blocks(rows: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Consecutive pieces of rows, each of at most _CELLS // width rows, or one."""
    step = max(1, _CELLS // width)
    return (rows[start : start + step] for start in range(0, len(rows), step))


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
    a few ulps each.  `top` is the largest k.h or k.drop of the lune's rows
    (k.h alone on an arc shorter than 1e-12), the cosine of an end of some
    row's arc.  That end's cell (s = 0 or s = 1) is (sa k.h) / sqrt(sa^2),
    (sb k.drop) / sqrt(sb^2) or k.h, within an ulp or two of it, so top is
    at most the grid's largest cosine plus a few ulps.  A row whose bound +
    _ROW_SLACK is below top - 1e-12 therefore has every cell below the grid's
    largest cosine - 1e-12, by _ROW_SLACK = 1e-12 less these three
    roundings, and is left out.  The bound uses only the row's geometry,
    never the inequality the grid checks.
    """
    i, j = equilateral_points(lune)
    _require_samples(samples_k, samples_l)
    return float(_min_distances(_frames(lune), _chords(i.v[None], j.v[None], samples_k), samples_l)[0])


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


def _min_distances(f: _Frames, chords: np.ndarray, samples_l: int) -> np.ndarray:
    """`min_sampled_distance` of each lune of f over its row of the
    (K, n, 3) chord points given.

    The rows of all K lunes are one flat list.  `top` and the largest
    cosine are per lune, the largest taken by `np.maximum.at`.  The cells come
    in pieces of _CELLS (`_row_blocks`); each piece keeps its cells within
    1e-12 of its lunes' largest cosine so far, a superset of those within
    1e-12 of the final one, which pick the cells at the end.
    """
    K, n = chords.shape[:2]
    lune = np.repeat(np.arange(K), n)  # the lune of each chord row
    h, drops = f.b[:, None], _drops(f, chords)[0]
    lengths = vecmath.ang(h, drops).ravel()
    kh, kd, hd = (vecmath.dot(u, v).reshape(-1, 1) for u, v in ((chords, h), (chords, drops), (drops, h)))
    chord, drops = chords.reshape(-1, 3), drops.reshape(-1, 3)
    # each row's larger arc-end cosine; an arc shorter than 1e-12 is the point h
    ends = np.where(lengths < 1e-12, kh[:, 0], np.maximum(kh[:, 0], kd[:, 0]))
    top = ends.reshape(K, n).max(axis=1)
    rows = np.flatnonzero(_row_bounds(kh[:, 0], kd[:, 0], lengths) + _ROW_SLACK >= top[lune] - 1e-12)
    s = np.linspace(0.0, 1.0, samples_l)
    best = np.full(K, -np.inf)
    found = []
    for r in _row_blocks(rows, samples_l):
        sa, sb, cos = _cells(s, lengths[r], kh[r], kd[r], hd[r])
        np.maximum.at(best, lune[r], cos.max(axis=1))
        ki, li = np.nonzero(cos >= (best[lune[r]] - 1e-12)[:, None])
        rk = r[ki]
        num = sa[ki, li, None] * f.b[lune[rk]] + sb[ki, li, None] * drops[rk]
        point_h = lengths[rk] < 1e-12
        num[point_h] = f.b[lune[rk[point_h]]]
        found.append((rk, cos[ki, li], vecmath.ang(chord[rk], vecmath.unit(num))))
    rk, cos, angles = (np.concatenate(column) for column in zip(*found))
    keep = cos >= best[lune[rk]] - 1e-12
    least = np.full(K, np.inf)
    np.minimum.at(least, lune[rk[keep]], angles[keep])
    return least


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
    min_kl = _min_distances(f, chords, samples).tolist()
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
