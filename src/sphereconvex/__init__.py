"""Convex geometry on the unit sphere.

Primitives for points, great circles, and arcs; three-right-angle spherical
quadrilaterals and the extremal function phi; lunes with their inscribed
equilateral triangles; convex spherical polygons with extreme-point
extraction and exact boundary-diameter computation; and a reproducible
verification campaign tying the pieces together.
"""

from .core import (
    EPS_ANTIPODE,
    EPS_ON,
    EPS_UNIT,
    GeodesicArc,
    GreatCircle,
    Semicircle,
    SpherePoint,
    angle_at,
    antipode,
    arc_point,
    distance,
    foot_of_perpendicular,
    great_circle_through,
)
from .errors import (
    ConfigError,
    DegenerateHull,
    DegeneratePair,
    DiameterOutOfRange,
    DomainError,
    InvalidPolygon,
    NoHemisphere,
    NoIntersection,
    NotOnArc,
    ParameterOutOfRange,
    PoleDegenerate,
    SamplingExhausted,
    SphereGeometryError,
    TooFewPoints,
)
from .lune import (
    Lune,
    construct_lune,
    equilateral_points,
    lune_checks,
    lune_rows,
    min_sampled_distance,
    perpendicular_drop,
)
from .polygon import (
    EPS_ANGLE,
    EPS_HEMI,
    DiameterWitness,
    SphericalPolygon,
    boundary_diameter,
    contains,
    convex_hull,
    extreme_diameter,
    extreme_diameter_margin,
    extreme_points,
    random_polygon,
    regular_triangle,
)
from .quad import (
    QuadEmbedding,
    QuadSolution,
    check_identities,
    construct_quad,
    diagonal_residuals,
    phi,
    phi_inverse_delta,
    solve_quad,
)
from .campaign import (
    CampaignConfig,
    CampaignReport,
    CheckResult,
    DeltaGrid,
    phi_curve,
    replay,
    run_verify,
    tightness_grid,
    tightness_table,
)

__version__ = "0.1.0"
