"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
The Monte Carlo trials are generated once per session and shared between the
criteria that consume them.
"""

import math
import time

import numpy as np
import pytest

from sphereconvex import (
    boundary_diameter,
    check_identities,
    construct_lune,
    construct_quad,
    diagonal_residuals,
    distance,
    equilateral_points,
    extreme_diameter,
    min_sampled_distance,
    phi,
    phi_inverse_delta,
    random_polygon,
    regular_triangle,
    solve_quad,
)
from sphereconvex.campaign import STREAM_SMALL, STREAM_WIDE, trial_rows
from support import oracle_diameter, sampled_diameter

SEED = 42
MC_TRIALS = 10_000
TIGHT_DELTAS = (2 * math.pi / 3, 2.5, 3.0, math.pi - 1e-3)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def monte_carlo():
    t0 = time.perf_counter()
    (rows,) = trial_rows(SEED, [(STREAM_WIDE, MC_TRIALS)])
    margins, ratios, diameters = rows[:, 0], rows[:, 1], rows[:, 2]
    elapsed = time.perf_counter() - t0
    return {"margins": margins, "ratios": ratios, "diameters": diameters, "elapsed": elapsed}


def test_criterion_1_monotonicity_and_range():
    t0 = time.perf_counter()
    grid = np.linspace(math.pi / 2 + 1e-6, math.pi - 1e-6, 1000)
    vals = np.array([phi(d) for d in grid])
    elapsed = time.perf_counter() - t0
    increasing = bool(np.all(np.diff(vals) > 0.0))
    in_range = bool(np.all((vals > math.pi / 4) & (vals < math.pi / 3)))
    ok = increasing and in_range and elapsed < 1.0
    assert report(
        1,
        "phi strictly increasing with range (pi/4, pi/3)",
        ok,
        f"min_step={np.diff(vals).min():.2e} elapsed={elapsed:.3f}s",
    )
    assert increasing and in_range
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable in double precision at the grid endpoint pi - 1e-6: "
        "phi'(delta) ~ 1.9e-7 there, so rounding phi to a double quantizes "
        "delta at ulp(phi)/phi' ~ 1.2e-9, two and a half orders above the "
        "1e-12 tolerance; no inverse can recover what the forward rounding "
        "discarded.  Everywhere else on the grid the roundtrip is <= 1.4e-13, "
        "and the well-conditioned composition is at machine epsilon (see the "
        "companion test)."
    ),
)
def test_criterion_1_delta_roundtrip_as_stated():
    grid = np.linspace(math.pi / 2 + 1e-6, math.pi - 1e-6, 1000)
    roundtrip_err = max(abs(phi_inverse_delta(phi(d)) - d) for d in grid)
    report(
        1,
        "inverse-of-phi roundtrip at 1e-12 on the closed grid",
        roundtrip_err <= 1e-12,
        f"max_roundtrip_err={roundtrip_err:.2e} (information floor ~1.2e-9 at the endpoint)",
    )
    assert roundtrip_err <= 1e-12


def test_criterion_1_inverse_identity_companion():
    # the stable composition: phi of the recovered thickness reproduces the
    # half-side to machine epsilon across the whole range
    t0 = time.perf_counter()
    xs = np.linspace(math.pi / 4 + 1e-7, math.pi / 3 - 1e-7, 1000)
    forward_err = max(abs(phi(phi_inverse_delta(x)) - x) for x in xs)
    # and the delta-side roundtrip achieves its conditioning floor
    grid = np.linspace(math.pi / 2 + 1e-6, math.pi - 1e-6, 1000)
    delta_err = max(abs(phi_inverse_delta(phi(d)) - d) for d in grid)
    elapsed = time.perf_counter() - t0
    ok = forward_err <= 1e-12 and delta_err <= 4e-9 and elapsed < 1.0
    assert report(
        1,
        "inverse identity, well-conditioned direction",
        ok,
        f"phi-side_err={forward_err:.2e} delta-side_err={delta_err:.2e} elapsed={elapsed:.3f}s",
    )
    assert forward_err <= 1e-12
    assert delta_err <= 4e-9
    assert elapsed < 1.0


def test_criterion_2_gap_positive():
    t0 = time.perf_counter()
    grid = np.linspace(math.pi / 2 + 1e-6, math.pi - 1e-6, 1000)
    gaps = np.array([d - 2.0 * phi(d) for d in grid])
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(gaps > 0.0)) and elapsed < 1.0
    assert report(
        2,
        "thickness exceeds twice the half-side",
        ok,
        f"min_gap={gaps.min():.3e} at delta={grid[np.argmin(gaps)]:.8f} elapsed={elapsed:.3f}s",
    )
    assert np.all(gaps > 0.0)
    assert gaps.min() > 0.0
    assert elapsed < 1.0


def test_criterion_3_quad_identities_and_cross_validation():
    t0 = time.perf_counter()
    grid = np.linspace(0.05, math.pi / 2 - 0.05, 20)
    worst_identity = 0.0
    worst_cross = 0.0
    for kappa in grid:
        for lam in grid:
            sol = solve_quad(float(kappa), float(lam))
            meas = construct_quad(float(kappa), float(lam)).measured()
            worst_identity = max(worst_identity, *check_identities(meas), *diagonal_residuals(meas))
            worst_cross = max(
                worst_cross,
                abs(sol.mu - meas.mu),
                abs(sol.nu - meas.nu),
                abs(sol.xi - meas.xi),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-9 and worst_cross <= 1e-9 and elapsed < 5.0
    assert report(
        3,
        "quad embedding vs closed form",
        ok,
        f"max_identity_residual={worst_identity:.2e} max_cross_diff={worst_cross:.2e} elapsed={elapsed:.2f}s",
    )
    assert worst_identity <= 1e-9
    assert worst_cross <= 1e-9
    assert elapsed < 5.0


def test_criterion_4_lune_bounds():
    t0 = time.perf_counter()
    worst_side = 0.0
    worst_clearance = math.inf
    for delta in np.linspace(math.pi / 2 + 0.01, math.pi - 0.01, 50):
        delta = float(delta)
        lune = construct_lune(delta)
        i, j = equilateral_points(lune)
        apex = lune.side_b.center
        target = 2.0 * phi(delta)
        worst_side = max(
            worst_side,
            abs(distance(i, apex) - target),
            abs(distance(j, apex) - target),
            abs(distance(i, j) - target),
        )
        worst_clearance = min(worst_clearance, min_sampled_distance(lune, 200, 200) - target)
    elapsed = time.perf_counter() - t0
    ok = worst_side <= 1e-9 and worst_clearance >= -1e-9 and elapsed < 60.0
    assert report(
        4,
        "lune equilateral triangle and clearance",
        ok,
        f"max_side_residual={worst_side:.2e} min_clearance_margin={worst_clearance:.2e} elapsed={elapsed:.2f}s",
    )
    assert worst_side <= 1e-9
    assert worst_clearance >= -1e-9
    assert elapsed < 60.0


def test_criterion_5_monte_carlo_lower_bound(monte_carlo):
    margins = monte_carlo["margins"]
    diameters = monte_carlo["diameters"]
    worst = int(np.argmin(margins))
    in_range = bool(np.all((diameters > math.pi / 2) & (diameters < math.pi)))
    ok = bool(np.all(margins >= -1e-9)) and in_range and monte_carlo["elapsed"] < 300.0
    assert report(
        5,
        f"extreme-diameter lower bound on {MC_TRIALS} random hulls",
        ok,
        f"min_margin={margins[worst]:.6e} witness=(seed={SEED}, trial={worst}, "
        f"diam={diameters[worst]:.8f}) elapsed={monte_carlo['elapsed']:.1f}s",
    )
    assert in_range
    assert np.all(margins >= -1e-9)
    assert monte_carlo["elapsed"] < 300.0


def test_criterion_6_tightness_family():
    worst_diam = 0.0
    worst_extreme = 0.0
    worst_margin = 0.0
    for delta in TIGHT_DELTAS:
        tri = regular_triangle(2.0 * phi(delta))
        w = boundary_diameter(tri)
        ed = extreme_diameter(tri)
        assert w.attainment == "vertex-edge"
        worst_diam = max(worst_diam, abs(w.value - delta))
        worst_extreme = max(worst_extreme, abs(ed - 2.0 * phi(delta)))
        worst_margin = max(worst_margin, abs(ed - 2.0 * phi(w.value)))
    ok = worst_diam <= 1e-6 and worst_extreme <= 1e-12 and worst_margin <= 1e-6
    assert report(
        6,
        "regular-triangle family attains the bound",
        ok,
        f"max_diam_err={worst_diam:.2e} max_extreme_err={worst_extreme:.2e} max_margin={worst_margin:.2e}",
    )
    assert worst_diam <= 1e-6
    assert worst_extreme <= 1e-12
    assert worst_margin <= 1e-6


def test_criterion_7_diameter_ratio(monte_carlo):
    ratios = monte_carlo["ratios"]
    family = [extreme_diameter(regular_triangle(2.0 * phi(d))) / boundary_diameter(regular_triangle(2.0 * phi(d))).value for d in TIGHT_DELTAS]
    limit_ratio = family[-1]  # delta = pi - 1e-3
    ok = (
        bool(np.all(ratios > 2.0 / 3.0))
        and all(r > 2.0 / 3.0 for r in family)
        and abs(limit_ratio - 2.0 / 3.0) <= 2e-3
    )
    assert report(
        7,
        "extreme/boundary diameter ratio exceeds 2/3",
        ok,
        f"min_mc_ratio={ratios.min():.6f} limit_family_ratio={limit_ratio:.6f}",
    )
    assert np.all(ratios > 2.0 / 3.0)
    assert all(r > 2.0 / 3.0 for r in family)
    assert abs(limit_ratio - 2.0 / 3.0) <= 2e-3


def test_criterion_8_small_diameter_equality():
    worst = 0.0
    (rows,) = trial_rows(SEED, [(STREAM_SMALL, 1000)])
    for bd, ed in rows:
        assert bd <= math.pi / 2
        worst = max(worst, abs(bd - ed))
    ok = worst <= 1e-9
    assert report(
        8,
        "diameter at most pi/2 gives equal diameters",
        ok,
        f"max_difference={worst:.2e} over 1000 hulls",
    )
    assert worst <= 1e-9


def test_criterion_9_diameter_engine_oracle_equivalence():
    worst_under = math.inf
    worst_over = -math.inf
    for idx in range(100):
        P, w = random_polygon(SEED + 1, idx)
        raw, _, _ = sampled_diameter(P, total=320)
        refined = oracle_diameter(P, total=320)
        worst_under = min(worst_under, w.value - (raw - 1e-6))
        worst_over = max(worst_over, w.value - (refined + 1e-9))
    ok = worst_under >= 0.0 and worst_over <= 0.0
    assert report(
        9,
        "candidate enumeration matches sampling oracle",
        ok,
        f"min_slack_vs_raw={worst_under:.2e} max_excess_vs_refined={worst_over:.2e} over 100 polygons",
    )
    assert worst_under >= 0.0
    assert worst_over <= 0.0
