import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereconvex import (
    DomainError,
    SphereGeometryError,
    QuadSolution,
    angle_at,
    check_identities,
    construct_quad,
    diagonal_residuals,
    phi,
    phi_inverse_delta,
    solve_quad,
)
from sphereconvex.quad import _embed, _phi_formula, measure_quads
from support import bits, scalar_quad_sides

# Frozen from a 40-digit evaluation of the closed forms; the side lengths
# were additionally measured off an exact high-precision embedding and agree
# with the closed forms to all computed digits.
PHI_AT_TWO_PI_THIRD = 0.935929455661326
MU_05_06 = 0.4235879050181205
NU_05_06 = 0.5407036672071068
XI_05_06 = 0.7191096666625881
# atan(sin(pi/2 - 1e-4)): the common value of mu and nu as both input sides
# approach pi/2 together (just below pi/4).
NEAR_OCTANT_SIDE = 0.7853981608974483

EPS = np.finfo(float).eps
sides = st.floats(0.01, math.pi / 2 - 0.01, allow_nan=False)
# the whole domain, with extra weight at the 1e-8 floor and next to pi/2
domain_sides = (
    st.floats(1e-8, 1.001e-8)
    | st.floats(math.pi / 2 - 1e-6, math.pi / 2, exclude_max=True)
    | st.floats(1e-8, math.pi / 2, exclude_max=True)
)
# pairs at the domain's edges, where no right angle measured off the four
# vertices is well-conditioned: the tangent toward d at a or c is short, or
# w = n_c x n_a is near 0
HALF_PI_DOWN = math.nextafter(math.pi / 2, 0.0)
EDGE_PAIRS = [
    (0.3, 1e-7),
    (1.5, 1e-8),
    (1e-8, 1.5),
    (0.3, math.pi / 2 - 1e-12),
    (HALF_PI_DOWN, 0.3),
    (0.3, HALF_PI_DOWN),
    (HALF_PI_DOWN, HALF_PI_DOWN),
    (1.5707963267948, 1.5707963267948),
]
_EDGE_SIDES = np.geomspace(1e-8, math.pi / 2 - 1e-12, 8).tolist()
EDGE_GRID = [(kappa, lam) for kappa in _EDGE_SIDES for lam in _EDGE_SIDES]


class TestPhi:
    def test_frozen_value(self):
        assert phi(2 * math.pi / 3) == pytest.approx(PHI_AT_TWO_PI_THIRD, abs=1e-15)

    def test_formula_at_pi(self):
        # algebraic check of the closed form outside the open domain:
        # arccos((-1 + 3) / 4) == pi/3
        assert _phi_formula(math.pi) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_lower_limit(self):
        val = phi(math.pi / 2 + 1e-6)
        assert math.pi / 4 < val < math.pi / 4 + 1e-6

    def test_upper_limit(self):
        val = phi(math.pi - 1e-6)
        assert math.pi / 3 - 1e-12 < val < math.pi / 3

    @pytest.mark.parametrize("delta", [0.0, math.pi / 2, math.pi, 4.0, -1.0])
    def test_domain_rejected(self, delta):
        with pytest.raises(DomainError):
            phi(delta)

    def test_monotone_range_and_gap_on_grid(self):
        grid = np.linspace(math.pi / 2 + 1e-6, math.pi - 1e-6, 1000)
        vals = np.array([phi(d) for d in grid])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals > math.pi / 4)
        assert np.all(vals < math.pi / 3)
        assert np.all(grid - 2.0 * vals > 0.0)


class TestPhiInverse:
    def test_lower_boundary_algebra(self):
        # cos(delta) -> 0 as the half-side approaches pi/4
        assert phi_inverse_delta(math.pi / 4 + 1e-8) == pytest.approx(math.pi / 2, abs=1e-7)

    def test_upper_boundary_algebra(self):
        # cos(delta) -> -1 as the half-side approaches pi/3
        assert phi_inverse_delta(math.pi / 3 - 1e-8) == pytest.approx(math.pi, abs=1e-3)

    @pytest.mark.parametrize("val", [math.pi / 4, math.pi / 3, 0.2, 1.2])
    def test_domain_rejected(self, val):
        with pytest.raises(DomainError):
            phi_inverse_delta(val)

    def test_roundtrip_at_frozen_point(self):
        assert phi_inverse_delta(phi(2 * math.pi / 3)) == pytest.approx(2 * math.pi / 3, abs=1e-12)

    @given(st.floats(math.pi / 4 + 1e-7, math.pi / 3 - 1e-7))
    def test_forward_of_inverse_roundtrip(self, x):
        assert phi(phi_inverse_delta(x)) == pytest.approx(x, abs=1e-12)

    @given(st.floats(math.pi / 2 + 1e-4, math.pi - 2e-3))
    def test_inverse_of_forward_roundtrip(self, delta):
        # phi'(delta) -> 0 as delta -> pi, so recovering delta from a
        # double-precision phi value is limited to ulp(phi)/phi'(delta);
        # 1e-12 is attainable only up to ~pi - 2e-3 (see the wide-range test)
        assert phi_inverse_delta(phi(delta)) == pytest.approx(delta, abs=1e-12)

    @given(st.floats(math.pi / 2 + 1e-6, math.pi - 1e-6))
    def test_inverse_of_forward_roundtrip_wide_range(self, delta):
        assert phi_inverse_delta(phi(delta)) == pytest.approx(delta, abs=4e-9)


class TestSolveQuad:
    def test_frozen_values(self):
        sol = solve_quad(0.5, 0.6)
        assert sol.mu == pytest.approx(MU_05_06, abs=1e-12)
        assert sol.nu == pytest.approx(NU_05_06, abs=1e-12)
        assert sol.xi == pytest.approx(XI_05_06, abs=1e-12)

    def test_small_kappa_limit(self):
        sol = solve_quad(1e-6, 0.6)
        assert sol.mu == pytest.approx(1e-6 * math.cos(0.6), rel=1e-9)
        assert sol.nu == pytest.approx(0.6, abs=1e-9)

    def test_small_lambda_limit(self):
        sol = solve_quad(0.7, 1e-6)
        assert sol.mu == pytest.approx(0.7, abs=1e-9)
        assert sol.nu < 1e-5

    @pytest.mark.parametrize("kappa,lam", [(0.0, 0.5), (0.5, 0.0), (math.pi / 2, 0.5), (0.5, math.pi / 2), (-0.1, 0.5), (1e-9, 0.5)])
    def test_domain_rejected(self, kappa, lam):
        with pytest.raises(DomainError):
            solve_quad(kappa, lam)

    def test_floor_inputs_stay_positive(self):
        # at the 1e-8 floor cos(lam) rounds to 1.0, so arccos-based forms
        # would collapse nu and xi to exactly 0; the tangent forms keep the
        # planar-limit values
        sol = solve_quad(1e-8, 1e-8)
        assert sol.mu == pytest.approx(1e-8, rel=1e-6)
        assert sol.nu == pytest.approx(1e-8, rel=1e-6)
        assert sol.xi == pytest.approx(math.sqrt(2.0) * 1e-8, rel=1e-6)
        sol = solve_quad(1.5, 1e-8)
        assert sol.nu == pytest.approx(1e-8 * math.cos(1.5), rel=1e-6)

    @given(sides, sides)
    def test_identities_hold(self, kappa, lam):
        sol = solve_quad(kappa, lam)
        r1, r2, r3, r4 = check_identities(sol)
        assert max(r1, r3, r4) <= 1e-12
        # one ulp of mu moves tan(mu) by about ulp * sec^2(mu), so near
        # kappa = pi/2 the tan identity can only hold relative to that slope
        assert r2 <= 1e-12 * (1.0 + math.tan(sol.mu) ** 2)
        assert max(diagonal_residuals(sol)) <= 1e-12

    def test_diagonal_consistency_on_dense_grid(self):
        grid = np.linspace(0.01, math.pi / 2 - 0.01, 50)
        for kappa in grid:
            for lam in grid:
                sol = solve_quad(float(kappa), float(lam))
                r1, r2 = diagonal_residuals(sol)
                assert r1 <= 1e-10
                assert r2 <= 1e-10

    def test_solution_range_validated(self):
        with pytest.raises(DomainError):
            QuadSolution(kappa=0.5, lam=0.6, mu=2.0, nu=0.5, xi=0.7)

    def test_diagonal_range_validated(self):
        # the diagonal may reach past pi/2, but not past pi
        with pytest.raises(DomainError, match="xi=4.0 outside"):
            QuadSolution(0.3, 0.4, 0.5, 0.6, 4.0)


class TestConstructQuad:
    def test_right_angles(self):
        emb = construct_quad(0.5, 0.6)
        assert angle_at(emb.a, emb.d, emb.b) == pytest.approx(math.pi / 2, abs=1e-10)
        assert angle_at(emb.b, emb.a, emb.c) == pytest.approx(math.pi / 2, abs=1e-10)
        assert angle_at(emb.c, emb.b, emb.d) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_measured_matches_frozen(self):
        meas = construct_quad(0.5, 0.6).measured()
        assert meas.mu == pytest.approx(MU_05_06, abs=1e-12)
        assert meas.nu == pytest.approx(NU_05_06, abs=1e-12)
        assert meas.xi == pytest.approx(XI_05_06, abs=1e-12)

    def test_symmetric_inputs_give_symmetric_sides(self):
        meas = construct_quad(0.8, 0.8).measured()
        assert meas.mu == pytest.approx(meas.nu, abs=1e-12)

    def test_near_octant_degeneration(self):
        # as both input sides approach pi/2 the far vertex approaches the
        # midpoint of the opposite edge, and mu == nu -> atan(1) == pi/4
        side = math.pi / 2 - 1e-4
        sol = solve_quad(side, side)
        meas = construct_quad(side, side).measured()
        assert sol.mu == pytest.approx(NEAR_OCTANT_SIDE, abs=1e-12)
        assert sol.nu == pytest.approx(NEAR_OCTANT_SIDE, abs=1e-12)
        assert meas.mu == pytest.approx(NEAR_OCTANT_SIDE, abs=1e-9)
        assert meas.nu == pytest.approx(NEAR_OCTANT_SIDE, abs=1e-9)

    @given(sides, sides)
    @settings(max_examples=60)
    def test_agrees_with_solver(self, kappa, lam):
        sol = solve_quad(kappa, lam)
        meas = construct_quad(kappa, lam).measured()
        assert meas.mu == pytest.approx(sol.mu, abs=1e-9)
        assert meas.nu == pytest.approx(sol.nu, abs=1e-9)
        assert meas.xi == pytest.approx(sol.xi, abs=1e-9)
        assert max(check_identities(meas)) <= 1e-9

    def test_grid_agreement(self):
        grid = np.linspace(0.05, math.pi / 2 - 0.05, 20)
        for kappa in grid:
            for lam in grid:
                sol = solve_quad(float(kappa), float(lam))
                meas = construct_quad(float(kappa), float(lam)).measured()
                assert abs(meas.mu - sol.mu) <= 1e-9
                assert abs(meas.nu - sol.nu) <= 1e-9
                assert abs(meas.xi - sol.xi) <= 1e-9


class TestStackedEmbedding:
    @given(st.lists(st.tuples(domain_sides, domain_sides), min_size=1, max_size=20))
    @settings(max_examples=80)
    @example([(1e-8, 1e-8), (1e-8, 0.3), (1e-6, 1.5), (math.pi / 2 - 1e-6, 0.3), (math.pi / 2 - 1e-12,) * 2])
    @example([(0.5, 0.6), (1.5, 1e-8), (0.3, 1e-7)])  # row 1's d is 7.1e-10 from a
    @example([(0.5, 0.6), (0.3, 1e-7), (1.5, 1e-8)])  # row 1's tangent toward d at a has norm 9.55e-8
    @example(EDGE_PAIRS)
    def test_rows_match_scalar_embeddings(self, pairs):
        # each row of one stack has the bits of the one-pair reference and of
        # construct_quad(...).measured()
        want = [bits(scalar_quad_sides(kappa, lam)).tolist() for kappa, lam in pairs]
        alone = [construct_quad(kappa, lam).measured() for kappa, lam in pairs]
        assert [bits([m.kappa, m.lam, m.mu, m.nu, m.xi]).tolist() for m in alone] == want
        assert bits(measure_quads(*zip(*pairs))).tolist() == want

    @given(st.lists(st.tuples(domain_sides, domain_sides), min_size=1, max_size=20))
    @settings(max_examples=80)
    @example(EDGE_PAIRS)
    @example(EDGE_GRID)
    def test_d_on_both_perpendiculars(self, pairs):
        # the well-conditioned form of a right-angle test: d lies on the
        # circles of normal n_a and n_c to rounding, on a + c's side, alone
        # and in a stack
        kappas, lams = zip(*pairs)
        stacked = _embed(kappas, lams)[:, 3]
        for (kappa, lam), row in zip(pairs, stacked):
            a = np.array([math.cos(kappa), 0.0, math.sin(kappa)])
            c = np.array([math.cos(lam), math.sin(lam), 0.0])
            n_a = np.array([math.sin(kappa), 0.0, -math.cos(kappa)])
            n_c = np.array([math.sin(lam), -math.cos(lam), 0.0])
            for d in (construct_quad(kappa, lam).d.v, row):
                assert abs(float(d @ n_a)) <= 2 * EPS
                assert abs(float(d @ n_c)) <= 2 * EPS
                assert float(d @ (a + c)) > 0.0

    def test_domain_checked_pair_by_pair(self):
        with pytest.raises(DomainError, match="lam=2.0 outside"):
            measure_quads([0.5, 0.5, 0.0], [0.6, 2.0, 0.6])


def assert_routes_agree(kappa, lam):
    # the closed form and the embedding, alone and stacked, accept the same
    # pairs, with mu, nu and xi within 1e-15, or raise the same error class
    routes = (lambda: construct_quad(kappa, lam).measured(), lambda: QuadSolution(*measure_quads([kappa], [lam])[0]))
    try:
        want = solve_quad(kappa, lam)
    except SphereGeometryError as exc:
        for route in routes:
            with pytest.raises(SphereGeometryError) as info:
                route()
            assert info.type is type(exc)
        return
    for route in routes:
        got = route()
        assert max(abs(got.mu - want.mu), abs(got.nu - want.nu), abs(got.xi - want.xi)) <= 1e-15


class TestOneDomain:
    @given(domain_sides, domain_sides)
    @settings(max_examples=200)
    @example(*EDGE_PAIRS[0])
    @example(*EDGE_PAIRS[1])
    @example(*EDGE_PAIRS[2])
    @example(*EDGE_PAIRS[3])
    @example(*EDGE_PAIRS[4])
    @example(*EDGE_PAIRS[5])
    @example(*EDGE_PAIRS[6])
    @example(*EDGE_PAIRS[7])
    def test_routes_agree(self, kappa, lam):
        assert_routes_agree(kappa, lam)

    def test_routes_agree_on_edge_grid(self):
        for kappa, lam in EDGE_GRID:
            assert_routes_agree(kappa, lam)

    @pytest.mark.parametrize("kappa,lam", [(0.0, 0.5), (0.5, math.pi / 2), (1e-9, 0.5), (-0.1, 0.5)])
    def test_routes_reject_alike(self, kappa, lam):
        assert_routes_agree(kappa, lam)


class TestCheckIdentities:
    def test_solver_output_is_clean(self):
        assert max(check_identities(solve_quad(0.9, 0.4))) <= 1e-12

    def test_perturbation_sensitivity(self):
        sol = solve_quad(0.5, 0.6)
        eps = 1e-3
        bumped = QuadSolution(kappa=sol.kappa, lam=sol.lam, mu=sol.mu + eps, nu=sol.nu, xi=sol.xi)
        r1 = check_identities(bumped)[0]
        # first-order response of |sin(mu) - sin(kappa) cos(nu)| to a mu bump
        assert r1 == pytest.approx(abs(math.cos(sol.mu)) * eps, rel=0.01)

    def test_constructed_measurement_residuals(self):
        meas = construct_quad(1.1, 0.3).measured()
        assert max(check_identities(meas)) <= 1e-9
        assert max(diagonal_residuals(meas)) <= 1e-10
