"""Planted faults that `verify` must catch, so that its checks keep their power."""

from sphereconvex import CampaignConfig, lune, run_verify

LUNE_CHECKS = ("lune_equilateral_triangle", "lune_orthogonal_drop_clearance")


def test_lune_checks_catch_phi_off_by_1e_10(monkeypatch):
    # both lune checks measure the identity cos|i h| = cos(2 phi) to a few
    # ulps (their clean margins are -4.4e-16), so at tolerance 1e-12 each
    # must fail when the lune code's phi is 1e-10 too large
    config = CampaignConfig(seed=7, trials=200, tolerance=1e-12)

    def lune_passes() -> dict:
        return {c.name: c.passed for c in run_verify(config).checks if c.name in LUNE_CHECKS}

    assert lune_passes() == dict.fromkeys(LUNE_CHECKS, True)
    real_phi = lune.phi
    monkeypatch.setattr(lune, "phi", lambda delta: real_phi(delta) + 1e-10)
    assert lune_passes() == dict.fromkeys(LUNE_CHECKS, False)
