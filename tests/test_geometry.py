import numpy as np
import pytest

from helmray.geometry import (TruncationGeometry, WaveContext, anisotropic_coefficients,
                              boundary_normal, check_gradients, disk_obstacle, fourier_obstacle,
                              identity_coefficients, nu_bump_coefficients,
                              signed_distance, validate_configuration)


def test_signed_distance_unit_disk():
    disk = disk_obstacle(1.0)
    assert signed_distance(disk, np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert signed_distance(disk, np.array([0.0, 0.0])) == pytest.approx(-1.0)


def test_signed_distance_vanishes_on_parametrized_boundary():
    obs = fourier_obstacle([1.0, 0.0, 0.3])  # rho = 1 + 0.3 cos(2 theta)
    th = np.linspace(0.0, 2.0 * np.pi, 57)
    rho = obs.rho(th)
    pts = np.stack([rho * np.cos(th), rho * np.sin(th)], axis=-1)
    assert np.abs(signed_distance(obs, pts)).max() < 1e-12


def test_boundary_normal_disk_axes():
    disk = disk_obstacle(1.0)
    np.testing.assert_allclose(boundary_normal(disk, np.array([1.0, 0.0])),
                               [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(boundary_normal(disk, np.array([0.0, 1.0])),
                               [0.0, 1.0], atol=1e-15)


def test_boundary_normal_orthogonal_to_analytic_tangent():
    obs = fourier_obstacle([1.0, 0.0, 0.3])
    th = np.pi / 4
    rho, dr = obs.rho(th), obs.drho(th)
    x = np.array([rho * np.cos(th), rho * np.sin(th)])
    n = boundary_normal(obs, x)
    tangent = np.array([dr * np.cos(th) - rho * np.sin(th),
                        dr * np.sin(th) + rho * np.cos(th)])
    assert abs(n @ tangent) < 1e-10
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-14)


def test_boundary_normal_rejects_points_off_curve():
    disk = disk_obstacle(1.0)
    with pytest.raises(ValueError):
        boundary_normal(disk, np.array([1.5, 0.0]))


def test_validate_trivial_configuration_passes():
    geom = TruncationGeometry(R1=1.0, R=2.0, R_ray=4.0)
    report = validate_configuration(identity_coefficients(), None, geom)
    assert report.ok


def test_validate_flags_support_violation():
    # bump wider than the declared support radius
    coeffs = nu_bump_coefficients(amplitude=1.0, width=3.0, support_radius=3.0)
    from dataclasses import replace
    bad = replace(coeffs, support_radius=1.0)
    geom = TruncationGeometry(R1=1.0, R=4.0, R_ray=5.0)
    report = validate_configuration(bad, None, geom)
    assert not report.ok
    assert report.failures[0][0] == "coefficient support violation"


def test_validate_flags_obstacle_outside_support_disk():
    geom = TruncationGeometry(R1=1.0, R=2.0, R_ray=4.0)
    report = validate_configuration(identity_coefficients(), disk_obstacle(1.5), geom)
    assert not report.ok
    assert any("obstacle" in name for name, _ in report.failures)


def test_eigenvalue_and_nu_bounds_hold_on_presets():
    geom = TruncationGeometry(R1=0.5, R=1.0, R_ray=2.0)
    for coeffs in (identity_coefficients(),
                   nu_bump_coefficients(1.0, 0.5),
                   anisotropic_coefficients(0.7, -0.2, 0.4, 0.5)):
        report = validate_configuration(coeffs, None, geom)
        assert report.ok, report.failures


@pytest.mark.parametrize("make", [
    lambda: nu_bump_coefficients(1.0, 0.5),
    lambda: anisotropic_coefficients(0.7, -0.2, 0.4, 0.5),
])
def test_analytic_gradients_match_finite_differences(make):
    coeffs = make()
    pts = np.array([[0.1, 0.2], [0.31, -0.12], [-0.25, 0.07], [0.0, 0.4]])
    assert check_gradients(coeffs, pts, step=1e-5) < 1e-6


def test_radii_ordering_enforced():
    with pytest.raises(ValueError):
        TruncationGeometry(R1=2.0, R=1.0, R_ray=3.0)
    with pytest.raises(ValueError):
        WaveContext(k=0.5, k0=1.0)


def test_offset_obstacle_signed_distance():
    disk = disk_obstacle(0.3, center=(0.8, 0.0))
    assert signed_distance(disk, np.array([0.8, 0.0])) == pytest.approx(-0.3)
    assert signed_distance(disk, np.array([1.4, 0.0])) == pytest.approx(0.3)


def test_fourier_obstacle_matches_per_term_sums():
    g = np.random.default_rng(7)
    cos_c, sin_c = g.normal(0, 0.05, 6), g.normal(0, 0.05, 4)
    cos_c[0] = 1.0
    theta = g.uniform(-np.pi, np.pi, (50, 3))
    rho, drho = np.full(theta.shape, cos_c[0]), np.zeros(theta.shape)
    for m, c in enumerate(cos_c[1:], start=1):
        rho += c * np.cos(m * theta)
        drho -= m * c * np.sin(m * theta)
    for m, s in enumerate(sin_c, start=1):
        rho += s * np.sin(m * theta)
        drho += m * s * np.cos(m * theta)
    obs = fourier_obstacle(cos_c, sin_c)
    np.testing.assert_allclose(obs.rho(theta), rho, rtol=0, atol=1e-14)
    np.testing.assert_allclose(obs.drho(theta), drho, rtol=0, atol=1e-14)
    # a disk has only the constant term: exactly its radius, exactly flat
    disk = disk_obstacle(0.5)
    assert np.array_equal(disk.rho(theta), np.full(theta.shape, 0.5))
    assert np.array_equal(disk.drho(theta), np.zeros(theta.shape))
