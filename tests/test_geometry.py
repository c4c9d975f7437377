from dataclasses import replace

import numpy as np
import pytest

from helmray.geometry import (TruncationGeometry, WaveContext, anisotropic_coefficients,
                              boundary_normal, check_gradients, disk_obstacle, fourier_obstacle,
                              identity_coefficients, nu_bump_coefficients,
                              signed_distance, validate_configuration)
from helmray.util import bump
from reference import bump_deriv, radial_bump_fields


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
    bad = replace(coeffs, support_radius=1.0)
    geom = TruncationGeometry(R1=1.0, R=4.0, R_ray=5.0)
    report = validate_configuration(bad, None, geom)
    assert not report.ok
    assert report.failures[0][0] == "coefficient support violation"


def test_validate_reports_a_support_violation_where_A_breaks_it():
    # nu is exactly 1 everywhere, so the point must come from A, not |nu - 1|
    ident = identity_coefficients()

    def eval_A(x):
        A = ident.eval_A(x).copy()
        A[..., 0, 0] += np.where(np.asarray(x)[..., 1] > 0.3, 1e-3, 0.0)
        return A

    bad = replace(ident, eval_A=eval_A, A_max=1.001)
    report = validate_configuration(bad, None, TruncationGeometry(0.5, 1.0, 1.25))
    name, point = report.failures[0]
    assert name == "coefficient support violation"
    assert point[1] > 0.3 and not np.array_equal(eval_A(point), np.eye(2))


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



def test_validate_flags_identity_declaration_broken_inside():
    # the ray tracer takes A_min == A_max == 1 to mean A = I and never
    # evaluates A; validation must catch a field that breaks the declaration
    ident = identity_coefficients()

    def eval_A(x):
        r = np.hypot(x[..., 0], x[..., 1])
        return np.where((r < 0.5)[..., None, None], 1.5, 1.0) * ident.eval_A(x)

    bad = replace(ident, eval_A=eval_A, support_radius=0.5)
    report = validate_configuration(bad, None, TruncationGeometry(R1=0.5, R=1.0, R_ray=2.0))
    assert [name for name, _ in report.failures] == ["A eigenvalue bounds violated"]

def test_anisotropic_field_is_exactly_identity_off_the_bump():
    # A = I + b Q diag(a1, a2) Q^T is I to the last bit where b = 0, at every
    # frame angle (Q diag(1 + a1 b, 1 + a2 b) Q^T is not)
    geom = TruncationGeometry(R1=0.5, R=1.0, R_ray=1.25)
    th = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    off = np.stack([np.cos(th), np.sin(th)], axis=-1)[None] * np.array([0.5, 0.7, 1.2])[:, None, None]
    for d in range(181):
        coeffs = anisotropic_coefficients(0.5, 0.5, np.deg2rad(d))
        assert np.array_equal(coeffs.eval_A(off), np.broadcast_to(np.eye(2), off.shape[:-1] + (2, 2))), d
        report = validate_configuration(coeffs, None, geom)
        assert report.ok, (d, report.failures)


def test_unperturbed_anisotropic_field_keeps_its_identity_pin():
    # a1 = a2 = 0 declares A_min = A_max = 1, which the tracer and the FEM
    # read as A = I; eval_A must then be I everywhere, in the bump too
    coeffs = anisotropic_coefficients(0.0, 0.0, np.deg2rad(3))
    assert coeffs.A_min == coeffs.A_max == 1.0
    pts = np.random.default_rng(3).uniform(-0.6, 0.6, (200, 2))
    assert np.array_equal(coeffs.eval_A(pts), np.broadcast_to(np.eye(2), (200, 2, 2)))
    assert not coeffs.eval_grad_A(pts).any()


def test_identity_and_nu_bump_match_their_closed_forms_bit_for_bit():
    pts = np.random.default_rng(5).uniform(-0.6, 0.6, (300, 2))
    eye, zero_A = np.broadcast_to(np.eye(2), (300, 2, 2)), np.zeros((300, 2, 2, 2))
    ident = identity_coefficients()
    assert ident.support_radius == 0.0
    assert np.array_equal(ident.eval_A(pts), eye)
    assert np.array_equal(ident.eval_nu(pts), np.ones(300))
    assert np.array_equal(ident.eval_grad_A(pts), zero_A)
    assert np.array_equal(ident.eval_grad_nu(pts), np.zeros((300, 2)))

    amp, w = 0.7, 0.45
    coeffs = nu_bump_coefficients(amp, w)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.array_equal(coeffs.eval_A(pts), eye)
    assert np.array_equal(coeffs.eval_grad_A(pts), zero_A)
    assert np.array_equal(coeffs.eval_nu(pts), 1.0 + amp * bump(r / w))
    assert np.array_equal(coeffs.eval_grad_nu(pts), (amp * bump_deriv(r / w) / w / r)[:, None] * pts)
    assert np.array_equal(coeffs.eval_grad_nu(np.zeros(2)), np.zeros(2))


def _aniso_with_nu_bump():
    # an anisotropic A together with a perturbed nu: both gradient callables
    # write values
    nu = nu_bump_coefficients(0.7, 0.45)
    return replace(anisotropic_coefficients(0.7, -0.2, 0.4, 0.5), eval_nu=nu.eval_nu,
                   eval_grad_nu=nu.eval_grad_nu, nu_max=nu.nu_max)


@pytest.mark.parametrize("make", [
    identity_coefficients,
    lambda: nu_bump_coefficients(0.7, 0.45),
    anisotropic_coefficients,
    _aniso_with_nu_bump,
], ids=["identity", "nu_bump", "anisotropic", "anisotropic_nu"])
def test_gradient_callables_write_the_values_bit_for_bit(make):
    coeffs = make()
    # the origin, the rims r = 0.45 and r = 0.5, points outside both, and the
    # interior; then one point as a 1-D array
    rim = np.array([[0.45, 0.0], [0.0, -0.45], [0.5, 0.0], [-0.3, 0.4]])
    pts = np.concatenate([np.zeros((1, 2)), rim, [[0.7, 0.1], [-1.2, -0.9]],
                          np.random.default_rng(9).uniform(-0.6, 0.6, (40, 2))])
    for x in (pts, np.array([0.2, -0.1])):
        nu, A = np.empty(x.shape[:-1]), np.empty(x.shape[:-1] + (2, 2))
        grad_nu, grad_A = coeffs.eval_grad_nu(x, nu), coeffs.eval_grad_A(x, A)
        assert np.array_equal(nu, coeffs.eval_nu(x))
        assert np.array_equal(A, coeffs.eval_A(x))
        assert np.array_equal(grad_nu, coeffs.eval_grad_nu(x))
        assert np.array_equal(grad_A, coeffs.eval_grad_A(x))


def _rotated_diag(a1, a2, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[a1 * c * c + a2 * s * s, (a1 - a2) * c * s],
                     [(a1 - a2) * c * s, a1 * s * s + a2 * c * c]])


@pytest.mark.parametrize("amplitude, a1, a2, angle", [(0.7, 0.0, 0.0, 0.0), (0.0, 0.5, 0.2, 0.3)],
                         ids=["nu_bump", "anisotropic"])
def test_floored_bump_kernel_matches_the_masked_formulas(amplitude, a1, a2, angle):
    # w = 1/2 makes |x| / w exact, so the rims sit at rho = 1 - ulp, 1 and
    # 1 + ulp; then the origin, subnormal |x|, points off the support and
    # inside it, and one point as a 1-D array
    w = 0.5
    coeffs = (nu_bump_coefficients(amplitude, w) if amplitude
              else anisotropic_coefficients(a1, a2, angle, w))
    rims = w * np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    tiny = np.finfo(float).smallest_subnormal
    pts = np.concatenate([np.stack([rims, 0.0 * rims], -1), np.stack([0.0 * rims, -rims], -1),
                          [[0.0, 0.0], [tiny, 0.0], [0.0, -3.0 * tiny], [3e-310, -4e-310]],
                          [[0.7, 0.1], [-1.0, 0.0], [3.0, -4.0], [1e3, 1e3]],
                          [[0.1, -0.2], [0.3, 0.2], [-0.35, 0.35]]])
    for x in (pts, pts[7]):
        want = radial_bump_fields(x, w, amplitude, _rotated_diag(a1, a2, angle))
        nu, A = np.empty(x.shape[:-1]), np.empty(x.shape[:-1] + (2, 2))
        got = (coeffs.eval_nu(x), coeffs.eval_grad_nu(x, nu), coeffs.eval_A(x),
               coeffs.eval_grad_A(x, A))
        for g, v in zip(got + (nu, A), want + (want[0], want[2])):
            assert np.array_equal(g, v)


@pytest.mark.parametrize("make", [nu_bump_coefficients, anisotropic_coefficients])
def test_coefficients_stay_finite_and_quiet_far_from_the_support(make):
    # (1 - rho^2)^2 in the bump's derivative overflowed from |x| ~ 1e77 on
    coeffs = make()
    n = np.array([1e120, 1e150, 1e200, 1e300, 1.7e308])
    x = np.concatenate([np.stack([n, 0.0 * n], -1), np.stack([0.0 * n, -n], -1),
                        [[1e308, 1e308], [-1e154, 1e154]]])
    nu, A = np.empty(len(x)), np.empty((len(x), 2, 2))
    with np.errstate(all="raise", under="ignore"):
        got = (coeffs.eval_nu(x), coeffs.eval_grad_nu(x, nu), coeffs.eval_A(x),
               coeffs.eval_grad_A(x, A))
    for g, v in zip(got + (nu, A), (1.0, 0.0, np.eye(2), 0.0, 1.0, np.eye(2))):
        assert np.array_equal(g, np.broadcast_to(v, g.shape))


@pytest.mark.parametrize("name", ["nu", "A"])
def test_validate_flags_a_written_value_that_differs(name):
    # the tracer reads the values the gradient callables write; a field whose
    # written value leaves eval_nu or eval_A by one ulp where x2 > 0.3 fails
    coeffs = _aniso_with_nu_bump()
    grad = getattr(coeffs, f"eval_grad_{name}")

    def eval_grad(x, value=None):
        g = grad(x, value)
        if value is not None:
            off = x[..., 1] > 0.3
            value[off] = np.nextafter(value[off], np.inf)
        return g

    geom = TruncationGeometry(R1=0.5, R=1.0, R_ray=1.25)
    assert validate_configuration(coeffs, None, geom).ok
    report = validate_configuration(replace(coeffs, **{f"eval_grad_{name}": eval_grad}), None, geom)
    [(failure, point)] = report.failures
    assert failure == f"{name} written by eval_grad_{name} differs from eval_{name}"
    assert point[1] > 0.3


@pytest.mark.parametrize("make", [
    lambda: nu_bump_coefficients(amplitude=-1.0),
    lambda: anisotropic_coefficients(a1=-1.0),
    lambda: anisotropic_coefficients(0.5, -1.5, 0.3),
])
def test_presets_reject_non_positive_coefficients(make):
    with pytest.raises(ValueError, match="exceed -1"):
        make()


@pytest.mark.parametrize("angle", [0.0, 0.05, 0.2, 0.3])
def test_eigenvalue_check_holds_where_the_eigenvalues_nearly_coincide(angle):
    # near the bump's edge both eigenvalues are 1 + O(b); sqrt((tr/2)^2 - det)
    # lost 1.5e-8 there, far above the 1e-10 tolerance
    coeffs = anisotropic_coefficients(0.5, 0.2, angle, 0.5)
    report = validate_configuration(coeffs, None, TruncationGeometry(R1=0.5, R=1.0, R_ray=1.25))
    assert report.ok, report.failures


@pytest.mark.parametrize("make", [
    lambda: nu_bump_coefficients(1.0, 0.5),
    lambda: anisotropic_coefficients(0.7, -0.2, 0.4, 0.5),
])
def test_analytic_gradients_match_finite_differences(make):
    coeffs = make()
    # the origin, where grad b(|x| / w) divides by |x|, and both sides of r = w = 0.5
    pts = np.array([[0.1, 0.2], [0.31, -0.12], [-0.25, 0.07], [0.0, 0.4], [0.0, 0.0],
                    [0.45, 0.0], [0.0, -0.48], [0.5, 0.0], [0.0, 0.5001], [0.3, 0.4]])
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
