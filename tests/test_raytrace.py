from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helmray import raytrace
from helmray.config import RunConfig
from helmray.geometry import (TruncationGeometry, anisotropic_coefficients,
                              boundary_normal, disk_obstacle, fourier_obstacle,
                              identity_coefficients, nu_bump_coefficients,
                              signed_distance)
from helmray.raytrace import (PhasePoint, RayConfig, Termination, _eval_rays,
                              _integrate_batch, _level_min, _reflect_state, _rhs,
                              _rk4_step, _ham, classify_trapping, hamiltonian,
                              integrate_ray, longest_ray_length, unit_covector)
from conftest import rng
from reference import time_in_ball

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
angles = st.floats(0.0, 2 * np.pi)


def hamiltonian_vector_field(coeffs, p):
    """(dx/ds, dxi/ds) at one phase point, from the tracer's right-hand side."""
    out = _rhs(coeffs, p.state()[None, :])[0]
    return out[:2], out[2:]


def reflect(coeffs, obstacle, p):
    """The phase point with its covector reflected off the obstacle boundary."""
    x, xi = np.asarray(p.x, float), np.asarray(p.xi, float)
    return PhasePoint(x, _reflect_state(coeffs, obstacle, x, xi)[0])


def test_hamiltonian_values(ident):
    assert hamiltonian(ident, PhasePoint(np.zeros(2), np.array([1.0, 0.0]))) == pytest.approx(0.0)
    four_i = anisotropic_coefficients(3.0, 3.0, 0.0, 0.5)  # A = 4I at the origin
    p = PhasePoint(np.zeros(2), np.array([0.5, 0.0]))
    assert hamiltonian(four_i, p) == pytest.approx(0.0, abs=1e-14)
    nu4 = nu_bump_coefficients(amplitude=3.0, width=0.5)   # nu = 4 at the origin
    assert hamiltonian(nu4, PhasePoint(np.zeros(2), np.array([1.0, 0.0]))) == pytest.approx(-0.75)


def test_vector_field_speed_two_on_cosphere(ident):
    dx, dxi = hamiltonian_vector_field(ident, PhasePoint(np.zeros(2), np.array([1.0, 0.0])))
    np.testing.assert_allclose(dx, [2.0, 0.0])
    np.testing.assert_allclose(dxi, [0.0, 0.0])
    dx, _ = hamiltonian_vector_field(ident, PhasePoint(np.zeros(2), np.array([0.0, -1.0])))
    np.testing.assert_allclose(dx, [0.0, -2.0])


def test_vector_field_matches_finite_differences(nu_bump):
    g = rng(3)
    for _ in range(12):
        x = g.uniform(-0.45, 0.45, 2)
        xi = unit_covector(nu_bump, x, g.normal(size=2))
        p = PhasePoint(x, xi)
        dx, dxi = hamiltonian_vector_field(nu_bump, p)
        eps = 1e-6
        for m in range(2):
            e = np.zeros(2); e[m] = eps
            fd_xi = (hamiltonian(nu_bump, PhasePoint(x, xi + e))
                     - hamiltonian(nu_bump, PhasePoint(x, xi - e))) / (2 * eps)
            fd_x = (hamiltonian(nu_bump, PhasePoint(x + e, xi))
                    - hamiltonian(nu_bump, PhasePoint(x - e, xi))) / (2 * eps)
            assert dx[m] == pytest.approx(fd_xi, rel=1e-6, abs=1e-8)
            assert dxi[m] == pytest.approx(-fd_x, rel=1e-6, abs=1e-8)



def test_identity_A_shortcut_matches_general_rhs(nu_bump):
    # nu_bump declares A_min = A_max = 1, so _rhs skips A and its gradient;
    # A_min = 0.5 sends the same field through the general formula
    w = 0.5
    x = np.array([[0.1, -0.2], [0.31, 0.27], [-0.45, 0.05],   # inside the support
                  [0.0, 0.0], [w, 0.0], [0.0, -w], [-0.3, 0.4],  # origin, r = w
                  [0.7, 0.1], [-1.2, -0.9]])                     # outside
    xi = rng(11).normal(size=x.shape)
    states = np.concatenate([x, xi], axis=1)
    np.testing.assert_array_equal(_rhs(nu_bump, states),
                                  _rhs(replace(nu_bump, A_min=0.5), states))

@pytest.mark.parametrize("make, grad, value", [
    (nu_bump_coefficients, "eval_grad_nu", "eval_nu"),
    (anisotropic_coefficients, "eval_grad_A", "eval_A"),
])
def test_rk4_step_takes_values_from_the_gradient_calls(make, grad, value):
    # each stage makes one gradient call, which writes the value as well
    coeffs, calls = make(), {grad: 0, value: 0}

    def counting(name):
        def f(*args):
            calls[name] += 1
            return getattr(coeffs, name)(*args)
        return f

    counted = replace(coeffs, **{name: counting(name) for name in calls})
    states = np.array([[0.1, -0.2, 1.0, 0.0], [0.3, 0.2, 0.0, 1.0], [0.7, 0.1, 0.6, 0.8]])
    new = _rk4_step(counted, states, 2e-3)
    assert calls == {grad: 4, value: 0}
    assert np.array_equal(new, _rk4_step(coeffs, states, 2e-3))


@pytest.mark.parametrize("coeffs", [nu_bump_coefficients(), anisotropic_coefficients(0.5, 0.2, 0.3)],
                         ids=["nu_bump", "anisotropic"])
def test_rk4_step_is_the_classical_combination_bit_for_bit(coeffs):
    # rows inside the support, on the origin, near the rim and outside; the
    # step combines its stages in place and must leave its inputs as they are
    states = np.array([[0.1, -0.2, 1.0, 0.0], [0.3, 0.2, 0.0, 1.0], [0.0, 0.0, -0.6, 0.8],
                       [0.499, 0.0, 0.0, 1.0], [0.7, 0.1, 0.6, 0.8]])
    before, dt = states.copy(), 2e-3
    k1 = _rhs(coeffs, states)
    k2 = _rhs(coeffs, states + 0.5 * dt * k1)
    k3 = _rhs(coeffs, states + 0.5 * dt * k2)
    k4 = _rhs(coeffs, states + dt * k3)
    want = (states + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).tobytes()
    k1_before = k1.copy()
    assert _rk4_step(coeffs, states, dt).tobytes() == want
    assert _rk4_step(coeffs, states, dt, k1).tobytes() == want
    assert np.array_equal(states, before) and np.array_equal(k1, k1_before)


def test_reflection_specular_cases(ident):
    disk = disk_obstacle(1.0)
    # head-on at the north pole: normal (0, 1)
    p = PhasePoint(np.array([0.0, 1.0]), np.array([0.0, -1.0]))
    np.testing.assert_allclose(reflect(ident, disk, p).xi, [0.0, 1.0], atol=1e-14)
    p = PhasePoint(np.array([0.0, 1.0]), np.array([1.0, -1.0]) / np.sqrt(2))
    np.testing.assert_allclose(reflect(ident, disk, p).xi,
                               np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-14)


def test_reflection_conserves_hamiltonian_anisotropic():
    coeffs = anisotropic_coefficients(0.8, -0.3, 0.5, 0.9)
    obs = fourier_obstacle([0.4, 0.0, 0.05])
    g = rng(5)
    for _ in range(25):
        th = g.uniform(0, 2 * np.pi)
        x = obs.rho(th) * np.array([np.cos(th), np.sin(th)])
        xi = unit_covector(coeffs, x, g.normal(size=2))
        p = PhasePoint(x, xi)
        xi_out, cosang = _reflect_state(coeffs, obs, x, xi)
        if abs(cosang) <= 1e-8:    # glancing: the tracer censors, not reflects
            continue
        out = PhasePoint(x, xi_out)
        assert abs(hamiltonian(coeffs, out) - hamiltonian(coeffs, p)) < 1e-12
        # Euclidean tangential momentum preserved
        from helmray.geometry import boundary_normal
        n = boundary_normal(obs, x)
        t = np.array([-n[1], n[0]])
        assert abs(out.xi @ t - p.xi @ t) < 1e-12


def test_reflection_batch_matches_per_point_calls():
    coeffs = anisotropic_coefficients(0.8, -0.3, 0.5, 0.9)
    obs = fourier_obstacle([0.4, 0.0, 0.05])
    g = rng(7)
    th = g.uniform(0, 2 * np.pi, 40)
    x = obs.rho(th)[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    xi = unit_covector(coeffs, x, g.normal(size=(40, 2)))
    xi_out, cosang = _reflect_state(coeffs, obs, x, xi)
    for i in range(40):
        one, c = _reflect_state(coeffs, obs, x[i], xi[i])
        np.testing.assert_array_equal(one, xi_out[i])
        assert c == cosang[i]


@pytest.mark.parametrize("support", [0.0, 1.5])
def test_one_motion_reflects_one_ray_and_censors_a_glancing_one(support):
    # both rays meet the disk in the same flight (support 0) or on RK4 steps
    # (1.5); the one at impact parameter 0.49 has metric cosine 0.2, below
    # the threshold 0.5, and ends at its impact, the head-on one reflects
    ident, disk = replace(identity_coefficients(), support_radius=support), disk_obstacle(0.5)
    states = np.array([[-0.9, 0.49, 1.0, 0.0], [-0.9, 0.0, 1.0, 0.0]])
    res = _eval_rays(ident, (disk,), states, RayConfig(glancing_threshold=0.5), 1.0)
    assert res.termination.tolist() == [2, 0]
    assert abs(signed_distance(disk, res.states[:1, :2])[0]) <= 1e-12
    np.testing.assert_array_equal(res.states[0, 2:], [1.0, 0.0])
    assert res.t[0] == pytest.approx((0.9 - np.sqrt(0.25 - 0.49**2)) / 2.0, abs=1e-9)
    np.testing.assert_allclose(res.states[1, 2:], [-1.0, 0.0], atol=1e-12)
    assert res.t_exit[1] == pytest.approx(0.45, abs=1e-9)


def test_euclidean_chord(ident, unit_ball_geom):
    p0 = PhasePoint(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    traj = integrate_ray(ident, None, unit_ball_geom, p0, RayConfig())
    assert traj.termination is Termination.ESCAPED
    assert time_in_ball(traj, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_radial_billiard(ident):
    geom = TruncationGeometry(R1=1.5, R=2.0)
    p0 = PhasePoint(np.array([2.0, 0.0]), np.array([-1.0, 0.0]))
    traj = integrate_ray(ident, disk_obstacle(1.0), geom, p0, RayConfig())
    assert len(traj.reflections) == 1
    np.testing.assert_allclose(traj.reflections[0], [1.0, 0.0], atol=1e-9)
    assert time_in_ball(traj, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_tangent_chord_time(ident):
    # chord at impact parameter b entering on the circle: exit after the chord
    # 2 sqrt(R^2 - b^2) at speed 2, i.e. time sqrt(R^2 - b^2)
    geom = TruncationGeometry(R1=0.6, R=1.0)
    b = 0.55
    x0 = np.array([-np.sqrt(1.0 - b**2), b])
    p0 = PhasePoint(x0, np.array([1.0, 0.0]))
    traj = integrate_ray(ident, disk_obstacle(0.5), geom, p0, RayConfig())
    assert not traj.reflections
    assert time_in_ball(traj, 1.0) == pytest.approx(np.sqrt(1 - b**2), abs=1e-9)


def test_time_reversal_through_bump(nu_bump, unit_ball_geom):
    # fixed-duration march forward, negate momentum, march back
    g = rng(11)
    n, steps, dt = 64, 700, 1e-3
    ang = g.uniform(0, 2 * np.pi, n)
    r = 0.9 * np.sqrt(g.uniform(0, 1, n))
    pos = np.stack([r * np.cos(ang), r * np.sin(ang)], -1)
    xi = unit_covector(nu_bump, pos, np.stack([np.cos(ang + 1), np.sin(ang + 1)], -1))
    fwd = np.concatenate([pos, xi], -1)
    state = fwd.copy()
    for _ in range(steps):
        state = _rk4_step(nu_bump, state, dt)
    half = fwd.copy()
    for _ in range(2 * steps):
        half = _rk4_step(nu_bump, half, dt / 2)
    err_est = np.abs(state - half).max() * (16.0 / 15.0) + 1e-14
    back = state.copy()
    back[:, 2:] *= -1.0
    for _ in range(steps):
        back = _rk4_step(nu_bump, back, dt)
    back[:, 2:] *= -1.0
    assert np.abs(back - fwd).max() <= 10.0 * err_est
    assert np.abs(back - fwd).max() < 1e-6


def test_longest_ray_euclidean(ident, unit_ball_geom):
    res = longest_ray_length(ident, None, unit_ball_geom, 1.0, RayConfig())
    assert res.L == pytest.approx(1.0, abs=1e-3)
    assert res.diagnostics.censored_fraction == 0.0


def test_longest_ray_disk_tangent_chord(ident, unit_ball_geom, half_disk):
    res = longest_ray_length(ident, half_disk, unit_ball_geom, 1.0, RayConfig())
    assert res.L == pytest.approx(np.sqrt(0.75), abs=2e-3)


def test_longest_ray_disk_in_ball_smaller_than_unit(ident, unit_ball_geom, half_disk):
    # identity coefficients have no perturbation, so any ball that holds the
    # obstacle is admissible; the longest ray is the chord tangent to the disk
    res = longest_ray_length(ident, half_disk, unit_ball_geom, 0.8, RayConfig())
    assert res.L == pytest.approx(np.sqrt(0.8**2 - 0.5**2), abs=2e-3)


def test_ray_config_rejects_negative_refinement_rounds():
    # a negative count once ran no refinement and was written back as given
    with pytest.raises(ValueError, match="refinement_rounds"):
        RayConfig(refinement_rounds=-3)
    assert RayConfig(refinement_rounds=0).refinement_rounds == 0


@pytest.mark.parametrize("name", ["step_size", "max_time_budget", "glancing_threshold",
                                  "frame_rotation"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ray_config_rejects_non_finite_values(name, value):
    # a NaN step once gave L = 0.7071 on nu_bump.ini, an infinite rotation L = 0
    with pytest.raises(ValueError, match=f"{name} = .* is not finite"):
        RayConfig(**{name: value})


def test_ray_config_needs_two_refine_points():
    # the refined spacing 2 h / (refine_points - 1) divides by zero at 1
    with pytest.raises(ValueError, match="refine_points"):
        RayConfig(refine_points=1)


def test_longest_ray_monotone_under_refinement(ident, unit_ball_geom, half_disk):
    cfg0 = RayConfig(grid_pos_r=5, grid_pos_theta=9, grid_dir=23,
                     refinement_rounds=0)
    vals = []
    for rounds in (0, 1, 2):
        cfg = RayConfig(grid_pos_r=5, grid_pos_theta=9, grid_dir=23,
                        refinement_rounds=rounds)
        vals.append(longest_ray_length(ident, half_disk, unit_ball_geom, 1.0, cfg).L)
    assert vals[0] <= vals[1] <= vals[2]


def test_longest_ray_rotation_invariance(nu_bump, unit_ball_geom):
    cfg = RayConfig(grid_pos_r=6, grid_pos_theta=10, grid_dir=24,
                    refinement_rounds=1)
    cfg_rot = RayConfig(grid_pos_r=6, grid_pos_theta=10, grid_dir=24,
                        refinement_rounds=1, frame_rotation=0.37)
    a = longest_ray_length(nu_bump, None, unit_ball_geom, 1.0, cfg).L
    b = longest_ray_length(nu_bump, None, unit_ball_geom, 1.0, cfg_rot).L
    assert abs(a - b) <= 1e-6 * a


def test_nu_bump_longest_ray_vs_dense_sweep(nu_bump, unit_ball_geom):
    # rotational symmetry: boundary entry at angle 0 is generic; sweep the
    # inward direction densely as the independent estimate
    step = 1e-4
    psi = np.arange(np.pi / 2 + step, 3 * np.pi / 2, step)
    pos = np.tile(np.array([1.0, 0.0]), (len(psi), 1))
    d = np.stack([np.cos(psi), np.sin(psi)], -1)
    xi = unit_covector(nu_bump, pos, d)
    states = np.concatenate([pos, xi], -1)
    res = _integrate_batch(nu_bump, (), states, RayConfig(), R_track=1.0,
                           escape_radius=1.25)
    assert np.all(res.termination == 0)
    brute = res.t_exit.max()
    est = longest_ray_length(nu_bump, None, unit_ball_geom, 1.0, RayConfig()).L
    assert est == pytest.approx(brute, rel=5e-3)


def test_energy_conservation_on_bump_preset(nu_bump):
    g = rng(0)
    n = 200
    ang = g.uniform(0, 2 * np.pi, n)
    r = 0.9 * np.sqrt(g.uniform(0, 1, n))
    pos = np.stack([r * np.cos(ang), r * np.sin(ang)], -1)
    dang = g.uniform(0, 2 * np.pi, n)
    xi = unit_covector(nu_bump, pos, np.stack([np.cos(dang), np.sin(dang)], -1))
    state = np.concatenate([pos, xi], -1)
    H0 = _ham(nu_bump, state)
    drift = 0.0
    for _ in range(int(1.5 / 1e-3)):
        state = _rk4_step(nu_bump, state, 1e-3)
        drift = max(drift, np.abs(_ham(nu_bump, state) - H0).max())
    assert drift <= 1e-8


def test_classify_trapping_euclid_and_disk(ident):
    cfg = RayConfig(grid_pos_r=6, grid_pos_theta=10, grid_dir=24, max_time_budget=8.0)
    geom = TruncationGeometry(R1=0.8, R=1.0)
    assert classify_trapping(ident, None, geom, cfg).nontrapping
    rep = classify_trapping(ident, disk_obstacle(0.5), geom, cfg)
    assert rep.nontrapping and rep.n_budget == 0
    # the verdict is the seed sweep of longest_ray_length, counted alike
    seed = longest_ray_length(ident, disk_obstacle(0.5), geom, geom.R,
                              replace(cfg, refinement_rounds=0))
    assert rep == seed.diagnostics


def test_a_seed_grid_inside_the_obstacles_is_rejected(ident):
    # B(0, 0.4) lies inside the disk: no ray was traced, and the search once
    # reported "all sampled rays were censored" and the verdict nontrapping
    geom, obstacle = TruncationGeometry(0.3, 0.4), disk_obstacle(0.5)
    cfg = RayConfig(grid_pos_r=3, grid_dir=8)
    with pytest.raises(ValueError, match="R = 0.4"):
        classify_trapping(ident, obstacle, geom, cfg)
    with pytest.raises(ValueError, match="R = 0.4"):
        longest_ray_length(ident, obstacle, geom, 0.4, cfg)


@pytest.mark.parametrize("R", [0.0, -1.0, np.inf])
def test_a_ray_ball_of_radius_not_positive_is_rejected(ident, R):
    # R = 0 once put every starting point at the origin and reported L = 0
    with pytest.raises(ValueError, match=f"R = {R}"):
        longest_ray_length(ident, None, TruncationGeometry(0.5, 1.0), R, RayConfig(grid_dir=8))


def test_classify_trapping_two_disks(ident):
    obs = [disk_obstacle(0.3, center=(-0.8, 0.0)), disk_obstacle(0.3, center=(0.8, 0.0))]
    geom = TruncationGeometry(R1=1.5, R=2.0)
    cfg = RayConfig(grid_pos_r=8, grid_pos_theta=12, grid_dir=32, max_time_budget=8.0)
    rep = classify_trapping(ident, obs, geom, cfg)
    assert not rep.nontrapping
    assert rep.n_budget > 0
    # the bouncing orbit lives on the axis between the disks
    p = rep.censored[0]
    assert abs(p.x[1]) < 1e-9 and abs(p.xi[1]) < 1e-9


def test_escaped_rays_never_reenter(ident, unit_ball_geom):
    g = rng(7)
    n = 32
    ang = g.uniform(0, 2 * np.pi, n)
    pos = np.stack([0.9 * np.cos(ang), 0.9 * np.sin(ang)], -1)
    dang = g.uniform(0, 2 * np.pi, n)
    xi = np.stack([np.cos(dang), np.sin(dang)], -1)
    states = np.concatenate([pos, xi], -1)
    res = _integrate_batch(ident, (), states, RayConfig(), R_track=1.0,
                           escape_radius=1.25)
    assert np.all(res.termination == 0)
    state = res.states.copy()
    rmin = np.full(n, np.inf)
    for _ in range(2000):
        state = _rk4_step(ident, state, 2e-3)
        rmin = np.minimum(rmin, np.hypot(state[:, 0], state[:, 1]))
    assert np.all(rmin >= 1.25 * (1 - 1e-12))


def test_ray_returns_from_obstacle_beyond_the_ball(ident):
    # the disk reaches r = 2.5, so the ray has not escaped at 1.25: it reflects
    # at x = 1.5 and crosses the unit ball again, exiting at x = -1
    obs = disk_obstacle(0.5, center=(2.0, 0.0))
    res = _eval_rays(ident, (obs,), np.array([[-0.9, 0.0, 1.0, 0.0]]), RayConfig(), 1.0)
    assert res.termination[0] == 0
    assert res.t_exit[0] == pytest.approx((2.4 + 2.5) / 2.0, abs=1e-3)


def test_golden_section_evaluates_level_once_per_pass():
    # 48 passes: two starting points, one new point on each later pass, one
    # value at the returned minimum
    calls = []

    def level(tau):
        calls.append(len(tau))
        return (tau - centre) ** 2 - 0.25

    centre = np.array([0.3, -1.7, 2.0])
    tau, f = _level_min(level, np.array([0.0, -3.0, 1.9]), np.array([1.0, 0.0, 5.0]))
    assert len(calls) == 50
    # a quadratic's minimum is located only to about sqrt(eps)
    np.testing.assert_allclose(tau, centre, rtol=0, atol=1e-7)
    np.testing.assert_allclose(f, -0.25, rtol=0, atol=1e-15)


def test_flight_past_the_obstacle_makes_no_bisection_pass(ident, monkeypatch):
    # lines through the reach disk (radius 1.01 a) that miss the disk: their
    # level minima are refined by golden section, and no ray is left to bisect
    a, calls = 0.5, []

    def counting(ob, x):
        calls.append(len(x))
        return signed_distance(ob, x)

    monkeypatch.setattr(raytrace, "signed_distance", counting)
    y = a + np.linspace(1e-4, 4e-3, 50)
    states = np.stack([np.full(50, -0.8), y, np.ones(50), np.zeros(50)], axis=1)
    res = _eval_rays(ident, (disk_obstacle(a),), states, RayConfig(), 1.0)
    assert np.all(res.termination == 0) and np.all(res.states[:, 2] == 1.0)
    # arming, the line samples and 50 golden-section evaluations; no ray
    # enters the support, so no entry point is tested
    assert len(calls) == 1 + 1 + 50


def test_disk_search_makes_no_empty_level_call(monkeypatch):
    # a flight in which no ray enters the support has no entry point to test
    # against the obstacle; the search once made 6 of its 262 level calls on
    # empty arrays
    coeffs, obstacle, geom = RunConfig.from_file(CONFIGS / "disk.ini").problem()
    sizes = []

    def recording(ob, x):
        sizes.append(len(x))
        return signed_distance(ob, x)

    monkeypatch.setattr(raytrace, "signed_distance", recording)
    cfg = RayConfig(grid_pos_r=4, grid_pos_theta=8, grid_dir=16, refine_points=7)
    res = longest_ray_length(coeffs, obstacle, geom, 1.0, cfg)
    assert sizes and 0 not in sizes
    assert res.L == 0.8660254037844388


def test_glancing_impact_flagged(ident):
    # a shallow impact below a deliberately large glancing threshold is
    # censored rather than reflected
    geom = TruncationGeometry(R1=0.6, R=1.0)
    b = 0.49  # impact parameter just under the disk radius: grazing incidence
    x0 = np.array([-np.sqrt(1.0 - b**2), b])
    p0 = PhasePoint(x0, np.array([1.0, 0.0]))
    cfg = RayConfig(glancing_threshold=0.5)
    traj = integrate_ray(ident, disk_obstacle(0.5), geom, p0, cfg)
    assert traj.termination is Termination.GLANCING_FLAGGED
    assert not traj.reflections
    # with a tiny threshold the same ray reflects
    traj2 = integrate_ray(ident, disk_obstacle(0.5), geom, p0,
                          RayConfig(glancing_threshold=1e-9))
    assert traj2.termination is Termination.ESCAPED
    assert len(traj2.reflections) == 1


def test_glancing_impact_on_the_step_that_crosses_the_budget():
    # the ray glances inside the RK4 step from t = 0.188 to 0.190; a budget
    # between the step's start and the impact must not turn the glancing
    # ending into a budget one, nor move the ray off the impact point
    coeffs, obstacle = nu_bump_coefficients(0.5, 0.9), disk_obstacle(0.3)
    x0 = np.array([-0.5, 0.25])
    state = np.concatenate([x0, unit_covector(coeffs, x0, np.array([1.0, 0.0]))])[None]
    cfg = RayConfig(glancing_threshold=0.9)
    free = _eval_rays(coeffs, (obstacle,), state, cfg, 1.0)
    assert free.termination[0] == 2 and 0.188 < free.t[0] < 0.190
    capped = _eval_rays(coeffs, (obstacle,), state, replace(cfg, max_time_budget=0.1885), 1.0)
    assert capped.termination[0] == 2
    assert capped.t[0] == free.t[0] > 0.1885
    assert abs(signed_distance(obstacle, capped.states[:, :2])[0]) <= 1e-12


@pytest.mark.parametrize("name", ["disk", "nu_bump"])
def test_longest_ray_matches_retraced_maximizer(name):
    # integrate_ray ends an escaped ray on the circle the search ends it on
    cfg = RunConfig.from_file(CONFIGS / f"{name}.ini")
    coeffs, obstacle, geom = cfg.coefficients(), cfg.obstacle(), cfg.geometry()
    ray_cfg = RayConfig(grid_pos_r=4, grid_pos_theta=8, grid_dir=16, refine_points=7)
    res = longest_ray_length(coeffs, obstacle, geom, geom.R, ray_cfg)
    traj = integrate_ray(coeffs, obstacle, geom, res.maximizer, ray_cfg)
    assert time_in_ball(traj, geom.R) == pytest.approx(res.L, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(a1=st.floats(-0.5, 1.0), a2=st.floats(-0.5, 1.0), frame=st.floats(0.0, np.pi),
       c0=st.floats(0.2, 0.35), c2=st.floats(-0.05, 0.05), s3=st.floats(-0.03, 0.03),
       theta=angles, psi=angles)
def test_reflection_is_hamiltonian_involution(a1, a2, frame, c0, c2, s3, theta, psi):
    coeffs = anisotropic_coefficients(a1, a2, frame, width=0.9)
    obs = fourier_obstacle([c0, 0.0, c2], [0.0, 0.0, s3])
    x = obs.rho(theta) * np.array([np.cos(theta), np.sin(theta)])
    p = PhasePoint(x, unit_covector(coeffs, x, np.array([np.cos(psi), np.sin(psi)])))
    once = reflect(coeffs, obs, p)
    twice = reflect(coeffs, obs, once)
    np.testing.assert_allclose(twice.xi, p.xi, rtol=0.0, atol=1e-12)
    assert abs(hamiltonian(coeffs, once) - hamiltonian(coeffs, p)) <= 1e-12


# support_radius 1.5 holds the unit ball, so the same rays take RK4 steps and
# meet the obstacle inside the perturbation (identity coefficients: exact lines)
@pytest.mark.parametrize("support", [0.0, 1.5])
@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.1, 0.8), s=st.floats(0.0, 1.0), theta=angles, psi=angles)
def test_disk_last_exit_matches_closed_form(support, a, s, theta, psi):
    cfg, ident = RayConfig(), replace(identity_coefficients(), support_radius=support)
    r0 = a + (1.0 - a) * s
    assume(r0 > a + 1e-6)
    x0 = r0 * np.array([np.cos(theta), np.sin(theta)])
    d0 = np.array([np.cos(psi), np.sin(psi)])
    b = x0 @ d0
    disc = b * b - (r0 * r0 - a * a)
    # an impact at metric cosine sqrt(disc) / a near the glancing threshold
    # may be censored instead of reflected
    assume(not (disc > 0.0 and np.sqrt(disc) / a <= 1.25 * cfg.glancing_threshold))
    lead, p, d = 0.0, x0, d0
    if disc > 0.0 and b < 0.0:
        lead = -b - np.sqrt(disc)
        p = x0 + lead * d0
        n = p / a
        d = d0 - 2.0 * (d0 @ n) * n
    q = p @ d
    chord = -q + np.sqrt(q * q - (p @ p - 1.0))
    res = _eval_rays(ident, (disk_obstacle(a),), np.concatenate([x0, d0])[None], cfg, 1.0)
    assert res.termination[0] == 0
    assert res.t_exit[0] == pytest.approx((lead + chord) / 2.0, abs=1e-9)


@pytest.mark.parametrize("cosine, support", [
    pytest.param(c, s, id=f"{c}-{s}" if s else f"{c}")
    for s in (0.0, 1.5) for c in (3e-3, 2e-3, 1.5e-3, 1.1e-3)])
def test_line_flight_reflects_short_chord_impacts(cosine, support):
    # chord 2 a cosine < 2 * step_size, the line-sample spacing and the RK4
    # step length; the 200 rays start at offsets spread over one spacing, so
    # samples and steps straddle the chord at every phase, and all of them
    # must reflect, on straight flights (support 0) and on RK4 steps (1.5)
    cfg, a = RayConfig(), 0.5
    ident = replace(identity_coefficients(), support_radius=support)
    x = -0.9 - 2.0 * cfg.step_size * np.arange(200) / 200
    y = np.full(200, a * np.sqrt(1.0 - cosine**2))
    states = np.stack([x, y, np.ones(200), np.zeros(200)], axis=1)
    res = _eval_rays(ident, (disk_obstacle(a),), states, cfg, 1.0)
    assert np.all(res.termination == 0)
    assert np.sum(res.states[:, 3] == 0.0) == 0


STAR_IN_BUMP = fourier_obstacle([0.25, 0.0, 0.03], [0.0, 0.0, 0.02])


@pytest.mark.parametrize("obstacle", [None, STAR_IN_BUMP], ids=["bump", "bump_star"])
@settings(max_examples=25, deadline=None)
@given(theta=angles, b=st.floats(-0.45, 0.45))
def test_time_reversal_returns_to_start(nu_bump, obstacle, theta, b):
    # from the escape circle, aimed through the bump at impact parameter b;
    # the reversed ray retraces the forward one, reflections included
    geom, cfg, r_esc = TruncationGeometry(R1=0.5, R=1.0), RayConfig(), 1.25    # R + 0.25
    alpha = theta + np.arcsin(b / r_esc)
    x0 = r_esc * np.array([np.cos(theta), np.sin(theta)])
    p0 = PhasePoint(x0, -np.array([np.cos(alpha), np.sin(alpha)]))
    fwd = integrate_ray(nu_bump, obstacle, geom, p0, cfg)
    assume(fwd.termination is Termination.ESCAPED)
    end = fwd.states[-1]
    back = integrate_ray(nu_bump, obstacle, geom, PhasePoint(end[:2], -end[2:]), cfg)
    assert back.termination is Termination.ESCAPED
    assert len(back.reflections) == len(fwd.reflections)
    np.testing.assert_allclose(back.states[-1], np.concatenate([x0, -p0.xi]), rtol=0.0, atol=1e-6)
    for point in fwd.reflections + back.reflections:
        assert abs(signed_distance(obstacle, point)) <= 1e-12


def test_step_near_an_obstacle_reuses_the_first_stage_slope(nu_bump, monkeypatch):
    # a step whose Hermite interpolant is searched for an impact takes its
    # start slope from the RK4 stage k1: 5 gradient calls instead of 6, and
    # the interpolant gets _rhs at the step's ends bit for bit, as before
    calls = {"grad": 0, "steps": 0, "near": 0}
    rk4_step, hermite = raytrace._rk4_step, raytrace._hermite

    def grad(x, nu=None):
        calls["grad"] += 1
        return nu_bump.eval_grad_nu(x, nu)

    def step(*args):
        calls["steps"] += 1
        return rk4_step(*args)

    def interpolant(s0, s1, f0, f1, dt):
        calls["near"] += 1
        assert f0.tobytes() == _rhs(nu_bump, s0).tobytes()
        assert f1.tobytes() == _rhs(nu_bump, s1).tobytes()
        return hermite(s0, s1, f0, f1, dt)

    monkeypatch.setattr(raytrace, "_rk4_step", step)
    monkeypatch.setattr(raytrace, "_hermite", interpolant)
    geom = TruncationGeometry(R1=0.5, R=1.0)
    x0 = 1.25 * np.array([np.cos(0.3), np.sin(0.3)])
    p0 = PhasePoint(x0, -np.array([np.cos(0.38), np.sin(0.38)]))
    traj = integrate_ray(replace(nu_bump, eval_grad_nu=grad), STAR_IN_BUMP, geom, p0, RayConfig())
    assert traj.termination is Termination.ESCAPED and traj.reflections
    assert calls["near"] > 0
    assert calls["grad"] == 4 * calls["steps"] + calls["near"]


@settings(max_examples=20, deadline=None)
@given(r0=st.floats(0.6, 1.0), theta=angles, b=st.floats(-0.45, 0.45))
def test_bump_flight_matches_fixed_step_march(nu_bump, r0, theta, b):
    # aimed inward at impact parameter |b| < 0.5: flies into the bump
    alpha = theta + np.arcsin(b / r0)
    x0 = r0 * np.array([np.cos(theta), np.sin(theta)])
    state = np.concatenate([x0, -np.array([np.cos(alpha), np.sin(alpha)])])[None]
    cfg = RayConfig()
    res = _integrate_batch(nu_bump, (), state, cfg, R_track=1.0, escape_radius=1.25)
    assert res.termination[0] == 0
    steps = int(np.ceil(res.t[0] / cfg.step_size))
    for _ in range(steps):
        state = _rk4_step(nu_bump, state, cfg.step_size)
    final = res.states[0].copy()
    final[:2] += 2.0 * final[2:] * (steps * cfg.step_size - res.t[0])
    np.testing.assert_allclose(state[0], final, rtol=0.0, atol=1e-6)


def _scattered_rays(coeffs, obstacles, n, seed):
    """Characteristic states at random points of the annulus 0.05 < |x| < 0.95
    with random directions, clear of the obstacles: some start inside the
    bump, some fly into it and some miss it."""
    g = rng(seed)
    r, (th, psi) = g.uniform(0.05, 0.95, n), g.uniform(0.0, 2 * np.pi, (2, n))
    x = np.stack([r * np.cos(th), r * np.sin(th)], -1)
    if obstacles:
        x = x[np.min([signed_distance(ob, x) for ob in obstacles], axis=0) > 0.01]
    d = np.stack([np.cos(psi[:len(x)]), np.sin(psi[:len(x)])], -1)
    return np.concatenate([x, unit_covector(coeffs, x, d)], axis=1)


@pytest.mark.parametrize("obstacles, budget, glancing, R",
                         [((), 25.0, 1e-3, 1.0), ((STAR_IN_BUMP,), 25.0, 1e-3, 1.0),
                          ((), 0.3, 1e-3, 1.0), ((STAR_IN_BUMP,), 25.0, 0.7, 0.3)],
                         ids=["bump", "bump_star", "budget", "glancing_small_ball"])
def test_every_ray_of_a_batch_ends_as_it_would_alone(nu_bump, obstacles, budget, glancing, R,
                                                     monkeypatch):
    # the stepping rays are held as compact arrays that are recompacted as
    # rays leave the support or B(0, R), meet the star inside it (a glancing
    # impact ends the ray) or run over the budget; each ray's ending must not
    # depend on the rays it was stepped with
    impacts = []

    def counting(ob, x):
        impacts.append(len(x))
        return boundary_normal(ob, x)

    monkeypatch.setattr(raytrace, "boundary_normal", counting)
    cfg = RayConfig(max_time_budget=budget, glancing_threshold=glancing)
    states = _scattered_rays(nu_bump, obstacles, 48, seed=3)
    batch = _eval_rays(nu_bump, obstacles, states, cfg, R)
    assert bool(impacts) == bool(obstacles)
    assert (batch.termination == 1).any() == (budget < 1.0)
    assert (batch.termination == 2).any() == (glancing > 0.1)
    assert (batch.termination == 0).any()
    for i, state in enumerate(states):
        alone = _eval_rays(nu_bump, obstacles, state[None], cfg, R)
        for name in ("termination", "t", "t_exit", "states"):
            assert getattr(alone, name)[0].tobytes() == getattr(batch, name)[i].tobytes(), (i, name)


def test_a_recorded_ray_ends_as_it_does_in_a_batch(nu_bump, unit_ball_geom):
    # integrate_ray records every step; its ending is the batch's, bit for bit
    states = _scattered_rays(nu_bump, (STAR_IN_BUMP,), 8, seed=4)
    batch = _eval_rays(nu_bump, (STAR_IN_BUMP,), states, RayConfig(), unit_ball_geom.R)
    reflected = 0
    for i, state in enumerate(states):
        traj = integrate_ray(nu_bump, STAR_IN_BUMP, unit_ball_geom,
                             PhasePoint(state[:2], state[2:]), RayConfig())
        reflected += len(traj.reflections)
        assert list(Termination)[batch.termination[i]] is traj.termination
        assert traj.times[-1] == batch.t[i]
        assert traj.states[-1].tobytes() == batch.states[i].tobytes()
    assert reflected > 0


# L, the maximizer's (x, xi) and the refinement history of the benchmark's
# "rays" search at its first frame rotation (4 x 8 x 16 grid, refine_points
# = 7, 2 rounds), as float.hex; and the rows of each traced batch
BENCHMARK_SEARCH = {
    "disk": ("0x1.bb67ae8584cadp-1",
             ("-0x1.f6979dc551e45p-1", "0x1.86cb6ec55aa92p-3",
              "0x1.826887fa6392ap-1", "-0x1.4fe7d8c10e915p-1"),
             ("0x1.bb67ae8584cadp-1", "0x1.bb67ae8584cadp-1"), [256, 196, 196]),
    "nu_bump": ("0x1.35b5be4b1fc9ap+0",
                ("0x1.f0cae1fc93e98p-1", "0x1.ef703bbe1deafp-3",
                 "-0x1.8de6ceaab739dp-1", "-0x1.423560e8a4374p-1"),
                ("0x1.2ddd3f6180202p+0", "0x1.35b5be4b1fc9ap+0"), [512, 196, 196]),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SEARCH))
def test_the_benchmark_search_traces_each_starting_state_once(name, monkeypatch):
    # both maximizers lie on |x| = R, where a refinement round's radii clip to
    # R: each grid keeps a clipped radius once, so no batch repeats a state,
    # and n_samples counts the rays traced
    L, maximizer, history, rows = BENCHMARK_SEARCH[name]
    radii, traced = [], []
    build_states = raytrace._build_states

    def building(coeffs, obstacles, rs, *angles):
        radii.append(rs)
        return build_states(coeffs, obstacles, rs, *angles)

    def recording(coeffs, obstacles, states, cfg, R):
        traced.append(states)
        return _eval_rays(coeffs, obstacles, states, cfg, R)

    monkeypatch.setattr(raytrace, "_build_states", building)
    monkeypatch.setattr(raytrace, "_eval_rays", recording)
    cfg = RunConfig.from_file(CONFIGS / f"{name}.ini")
    ray_cfg = RayConfig(grid_pos_r=4, grid_pos_theta=8, grid_dir=16, refine_points=7,
                        refinement_rounds=2, frame_rotation=float.fromhex("0x1.538feaa4932bap-2"))
    res = longest_ray_length(*cfg.problem(), 1.0, ray_cfg)
    assert [len(s) for s in traced] == rows
    assert all(len(np.unique(s, axis=0)) == len(s) for s in traced)
    assert all(len(np.unique(rs)) == len(rs) for rs in radii)
    assert min(len(rs) for rs in radii[1:]) < ray_cfg.refine_points    # radii were clipped
    assert res.L.hex() == L
    assert tuple(v.hex() for v in (*res.maximizer.x, *res.maximizer.xi)) == maximizer
    assert tuple(v.hex() for v in res.diagnostics.refinement_history) == history
    assert res.diagnostics.n_samples == sum(rows)
