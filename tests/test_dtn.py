import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv, ivp, jv, jvp, yv, yvp

from helmray.bounds import exact_C_DtN_tilde
from helmray.dtn import build_dtn, default_n_max, hankel_ratio, incident_wave_data
from conftest import rng


@pytest.mark.parametrize("kR", [0.5, 1.0, 5.0, 20.0, 100.0])
def test_sign_property_and_symmetry(kR):
    op = build_dtn(kR, 1.0)
    assert np.all(op.coefficients.real <= 0.0)
    np.testing.assert_array_equal(op.coefficients, op.coefficients[::-1])


def test_high_order_coefficients_approach_minus_n_over_R():
    op = build_dtn(1.0, 1.0, n_max=45)
    assert op.coefficients[40 + op.n_max].real == pytest.approx(-40.0, rel=0.05)


def test_wronskian_of_bessel_oracle():
    # the scipy cylinder functions serve as the independent oracle; their
    # Wronskian J_n Y_n' - J_n' Y_n = 2/(pi z) certifies them on the test grid
    for kR in (0.5, 1.0, 5.0, 20.0, 100.0):
        op = build_dtn(kR, 1.0)
        for n in range(op.n_max + 1):
            w = jv(n, kR) * yvp(n, kR) - jvp(n, kR) * yv(n, kR)
            assert abs(w * np.pi * kR / 2.0 - 1.0) <= 1e-12


def test_quadratic_form_sign_on_random_traces():
    op = build_dtn(5.0, 2.0)
    g = rng(1)
    for _ in range(100):
        c = g.standard_normal(2 * op.n_max + 1) + 1j * g.standard_normal(2 * op.n_max + 1)
        val = 2.0 * np.pi * op.R * np.sum(op.coefficients * np.abs(c) ** 2)
        assert -val.real >= -1e-12 * abs(val)


def test_pairing_continuity_stable_under_mode_increase():
    # four times the modes changes nothing: the pairing ratio |t_n| / g_n,
    # g_n = k I_n'(kR) / I_n(kR), peaks at n = 0, so the closed form's max
    # over n <= n_max is the sup over all modes
    for k in (0.5, 2.0, 16.0):
        op = build_dtn(k, 1.0, n_max=4 * default_n_max(k, 1.0))
        n = np.arange(op.n_max + 1)
        ratios = np.abs(op.coefficients[op.n_max:]) * iv(n, k) / (k * ivp(n, k))
        assert np.all(np.isfinite(ratios)) and np.argmax(ratios) == 0
        assert ratios.max() == pytest.approx(exact_C_DtN_tilde(1.0, [k]), rel=1e-13)


def test_incident_wave_data_against_quadrature():
    k, R = 5.0, 2.0
    op = build_dtn(k, R)
    d = np.array([1.0, 0.0])
    data = incident_wave_data(op, d)
    Nq = 4096
    th = 2 * np.pi * np.arange(Nq) / Nq
    pts = np.stack([R * np.cos(th), R * np.sin(th)], 1)
    uinc = np.exp(1j * k * (pts @ d))
    duinc = 1j * k * (np.cos(th) * d[0] + np.sin(th) * d[1]) * uinc
    un = np.fft.fft(uinc) / Nq
    for n in range(-op.n_max, op.n_max + 1):
        dn = np.sum(duinc * np.exp(-1j * n * th)) / Nq
        oracle = dn - op.coefficients[n + op.n_max] * un[n % Nq]
        assert abs(data[n + op.n_max] - oracle) <= 1e-8


def test_incident_wave_rotation_covariance():
    op = build_dtn(5.0, 2.0)
    base = incident_wave_data(op, (1.0, 0.0))
    phi = 0.7
    rot = incident_wave_data(op, (np.cos(phi), np.sin(phi)))
    pred = base * np.exp(-1j * op.orders * phi)
    np.testing.assert_allclose(rot, pred, atol=1e-12)


def test_hankel_ratio_reexport_even():
    assert hankel_ratio(-5, 2.0) == hankel_ratio(5, 2.0)


def test_scalar_type_does_not_change_the_bits():
    # a numpy scalar z must take the same arithmetic as a Python float
    for n in range(60):
        assert hankel_ratio(n, np.float64(40.0)) == hankel_ratio(n, 40.0)
    a, b = build_dtn(np.float64(20.0), 2.0), build_dtn(20.0, 2.0)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_sign_property_top_of_range():
    op = build_dtn(200.0, 1.0)
    assert np.all(op.coefficients.real <= 0.0)


@settings(max_examples=200, deadline=None)
@given(k=st.floats(0.1, 300.0), R=st.floats(0.1, 5.0))
def test_sign_property_random_k_and_radius(k, R):
    t = build_dtn(k, R).coefficients
    assert np.all(t.real < 0.0)
    assert np.all(t.imag >= 0.0)


def test_build_rejects_insufficient_modes():
    with pytest.raises(ValueError):
        build_dtn(10.0, 2.0, n_max=10)  # below ceil(kR) = 20
