import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv, jvp, yv, yvp

from helmray.dtn import (FourierTrace, apply_dtn, build_dtn, dtn_pairing,
                         hankel_ratio, incident_wave_data)
from conftest import rng


def _random_trace(op, g):
    c = g.standard_normal(2 * op.n_max + 1) + 1j * g.standard_normal(2 * op.n_max + 1)
    return FourierTrace(c, op.R)


def _conj_trace(t):
    # Fourier coefficients of the pointwise conjugate
    return FourierTrace(np.conj(t.coefficients[::-1]), t.R)


@pytest.mark.parametrize("kR", [0.5, 1.0, 5.0, 20.0, 100.0])
def test_sign_property_and_symmetry(kR):
    op = build_dtn(kR, 1.0)
    assert np.all(op.coefficients.real <= 0.0)
    np.testing.assert_array_equal(op.coefficients, op.coefficients[::-1])


def test_high_order_coefficients_approach_minus_n_over_R():
    op = build_dtn(1.0, 1.0, n_max=45)
    assert op.t(40).real == pytest.approx(-40.0, rel=0.05)


def test_wronskian_of_bessel_oracle():
    # the scipy cylinder functions serve as the independent oracle; their
    # Wronskian J_n Y_n' - J_n' Y_n = 2/(pi z) certifies them on the test grid
    for kR in (0.5, 1.0, 5.0, 20.0, 100.0):
        op = build_dtn(kR, 1.0)
        for n in range(op.n_max + 1):
            w = jv(n, kR) * yvp(n, kR) - jvp(n, kR) * yv(n, kR)
            assert abs(w * np.pi * kR / 2.0 - 1.0) <= 1e-12


def test_diagonal_action_and_zero():
    op = build_dtn(5.0, 2.0, n_max=30)
    c = np.zeros(2 * op.n_max + 1, complex)
    c[3 + op.n_max] = 1.0
    out = apply_dtn(op, FourierTrace(c, 2.0))
    assert out.coefficients[3 + op.n_max] == op.t(3)
    assert np.count_nonzero(out.coefficients) == 1
    zero = apply_dtn(op, FourierTrace(np.zeros_like(c), 2.0))
    assert np.all(zero.coefficients == 0)


def test_quadratic_form_sign_on_random_traces():
    op = build_dtn(5.0, 2.0)
    g = rng(1)
    for _ in range(100):
        t = _random_trace(op, g)
        val = dtn_pairing(op, t, t)
        assert -val.real >= -1e-12 * abs(val)


def test_single_mode_pairing_value():
    op = build_dtn(5.0, 2.0)
    c = np.zeros(2 * op.n_max + 1, complex)
    c[op.n_max + 4] = 2.0 - 1.0j
    t = FourierTrace(c, 2.0)
    expect = op.t(4) * abs(2.0 - 1.0j) ** 2 * 2.0 * np.pi * 2.0
    assert dtn_pairing(op, t, t) == pytest.approx(expect)


def test_adjoint_pairing_symmetry():
    op = build_dtn(5.0, 2.0)
    g = rng(2)
    for _ in range(20):
        a, b = _random_trace(op, g), _random_trace(op, g)
        lhs = dtn_pairing(op, a, _conj_trace(b))
        rhs = dtn_pairing(op, b, _conj_trace(a))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_pairing_continuity_stable_under_mode_increase():
    # empirical pairing norm against k-weighted trace surrogates is finite and
    # stable when the modal truncation grows
    from helmray.bounds import estimate_C_DtN_tilde
    a = estimate_C_DtN_tilde(1.0, [2.0], h=0.08)
    assert np.isfinite(a) and a > 0

    # same quantity computed after enlarging n_max via a finer probe
    b = estimate_C_DtN_tilde(1.0, [2.0], h=0.06)
    assert abs(a - b) <= 0.1 * a


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
        oracle = dn - op.t(n) * un[n % Nq]
        assert abs(data.coefficients[n + op.n_max] - oracle) <= 1e-8


def test_incident_wave_rotation_covariance():
    op = build_dtn(5.0, 2.0)
    base = incident_wave_data(op, (1.0, 0.0))
    phi = 0.7
    rot = incident_wave_data(op, (np.cos(phi), np.sin(phi)))
    pred = base.coefficients * np.exp(-1j * op.orders * phi)
    np.testing.assert_allclose(rot.coefficients, pred, atol=1e-12)


def test_hankel_ratio_reexport_even():
    assert hankel_ratio(-5, 2.0) == hankel_ratio(5, 2.0)


def test_scalar_type_does_not_change_the_bits():
    # a numpy scalar z must take the same arithmetic as a Python float
    for n in range(60):
        assert hankel_ratio(n, np.float64(40.0)) == hankel_ratio(n, 40.0)
    a, b = build_dtn(np.float64(20.0), 2.0), build_dtn(20.0, 2.0)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_trace_parseval():
    R = 1.5
    N = 512
    th = 2 * np.pi * np.arange(N) / N
    vals = np.exp(1j * 3 * th) + 0.5 * np.exp(-1j * 7 * th) + 0.25
    t = FourierTrace.from_samples(vals, R)
    lhs = 2 * np.pi * R * np.sum(np.abs(t.coefficients) ** 2)
    rhs = 2 * np.pi * R * np.mean(np.abs(vals) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trace_evaluate_roundtrip():
    R = 1.0
    N = 128
    th = 2 * np.pi * np.arange(N) / N
    vals = np.cos(2 * th) + 1j * np.sin(5 * th)
    t = FourierTrace.from_samples(vals, R)
    np.testing.assert_allclose(t.evaluate(th), vals, atol=1e-12)


def test_sign_property_top_of_range():
    op = build_dtn(200.0, 1.0)
    assert np.all(op.coefficients.real <= 0.0)


@settings(max_examples=200, deadline=None)
@given(k=st.floats(0.1, 300.0), R=st.floats(0.1, 5.0))
def test_sign_property_random_k_and_radius(k, R):
    t = build_dtn(k, R).coefficients
    assert np.all(t.real < 0.0)
    assert np.all(t.imag >= 0.0)


def test_radius_mismatch_rejected():
    op = build_dtn(5.0, 2.0)
    wrong = FourierTrace(np.zeros(2 * op.n_max + 1, complex), 1.0)
    with pytest.raises(ValueError):
        apply_dtn(op, wrong)
    with pytest.raises(ValueError):
        dtn_pairing(op, wrong, wrong)


def test_build_rejects_insufficient_modes():
    with pytest.raises(ValueError):
        build_dtn(10.0, 2.0, n_max=10)  # below ceil(kR) = 20
