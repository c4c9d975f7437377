import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import h1vp, hankel1, iv, ivp

from helmray.bounds import (CH2Estimate, ConstantsLedger, compute_C_DtN,
                            compute_C_int, estimate_C_H2, estimate_C_int_tilde,
                            exact_C_DtN_tilde, h2_bound_rhs, mesh_threshold,
                            resolvent_upper_bound, schatz_condition, threshold_rhs,
                            volterra_discrete_norm, volterra_norm)
from helmray.geometry import TruncationGeometry, identity_coefficients
from reference import estimate_C_DtN_tilde


def _unit_ledger(**over):
    kw = dict(C_int_tilde=1.0, C_DtN_tilde=1.0, C_H2=1.0, A_min=1.0, A_max=1.0,
              nu_min=1.0, nu_max=1.0, k0=1.0, L_ray=2.0)
    kw.update(over)
    return ConstantsLedger(**kw)


# -- weighted constants -------------------------------------------------------

def test_compute_C_int_values():
    assert compute_C_int(1.0, 4.0, 1.0) == pytest.approx(2.0)
    assert compute_C_int(1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert compute_C_int(2.5, 1.0, 9.0) == pytest.approx(7.5)


def test_compute_C_DtN_values():
    assert compute_C_DtN(1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert compute_C_DtN(1.0, 0.25, 1.0) == pytest.approx(2.0)
    assert compute_C_DtN(3.0, 1.0, 1.0 / 9.0) == pytest.approx(9.0)


def test_continuity_constant_bound():
    led = _unit_ledger(C_DtN_tilde=1.7)
    assert led.C_cont <= 1.0 + led.C_DtN + 1e-12
    led.validate()


def test_ledger_rejects_small_ray_length():
    with pytest.raises(ValueError):
        _unit_ledger(L_ray=1.5).validate()


@pytest.mark.parametrize("name, value", [
    ("C_H2", -1.0), ("C_H2", 0.0), ("C_int_tilde", 0.0), ("C_DtN_tilde", -0.1),
    ("L_ray", np.nan), ("k0", np.inf), ("A_min", 0.0), ("A_max", 0.5),
    ("nu_min", -1.0), ("nu_max", 0.5)])
def test_ledger_rejects_constants_outside_their_range(name, value):
    # a ledger read with --ledger comes from outside the program; C_H2 = -1
    # used to give admissible=True with h_max = nan
    with pytest.raises(ValueError, match=name):
        mesh_threshold(_unit_ledger(**{name: value}), k=10.0, h_query=0.01)


@pytest.mark.parametrize("k, h, name", [
    (0.0, None, "k"), (-2.0, 0.1, "k"), (np.inf, None, "k"), (np.nan, 0.1, "k"),
    (4.0, -0.1, "h_query"), (4.0, 0.0, "h_query"), (4.0, np.nan, "h_query")])
def test_threshold_rejects_a_wavenumber_or_mesh_width_that_is_not_positive(k, h, name):
    # k = 0 once gave h_max = inf, written as the invalid JSON token Infinity;
    # k = -2 gave a threshold, and h = -0.1 admissible = True
    with pytest.raises(ValueError, match=f"{name} = {dict(k=k, h_query=h)[name]}"):
        mesh_threshold(_unit_ledger(), k, h_query=h)


@pytest.mark.parametrize("key, value", [
    ("C_H3", 1.0), ("k0", ...), ("C_H2", "1.0"), ("C_H2", None), ("k0", True)],
    ids=["unknown", "missing", "quoted", "null", "boolean"])
def test_ledger_file_errors_name_the_key(tmp_path, key, value):
    # ``...`` drops the key from the file
    data = {**asdict(_unit_ledger()), key: value}
    if value is ...:
        del data[key]
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=key):
        ConstantsLedger.from_json(path)


def test_ledger_file_must_hold_an_object(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(list(asdict(_unit_ledger()).values())))
    with pytest.raises(ValueError, match="JSON object"):
        ConstantsLedger.from_json(path)


# -- reference norms ---------------------------------------------------------

def test_resolvent_upper_bound_values():
    assert resolvent_upper_bound(1.0, 10.0, 0.0) == pytest.approx(2.0 / (10.0 * np.pi))
    assert resolvent_upper_bound(1.0, 10.0, 1.0) == pytest.approx(2.0 * np.sqrt(2.0) / np.pi)
    # s = 1 is k-independent
    assert resolvent_upper_bound(1.0, 3.0, 1.0) == resolvent_upper_bound(1.0, 77.0, 1.0)
    # s = 2 reproduces 4 L k / pi
    assert resolvent_upper_bound(1.5, 7.0, 2.0) == pytest.approx(4.0 * 1.5 * 7.0 / np.pi)
    with pytest.raises(ValueError):
        resolvent_upper_bound(1.0, 1.0, 2.5)


def test_volterra_norm_values():
    assert volterra_norm(1.0) == pytest.approx(2.0 / np.pi)
    assert volterra_norm(np.pi / 2.0) == pytest.approx(1.0)


def test_volterra_discretization_converges_first_order_or_better():
    errs = [abs(volterra_discrete_norm(1.0, n) - 2.0 / np.pi)
            for n in (250, 500, 1000)]
    slope = np.polyfit(np.log([250, 500, 1000]), np.log(errs), 1)[0]
    assert -slope >= 0.9
    assert errs[-1] < 1e-3


# -- threshold mechanics -----------------------------------------------------

def test_threshold_bisection_matches_independent_root_find():
    led = _unit_ledger()
    for k in (2.0, 10.0, 40.0):
        rep = mesh_threshold(led, k)
        oracle = brentq(lambda h: threshold_rhs(led, k, h) - 1.0, 1e-14, 1.0,
                        xtol=1e-18, rtol=8.9e-16)
        assert abs(rep.h_max - oracle) <= 1e-10 * oracle


def test_threshold_brackets_unity():
    led = _unit_ledger(C_H2=0.7, C_DtN_tilde=2.2, L_ray=3.0)
    rep = mesh_threshold(led, 10.0)
    assert threshold_rhs(led, 10.0, rep.h_max * (1 - 1e-6)) < 1.0
    assert threshold_rhs(led, 10.0, rep.h_max * (1 + 1e-6)) > 1.0
    assert threshold_rhs(led, 10.0, rep.h_max) == pytest.approx(1.0, abs=1e-10)


def test_threshold_strictly_decreasing_in_ray_length():
    for k in (2.0, 5.0, 10.0, 25.0):
        h1 = mesh_threshold(_unit_ledger(L_ray=2.0), k).h_max
        h2 = mesh_threshold(_unit_ledger(L_ray=4.0), k).h_max
        assert h2 < h1


def test_threshold_admissibility_flag():
    led = _unit_ledger()
    rep = mesh_threshold(led, 10.0)
    at_max = mesh_threshold(led, 10.0, h_query=rep.h_max)
    assert at_max.admissible  # boundary case: rhs = 1 within 1e-10
    assert at_max.rhs_at_query == pytest.approx(1.0, abs=1e-10)
    assert mesh_threshold(led, 10.0, h_query=2 * rep.h_max).admissible is False
    assert rep.quasioptimality_constant == pytest.approx(2.0 * (1.0 + led.C_DtN))


def test_threshold_caveat_records_empirical_provenance():
    led = _unit_ledger()
    led.provenance["C_H2"] = "empirical"
    assert "C_H2" in mesh_threshold(led, 5.0).caveat


# -- Schatz smallness and the H^2 coefficient ---------------------------------

def test_schatz_condition_cases():
    led = _unit_ledger(C_DtN_tilde=0.0)  # C_cont = 1
    bound = 1.0 / (2.0 * 1.0 * 1.0 * 10.0)
    assert schatz_condition(led, 10.0, 0.04)           # below 0.05
    assert schatz_condition(led, 10.0, bound)          # non-strict at the bound
    assert not schatz_condition(led, 10.0, 2 * bound)


def test_h2_bound_rhs_formula():
    led = _unit_ledger()
    k = 5.0
    # independent evaluation of the same closed form
    bracket = 1.0 + (1.0 + 1.0) / 1.0 + 1.0
    expect = k * 1.0 * (2.0 * np.sqrt(2.0) / np.pi) * 2.0 * bracket
    assert h2_bound_rhs(led, k) == pytest.approx(expect, rel=1e-14)
    assert h2_bound_rhs(led, 2 * k) == pytest.approx(2 * h2_bound_rhs(led, k))
    # nonincreasing in k0
    assert h2_bound_rhs(_unit_ledger(k0=2.0), k) <= h2_bound_rhs(led, k)


# -- radiation-pairing constant ----------------------------------------------

@pytest.mark.parametrize("kR", [0.5, 1.0, 2.0, 4.0, 16.0])
def test_exact_C_DtN_tilde_matches_scipy_cylinder_functions(kR):
    # max_n |H_n'(kR)/H_n(kR)| I_n(kR)/I_n'(kR) from scipy's derivative routines
    n = np.arange(40)
    oracle = np.max(np.abs(h1vp(n, kR) / hankel1(n, kR)) * iv(n, kR) / ivp(n, kR))
    for R in (1.0, 2.0):
        assert exact_C_DtN_tilde(R, [kR / R]) == pytest.approx(oracle, rel=1e-12, abs=0)


def test_exact_C_DtN_tilde_is_the_max_over_k():
    each = [exact_C_DtN_tilde(1.0, [k]) for k in (2.0, 4.0, 8.0)]
    assert exact_C_DtN_tilde(1.0, [2.0, 4.0, 8.0]) == max(each) == each[0]


@pytest.mark.parametrize("k", [1.0, 2.0, 4.0])
def test_exact_C_DtN_tilde_against_mesh_reference(k):
    # the P1 estimator at h = 0.05 differs by +1.4e-4, +3.4e-5 and -3.4e-4
    # relative at k = 1, 2, 4 (on both sides, so it is no one-sided estimate);
    # the tolerance is 1.5 times the largest of these gaps
    assert estimate_C_DtN_tilde(1.0, [k], h=0.05) == pytest.approx(
        exact_C_DtN_tilde(1.0, [k]), rel=5e-4)


# -- empirical estimators -----------------------------------------------------

def test_estimate_C_int_tilde_positive_and_stable():
    a = estimate_C_int_tilde(h_values=(0.2, 0.1))
    assert 0.0 < a < 5.0


def test_estimate_C_DtN_tilde_matches_dense_cholesky_oracle():
    # sigma_max(L^{-1} D L^{-H}) with E = L L^H, D = C P the assembled radiation operator
    import scipy.linalg

    from helmray.dtn import build_dtn
    from helmray.fem import assemble, build_space, modal_projection
    from helmray.mesh import generate_mesh

    R, k, h = 1.0, 3.0, 0.2
    mesh = generate_mesh(None, TruncationGeometry(R1=0.9 * R, R=R), h)
    space = build_space(mesh)
    assert space.n_dofs == 217
    dtn = build_dtn(k, R)
    system = assemble(identity_coefficients(), space, dtn, k)
    D = (system.dtn_block @ modal_projection(space, dtn.n_max)).toarray()
    L = np.linalg.cholesky((system.stiffness + k**2 * system.mass_plain).toarray())
    Linv_D = scipy.linalg.solve_triangular(L, D, lower=True)
    core = scipy.linalg.solve_triangular(L, Linv_D.conj().T, lower=True).conj().T
    oracle = scipy.linalg.svdvals(core)[0]
    assert estimate_C_DtN_tilde(R, [k], h=h) == pytest.approx(oracle, rel=1e-12)


@pytest.fixture(scope="module")
def ch2_setup():
    geom = TruncationGeometry(R1=0.8, R=1.0)
    return identity_coefficients(), geom


def _padded_laplace_ratio(coeffs, geom, h, f):
    """The regularity-bound ratio for one explicit load, via the same pipeline."""
    from helmray.fem import (assemble, assemble_load_source, build_space,
                             l2_norm_exact, recovered_hessian_h2_norm)
    from helmray.mesh import generate_mesh

    mesh = generate_mesh(None, geom, h, outer_radius=geom.R + 1.0)
    space = build_space(mesh, dirichlet_outer=True)
    system = assemble(coeffs, space, None, 0.0)
    v = system.factorize().solve(-assemble_load_source(space, f))
    h2 = recovered_hessian_h2_norm(space, v, within_radius=geom.R)
    grad = float(np.sqrt(np.real(np.vdot(v, system.stiffness @ v))))
    l2v = float(np.sqrt(np.real(np.vdot(v, system.mass_plain @ v))))
    return h2 / (grad + l2v + l2_norm_exact(space, f))


def test_estimate_C_H2_needs_a_sample(ch2_setup):
    # the maximum over no sample once failed inside numpy
    coeffs, geom = ch2_setup
    with pytest.raises(ValueError, match="samples = 0"):
        estimate_C_H2(coeffs, None, geom, samples=0)


def test_estimate_C_H2_radial_oracle(ch2_setup):
    # constant load on the padded disk: v = (r^2 - 4)/4, every norm in closed form
    coeffs, geom = ch2_setup
    ones = lambda x: np.ones(len(np.atleast_2d(x)))
    ratio = _padded_laplace_ratio(coeffs, geom, 0.04, ones)

    import sympy
    r = sympy.symbols("r", positive=True)
    vv = (r**2 - 4) / 4
    # second derivatives: vxx = vyy = 1/2 on the diagonal, vxy = 0
    t1 = 2 * sympy.pi * sympy.integrate(vv**2 * r, (r, 0, 1))
    t2 = 2 * sympy.pi * sympy.integrate((r / 2) ** 2 * r, (r, 0, 1))
    h2_exact = float(sympy.sqrt(t1 + t2 + sympy.pi * sympy.Rational(1, 2)))
    g_exact = float(sympy.sqrt(2 * sympy.pi * sympy.integrate((r / 2) ** 2 * r, (r, 0, 2))))
    l2_exact = float(sympy.sqrt(2 * sympy.pi * sympy.integrate(vv**2 * r, (r, 0, 2))))
    f_exact = float(np.sqrt(np.pi * 4.0))
    ratio_exact = h2_exact / (g_exact + l2_exact + f_exact)
    assert ratio == pytest.approx(ratio_exact, rel=0.02)


def test_estimate_C_H2_certifies_every_solve(ch2_setup, monkeypatch):
    # a factorization whose solves are off by 1e-3 must not pass the
    # residual certificate, here on a disk fan (the sparse LU)
    from helmray.fem import Factorization, SolveError

    exact = Factorization.solve
    monkeypatch.setattr(Factorization, "solve",
                        lambda self, b: (1.0 + 1e-3) * exact(self, b))
    coeffs, geom = ch2_setup
    with pytest.raises(SolveError):
        estimate_C_H2(coeffs, None, geom, h=0.08, samples=1)


def test_estimate_C_H2_scale_invariant_and_monotone(ch2_setup):
    coeffs, geom = ch2_setup
    a = estimate_C_H2(coeffs, None, geom, h=0.08, samples=2, seed=3)
    b = estimate_C_H2(coeffs, None, geom, h=0.08, samples=5, seed=3)
    assert isinstance(a, CH2Estimate)
    assert b.value >= a.value  # running maximum over a shared seeded stream
    # homogeneity: scaling the load leaves the bound's ratio unchanged
    f = lambda x: np.exp(-np.sum(np.atleast_2d(x) ** 2, 1))
    f10 = lambda x: 10.0 * f(x)
    r1 = _padded_laplace_ratio(coeffs, geom, 0.1, f)
    r2 = _padded_laplace_ratio(coeffs, geom, 0.1, f10)
    assert r1 == pytest.approx(r2, rel=1e-12)
