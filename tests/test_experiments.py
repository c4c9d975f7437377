from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import hankel1, jv

from helmray.bounds import ConstantsLedger, schatz_condition
from helmray.config import RunConfig
from helmray.dtn import build_dtn, default_n_max
from helmray.experiments import (RadialCutoff, _CrossMeshProjector, estimate_eta,
                                 estimate_resolvent_norm, h2_scaling_study,
                                 quasimode_lower_bound, quasioptimality_study,
                                 radial_profiles, resolvent_scan)
from helmray.fem import (SingularSystemError, TridiagonalLDL, TridiagonalLU, assemble,
                         build_space, element_gradients, quadrature)
from helmray.geometry import (TruncationGeometry, anisotropic_coefficients,
                              disk_obstacle, fourier_obstacle, identity_coefficients,
                              nu_bump_coefficients)
from helmray.mesh import generate_mesh
from helmray import radial
from helmray.radial import (assemble_radial_mode, mode_cutoff_norm, radial_cutoff_resolvent_norm,
                            radial_quadrature)
from helmray.util import cutoff_normal, power_sigma, solve_real
from conftest import rng


@pytest.fixture(scope="module")
def free_geom():
    return TruncationGeometry(R1=0.5, R=1.0, R_ray=3.0)


# ---------------------------------------------------------------------------
# estimator machinery


def test_power_iteration_against_dense_svd_free_1d_kernel():
    # outgoing 1-d kernel e^{ik|x-y|}/(2ik) with a smoothed indicator cutoff;
    # dense quadrature singular value is the oracle for the estimator path
    from helmray.util import smoothstep

    k = 12.0
    n = 700
    x = np.linspace(-2.0, 2.0, n)
    w = np.full(n, x[1] - x[0])
    chi = smoothstep((1.1 - np.abs(x)) / 0.1)
    G = np.exp(1j * k * np.abs(x[:, None] - x[None, :])) / (2j * k)
    T = chi[:, None] * G * chi[None, :] * w[None, :]

    sw = np.sqrt(w)
    B = sw[:, None] * (chi[:, None] * G * chi[None, :]) * sw[None, :]
    sigma_dense = np.linalg.svd(B, compute_uv=False)[0]

    def apply_normal(v):
        # adjoint in the weighted inner product: W^{-1} T^H W
        return np.conj(T.T) @ (w * (T @ v)) / w

    g = rng(0)
    v0 = g.standard_normal(n) + 1j * g.standard_normal(n)
    sigma, _, conv, _ = power_sigma(apply_normal, sp.diags(w), v0, rtol=1e-6, maxit=2000)
    assert conv
    assert sigma == pytest.approx(sigma_dense, rel=1e-4)


@pytest.mark.parametrize("path", ["fem2d", "fan", "star", "modal"])
def test_cutoff_normal_is_mass_self_adjoint(path):
    # T = ch K^{-1} M ch, so u^H M T*T v = (T u)^H B (T v): Hermitian and,
    # on the diagonal, nonnegative; the 2-D cases use the energy Gram as B:
    # disk.ini's annulus, nu_bump.ini's fan (the sparse LU) and a star
    # annulus under anisotropic A (GMRES)
    cut = RadialCutoff(0.8, 0.97)
    if path != "modal":
        if path == "star":
            coeffs, obstacle, geom = (
                anisotropic_coefficients(), fourier_obstacle([0.5, 0.05, 0.05], [0, 0.05]),
                TruncationGeometry(R1=0.7, R=1.0, R_ray=3.5))
        else:
            name = "disk" if path == "fem2d" else "nu_bump"
            cfg = RunConfig.from_file(Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini")
            coeffs, obstacle, geom = cfg.problem()
        space = build_space(generate_mesh(obstacle, geom, 0.1))
        system = assemble(coeffs, space, build_dtn(3.0, geom.R), 3.0)
        M, lu, B = system.mass_plain, system.factorize(), system.energy_matrix()
        luM = spla.splu(M.tocsc())
        ch = cut.at_points(space.mesh.vertices[space.free_vertices])
    else:
        mode = assemble_radial_mode(3, 3.0, radial_quadrature(1.0, 80, r_inner=0.5))
        M, lu, luM, B = mode.M, mode.lu(), mode.lu_mass(), mode.M
        ch = cut(mode.grid[mode.free])
    apply_normal = cutoff_normal(lu, partial(solve_real, luM), M, B, ch)

    def m_dot(u, v):
        return np.vdot(u, M @ v)

    g = rng(1)
    u, v = (g.standard_normal(M.shape[0]) + 1j * g.standard_normal(M.shape[0])
            for _ in range(2))
    uNv, vNu = m_dot(u, apply_normal(v)), m_dot(v, apply_normal(u))
    assert abs(uNv - np.conj(vNu)) <= 1e-12 * abs(uNv)
    vNv = m_dot(v, apply_normal(v))
    assert vNv.real > 0.0 and abs(vNv.imag) <= 1e-12 * vNv.real


def _dense(band):
    return np.diag(band.main) + np.diag(band.off, 1) + np.diag(band.off, -1)


def test_radial_mass_solve_real_matches_complex_factorization():
    mode = assemble_radial_mode(2, 10.0, radial_quadrature(1.0, 200, r_inner=0.3))
    luM = mode.lu_mass()
    assert luM.dtype == np.float64
    # a complex banded LU (LAPACK ?gbsv) of the same bands as the oracle
    M = mode.M
    ab = np.zeros((3, M.shape[0]), dtype=complex)
    ab[0, 1:], ab[1], ab[2, :-1] = M.off, M.main, M.off
    g = rng(2)
    n = M.shape[0]
    for shape in ((n,), (n, 3)):
        b = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        x, ref = solve_real(luM, b), sla.solve_banded((1, 1), ab, b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("which", ["M", "K", "angular"])
@pytest.mark.parametrize("op", ["N", "T", "H"])
@pytest.mark.parametrize("ncols", [None, 2])
def test_tridiagonal_lu_matches_dense_solve(which, op, ncols):
    # the real mass factor and the complex system factor of one mode, and a
    # complex factor whose lower and upper bands differ, as the frequency
    # blocks of the angular solver do; a solve with A^T ("T") or A^H ("H") is
    # made of forward solves only: for the symmetric bands of a mode it is the
    # forward solve (conjugated for A^H), and for the angular block it is the
    # forward solve of the factor of the swapped bands
    mode = assemble_radial_mode(4, 6.0, radial_quadrature(1.0, 60, r_inner=0.2))
    if which == "angular":
        off = mode.K.off
        lower, main, upper = off * np.exp(0.4j), mode.K.main, off * np.exp(-0.4j)
        lu = TridiagonalLU(lower, main, upper) if op == "N" else TridiagonalLU(upper, main, lower)
    else:
        band = getattr(mode, which)
        lower, main, upper = band.off, band.main, band.off
        lu = mode.lu_mass() if which == "M" else mode.lu()
    assert lu.dtype == main.dtype
    A = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)
    g = rng(3)
    shape = (A.shape[0],) if ncols is None else (A.shape[0], ncols)
    b = g.standard_normal(shape)
    if which != "M":
        b = b + 1j * g.standard_normal(shape)
    x = np.conj(lu.solve(np.conj(b))) if op == "H" else lu.solve(b)
    ref = np.linalg.solve({"N": A, "T": A.T, "H": A.conj().T}[op], b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_tridiagonal_matmul_matches_dense():
    # a complex vector meets bands cast to complex once, with the bits of the
    # product by the bands as stored; a real vector meets the real bands
    mode = assemble_radial_mode(1, 5.0, radial_quadrature(1.0, 40))
    g = rng(4)
    for band in (mode.K, mode.M, mode.E):
        assert band.shape == _dense(band).shape
        v = g.standard_normal(band.shape[0]) + 1j * g.standard_normal(band.shape[0])
        ref = _dense(band) @ v
        assert np.linalg.norm(band @ v - ref) <= 1e-14 * np.linalg.norm(ref)
        stored = band.main * v
        stored[:-1] += band.off * v[1:]
        stored[1:] += band.off * v[:-1]
        assert np.array_equal(band @ v, stored)
        if band.main.dtype == np.float64:
            u = g.standard_normal(band.shape[0])
            y, ref = band @ u, _dense(band) @ u
            assert y.dtype == np.float64
            assert np.linalg.norm(y - ref) <= 1e-14 * np.linalg.norm(ref)


def test_real_tridiagonal_factor_rejects_complex_rhs():
    # as SuperLU does: a real factor never drops an imaginary part
    lu = TridiagonalLU(np.ones(3), np.full(4, 2.0), np.ones(3))
    with pytest.raises(TypeError):
        lu.solve(np.ones(4) + 1j)


@pytest.mark.parametrize("dtype", [float, complex])
def test_singular_tridiagonal_raises_typed_error(dtype):
    # [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: elimination leaves an exact zero in row 1
    off = np.array([1.0, 0.0], dtype=dtype)
    with pytest.raises(SingularSystemError, match="zero pivot in row 1"):
        TridiagonalLU(off, np.ones(3, dtype=dtype), off)


def test_indefinite_mass_band_raises_typed_error():
    # [[1, 0.5, 0], [0.5, -1, 0.5], [0, 0.5, 1]]: the second pivot is -1.25
    with pytest.raises(SingularSystemError, match="not positive definite.*row 1"):
        TridiagonalLDL(np.array([1.0, -1.0, 1.0]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("s", [0, 1])
def test_mode_cutoff_norm_matches_dense_singular_value(s):
    # ||ch K^{-1} M ch|| from the M norm to the B norm is the 2-norm of
    # L_B^T T L_M^{-T}, with M = L_M L_M^T and B = L_B L_B^T
    mode = assemble_radial_mode(3, 3.0, radial_quadrature(1.0, 80, r_inner=0.5))
    ch = RadialCutoff(0.8, 0.97)(mode.grid[mode.free])
    M, K = _dense(mode.M), _dense(mode.K)
    B = M if s == 0 else _dense(mode.E)
    T = ch[:, None] * np.linalg.solve(K, M * ch[None, :])
    LM, LB = np.linalg.cholesky(M), np.linalg.cholesky(B)
    dense = np.linalg.norm(LB.T @ T @ np.linalg.inv(LM.T), 2)
    sigma, _, conv, _ = mode_cutoff_norm(mode, ch, s=s, rtol=1e-12, maxit=5000)
    assert conv
    assert sigma == pytest.approx(dense, rel=1e-9)


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("r_inner, layouts", [(0.0, 2), (0.5, 1)])
def test_modal_scan_draws_one_start_vector_per_layout(monkeypatch, r_inner, layouts, s):
    # mode 0 keeps the axis node at r_inner = 0, so two free-node counts there;
    # the scan must give the bits of mode-by-mode estimates with fresh draws
    k, cut = 6.0, RadialCutoff(0.8, 0.97)
    radial._start_vector.cache_clear()
    draws, default_rng = [], np.random.default_rng

    def counting_rng(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    res = radial_cutoff_resolvent_norm(k, 1.0, 0.01, cut, r_inner=r_inner, s=s, seed=2)
    assert len(draws) == layouts
    quad = radial_quadrature(1.0, res.n_r, r_inner=r_inner)
    per_mode, residual = [], 0.0
    for n in range(default_n_max(k, 1.0) + 1):
        radial._start_vector.cache_clear()
        mode = assemble_radial_mode(n, k, quad)
        sigma, iters, conv, resid = mode_cutoff_norm(mode, cut(quad.grid[mode.free]), s=s, seed=2)
        per_mode.append((n, sigma, iters, conv))
        residual = max(residual, resid)
    assert res.per_mode == per_mode and res.residual == residual
    v0 = radial._start_vector(2, 10)
    with pytest.raises(ValueError):
        v0[0] = 1.0


@lru_cache
def _gauss_legendre(n_quad):
    return np.polynomial.legendre.leggauss(n_quad)


def free_mode_kernel_norm(n, k, R, chi, n_quad=600):
    """Dense-quadrature oracle for the identity-coefficient mode norm.

    The mode-n kernel of the outgoing free-space inverse is
    (i pi / 2) J_n(k r_<) H_n(k r_>) against r' dr'; the singular value is taken
    in the r dr inner product.  Independent of the finite-element path.
    """
    # Gauss-Legendre on (0, R)
    x, w = _gauss_legendre(n_quad)
    r = 0.5 * R * (x + 1.0)
    wr = 0.5 * R * w
    # the kernel separates: J_n and H_n are needed at the nodes only
    j, hk = 0.5j * np.pi * jv(n, k * r), hankel1(n, k * r)
    G = np.where(r[:, None] <= r[None, :], j[:, None] * hk[None, :], j[None, :] * hk[:, None])
    # singular values in L^2(r dr): sqrt(w r) scaling on both sides, with the cutoff
    s = np.sqrt(wr * r) * chi(r)
    B = s[:, None] * G * s[None, :]
    return float(spla.svds(B, k=1, return_singular_vectors=False, random_state=0)[0])


def test_modal_estimate_matches_dense_kernel_oracle(free_geom):
    cut = RadialCutoff(0.8, 0.97)
    est = estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                  5.0, cut, 0.02, method="modal", rtol=1e-5)
    assert est.resolution["n_modes"] == default_n_max(5.0, free_geom.R) + 1 == 22
    oracle = max(free_mode_kernel_norm(n, 5.0, 1.0, cut) for n in range(0, 22))
    assert est.value == pytest.approx(oracle, rel=5e-3)


def test_modal_and_2d_paths_agree(free_geom):
    cut = RadialCutoff(0.8, 0.97)
    a = estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                5.0, cut, 0.02, method="modal")
    b = estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                5.0, cut, 0.02, method="fem2d")
    assert b.value == pytest.approx(a.value, rel=0.01)


def test_off_centre_disk_does_not_take_the_modal_path():
    # the modal path solves about the origin; an off-centre disk once took it
    # and returned the centred disk's value bit for bit
    args = (identity_coefficients(), disk_obstacle(0.3, center=(0.4, 0.0)),
            TruncationGeometry(0.9, 1.0, 3.0), 2.0, RadialCutoff(0.8, 0.97), 0.05)
    with pytest.raises(ValueError, match="rotationally symmetric"):
        estimate_resolvent_norm(*args, method="modal")
    # auto takes fem2d, whose structured mesher needs a centred obstacle
    with pytest.raises(ValueError, match="origin-centered"):
        estimate_resolvent_norm(*args)


def test_fem2d_estimate_within_rtol_of_tight_reference():
    # disk.ini at k = 4, h = 0.5/k^2 (7,800 dofs): the top of the spectrum is
    # clustered, and an estimate that stopped when sigma stagnated came out
    # 2.1e-3 low while reporting converged
    cfg = RunConfig.from_file(Path(__file__).resolve().parents[1] / "configs" / "disk.ini")
    coeffs, obstacle, geom = cfg.problem()
    cut, k = RadialCutoff(0.8, 0.97), 4.0
    est, ref = (estimate_resolvent_norm(coeffs, obstacle, geom, k, cut, 0.5 / k**2,
                                        method="fem2d", **kw) for kw in ({}, {"rtol": 1e-10}))
    rtol = 1e-4     # the default of estimate_resolvent_norm
    assert est.converged and est.residual <= rtol
    assert ref.converged and ref.residual <= 1e-10
    assert est.value == pytest.approx(ref.value, rel=rtol)


def test_fem2d_matches_modal_on_disk_annulus_at_paper_resolution():
    # disk.ini at k = 6, h = 1/k^2 (9,828 dofs, about 0.5 s): the discretization
    # gap between the two paths is 5.30e-4 for seeds 0-3 and does not depend
    # on the seed, since both estimates are converged to their Ritz residuals
    cfg = RunConfig.from_file(Path(__file__).resolve().parents[1] / "configs" / "disk.ini")
    coeffs, obstacle, geom = cfg.problem()
    cut, k = RadialCutoff(0.8, 0.97), 6.0
    modal, fem2d = (estimate_resolvent_norm(coeffs, obstacle, geom, k, cut, 1.0 / k**2,
                                            method=m) for m in ("modal", "fem2d"))
    assert fem2d.resolution["n_dofs"] == 9828 and modal.converged and fem2d.converged
    assert fem2d.value == pytest.approx(modal.value, rel=1e-3)


def test_unknown_method_rejected(free_geom):
    with pytest.raises(ValueError, match="unknown method"):
        estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                5.0, RadialCutoff(0.8, 0.97), 0.02, method="fem")


def test_vanishing_cutoff_gives_zero(free_geom):
    class ZeroCutoff:
        inner, outer = 0.5, 0.9

        def __call__(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

        def at_points(self, pts):
            return np.zeros(len(np.atleast_2d(pts)))

    est = estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                  4.0, ZeroCutoff(), 0.05, method="fem2d")
    assert est.value == 0.0


def test_norm_estimate_linear_in_cutoff(free_geom):
    class Scaled:
        def __init__(self, base, c):
            self.base, self.c = base, c
            self.inner, self.outer = base.inner, base.outer

        def __call__(self, r):
            return self.c * self.base(r)

        def at_points(self, pts):
            return self.c * self.base.at_points(pts)

    base = RadialCutoff(0.8, 0.97)
    half = Scaled(base, 0.5)
    a = estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                4.0, base, 0.04, method="fem2d", seed=5)
    b = estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                4.0, half, 0.04, method="fem2d", seed=5)
    # chi enters on both sides of the solve: scaling by c scales the norm by c^2
    assert b.value == pytest.approx(0.25 * a.value, rel=1e-3)


def test_restart_stability(free_geom):
    cut = RadialCutoff(0.8, 0.97)
    vals = [estimate_resolvent_norm(identity_coefficients(), None, free_geom,
                                    6.0, cut, 0.02, method="modal",
                                    rtol=1e-5, seed=s).value for s in (0, 1)]
    assert abs(vals[0] - vals[1]) <= 0.01 * vals[0]


def test_resolvent_scan_rows(free_geom):
    cut = RadialCutoff(0.8, 0.97)
    scan = resolvent_scan(identity_coefficients(), None, free_geom,
                          [6.0, 9.0], cut, s=0)
    assert scan.method == "modal"
    assert [r["k"] for r in scan.rows] == [6.0, 9.0]
    for r in scan.rows:
        assert r["converged"]
        # the plateau sits under the support-radius envelope (coarse sanity)
        assert 0.0 < r["k_times_norm"] <= 1.3 * r["k"] * r["upper_reference"]


def test_scan_symmetric_bump_uses_modal_path(free_geom):
    prof = radial_profiles(nu_bump_coefficients(0.6, 0.4), 1.0)
    assert prof is not None
    scan = resolvent_scan(nu_bump_coefficients(0.6, 0.4), None, free_geom,
                          [4.0], RadialCutoff(0.8, 0.97), s=0)
    assert scan.method == "modal"
    assert radial_profiles(anisotropic_coefficients(0.4, 0.0, 0.2, 0.4), 1.0) is None


# ---------------------------------------------------------------------------
# quasimode


def test_quasimode_reference_ratio():
    res = quasimode_lower_bound(1.0, 0.1, 0.01)
    assert res.reference == pytest.approx(2.0 * 0.8 / (np.pi * 0.01))
    assert res.ratio >= res.reference


def test_quasimode_f_norm_identity():
    res = quasimode_lower_bound(1.0, 0.1, 0.01)
    assert res.f_norm_sq == pytest.approx(np.pi / (4.0 * res.mu), abs=1e-8)


def test_quasimode_inverse_h_scaling():
    a = quasimode_lower_bound(1.0, 0.1, 0.01)
    b = quasimode_lower_bound(1.0, 0.1, 0.005)
    assert b.ratio == pytest.approx(2.0 * a.ratio, rel=1e-10)


def test_quasimode_parameter_validation():
    with pytest.raises(ValueError):
        quasimode_lower_bound(1.0, 0.6, 0.01)
    with pytest.raises(ValueError):
        quasimode_lower_bound(1.0, 0.1, -1.0)


# ---------------------------------------------------------------------------
# eta


def test_projector_tables_match_per_matrix_coo_builds():
    geom = TruncationGeometry(R1=0.7, R=1.0, R_ray=3.5)
    obs = disk_obstacle(0.5)
    coarse = build_space(generate_mesh(obs, geom, 0.1))
    fine = build_space(generate_mesh(obs, geom, 0.05))
    proj = _CrossMeshProjector(nu_bump_coefficients(), coarse, fine, 2.0)
    pts, _, _ = quadrature(fine.mesh, 2)
    tri, lam = coarse.mesh.locate(pts.reshape(-1, 2))
    grads, _ = element_gradients(coarse.mesh)
    dof = coarse.dof_of_vertex[coarse.mesh.triangles[tri]]
    rows = np.repeat(np.arange(len(tri)), 3)
    keep = dof.ravel() >= 0
    for got, vals in ((proj.Phi, lam), (proj.Gx, grads[tri, :, 0]), (proj.Gy, grads[tri, :, 1])):
        ref = sp.coo_matrix((vals.ravel()[keep], (rows[keep], dof.ravel()[keep])),
                            shape=(len(tri), coarse.n_dofs)).tocsr()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def test_eta_decreases_with_mesh_refinement(free_geom):
    a = estimate_eta(identity_coefficients(), None, free_geom, k=3.0,
                     h_fem=0.1, samples=3, seed=1)
    b = estimate_eta(identity_coefficients(), None, free_geom, k=3.0,
                     h_fem=0.05, samples=3, seed=1)
    assert a.samples == b.samples == 3
    assert b.value <= 1.05 * a.value


def test_eta_running_sup_and_schatz_comparison(free_geom):
    a = estimate_eta(identity_coefficients(), None, free_geom, k=3.0,
                     h_fem=0.1, samples=2, seed=2)
    b = estimate_eta(identity_coefficients(), None, free_geom, k=3.0,
                     h_fem=0.1, samples=4, seed=2)
    assert b.value >= a.value
    led = ConstantsLedger(C_int_tilde=0.2, C_DtN_tilde=2.6, C_H2=0.35,
                          A_min=1, A_max=1, nu_min=1, nu_max=1, k0=1.0, L_ray=3.0)
    # the smallness test consumes the estimate directly
    assert schatz_condition(led, 3.0, b.value) in (True, False)


# ---------------------------------------------------------------------------
# quasioptimality and H^2 growth


@pytest.fixture(scope="module")
def disk_study():
    geom = TruncationGeometry(R1=0.7, R=1.0, R_ray=3.2)
    obs = disk_obstacle(0.5)
    led = ConstantsLedger(C_int_tilde=0.20, C_DtN_tilde=2.7, C_H2=0.35,
                          A_min=1, A_max=1, nu_min=1, nu_max=1, k0=2.0,
                          L_ray=float(np.sqrt(9.0 - 0.25)),
                          provenance={"C_H2": "empirical"})
    return geom, obs, led


def test_quasioptimality_rows_sorted_and_bounded(disk_study):
    geom, obs, led = disk_study
    table = quasioptimality_study(identity_coefficients(), obs, geom, led,
                                  [2.0, 4.0], [0.08, 0.04])
    keys = [(r["k"], r["h_fem"]) for r in table.rows]
    assert keys == sorted(keys)
    admissible = [r for r in table.rows if r.get("admissible")]
    assert admissible, "sweep must contain admissible rows"
    for r in admissible:
        assert r["qo_ratio"] <= table.quasioptimality_bound
        assert r["energy_error"] >= 0 and r["l2_error"] >= 0


def test_quasioptimality_ratio_stable_at_fixed_pollution_product(disk_study):
    geom, obs, led = disk_study
    ratios = []
    for k in (2.0, 4.0):
        table = quasioptimality_study(identity_coefficients(), obs, geom, led,
                                      [k], [0.5 / k**2])
        ratios.append(table.rows[0]["qo_ratio"])
    assert max(ratios) <= 1.5  # no pollution blow-up for the nontrapping disk


def test_quasioptimality_evaluates_reference_once_per_row(disk_study, monkeypatch):
    # one quadrature pass serves the Galerkin and the best-approximation errors:
    # per row one (value, gradient) series pass at the quadrature points, and
    # one value pass at the vertices of the nodal interpolant
    import helmray.experiments as ex

    geom, obs, led = disk_study
    calls = {"value": 0, "field": 0}
    reference = ex.soft_disk_total_field

    def counted(*args):
        value, field = reference(*args)

        def count_value(x):
            calls["value"] += 1
            return value(x)

        def count_field(x):
            calls["field"] += 1
            return field(x)

        return count_value, count_field

    monkeypatch.setattr(ex, "soft_disk_total_field", counted)
    table = quasioptimality_study(identity_coefficients(), obs, geom, led,
                                  [2.0], [0.1, 0.08])
    assert not any(r["failed"] for r in table.rows)
    assert calls == {"value": len(table.rows), "field": len(table.rows)}


def test_quasioptimality_requires_closed_form_reference(disk_study):
    geom, obs, led = disk_study
    with pytest.raises(ValueError):
        quasioptimality_study(nu_bump_coefficients(0.5, 0.4), obs, geom, led,
                              [2.0], [0.1])


def test_quasioptimality_records_only_solver_failures(disk_study, monkeypatch):
    import helmray.experiments as ex
    from helmray.fem import SingularSystemError

    geom, obs, led = disk_study

    def singular(*args, **kwargs):
        raise SingularSystemError("singular")

    monkeypatch.setattr(ex, "solve", singular)
    table = quasioptimality_study(identity_coefficients(), obs, geom, led, [2.0], [0.1])
    assert table.rows[0]["failed"] and table.rows[0]["error"] == "singular"

    def broken(*args, **kwargs):
        raise KeyError("not a solver failure")

    monkeypatch.setattr(ex, "solve", broken)
    with pytest.raises(KeyError):
        quasioptimality_study(identity_coefficients(), obs, geom, led, [2.0], [0.1])


def test_quasioptimality_propagates_out_of_memory(disk_study, monkeypatch):
    # running out of memory says nothing about the discrete system, so it is
    # not recorded as a failed (singular) row
    import helmray.fem as fem

    geom, obs, led = disk_study

    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the tridiagonal factors")

    # the sweep needs a disk obstacle, whose annulus the angular solver factors
    monkeypatch.setattr(fem, "TridiagonalLU", no_memory)
    with pytest.raises(MemoryError):
        quasioptimality_study(identity_coefficients(), obs, geom, led, [2.0], [0.1])


def test_h2_growth_exponent_near_linear(disk_study):
    geom, obs, led = disk_study
    res = h2_scaling_study(identity_coefficients(), obs, geom,
                           [6.0, 8.0, 10.0], seed=0, loads=2)
    assert 0.8 <= res["fitted_exponent"] <= 1.2
    for row in res["rows"]:
        assert row["h2_over_f"] > 0


def test_h2_rows_scale_invariant(disk_study):
    # linearity: the ratio rows do not depend on the load amplitude, which the
    # seeded beams fix; spot-check via a manual rescale of one solve
    geom, obs, led = disk_study
    from helmray.dtn import build_dtn
    from helmray.fem import (assemble, assemble_load_source, build_space,
                             l2_norm_exact, recovered_hessian_h2_norm, solve)
    from helmray.mesh import generate_mesh

    k = 4.0
    mesh = generate_mesh(obs, geom, 0.06)
    space = build_space(mesh)
    system = assemble(identity_coefficients(), space, build_dtn(k, geom.R), k)

    def f(x):
        x = np.atleast_2d(x)
        return np.exp(-np.sum(x**2, 1) / 0.08) * np.exp(1j * k * x[:, 0])

    vals = []
    for scale in (1.0, 17.0):
        g = lambda x: scale * f(x)
        u = solve(system, assemble_load_source(space, g))
        vals.append(recovered_hessian_h2_norm(space, u) / l2_norm_exact(space, g))
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)


def test_disk_plateau_below_ray_length_envelope():
    # obstacle case: the plateau stays under 2 L / pi with L the tangent-chord
    # ray length produced by the ray tracer
    from helmray.geometry import TruncationGeometry as TG
    from helmray.raytrace import RayConfig, longest_ray_length

    obs = disk_obstacle(0.5)
    geom = TG(R1=0.7, R=1.0, R_ray=1.25)
    ray = longest_ray_length(identity_coefficients(), obs, geom, 1.0,
                             RayConfig(grid_pos_r=6, grid_pos_theta=10, grid_dir=32))
    geom_scan = TG(R1=0.7, R=1.0, R_ray=3.0)
    cut = RadialCutoff(0.8, 0.97)
    for k in (12.0, 24.0):
        est = estimate_resolvent_norm(identity_coefficients(), obs, geom_scan,
                                      k, cut, 0.5 / k**2, method="modal")
        assert k * est.value <= 1.15 * 2.0 * ray.L / np.pi


def test_eta_zero_samples_edge(free_geom):
    est = estimate_eta(identity_coefficients(), None, free_geom, k=2.0,
                       h_fem=0.2, samples=0, seed=0)
    assert est.value == 0.0 and est.samples == 0


def test_quasioptimality_ratio_stabilizes(disk_study):
    geom, obs, led = disk_study
    table = quasioptimality_study(identity_coefficients(), obs, geom, led,
                                  [2.0], [0.04, 0.02])
    r = [row["qo_ratio"] for row in table.rows]
    assert all(x >= 0.9 for x in r)         # interpolant proxy overestimates
    assert abs(r[0] - r[1]) <= 0.1 * r[0]   # settled in the asymptotic regime
