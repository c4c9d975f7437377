import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import hankel1

from helmray.config import RunConfig
from helmray.dtn import build_dtn
from helmray.experiments import (RadialCutoff, _spd_solver, estimate_eta,
                                 estimate_resolvent_norm)
from helmray.fem import (AngularFactorization, _fe_values, assemble, assemble_load_scattering,
                         assemble_load_source, build_space, dissection_lu, element_gradients,
                         energy_norm, errors_vs_exact, l2_norm_exact, modal_projection,
                         nodal_interpolant, quadrature, recovered_hessian_h2_norm, solve,
                         solve_adjoint)
from helmray.geometry import (TruncationGeometry, anisotropic_coefficients,
                              disk_obstacle, fourier_obstacle,
                              identity_coefficients, nu_bump_coefficients)
from helmray.mesh import generate_mesh
from helmray.mie import soft_disk_total_field
from helmray.util import solve_real, triangle_rule
from conftest import interpolate, rng
from reference import cross2

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def unit_setup():
    geom = TruncationGeometry(R1=0.5, R=1.0)
    mesh = generate_mesh(None, geom, 0.08)
    space = build_space(mesh)
    return geom, mesh, space


@pytest.fixture(scope="module")
def disk_setup():
    geom = TruncationGeometry(R1=1.5, R=2.0)
    obs = disk_obstacle(1.0)
    mesh = generate_mesh(obs, geom, 0.1)
    space = build_space(mesh)
    return geom, obs, mesh, space


def _random_dofs(space, seed=0):
    g = rng(seed)
    return g.standard_normal(space.n_dofs) + 1j * g.standard_normal(space.n_dofs)


# ---------------------------------------------------------------------------
# assembly


def _einsum_coo_assembly(coeffs, space, quad_degree=4):
    """Reference (S, M_nu, M_0): plain einsum local matrices and one COO->CSR
    conversion per matrix."""
    mesh = space.mesh
    grads, area = element_gradients(mesh)
    bary, w = triangle_rule(quad_degree)
    pts = np.einsum("qj,mjd->mqd", bary, mesh.vertices[mesh.triangles])
    wts = area[:, None] * w[None, :]
    flat = pts.reshape(-1, 2)
    A_q = coeffs.eval_A(flat).reshape(pts.shape[0], pts.shape[1], 2, 2)
    nu_q = coeffs.eval_nu(flat).reshape(pts.shape[:2])
    A_bar = np.einsum("mq,mqab->mab", wts, A_q)
    local = (np.einsum("mia,mab,mjb->mij", grads, A_bar, grads),
             np.einsum("mq,mq,qi,qj->mij", wts, nu_q, bary, bary),
             np.einsum("mq,qi,qj->mij", wts, bary, bary))
    tri = space.dof_of_vertex[mesh.triangles]
    rows = np.repeat(tri[:, :, None], 3, axis=2)
    cols = np.repeat(tri[:, None, :], 3, axis=1)
    mask = (tri >= 0)[:, :, None] & (tri >= 0)[:, None, :]
    n = space.n_dofs
    return [sp.coo_matrix((loc[mask], (rows[mask], cols[mask])), shape=(n, n)).tocsr()
            for loc in local]


def _case(name):
    if name == "star":
        return (anisotropic_coefficients(), fourier_obstacle([0.5, 0.05, 0.05], [0, 0.05]),
                TruncationGeometry(R1=0.7, R=1.0))
    cfg = RunConfig.from_file(CONFIGS / f"{name}.ini")
    return cfg.coefficients(), cfg.obstacle(), cfg.geometry()


@pytest.mark.parametrize("name", ["disk", "nu_bump", "star"])
def test_assembly_matches_einsum_coo_reference(name):
    coeffs, obstacle, geom = _case(name)
    space = build_space(generate_mesh(obstacle, geom, 0.05))
    system = assemble(coeffs, space, None, 1.0)
    mats = (system.stiffness, system.mass_nu, system.mass_plain)
    for got, ref in zip(mats, _einsum_coo_assembly(coeffs, space)):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.max(np.abs(got.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
    # one pattern: the three matrices share its arrays
    for m in mats[1:]:
        assert np.shares_memory(m.indptr, mats[0].indptr)
        assert np.shares_memory(m.indices, mats[0].indices)


def _add_at_assembly(coeffs, space, quad_degree=4):
    """Dense (S, M_nu, M_0): element matrices from the inverse Jacobian and the
    quadrature rule, summed triangle by triangle with ``np.add.at``."""
    mesh, n = space.mesh, space.n_dofs
    bary, w = triangle_rule(quad_degree)
    out = np.zeros((3, n, n))
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        jac = np.stack([p[1] - p[0], p[2] - p[0]], axis=1)
        area = 0.5 * abs(np.linalg.det(jac))
        grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ np.linalg.inv(jac)
        pts = bary @ p
        A_bar = np.einsum("q,qab->ab", area * w, coeffs.eval_A(pts))
        local = (grads @ A_bar @ grads.T,
                 np.einsum("q,qi,qj->ij", area * w * coeffs.eval_nu(pts), bary, bary),
                 np.einsum("q,qi,qj->ij", area * w, bary, bary))
        dofs = space.dof_of_vertex[tri]
        keep = dofs >= 0
        for mat, loc in zip(out, local):
            np.add.at(mat, np.ix_(dofs[keep], dofs[keep]), loc[np.ix_(keep, keep)])
    return out


_ANNULUS = (disk_obstacle(0.5), TruncationGeometry(R1=0.7, R=1.0))


@pytest.mark.parametrize("coeffs", [identity_coefficients(), nu_bump_coefficients(width=0.9),
                                    anisotropic_coefficients(0.8, -0.3, 0.4, width=0.9)],
                         ids=["identity", "nu_bump", "anisotropic"])
@pytest.mark.parametrize("mesh_case", ["annulus", "fan", "dirichlet_outer"])
def test_assembly_matches_add_at_oracle(coeffs, mesh_case):
    obstacle, geom = (None, _ANNULUS[1]) if mesh_case == "fan" else _ANNULUS
    space = build_space(generate_mesh(obstacle, geom, 0.1),
                        dirichlet_outer=mesh_case == "dirichlet_outer")
    system = assemble(coeffs, space, None, 1.0)
    mats = (system.stiffness, system.mass_nu, system.mass_plain)
    for got, ref in zip(mats, _add_at_assembly(coeffs, space)):
        # canonical CSR: int32 indices, strictly increasing columns in every row
        assert got.indices.dtype == got.indptr.dtype == np.int32
        row = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
        assert np.all((np.diff(got.indices) > 0) | (np.diff(row) > 0))
        assert np.max(np.abs(got.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_pinned_field_is_never_evaluated():
    # A_min == A_max == 1 and nu_min == nu_max == 1 pin A = I and nu = 1, so
    # assembly calls none of the field's callables
    def unreachable(x):
        raise AssertionError("a pinned coefficient was evaluated")

    pinned = replace(identity_coefficients(), eval_A=unreachable, eval_nu=unreachable,
                     eval_grad_A=unreachable, eval_grad_nu=unreachable)
    space = build_space(generate_mesh(*_ANNULUS, 0.1))
    got = assemble(pinned, space, None, 1.0)
    ref = _add_at_assembly(identity_coefficients(), space)
    for mat, dense in zip((got.stiffness, got.mass_nu, got.mass_plain), ref):
        assert np.max(np.abs(mat.toarray() - dense)) <= 1e-14 * np.max(np.abs(dense))


# tracemalloc peak inside ``assemble`` on disk.ini at h = 0.01 (75,972 dofs):
# 415 B per dof, of which the result holds 175; edge keys, np.unique and every
# (M, 6) array of entries held at once took 1,165 B per dof.  The bound leaves
# 20 %, less than one (M, 6) array of entries (M = 2 n: 96 B per dof).
_ASSEMBLY_PEAK_PER_DOF = 500


def test_assembly_peak_memory_per_dof():
    coeffs, obstacle, geom = _case("disk")
    space = build_space(generate_mesh(obstacle, geom, 0.01))
    dtn = build_dtn(10.0, geom.R)
    tracemalloc.start()
    try:
        assemble(coeffs, space, dtn, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 70_000 < space.n_dofs < 80_000
    assert peak / space.n_dofs < _ASSEMBLY_PEAK_PER_DOF


@pytest.mark.parametrize("case", ["star", "fan", "anisotropic"])
def test_assembled_matrices_are_canonical_int32_csr(case):
    coeffs = anisotropic_coefficients() if case == "anisotropic" else nu_bump_coefficients()
    obstacle, geom = ((fourier_obstacle([0.5, 0.05, 0.05], [0, 0.05]), _ANNULUS[1])
                      if case == "star" else (None, _ANNULUS[1]) if case == "fan" else _ANNULUS)
    space = build_space(generate_mesh(obstacle, geom, 0.1))
    system = assemble(coeffs, space, None, 1.0)
    for m in (system.stiffness, system.mass_nu, system.mass_plain):
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert m.indptr[0] == 0 and m.indptr[-1] == m.nnz == len(m.indices)
        # columns strictly increase within every row: sorted, no duplicates
        row = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        assert np.all((np.diff(m.indices) > 0) | (np.diff(row) > 0))
        # the diagonal and both directions of every edge
        assert np.array_equal(m.diagonal() != 0, np.ones(m.shape[0], dtype=bool))
        assert (m != m.T).nnz == 0


def test_stiffness_coercive(unit_setup):
    geom, mesh, space = unit_setup
    coeffs = anisotropic_coefficients(0.8, -0.3, 0.4, 0.45)
    system = assemble(coeffs, space, None, 0.0)
    ident_sys = assemble(identity_coefficients(), space, None, 0.0)
    g = rng(1)
    for _ in range(10):
        v = g.standard_normal(space.n_dofs)
        quad = v @ (system.stiffness @ v)       # int A grad v . grad v
        plain = v @ (ident_sys.stiffness @ v)   # int |grad v|^2
        assert quad >= coeffs.A_min * plain - 1e-10 * abs(quad)


def bilinear_action_quadrature(system, u_dofs, v_dofs, quad_degree=4):
    """a(u, v) evaluated by direct quadrature plus the modal boundary pairing.

    Independent of the assembled matrix path; used to cross-check assembly.
    """
    fe_space, coeffs, k = system.fe_space, system.coeffs, system.k
    uv, ug, pts, wts = _fe_values(fe_space, np.asarray(u_dofs), quad_degree)
    vv, vg, _, _ = _fe_values(fe_space, np.asarray(v_dofs), quad_degree)
    flat = pts.reshape(-1, 2)
    A_q = coeffs.eval_A(flat).reshape(pts.shape[:2] + (2, 2))
    nu_q = coeffs.eval_nu(flat).reshape(pts.shape[:2])
    grad_term = np.einsum("mq,mqa,mqab,mqb->", wts, np.conj(vg), A_q, ug)
    mass_term = np.sum(wts * nu_q * uv * np.conj(vv))
    val = grad_term - k**2 * mass_term
    if system.dtn is not None:
        dtn = system.dtn
        P = modal_projection(fe_space, dtn.n_max)
        tu, tv = P @ np.asarray(u_dofs, dtype=complex), P @ np.asarray(v_dofs, dtype=complex)
        val = val - 2.0 * np.pi * dtn.R * np.sum(dtn.coefficients * tu * np.conj(tv))
    return complex(val)


def test_assembled_action_matches_direct_quadrature(disk_setup):
    geom, obs, mesh, space = disk_setup
    k = 3.0
    coeffs = nu_bump_coefficients(0.5, 1.2)
    dtn = build_dtn(k, geom.R)
    system = assemble(coeffs, space, dtn, k)
    g = rng(2)
    for _ in range(4):
        u = _random_dofs(space, g.integers(1 << 30))
        v = _random_dofs(space, g.integers(1 << 30))
        direct = bilinear_action_quadrature(system, u, v)
        via_matrix = np.vdot(v, system.apply(u))
        assert abs(direct - via_matrix) <= 1e-10 * abs(direct)


def test_garding_inequality_on_random_functions(disk_setup):
    geom, obs, mesh, space = disk_setup
    k = 4.0
    coeffs = nu_bump_coefficients(0.8, 1.2)
    dtn = build_dtn(k, geom.R)
    system = assemble(coeffs, space, dtn, k)
    E = system.energy_matrix()
    g = rng(3)
    for _ in range(100):
        v = _random_dofs(space, g.integers(1 << 30))
        re_a = np.real(np.vdot(v, system.apply(v)))
        energy2 = np.real(np.vdot(v, E @ v))
        l2_plain2 = np.real(np.vdot(v, system.mass_plain @ v))
        lhs = re_a
        rhs = energy2 - 2.0 * k**2 * coeffs.nu_max * l2_plain2
        assert lhs >= rhs - 1e-10 * max(abs(lhs), abs(rhs))


def test_system_complex_symmetric(disk_setup):
    geom, obs, mesh, space = disk_setup
    dtn = build_dtn(3.0, geom.R)
    system = assemble(identity_coefficients(), space, dtn, 3.0)
    # the reduced operator K0 - C P: t_n is even in n, so u^T A v = v^T A u
    g = rng(5)
    for _ in range(4):
        u = _random_dofs(space, g.integers(1 << 30))
        v = _random_dofs(space, g.integers(1 << 30))
        uAv, vAu = u @ system.apply(v), v @ system.apply(u)
        assert abs(uAv - vAu) <= 1e-12 * abs(uAv)


def test_dtn_block_sign(disk_setup):
    geom, obs, mesh, space = disk_setup
    dtn = build_dtn(3.0, geom.R)
    system = assemble(identity_coefficients(), space, dtn, 3.0)
    P = modal_projection(space, dtn.n_max)
    g = rng(4)
    for _ in range(30):
        v = _random_dofs(space, g.integers(1 << 30))
        val = np.vdot(v, system.dtn_block @ (P @ v))
        norm2 = np.real(np.vdot(v, v))
        assert -val.real >= -1e-10 * norm2


def test_modal_projection_is_the_boundary_dft(disk_setup):
    # u = e^{i m theta_b} on the outer-circle dofs, 0 on every other dof
    geom, obs, mesh, space = disk_setup
    n_max = 12
    P = modal_projection(space, n_max)
    assert P.shape == (2 * n_max + 1, space.n_dofs)
    for m in range(-n_max, n_max + 1):
        u = np.zeros(space.n_dofs, complex)
        u[space.boundary_dofs] = np.exp(1j * m * space.boundary_thetas)
        unit = np.zeros(2 * n_max + 1)
        unit[m + n_max] = 1.0
        np.testing.assert_allclose(P @ u, unit, rtol=0.0, atol=1e-13)


def test_modal_projection_rejects_unresolved_or_nonuniform_boundary(disk_setup):
    from dataclasses import replace
    geom, obs, mesh, space = disk_setup
    Nb = len(space.boundary_thetas)
    modal_projection(space, (Nb - 5) // 2)
    with pytest.raises(ValueError, match="cannot resolve"):
        modal_projection(space, (Nb - 5) // 2 + 1)
    th = space.boundary_thetas.copy()
    th[3] += 1e-6
    with pytest.raises(ValueError, match="uniformly spaced"):
        modal_projection(replace(space, boundary_thetas=th), 4)


# ---------------------------------------------------------------------------
# loads


def test_source_load_zero(unit_setup):
    geom, mesh, space = unit_setup
    rhs = assemble_load_source(space, lambda x: np.zeros(len(np.atleast_2d(x))))
    assert np.all(rhs == 0)


def test_source_load_matches_exact_p1_mass(unit_setup):
    # f a P1 function: the load equals the exact P1 x P1 mass pairing
    geom, mesh, space = unit_setup
    g = rng(5)
    nodal = g.standard_normal(mesh.n_vertices)

    rhs = assemble_load_source(space, lambda x: interpolate(mesh, nodal, x))

    # independent oracle: exact elementwise integrals area/12 (1 + delta_ij)
    exact = np.zeros(mesh.n_vertices)
    p = mesh.vertices[mesh.triangles]
    area = 0.5 * np.abs(cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))
    for loc_i in range(3):
        for loc_j in range(3):
            w = area / 12.0 * (2.0 if loc_i == loc_j else 1.0)
            np.add.at(exact, mesh.triangles[:, loc_i],
                      w * nodal[mesh.triangles[:, loc_j]])
    ref = exact[space.free_vertices]
    assert np.abs(rhs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_source_load_linear_in_source(unit_setup):
    geom, mesh, space = unit_setup

    def f(x):
        x = np.atleast_2d(x)
        return np.exp(-np.sum(x**2, 1))

    base = assemble_load_source(space, f)
    scaled = assemble_load_source(space, lambda x: (2.5j) * f(x))
    np.testing.assert_allclose(scaled, 2.5j * base, atol=1e-14)


def test_source_support_warning(unit_setup):
    geom, mesh, space = unit_setup
    with pytest.warns(UserWarning):
        assemble_load_source(space, lambda x: np.ones(len(np.atleast_2d(x))),
                             support_radius=0.5)


def test_no_scatterer_recovers_incident_wave(unit_setup):
    geom, mesh, space = unit_setup
    k = 3.0
    coeffs = identity_coefficients()
    dtn = build_dtn(k, geom.R)
    system = assemble(coeffs, space, dtn, k)
    rhs = assemble_load_scattering(space, dtn, (1.0, 0.0))
    u = solve(system, rhs)

    def uinc(x):
        x = np.atleast_2d(x)
        return np.exp(1j * k * x[:, 0])

    def ginc(x):
        x = np.atleast_2d(x)
        return np.stack([1j * k * uinc(x), np.zeros(len(x), complex)], axis=-1)

    [(_, l2)] = errors_vs_exact(coeffs, space, [u], lambda x: (uinc(x), ginc(x)), k)
    assert l2 / l2_norm_exact(space, uinc) < 0.03  # discretization level at hk^2 < 1


def test_scattering_equivariance_under_mesh_symmetry(unit_setup):
    # the fan mesh is invariant under rotation by pi/3
    geom, mesh, space = unit_setup
    k = 3.0
    dtn = build_dtn(k, geom.R)
    system = assemble(identity_coefficients(), space, dtn, k)
    lu = system.factorize()
    norms = []
    for phi in (0.0, np.pi / 3.0):
        rhs = assemble_load_scattering(space, dtn, (np.cos(phi), np.sin(phi)))
        u = lu.solve(rhs)
        norms.append(np.sqrt(np.real(np.vdot(u, system.mass_plain @ u))))
    assert abs(norms[0] - norms[1]) <= 1e-10 * norms[0]


# ---------------------------------------------------------------------------
# solve


def test_solve_zero_rhs(unit_setup):
    geom, mesh, space = unit_setup
    dtn = build_dtn(2.0, geom.R)
    system = assemble(identity_coefficients(), space, dtn, 2.0)
    u = solve(system, np.zeros(space.n_dofs, complex))
    assert np.all(u.dofs == 0)


def test_solve_residual_on_random_rhs(unit_setup):
    geom, mesh, space = unit_setup
    dtn = build_dtn(2.0, geom.R)
    system = assemble(identity_coefficients(), space, dtn, 2.0)
    u = solve(system, _random_dofs(space, 6))
    assert u.residual <= 1e-10


def test_factorization_out_of_memory_is_not_singular(unit_setup, monkeypatch):
    import helmray.fem as fem

    geom, mesh, space = unit_setup
    system = assemble(identity_coefficients(), space, build_dtn(2.0, geom.R), 2.0)

    def fails(message):
        def splu(*args, **kwargs):
            raise RuntimeError(message)
        return splu

    monkeypatch.setattr(fem.spla, "splu", fails("SUPERLU_MALLOC fails for buf in complexMalloc()"))
    with pytest.raises(fem.FactorizationMemoryError) as err:
        system.factorize()
    assert isinstance(err.value, MemoryError) and not isinstance(err.value, fem.SolveError)
    monkeypatch.setattr(fem.spla, "splu", fails("Factor is exactly singular"))
    with pytest.raises(fem.SingularSystemError):
        system.factorize()


def test_annulus_factorization_makes_no_superlu_call(disk_setup, monkeypatch):
    import helmray.fem as fem

    geom, obs, mesh, space = disk_setup
    system = assemble(identity_coefficients(), space, build_dtn(2.0, geom.R), 2.0)

    def splu(*args, **kwargs):
        raise AssertionError("SuperLU called on a star annulus")

    monkeypatch.setattr(fem.spla, "splu", splu)
    lu = system.factorize()
    assert lu.solver == "angular"
    assert solve(system, _random_dofs(space, 13)).residual <= 1e-10


def test_bordered_factorization_matches_dense_reduced_system(disk_setup):
    geom, obs, mesh, space = disk_setup
    k = 3.0
    coeffs = nu_bump_coefficients(0.5, 1.2)
    dtn = build_dtn(k, geom.R)
    system = assemble(coeffs, space, dtn, k)
    P = modal_projection(space, dtn.n_max)
    A = (system.stiffness - k**2 * system.mass_nu).toarray() - (system.dtn_block @ P).toarray()
    dense = scipy.linalg.lu_factor(A)
    lu = system.factorize()
    b = np.stack([_random_dofs(space, 7), _random_dofs(space, 8)], axis=1)
    for rhs in (b[:, 0], b):
        # the adjoint solve is the conjugated forward solve: A is complex symmetric
        for x, code in ((lu.solve(rhs), 0), (np.conj(lu.solve(np.conj(rhs))), 2)):
            ref = scipy.linalg.lu_solve(dense, rhs, trans=code)
            assert x.shape == rhs.shape
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("case", ["fan", "annulus", "annulus_dirichlet"])
def test_dissection_order_is_a_permutation_with_modes_last(case, unit_setup, disk_setup):
    if case == "fan":
        geom, mesh, space = unit_setup
    else:
        geom, obs, mesh, _ = disk_setup
        space = build_space(mesh, dirichlet_outer=(case == "annulus_dirichlet"))
    dtn = None if space.dirichlet_outer else build_dtn(3.0, geom.R)
    system = assemble(identity_coefficients(), space, dtn, 3.0)
    n_all = system.matrix.shape[0]
    assert n_all == space.n_dofs + (0 if dtn is None else 2 * dtn.n_max + 1)
    perm = dissection_lu(system).perm
    assert np.array_equal(np.sort(perm), np.arange(n_all))
    assert np.array_equal(perm[space.n_dofs:], np.arange(space.n_dofs, n_all))


def test_dissection_order_fills_less_than_colamd():
    import scipy.sparse.linalg as spla

    cfg = RunConfig.from_file(CONFIGS / "disk.ini")
    geom, k = cfg.geometry(), 8.0
    space = build_space(generate_mesh(cfg.obstacle(), geom, 0.02))
    system = assemble(cfg.coefficients(), space, build_dtn(k, geom.R), k)
    colamd = spla.splu(system.matrix.tocsc())
    assert dissection_lu(system).nnz < colamd.nnz


def _oracle_system(name):
    """A system on a star annulus for the angular-solver oracle tests (a disk
    fan for nu_bump)."""
    if name == "dirichlet":    # as estimate_C_H2 builds it: padded, outer Dirichlet, k = 0
        coeffs, obstacle, geom = _case("disk")
        mesh = generate_mesh(obstacle, geom, 0.05, outer_radius=geom.R + 1.0)
        return assemble(coeffs, build_space(mesh, dirichlet_outer=True), None, 0.0)
    coeffs, obstacle, geom = _case(name)
    k = 6.0
    return assemble(coeffs, build_space(generate_mesh(obstacle, geom, 0.04)),
                    build_dtn(k, geom.R), k)


def _superlu_adjoint_solve(lu, b):
    """x with (K0 - C P)^H x = b from SuperLU's own conjugate-transpose solve
    of the factored (bordered) matrix: an adjoint oracle that does not rest on
    K being complex symmetric.  The padding is exact: the second block row of
    B^H gives mu = -C^H x."""
    pad = np.zeros((len(lu.perm),) + b.shape[1:], dtype=complex)
    pad[:lu.n_dofs] = b
    x = np.empty_like(pad)
    x[lu.perm] = lu.lu.solve(pad[lu.perm], trans="H")
    return x[:lu.n_dofs]


def _adjoint_apply(system, u):
    """(K0 - C P)^H u from the factors, with no use of symmetry."""
    out = system.operator.T @ u
    if system.dtn_block is not None:
        out = out - system.projection.conj().T @ (system.dtn_block.conj().T @ u)
    return out


@pytest.mark.parametrize("name", ["nu_bump", "disk", "star", "dirichlet"])
def test_system_operator_is_complex_symmetric(name):
    # x^T K y = y^T K x: the premise of every adjoint solve being the
    # conjugated forward solve; star is the GMRES path, dirichlet the k = 0
    # system estimate_C_H2 solves, nu_bump a disk fan
    system = _oracle_system(name)
    x, y = _random_dofs(system.fe_space, 21), _random_dofs(system.fe_space, 22)
    xKy, yKx = x @ system.apply(y), y @ system.apply(x)
    assert abs(xKy - yKx) <= 1e-13 * abs(xKy)


@pytest.mark.parametrize("name", ["star", "dirichlet"])
def test_operator_and_energy_gram_are_scipys_sums_entry_for_entry(name):
    # both are formed on the pattern S and M_nu share, and drop what cancels
    # as scipy's S -+ k^2 M_nu does: at k = 0 (dirichlet) every zero of S, and
    # here one entry of S made to cancel its mass term in each exactly
    system = _oracle_system(name)
    S, M, k2 = system.stiffness.copy(), system.mass_nu, system.k**2
    S.data[5], S.data[7] = k2 * M.data[5], -k2 * M.data[7]
    changed = replace(system, stiffness=S, _operator=None, _matrix=None)
    for got, ref in ((changed.operator, (S - k2 * M).tocsr()),
                     (changed.energy_matrix(), (S + k2 * M).tocsr())):
        assert got.nnz < S.nnz
        for a in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, a), getattr(ref, a))


@pytest.mark.parametrize("name", ["disk", "star", "dirichlet"])
def test_angular_solver_matches_lu_oracle(name):
    system = _oracle_system(name)
    ang, lu = system.factorize(), dissection_lu(system)
    assert ang.solver == "angular" and lu.solver == "lu"
    b = np.stack([_random_dofs(system.fe_space, 9), _random_dofs(system.fe_space, 10)], axis=1)
    for rhs in (b[:, 0], b):
        for x, ref in ((ang.solve(rhs), lu.solve(rhs)),
                       (np.conj(ang.solve(np.conj(rhs))), _superlu_adjoint_solve(lu, rhs))):
            assert x.shape == rhs.shape
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            # invariant systems are solved by the preconditioner alone
            assert (ang.iterations == 0) == (name != "star")
    u = solve(system, b[:, 0])
    assert u.residual <= 1e-12 and u.iterations == ang.iterations


def test_unconverged_gmres_raises(monkeypatch):
    import helmray.fem as fem

    system = _oracle_system("star")
    monkeypatch.setattr(fem, "_GMRES_RESTART", 2)
    monkeypatch.setattr(fem, "_GMRES_CYCLES", 1)
    with pytest.raises(fem.SolveError):
        system.factorize().solve(_random_dofs(system.fe_space, 11))


def test_invariant_annulus_solve_needs_no_gmres_iteration(monkeypatch):
    # a cutoff load of the fem2d resolvent estimate on disk.ini, smooth like the
    # power-iteration loads, for which the circulant solve alone misses the
    # GMRES target and one refinement step meets it
    import helmray.fem as fem

    coeffs, obstacle, geom = _case("disk")
    k = 4.0
    space = build_space(generate_mesh(obstacle, geom, 0.5 / k**2))
    system = assemble(coeffs, space, build_dtn(k, geom.R), k)
    xy = space.mesh.vertices[space.free_vertices]
    b = system.mass_plain @ (RadialCutoff(0.8, 0.97).at_points(xy) * np.exp(1j * k * xy[:, 0]))
    calls = {"apply": 0, "precondition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owner in (("apply", fem.GalerkinSystem), ("precondition", AngularFactorization)):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    lu = system.factorize()
    for adjoint in (False, True):
        calls.update(apply=0, precondition=0)
        x = np.conj(lu.solve(np.conj(b))) if adjoint else lu.solve(b)
        assert calls["apply"] <= 2 and calls["precondition"] <= 2 and lu.iterations == 0
        Ax = _adjoint_apply(system, x) if adjoint else system.apply(x)
        assert np.linalg.norm(Ax - b) <= 1e-12 * np.linalg.norm(b)


def test_invariant_solve_at_the_rounding_floor_needs_no_gmres(monkeypatch):
    # below the rounding floor GMRES only stalls; on an invariant system the
    # refined circulant solve stands when it is within the certificate, and
    # raises SolveError when it is not
    import helmray.fem as fem

    monkeypatch.setattr(fem, "_GMRES_RTOL", 1e-16)
    coeffs, obstacle, geom = _case("disk")
    k = 4.0
    space = build_space(generate_mesh(obstacle, geom, 0.05))
    system = assemble(coeffs, space, build_dtn(k, geom.R), k)
    assert space.n_dofs == 3120 and system.factorize().invariant
    b = _random_dofs(space, 17)
    u = solve(system, b)
    assert u.iterations == 0 and u.residual <= fem.CERTIFIED_RTOL
    monkeypatch.setattr(fem, "CERTIFIED_RTOL", 1e-17)
    with pytest.raises(fem.SolveError):
        system.factorize().solve(b)


def test_angular_mass_solve_matches_superlu(disk_setup):
    import scipy.sparse.linalg as spla

    geom, obs, mesh, space = disk_setup
    M = assemble(identity_coefficients(), space, None, 1.0).mass_plain
    mass = AngularFactorization(M, mesh.n_theta)
    assert mass.invariant
    b = np.stack([_random_dofs(space, 15), _random_dofs(space, 16)], axis=1)
    for rhs in (b[:, 0], b):
        x, ref = mass.solve(rhs), solve_real(spla.splu(M.tocsc()), rhs)
        assert x.shape == rhs.shape and mass.iterations == 0
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["star", "fan"])
def test_star_annulus_and_fan_keep_the_lu_mass(name, unit_setup, monkeypatch):
    import helmray.fem as fem

    if name == "fan":
        system = assemble(identity_coefficients(), unit_setup[2], None, 1.0)
    else:
        system = _oracle_system("star")
        mass = AngularFactorization(system.mass_plain, system.fe_space.mesh.n_theta)
        assert not mass.invariant
    splu, factored = fem.spla.splu, []

    def counted(*args, **kwargs):
        factored.append(splu(*args, **kwargs))
        return factored[-1]

    monkeypatch.setattr(fem.spla, "splu", counted)
    b = _random_dofs(system.fe_space, 17)
    x = _spd_solver(system.mass_plain, system.fe_space.mesh.n_theta)(b)
    assert len(factored) == 1
    assert np.array_equal(x, solve_real(factored[0], b))


def test_mass_lu_failure_is_typed(unit_setup, monkeypatch):
    import helmray.experiments as experiments
    import helmray.fem as fem

    mass = assemble(identity_coefficients(), unit_setup[2], None, 1.0).mass_plain

    def fails(message):
        def splu(*args, **kwargs):
            raise RuntimeError(message)
        return splu

    # the call goes through experiments.spla.splu, which the benchmark tracer wraps
    monkeypatch.setattr(experiments.spla, "splu",
                        fails("SUPERLU_MALLOC fails for buf in complexMalloc()"))
    with pytest.raises(fem.FactorizationMemoryError):
        _spd_solver(mass, 0)
    monkeypatch.setattr(experiments.spla, "splu", fails("Factor is exactly singular"))
    with pytest.raises(fem.SingularSystemError):
        _spd_solver(mass, 0)


def test_disk_annulus_resolvent_estimate_makes_no_superlu_call(monkeypatch):
    import helmray.fem as fem

    def splu(*args, **kwargs):
        raise AssertionError("SuperLU called on a centred disk annulus")

    monkeypatch.setattr(fem.spla, "splu", splu)
    coeffs, obstacle, geom = _case("disk")
    est = estimate_resolvent_norm(coeffs, obstacle, geom, 4.0, RadialCutoff(0.8, 0.97), 0.05,
                                  method="fem2d")
    assert est.method == "fem2d" and est.converged
    # the eta estimate too: its coarse energy Gram takes the angular solver
    assert estimate_eta(coeffs, obstacle, geom, 4.0, 0.2, samples=1).samples == 1


def test_fan_mesh_factors_by_lu(unit_setup):
    geom, mesh, space = unit_setup
    assert mesh.n_theta == 0
    system = assemble(identity_coefficients(), space, build_dtn(3.0, geom.R), 3.0)
    lu = system.factorize()
    assert lu.solver == "lu" and lu.iterations == 0
    assert solve(system, _random_dofs(space, 12)).iterations == 0


def point_source(k, x0):
    """Outgoing fundamental solution (i/4) H_0(k |x - x0|): ``(value, field)``
    callables, ``field(points)`` returning (value, gradient)."""
    x0 = np.asarray(x0, float)

    def field(points):
        dx = np.atleast_2d(np.asarray(points, float)) - x0
        s = np.linalg.norm(dx, axis=1)
        # H_0' = -H_1
        coef = -0.25j * k * hankel1(1, k * s) / s
        return 0.25j * hankel1(0, k * s), coef[:, None] * dx

    def value(points):
        return field(points)[0]

    return value, field


def _quintic_step(t):
    """C^2 polynomial step t^3(10 - 15t + 6t^2) clamped to [0, 1], with its
    first and second derivatives."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return (t**3 * (10.0 - 15.0 * t + 6.0 * t**2), 30.0 * t**2 * (1.0 - t) ** 2,
            60.0 * t * (1.0 - t) * (1.0 - 2.0 * t))


def manufactured_bubble(k, x0, r_flat, r_zero):
    """Compactly supported exact solution u = chi(r) (i/4) H_0(k|x - x0|).

    chi is a radial C^2 cutoff equal to 1 for r <= r_flat and 0 for r >= r_zero;
    the matching source is f = -(lap + k^2) u = -(2 grad chi . grad w + w lap chi)
    with w the point source, which must sit outside the support annulus.

    Returns (u, grad_u, f) callables.
    """
    if np.hypot(*np.asarray(x0, float)) <= r_zero:
        raise ValueError("source center must be outside the cutoff support")
    w, w_field = point_source(k, x0)

    def gw(points):
        return w_field(points)[1]

    width = r_zero - r_flat

    def chi_parts(r):
        q, q1, q2 = _quintic_step((r - r_flat) / width)
        return 1.0 - q, -q1 / width, -q2 / width**2

    def u(points):
        pts = np.atleast_2d(np.asarray(points, float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        c, _, _ = chi_parts(r)
        return c * w(pts)

    def grad_u(points):
        pts = np.atleast_2d(np.asarray(points, float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        c, c1, _ = chi_parts(r)
        rhat = pts / np.maximum(r, 1e-300)[:, None]
        return c[:, None] * gw(pts) + (c1 * w(pts))[:, None] * rhat

    def f(points):
        pts = np.atleast_2d(np.asarray(points, float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        c, c1, c2 = chi_parts(r)
        rhat = pts / np.maximum(r, 1e-300)[:, None]
        lap_chi = c2 + c1 / np.maximum(r, 1e-300)
        grad_dot = np.einsum("pa,pa->p", gw(pts), rhat) * c1
        return -(2.0 * grad_dot + w(pts) * lap_chi)

    return u, grad_u, f


def test_manufactured_solution_second_order():
    k = 3.0
    geom = TruncationGeometry(R1=0.8, R=1.0)
    coeffs = identity_coefficients()
    um, gm, fm = manufactured_bubble(k, (2.5, 0.4), 0.3, 0.8)
    errs, hs = [], []
    for h in (0.1, 0.05, 0.025):
        mesh = generate_mesh(None, geom, h)
        space = build_space(mesh)
        dtn = build_dtn(k, geom.R)
        system = assemble(coeffs, space, dtn, k)
        u = solve(system, assemble_load_source(space, fm, support_radius=geom.R))
        [(_, l2)] = errors_vs_exact(coeffs, space, [u], lambda x: (um(x), gm(x)), k)
        errs.append(l2)
        hs.append(mesh.h_fem)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.7


def test_adjoint_is_conjugate_for_real_data(unit_setup):
    geom, mesh, space = unit_setup
    k = 2.5
    dtn = build_dtn(k, geom.R)
    system = assemble(identity_coefficients(), space, dtn, k)

    def f(x):
        x = np.atleast_2d(x)
        return np.exp(-4.0 * np.sum(x**2, 1))  # real source

    u_adj = solve_adjoint(system, f)
    u_dir = solve(system, assemble_load_source(space, f))
    np.testing.assert_allclose(u_adj.dofs, np.conj(u_dir.dofs), atol=1e-12)


def test_adjoint_duality(unit_setup):
    geom, mesh, space = unit_setup
    k = 2.5
    dtn = build_dtn(k, geom.R)
    system = assemble(identity_coefficients(), space, dtn, k)
    M = system.mass_plain
    g = rng(8)
    for _ in range(5):
        f = _random_dofs(space, g.integers(1 << 30))
        w = _random_dofs(space, g.integers(1 << 30))
        Sf = solve(system, M @ f).dofs
        Sw = solve_adjoint(system, w).dofs
        lhs = np.vdot(w, M @ Sf)       # <S f, w>
        rhs = np.vdot(Sw, M @ f)       # <f, S* w>
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-8)


def test_adjoint_zero(unit_setup):
    geom, mesh, space = unit_setup
    dtn = build_dtn(2.0, geom.R)
    system = assemble(identity_coefficients(), space, dtn, 2.0)
    u = solve_adjoint(system, np.zeros(space.n_dofs, complex))
    assert np.all(u.dofs == 0)


# ---------------------------------------------------------------------------
# norms and interpolation


def test_energy_norm_constant(unit_setup):
    geom, mesh, space = unit_setup
    k = 3.0
    c = 2.0 - 1.0j
    dofs = np.full(space.n_dofs, c)
    coeffs = identity_coefficients()
    [(val, _)] = errors_vs_exact(coeffs, space, [dofs], None, k)
    expect = k * abs(c) * np.sqrt(mesh.areas().sum())
    assert val == pytest.approx(expect, rel=1e-12)


def test_energy_norm_linear_gradient_part(unit_setup):
    geom, mesh, space = unit_setup
    dofs = mesh.vertices[space.free_vertices, 0].astype(complex)  # x1
    [(val, _)] = errors_vs_exact(identity_coefficients(), space, [dofs], None, 0.0)
    assert val == pytest.approx(np.sqrt(mesh.areas().sum()), rel=1e-12)


def test_energy_norm_matrix_vs_quadrature(unit_setup):
    geom, mesh, space = unit_setup
    k = 2.0
    coeffs = identity_coefficients()
    system = assemble(coeffs, space, None, k)
    u = _random_dofs(space, 9)
    a = energy_norm(system, u)
    [(b, _)] = errors_vs_exact(coeffs, space, [u], None, k)  # independent quadrature path
    assert a == pytest.approx(b, rel=1e-10)


def test_energy_norm_is_the_gram_quadratic_form(unit_setup, nu_bump):
    # the two sparse products give the Gram's quadratic form to rounding
    _, _, space = unit_setup
    system = assemble(nu_bump, space, None, 3.0)
    u = _random_dofs(space, 4)
    gram = np.sqrt(np.vdot(u, system.energy_matrix() @ u).real)
    assert energy_norm(system, u) == pytest.approx(gram, rel=1e-14)


def _interpolation_errors(space, v, gv, hv):
    """|v - I_h v|_{L2}, |grad(v - I_h v)|_{L2} and the empirical interpolation
    constant (l2 + h grad) / (h^2 |v|_{H2}), the H^2 norm counting the mixed
    derivative once."""
    [(grad, l2)] = errors_vs_exact(identity_coefficients(), space,
                                   [nodal_interpolant(space, v)],
                                   lambda x: (v(x), gv(x)), 0.0)
    h2 = l2_norm_exact(space, lambda x: np.column_stack(
        [v(x), gv(x), hv(x)[:, 0, 0], hv(x)[:, 0, 1], hv(x)[:, 1, 1]]))
    h = space.mesh.h_fem
    return l2, grad, (l2 + h * grad) / (h**2 * h2)


def _quadratic_battery():
    v = lambda x: np.atleast_2d(x)[:, 0] ** 2
    gv = lambda x: np.stack([2 * np.atleast_2d(x)[:, 0],
                             np.zeros(len(np.atleast_2d(x)))], -1)
    hv = lambda x: np.tile(np.array([[2.0, 0.0], [0.0, 0.0]]),
                           (len(np.atleast_2d(x)), 1, 1))
    return v, gv, hv


def test_interpolation_reproduces_linears(unit_setup):
    geom, mesh, space = unit_setup
    v = lambda x: 3.0 * np.atleast_2d(x)[:, 0] - np.atleast_2d(x)[:, 1] + 0.5
    gv = lambda x: np.tile(np.array([3.0, -1.0]), (len(np.atleast_2d(x)), 1))
    hv = lambda x: np.zeros((len(np.atleast_2d(x)), 2, 2))
    l2, grad, _ = _interpolation_errors(space, v, gv, hv)
    assert l2 < 1e-12
    assert grad < 1e-11


def test_interpolation_ratio_stabilizes():
    geom = TruncationGeometry(R1=0.5, R=1.0)
    v, gv, hv = _quadratic_battery()
    ratios, l2s, hs = [], [], []
    for h in (0.2, 0.1, 0.05):
        mesh = generate_mesh(None, geom, h)
        space = build_space(mesh)
        l2, _, ratio = _interpolation_errors(space, v, gv, hv)
        ratios.append(ratio)
        l2s.append(l2)
        hs.append(mesh.h_fem)
    assert max(ratios) <= 2.0 * min(ratios)  # empirical constant stabilizes
    order = np.polyfit(np.log(hs), np.log(l2s), 1)[0]
    assert 1.77 <= order <= 2.23  # halving h quarters the error, +-15%


def test_recovered_hessian_on_quadratic(unit_setup):
    geom, mesh, space = unit_setup
    v, gv, hv = _quadratic_battery()
    dofs = nodal_interpolant(space, v)
    got = recovered_hessian_h2_norm(space, dofs)
    pts, wts, _ = quadrature(mesh, 4)
    flat = pts.reshape(-1, 2)
    vals = v(flat).reshape(pts.shape[:2])
    grads = gv(flat).reshape(pts.shape[:2] + (2,))
    exact = np.sqrt(np.sum(wts * (np.abs(vals) ** 2
                                  + np.sum(np.abs(grads) ** 2, -1) + 4.0)))
    assert got == pytest.approx(exact, rel=0.05)


# ---------------------------------------------------------------------------
# exact-solution checks


def test_mie_series_satisfies_dirichlet_condition():
    k, a = 4.0, 1.0
    uex, _ = soft_disk_total_field(k, a, (1.0, 0.0))
    th = np.linspace(0, 2 * np.pi, 257)
    pts = np.stack([a * np.cos(th), a * np.sin(th)], -1)
    assert np.abs(uex(pts)).max() < 1e-12


def test_mie_gradient_consistent_with_finite_differences():
    uex, field = soft_disk_total_field(4.0, 1.0, (0.6, 0.8))
    g = rng(10)
    pts = np.stack([g.uniform(1.1, 1.9, 8), g.uniform(-0.5, 0.5, 8)], -1)
    eps = 1e-6
    for m in range(2):
        e = np.zeros(2); e[m] = eps
        fd = (uex(pts + e) - uex(pts - e)) / (2 * eps)
        assert np.abs(fd - field(pts)[1][:, m]).max() < 1e-7
    assert np.array_equal(field(pts)[0], uex(pts))


def test_galerkin_orthogonality_against_exact_reference(disk_setup):
    # a(u_exact, v_h) - F(v_h) vanishes up to quadrature and boundary-polygon
    # consistency errors, which are O(h^2) relative
    geom, obs, mesh, space = disk_setup
    k, a = 2.0, 1.0
    coeffs = identity_coefficients()
    dtn = build_dtn(k, geom.R)
    system = assemble(coeffs, space, dtn, k)
    uex, field = soft_disk_total_field(k, a, (1.0, 0.0))
    rhs = assemble_load_scattering(space, dtn, (1.0, 0.0))

    pts, wts, bary = quadrature(mesh, 4)
    flat = pts.reshape(-1, 2)
    uvals, ugrad = field(flat)
    uvals, ugrad = uvals.reshape(pts.shape[:2]), ugrad.reshape(pts.shape[:2] + (2,))
    n = max(4 * dtn.n_max + 4, 64)
    th = 2.0 * np.pi * np.arange(n) / n
    samples = uex(np.stack([geom.R * np.cos(th), geom.R * np.sin(th)], -1))
    tr_u = (np.fft.fft(samples) / n)[dtn.orders % n]
    uex_energy = np.sqrt(np.sum(wts * (np.sum(np.abs(ugrad) ** 2, -1)
                                       + k**2 * np.abs(uvals) ** 2)))

    g = rng(11)
    for _ in range(20):
        v = _random_dofs(space, g.integers(1 << 30))
        vvals, vgrads, _, _ = _fe_values(space, v, 4)
        vol = np.sum(wts * (np.einsum("mqa,mqa->mq", ugrad, np.conj(vgrads))
                            - k**2 * uvals * np.conj(vvals)))
        tr_v = modal_projection(space, dtn.n_max) @ v
        a_uv = vol - 2.0 * np.pi * dtn.R * np.sum(dtn.coefficients * tr_u * np.conj(tr_v))
        Fv = np.vdot(v, rhs)
        v_energy = energy_norm(system, v)
        assert abs(a_uv - Fv) <= 10.0 * mesh.h_fem**2 * uex_energy * v_energy


def test_point_source_field_solves_helmholtz():
    k = 3.0
    w, field = point_source(k, (0.0, 0.0))
    g = rng(12)
    pts = np.stack([g.uniform(0.5, 1.5, 6), g.uniform(0.2, 1.0, 6)], -1)
    eps = 1e-5
    lap = (w(pts + [eps, 0]) + w(pts - [eps, 0]) + w(pts + [0, eps])
           + w(pts - [0, eps]) - 4 * w(pts)) / eps**2
    assert np.abs(lap + k**2 * w(pts)).max() < 1e-4 * np.abs(w(pts)).max() * k**2
    value, grad = field(pts)
    assert np.array_equal(value, w(pts))
    for m in range(2):
        e = np.zeros(2); e[m] = eps
        assert np.abs((w(pts + e) - w(pts - e)) / (2 * eps) - grad[:, m]).max() < 1e-7
