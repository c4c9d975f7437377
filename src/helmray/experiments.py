"""Quantitative studies: resolvent-norm scans, the 1-D transport quasimode,
adjoint-approximation quality, quasioptimality sweeps, and H^2 growth in k."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bounds import ConstantsLedger, mesh_threshold, resolvent_upper_bound, volterra_norm
from .dtn import build_dtn
from .fem import (AngularFactorization, DiscreteSolution, SolveError, _fe_values, assemble,
                  assemble_load_scattering, assemble_load_source, build_space, element_gradients,
                  energy_norm, errors_vs_exact, l2_norm_exact, nodal_interpolant, quadrature,
                  recovered_hessian_h2_norm, solve, solve_adjoint)
from .geometry import CoefficientField
from .mesh import MeshSizeError, generate_mesh
from .mie import soft_disk_total_field
from .radial import radial_cutoff_resolvent_norm
from .util import (bump, composite_gauss, cutoff_normal, make_rng, power_sigma,
                   require_positive, smoothstep, solve_real)


# ---------------------------------------------------------------------------
# cutoffs and symmetry detection


@dataclass(frozen=True)
class RadialCutoff:
    """Smooth radial plateau: 1 for r <= inner, 0 for r >= outer."""

    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError("need 0 < inner < outer")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return smoothstep((self.outer - r) / (self.outer - self.inner))

    def at_points(self, points):
        points = np.atleast_2d(np.asarray(points, float))
        return self(np.hypot(points[:, 0], points[:, 1]))


def radial_profiles(coeffs: CoefficientField, r_max):
    """(a_of_r, nu_of_r) callables when A = a(r) I and nu = nu(r) to 1e-12 on
    17 radii times 48 angles; else None."""
    tol = 1e-12
    r_test = np.linspace(1e-3, r_max, 17)
    th = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    pts = np.stack([np.outer(r_test, np.cos(th)), np.outer(r_test, np.sin(th))], axis=-1)
    A = coeffs.eval_A(pts.reshape(-1, 2)).reshape(len(r_test), len(th), 2, 2)
    nu = coeffs.eval_nu(pts.reshape(-1, 2)).reshape(len(r_test), len(th))
    iso = (np.abs(A[..., 0, 1]).max() < tol
           and np.abs(A[..., 0, 0] - A[..., 1, 1]).max() < tol
           and np.abs(A[..., 0, 0] - A[..., 0, 0].mean(axis=1, keepdims=True)).max() < tol
           and np.abs(nu - nu.mean(axis=1, keepdims=True)).max() < tol)
    if not iso:
        return None

    def a_of_r(r):
        r = np.asarray(r, dtype=float)
        pts = np.stack([r, np.zeros_like(r)], axis=-1)
        return coeffs.eval_A(pts)[..., 0, 0]

    def nu_of_r(r):
        r = np.asarray(r, dtype=float)
        pts = np.stack([r, np.zeros_like(r)], axis=-1)
        return coeffs.eval_nu(pts)

    return a_of_r, nu_of_r


def _disk_inner_radius(obstacle):
    """Inner radius of the modal path: 0 without an obstacle, the radius of a
    disk centred at the origin, None for any other obstacle."""
    if obstacle is None:
        return 0.0
    if obstacle.centered and abs(obstacle.max_radius - obstacle.min_radius) < 1e-12:
        return obstacle.max_radius
    return None


# ---------------------------------------------------------------------------
# resolvent-norm estimation


@dataclass
class ResolventEstimate:
    value: float
    method: str          # 'modal' or 'fem2d'
    converged: bool
    iterations: int
    resolution: dict
    residual: float      # relative Ritz residual; the largest over solved modes on the modal path


def estimate_resolvent_norm(coeffs: CoefficientField, obstacle, geom,
                            k, cutoff: RadialCutoff, h, s=0, rtol=1e-4,
                            seed=0, method="auto") -> ResolventEstimate:
    """Largest singular value of f -> chi solve(chi f), mass inner product.

    Rotationally symmetric configurations dispatch to the angular-mode radial
    solver, which reaches resolutions h ~ 1/k^2 at large k that a 2-D
    factorization cannot; generic configurations use the 2-D discretization.
    """
    require_positive("k", k)
    require_positive("h", h)
    if cutoff.outer > geom.R:
        raise ValueError("cutoff must be supported inside the truncation disk")
    if method not in ("auto", "modal", "fem2d"):
        raise ValueError(f"unknown method {method!r}: expected 'auto', 'modal' or 'fem2d'")
    if s not in (0, 1):
        raise ValueError(f"Sobolev index s = {s!r}: expected 0 or 1")
    prof = radial_profiles(coeffs, geom.R) if method != "fem2d" else None
    r_in = _disk_inner_radius(obstacle)
    if method == "modal" and (prof is None or r_in is None):
        raise ValueError("modal path requires a rotationally symmetric configuration")
    if prof is not None and r_in is not None:
        res = radial_cutoff_resolvent_norm(k, geom.R, h, cutoff, r_inner=r_in,
                                           a_of_r=prof[0], nu_of_r=prof[1],
                                           s=s, rtol=rtol, seed=seed)
        # n_modes counts every mode, solved or screened; screen_bound is None
        # when no mode was screened
        iters = max(it for _, _, it, _ in res.per_mode) if res.per_mode else 0
        return ResolventEstimate(value=res.value, method="modal",
                                 converged=res.converged, iterations=iters,
                                 resolution={"h_r": h, "n_r": res.n_r,
                                             "n_modes": len(res.per_mode) + len(res.screened),
                                             "n_screened": len(res.screened),
                                             "screen_bound": max((b for _, b in res.screened),
                                                                 default=None)},
                                 residual=res.residual)

    mesh = generate_mesh(obstacle, geom, h)
    space = build_space(mesh)
    dtn = build_dtn(k, geom.R)
    system = assemble(coeffs, space, dtn, k)
    M = system.mass_plain
    apply_normal = cutoff_normal(
        system.factorize(), _spd_solver(M, mesh.n_theta), M,
        M if s == 0 else system.energy_matrix(),
        cutoff.at_points(mesh.vertices[space.free_vertices]))
    rng = make_rng(seed)
    v0 = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    sigma, iters, conv, resid = power_sigma(apply_normal, M, v0, rtol=rtol, maxit=600)
    return ResolventEstimate(value=sigma, method="fem2d",
                             converged=conv, iterations=iters,
                             resolution={"h": h, "n_dofs": space.n_dofs}, residual=resid)


def _spd_solver(matrix, n_theta):
    """b -> matrix^{-1} b for a real SPD matrix on a mesh with ``n_theta``
    angles per ring (0 for a fan) and a complex b: the angular solver where the
    matrix equals its angle-averaged stencil to rounding (a centred disk
    annulus), with b as one complex column; otherwise SuperLU of the matrix,
    with the real and imaginary parts of b as two real columns.  On a star
    annulus the angular mass solve needs 21 GMRES iterations, 15 times the
    time of an LU solve at 89,608 dofs."""
    if n_theta:
        angular = AngularFactorization(matrix, n_theta)
        if angular.invariant:
            return angular.solve
    return partial(solve_real, spla.splu(matrix.tocsc()))


@dataclass
class ResolventScan:
    rows: list                  # dicts per k
    s: int
    method: str


def resolvent_scan(coeffs, obstacle, geom, k_values, cutoff: RadialCutoff,
                   s=0, rtol=1e-4, seed=0) -> ResolventScan:
    """Per-k table of cutoff-resolvent norms with reference envelope values.

    The mesh width is 0.5/k^2 (pollution-safe).  References: (2 L / pi) k^{s-1}
    with L the plateau (lower) and support (upper) cutoff radii.
    """
    for k in k_values:
        require_positive("k", k)
    rows = []
    method_used = None
    for k in k_values:
        est = estimate_resolvent_norm(coeffs, obstacle, geom, k, cutoff,
                                      0.5 / k**2, s=s, rtol=rtol, seed=seed)
        method_used = est.method
        rows.append({
            "k": float(k),
            "norm": est.value,
            "k_times_norm": float(k) * est.value if s == 0 else est.value,
            "lower_reference": volterra_norm(cutoff.inner) * k ** (s - 1.0),
            "upper_reference": resolvent_upper_bound(cutoff.outer, k, s),
            "converged": est.converged,
            "iterations": est.iterations,
            "residual": est.residual,
            # modal modes certified by mode_norm_bound instead of Lanczos
            "n_screened": est.resolution.get("n_screened", 0),
            "screen_bound": est.resolution.get("screen_bound"),
        })
    return ResolventScan(rows=rows, s=s, method=method_used)


# ---------------------------------------------------------------------------
# 1-D transport quasimode


@dataclass
class QuasimodeResult:
    ratio: float
    reference: float          # 2 (L - 2 delta) / (pi h)
    f_norm_sq: float
    u_norm_sq: float
    mu: float


def quasimode_lower_bound(L, delta, h) -> QuasimodeResult:
    """Explicit transported pair showing the 1/(h mu) amplification.

    On the flat model: f0 = cos(mu (x - delta)) on [delta, L - delta] with
    mu = pi / (2 (L - 2 delta)); the antiderivative profile v0 rises as
    (1/(h mu)) sin(mu (x - delta)) and then saturates, and a smooth tail cutoff
    psi (equal to 1 on [delta, L - delta/2], supported in (0, L - delta/4))
    gives u0 = psi v0 with |u0| / |f0| >= 1/(h mu).
    """
    if not (0.0 < 2.0 * delta < L):
        raise ValueError("need 0 < 2 delta < L")
    if h <= 0.0:
        raise ValueError("need h > 0")
    mu = np.pi / (2.0 * (L - 2.0 * delta))
    amp = 1.0 / (h * mu)

    def f0(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= delta) & (x <= L - delta)
        return np.where(inside, np.cos(mu * (x - delta)), 0.0)

    def v0(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x <= delta, 0.0,
                       np.where(x <= L - delta, amp * np.sin(mu * (x - delta)), amp))
        return out

    def psi(x):
        x = np.asarray(x, dtype=float)
        rise = smoothstep((x - 0.5 * delta) / (0.5 * delta))
        fall = smoothstep(((L - 0.375 * delta) - x) / (0.125 * delta))
        return rise * fall

    def u0(x):
        return psi(x) * v0(x)

    f2 = composite_gauss(lambda x: f0(x) ** 2, delta, L - delta)
    u2 = composite_gauss(lambda x: u0(x) ** 2, 0.5 * delta, L - 0.25 * delta)
    return QuasimodeResult(ratio=float(np.sqrt(u2 / f2)),
                           reference=2.0 * (L - 2.0 * delta) / (np.pi * h),
                           f_norm_sq=f2, u_norm_sq=u2, mu=mu)


# ---------------------------------------------------------------------------
# adjoint approximation quality (eta)


_PROJECTION_QUAD_DEGREE = 2   # fine-mesh quadrature of the projection


class _CrossMeshProjector:
    """Energy-orthogonal projection of fine-mesh functions onto a coarse space.

    Coarse basis values and gradients are tabulated at the fine quadrature
    points once; best-approximation errors then cost a few sparse products and
    one SPD solve per sample.
    """

    def __init__(self, coeffs, coarse_space, fine_space, k):
        self.k = k
        self.fine = fine_space
        pts, wts, _ = quadrature(fine_space.mesh, _PROJECTION_QUAD_DEGREE)
        flat = pts.reshape(-1, 2)
        self.wts = wts
        tri, lam = coarse_space.mesh.locate(flat)
        grads, _ = element_gradients(coarse_space.mesh)
        dof = coarse_space.dof_of_vertex[coarse_space.mesh.triangles[tri]]  # (P, 3)
        keep = dof >= 0
        rows = np.broadcast_to(np.arange(len(flat))[:, None], dof.shape)[keep]
        self.Phi, self.Gx, self.Gy = (   # distinct columns in each row: nothing to sum
            sp.csr_matrix((v[keep], (rows, dof[keep])), shape=(len(flat), coarse_space.n_dofs))
            for v in (lam, grads[tri, :, 0], grads[tri, :, 1]))
        self.A_q = coeffs.eval_A(flat)
        self.nu_q = coeffs.eval_nu(flat)
        self.Ec_solve = _spd_solver(assemble(coeffs, coarse_space, None, k).energy_matrix(),
                                    coarse_space.mesh.n_theta)

    def best_approx_error_sq(self, u_fine: DiscreteSolution, u_energy_sq):
        """min over coarse v of |u - v|_E^2 = |u|_E^2 - b^H Ec^{-1} b."""
        vals, grads_q, _, _ = _fe_values(self.fine, u_fine.dofs, _PROJECTION_QUAD_DEGREE)
        w = self.wts.ravel()
        uv = vals.ravel()
        ug = grads_q.reshape(-1, 2)
        Ag = np.einsum("qab,qb->qa", self.A_q, ug)
        b = (self.Gx.conj().T @ (w * Ag[:, 0])
             + self.Gy.conj().T @ (w * Ag[:, 1])
             + self.k**2 * (self.Phi.conj().T @ (w * self.nu_q * uv)))
        proj = np.real(np.vdot(b, self.Ec_solve(b)))
        return max(u_energy_sq - proj, 0.0)


@dataclass
class EtaEstimate:
    k: float
    h_fem: float
    samples: int
    value: float
    per_sample: list


def estimate_eta(coeffs, obstacle, geom, k, h_fem, samples=8, seed=0) -> EtaEstimate:
    """Running sup over random loads of the best-approximation ratio.

    For white-noise L^2 loads f on the fine mesh (width h_fem / 4), the adjoint
    solution S*f is computed there and projected (energy-orthogonally) onto the
    coarse space; eta is the sup of |S*f - P S*f|_E / |f|_{L^2}.  Nondecreasing
    in samples.
    """
    if samples < 1:
        raise ValueError(f"samples = {samples}: the estimate needs at least one sample")
    coarse_mesh = generate_mesh(obstacle, geom, h_fem)
    fine_mesh = generate_mesh(obstacle, geom, h_fem / 4)
    coarse = build_space(coarse_mesh)
    fine = build_space(fine_mesh)
    dtn = build_dtn(k, geom.R)
    fine_sys = assemble(coeffs, fine, dtn, k)
    proj = _CrossMeshProjector(coeffs, coarse, fine, k)

    rng = make_rng(seed)
    ratios = []
    best = 0.0
    for _ in range(samples):
        f = rng.standard_normal(fine.n_dofs) + 1j * rng.standard_normal(fine.n_dofs)
        fnorm = np.sqrt(np.real(np.vdot(f, fine_sys.mass_plain @ f)))
        if fnorm < 1e-14:
            continue
        f /= fnorm
        u = solve_adjoint(fine_sys, f)
        err2 = proj.best_approx_error_sq(u, energy_norm(fine_sys, u) ** 2)
        ratios.append(float(np.sqrt(err2)))
        best = max(best, ratios[-1])
    return EtaEstimate(k=k, h_fem=coarse_mesh.h_fem, samples=len(ratios),
                       value=best, per_sample=ratios)


# ---------------------------------------------------------------------------
# quasioptimality sweep


@dataclass
class ConvergenceTable:
    rows: list          # dicts, sorted by (k, h)
    quasioptimality_bound: float


def quasioptimality_study(coeffs, obstacle, geom, ledger: ConstantsLedger,
                          k_values, h_values) -> ConvergenceTable:
    """Scattering sweep comparing the Galerkin error to best approximation.

    The reference is the modal series for a centered disk with identity
    coefficients (exact up to truncation) under a plane wave along +x.  The
    best-approximation error is proxied by the nodal interpolant of the
    reference, so reported ratios are lower bounds of the true quasioptimality
    ratio.
    """
    a_disk = _disk_inner_radius(obstacle)
    if a_disk is None or a_disk == 0.0 or not coeffs.is_identity():
        raise ValueError("the sweep needs a centered-disk obstacle with identity "
                         "coefficients (the closed-form reference)")
    rows = []
    bound = 2.0 * (1.0 + ledger.C_DtN)
    for k in sorted(k_values):
        dtn = build_dtn(k, geom.R)
        uex, field = soft_disk_total_field(k, a_disk, (1.0, 0.0))
        for h in sorted(h_values):
            row = {"k": float(k), "h_target": float(h)}
            try:
                mesh = generate_mesh(obstacle, geom, h)
                space = build_space(mesh)
                system = assemble(coeffs, space, dtn, k)
                rhs = assemble_load_scattering(space, dtn, (1.0, 0.0))
                u = solve(system, rhs)
                (en_err, l2_err), (best_err, _) = errors_vs_exact(
                    coeffs, space, [u, nodal_interpolant(space, uex)], field, k)
                report = mesh_threshold(ledger, k, h_query=mesh.h_fem)
                row.update({
                    "h_fem": mesh.h_fem,
                    "energy_error": en_err,
                    "l2_error": l2_err,
                    "best_approx_error": best_err,
                    "qo_ratio": en_err / best_err if best_err > 0 else np.inf,
                    "threshold_rhs": report.rhs_at_query,
                    "admissible": bool(report.admissible),
                    "failed": False,
                })
            except (SolveError, MeshSizeError) as exc:  # record solver failures as data
                row.update({"failed": True, "error": str(exc)})
            rows.append(row)
    return ConvergenceTable(rows=rows, quasioptimality_bound=float(bound))


# ---------------------------------------------------------------------------
# H^2 growth study


def h2_scaling_study(coeffs, obstacle, geom, k_values, seed=0, loads=3):
    """Growth of the second-order norm of outgoing solutions against k.

    Loads are seeded random Gaussian beams (frequency-k oscillation along a
    random chord, transverse width k^{-1/2}); these excite the transport
    mechanism behind the linear-in-k prediction, whereas fixed smooth loads
    only see the elliptic floor.  Reports |u|_{H^2,discrete} / (k |f|_{L^2})
    per k and the exponent fitted to |u|_{H^2}/|f| ~ k^p (prediction: p = 1),
    on meshes of width min(0.08, 0.5/k^2).
    """
    for k in k_values:
        require_positive("k", k)
    if len(set(map(float, k_values))) < 2:
        raise ValueError(f"k = {list(k_values)}: the fitted exponent needs two distinct k")
    rng = make_rng(seed)
    beams = [(rng.uniform(0.0, 2.0 * np.pi),
              rng.uniform(0.75 * geom.R1, 0.95 * geom.R1)) for _ in range(loads)]
    s_len = 0.8 * geom.R1

    rows = []
    means = []
    for k in sorted(k_values):
        mesh = generate_mesh(obstacle, geom, min(0.08, 0.5 / k**2))
        space = build_space(mesh)
        dtn = build_dtn(k, geom.R)
        system = assemble(coeffs, space, dtn, k)
        vals = []
        for j, (phi, offset) in enumerate(beams):
            d = np.array([np.cos(phi), np.sin(phi)])
            dp = np.array([-d[1], d[0]])

            def f(x, d=d, dp=dp, b=offset, k=k):
                x = np.atleast_2d(x)
                s = x @ d
                t = x @ dp - b
                return bump(s / s_len) * np.exp(-0.5 * k * t**2) * np.exp(1j * k * s)

            rhs = assemble_load_source(space, f)
            u = solve(system, rhs)
            h2 = recovered_hessian_h2_norm(space, u)
            fl2 = l2_norm_exact(space, f)
            if fl2 < 1e-14:
                continue
            vals.append(h2 / fl2)
            rows.append({"k": float(k), "load": j, "h2_over_f": h2 / fl2,
                         "ratio_to_linear": h2 / (k * fl2), "h_fem": mesh.h_fem})
        means.append((k, np.mean(vals)))
    ks = np.array([m[0] for m in means])
    ys = np.array([m[1] for m in means])
    exponent = float(np.polyfit(np.log(ks), np.log(ys), 1)[0])
    return {"rows": rows, "fitted_exponent": exponent}
