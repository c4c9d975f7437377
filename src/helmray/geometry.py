"""Planar scattering configuration: coefficient fields, star-shaped obstacles, radii.

The PDE coefficients are a symmetric positive-definite matrix field A(x) and a
positive scalar field nu(x), both equal to the identity / one outside a compact
disk of radius ``support_radius``.  Obstacles are smooth star-shaped curves
r = rho(theta).  All evaluation callables are pure and vectorized over a
trailing coordinate axis: positions have shape (..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .util import bump, bump_deriv


@dataclass(frozen=True)
class CoefficientField:
    """Matrix field A, scalar field nu, their gradients, and quadratic-form bounds.

    eval_A(x): (..., 2) -> (..., 2, 2) symmetric
    eval_nu(x): (..., 2) -> (...)
    eval_grad_A(x): (..., 2) -> (..., 2, 2, 2), last axis the derivative direction
    eval_grad_nu(x): (..., 2) -> (..., 2)
    """

    eval_A: Callable
    eval_nu: Callable
    eval_grad_A: Callable
    eval_grad_nu: Callable
    support_radius: float
    A_min: float
    A_max: float
    nu_min: float
    nu_max: float
    name: str = "custom"

    def is_identity(self):
        return self.A_min == self.A_max == self.nu_min == self.nu_max == 1.0


@dataclass(frozen=True)
class Obstacle:
    """Star-shaped obstacle r = rho(theta) about ``center``.  Functions that
    take an obstacle read ``None`` as no obstacle.  Off-center obstacles are
    supported by the ray tracer; meshing requires the origin."""

    rho: Callable
    drho: Callable
    center: tuple = (0.0, 0.0)

    @property
    def max_radius(self):
        th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return float(np.max(self.rho(th)))

    @property
    def min_radius(self):
        th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return float(np.min(self.rho(th)))

    @property
    def centered(self):
        return self.center[0] == 0.0 and self.center[1] == 0.0

    @property
    def outer_reach(self):
        """Largest distance from the origin to the curve."""
        return float(np.hypot(*self.center) + self.max_radius)


@dataclass(frozen=True)
class TruncationGeometry:
    """Radii: coefficient support R1 < truncation R < ray escape radius R_ray."""

    R1: float
    R: float
    R_ray: float

    def __post_init__(self):
        if not (0.0 < self.R1 < self.R < self.R_ray):
            raise ValueError(
                f"radii must satisfy 0 < R1 < R < R_ray, got "
                f"({self.R1}, {self.R}, {self.R_ray})"
            )


@dataclass(frozen=True)
class WaveContext:
    """Wavenumber k and the threshold wavenumber k0 below which bounds are not claimed."""

    k: float
    k0: float

    def __post_init__(self):
        if not (self.k >= self.k0 > 0.0):
            raise ValueError(f"need k >= k0 > 0, got k={self.k}, k0={self.k0}")


# ---------------------------------------------------------------------------
# coefficient presets


def identity_coefficients():
    """A = I, nu = 1 everywhere."""

    def eval_A(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        return out

    def eval_nu(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def eval_grad_A(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    def eval_grad_nu(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2,))

    return CoefficientField(
        eval_A, eval_nu, eval_grad_A, eval_grad_nu,
        support_radius=0.0, A_min=1.0, A_max=1.0, nu_min=1.0, nu_max=1.0,
        name="identity",
    )


def nu_bump_coefficients(amplitude=1.0, width=0.5, support_radius=None):
    """A = I and nu = 1 + amplitude * bump(r / width): a radial refractive bump.

    nu_max = 1 + amplitude at the origin; the perturbation vanishes identically
    for r >= width.
    """
    if amplitude <= -1.0:
        raise ValueError("amplitude must exceed -1 to keep nu positive")
    w = float(width)
    R1 = float(support_radius) if support_radius is not None else w

    ident = identity_coefficients()

    def eval_nu(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return 1.0 + amplitude * bump(r / w)

    def eval_grad_nu(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        db = amplitude * bump_deriv(r / w) / w
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.where(r > 0.0, db / np.maximum(r, 1e-300), 0.0)
        return coef[..., None] * x

    lo, hi = (1.0 + min(amplitude, 0.0), 1.0 + max(amplitude, 0.0))
    return CoefficientField(
        ident.eval_A, eval_nu, ident.eval_grad_A, eval_grad_nu,
        support_radius=R1, A_min=1.0, A_max=1.0, nu_min=lo, nu_max=hi,
        name="nu_bump",
    )


def anisotropic_coefficients(a1=0.5, a2=0.0, angle=0.0, width=0.5, support_radius=None):
    """A = Q diag(1 + a1 b, 1 + a2 b) Q^T with b the radial bump, Q a fixed rotation."""
    if min(a1, a2) <= -1.0:
        raise ValueError("eigenvalue perturbations must exceed -1")
    w = float(width)
    R1 = float(support_radius) if support_radius is not None else w
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s], [s, c]])

    def _profile(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return r, bump(r / w)

    def eval_A(x):
        _, b = _profile(x)
        diag = np.zeros(b.shape + (2, 2))
        diag[..., 0, 0] = 1.0 + a1 * b
        diag[..., 1, 1] = 1.0 + a2 * b
        return np.einsum("ab,...bc,dc->...ad", Q, diag, Q)

    def eval_grad_A(x):
        x = np.asarray(x, dtype=float)
        r, _ = _profile(x)
        db = bump_deriv(r / w) / w
        with np.errstate(invalid="ignore", divide="ignore"):
            coef = np.where(r > 0.0, db / np.maximum(r, 1e-300), 0.0)
        grad_b = coef[..., None] * x  # (..., 2)
        ddiag = np.zeros(r.shape + (2, 2))
        ddiag[..., 0, 0] = a1
        ddiag[..., 1, 1] = a2
        core = np.einsum("ab,...bc,dc->...ad", Q, ddiag, Q)  # (..., 2, 2)
        return core[..., :, :, None] * grad_b[..., None, None, :]

    ident = identity_coefficients()
    eigs = [1.0, 1.0 + a1, 1.0 + a2]
    return CoefficientField(
        eval_A, ident.eval_nu, eval_grad_A, ident.eval_grad_nu,
        support_radius=R1, A_min=min(eigs), A_max=max(eigs), nu_min=1.0, nu_max=1.0,
        name="anisotropic",
    )


COEFFICIENT_PRESETS = {
    "identity": identity_coefficients,
    "nu_bump": nu_bump_coefficients,
    "anisotropic": anisotropic_coefficients,
}


# ---------------------------------------------------------------------------
# obstacles


def fourier_obstacle(cos_coeffs, sin_coeffs=(), center=(0.0, 0.0)):
    """Star-shaped obstacle rho(theta) = c0 + sum c_m cos(m theta) + sum s_m sin(m theta)."""
    cos_coeffs = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
    sin_coeffs = np.atleast_1d(np.asarray(sin_coeffs, dtype=float))
    n = max(len(cos_coeffs) - 1, len(sin_coeffs))    # orders 1..n, both rows zero-padded
    m = np.arange(1, n + 1)
    c, s = (np.pad(x, (0, n - len(x))) for x in (cos_coeffs[1:], sin_coeffs))

    def rho(theta):
        mt = np.multiply.outer(np.asarray(theta, dtype=float), m)
        return cos_coeffs[0] + np.cos(mt) @ c + np.sin(mt) @ s

    def drho(theta):
        mt = np.multiply.outer(np.asarray(theta, dtype=float), m)
        return np.cos(mt) @ (m * s) - np.sin(mt) @ (m * c)

    return Obstacle(rho=rho, drho=drho, center=(float(center[0]), float(center[1])))


def disk_obstacle(radius, center=(0.0, 0.0)):
    return fourier_obstacle([radius], center=center)


# ---------------------------------------------------------------------------
# signed distance and normals


def signed_distance(obstacle: Obstacle, x):
    """Star-shaped level function |x - c| - rho(theta): negative inside, zero on
    the curve.

    Agrees with the Euclidean distance for circles and differs from it by a smooth
    positive factor near a general smooth boundary.
    """
    x = np.asarray(x, dtype=float) - np.asarray(obstacle.center)
    r = np.hypot(x[..., 0], x[..., 1])
    th = np.arctan2(x[..., 1], x[..., 0])
    return r - obstacle.rho(th)


def boundary_normal(obstacle: Obstacle, x, tol=1e-6):
    """Outward Euclidean unit normal at a point on the obstacle curve."""
    x = np.asarray(x, dtype=float)
    d = signed_distance(obstacle, x)
    if np.any(np.abs(d) > tol):
        raise ValueError(f"point not on the boundary: |signed distance| = {np.max(np.abs(d)):.3e}")
    xc = x - np.asarray(obstacle.center)
    th = np.arctan2(xc[..., 1], xc[..., 0])
    rho = obstacle.rho(th)
    dr = obstacle.drho(th)
    c, s = np.cos(th), np.sin(th)
    # tangent (rho' cos - rho sin, rho' sin + rho cos) rotated by -90 degrees
    n = np.stack([dr * s + rho * c, -dr * c + rho * s], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    failures: list = field(default_factory=list)  # (invariant name, sample point or None)


def validate_configuration(coeffs: CoefficientField, obstacle: Optional[Obstacle],
                           geom: TruncationGeometry):
    """Dense-sample check of the structural invariants of a configuration.

    Checks, in order: exact identity coefficients outside the support radius,
    quadratic-form bounds and symmetry of A inside, nu bounds, obstacle
    smoothness/periodicity, and obstacle containment in the support disk.
    Smoothness of the curve and non-degenerate tangency are documented
    preconditions, not decidable here.
    """
    failures = []

    th = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    # outside the support radius: exactly Euclidean
    for r in np.linspace(geom.R1 * 1.000001, geom.R_ray, 8):
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        A = coeffs.eval_A(pts)
        nu = coeffs.eval_nu(pts)
        dev_A = np.abs(A - np.eye(2)).max()
        dev_nu = np.abs(nu - 1.0).max()
        if dev_A != 0.0 or dev_nu != 0.0:
            i = int(np.argmax(np.abs(nu - 1.0)))
            failures.append(("coefficient support violation", pts[i]))
            break

    # inside: bounds and symmetry
    rr = np.linspace(0.0, geom.R_ray, 24)
    grid = np.stack(
        [rr[:, None] * np.cos(th)[None, :], rr[:, None] * np.sin(th)[None, :]], axis=-1
    ).reshape(-1, 2)
    A = coeffs.eval_A(grid)
    nu = coeffs.eval_nu(grid)
    asym = np.abs(A[..., 0, 1] - A[..., 1, 0]).max()
    if asym > 1e-12:
        failures.append(("A not symmetric", grid[int(np.argmax(np.abs(A[..., 0, 1] - A[..., 1, 0])))]))
    tr = A[..., 0, 0] + A[..., 1, 1]
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    disc = np.sqrt(np.maximum((tr / 2) ** 2 - det, 0.0))
    lam_lo, lam_hi = tr / 2 - disc, tr / 2 + disc
    tol = 1e-10
    if np.any(lam_lo < coeffs.A_min - tol) or np.any(lam_hi > coeffs.A_max + tol):
        i = int(np.argmax(np.maximum(coeffs.A_min - lam_lo, lam_hi - coeffs.A_max)))
        failures.append(("A eigenvalue bounds violated", grid[i]))
    if np.any(nu < coeffs.nu_min - tol) or np.any(nu > coeffs.nu_max + tol):
        i = int(np.argmax(np.maximum(coeffs.nu_min - nu, nu - coeffs.nu_max)))
        failures.append(("nu bounds violated", grid[i]))

    if obstacle is not None:
        fine = np.linspace(0.0, 2.0 * np.pi, 4 * len(th) + 1)
        rho = obstacle.rho(fine)
        if abs(rho[0] - rho[-1]) > 1e-12:
            failures.append(("rho not periodic", None))
        if np.any(rho <= 0.0):
            failures.append(("rho not positive", None))
        # crude smoothness screen: bounded scaled second differences
        d2 = np.diff(rho, 2) / (fine[1] - fine[0]) ** 2
        if np.any(~np.isfinite(d2)) or np.abs(d2).max() > 1e6:
            failures.append(("rho fails smoothness screen", None))
        if obstacle.outer_reach >= geom.R1:
            failures.append(("obstacle not contained in the coefficient support disk", None))

    return ValidationReport(ok=not failures, failures=failures)


def check_gradients(coeffs: CoefficientField, points, step=1e-5):
    """Max relative error of the analytic coefficient gradients vs central differences."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    for m in range(2):
        e = np.zeros(2)
        e[m] = step
        fd_A = (coeffs.eval_A(points + e) - coeffs.eval_A(points - e)) / (2 * step)
        fd_nu = (coeffs.eval_nu(points + e) - coeffs.eval_nu(points - e)) / (2 * step)
        an_A = coeffs.eval_grad_A(points)[..., m]
        an_nu = coeffs.eval_grad_nu(points)[..., m]
        scale_A = max(np.abs(fd_A).max(), 1.0)
        scale_nu = max(np.abs(fd_nu).max(), 1.0)
        worst = max(worst, np.abs(fd_A - an_A).max() / scale_A,
                    np.abs(fd_nu - an_nu).max() / scale_nu)
    return worst
