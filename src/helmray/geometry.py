"""Planar scattering configuration: coefficient fields, star-shaped obstacles, radii.

The PDE coefficients are a symmetric positive-definite matrix field A(x) and a
positive scalar field nu(x), both equal to the identity / one outside a compact
disk of radius ``support_radius``.  The three presets share one radial-bump
builder, A = I + b(r) Q diag(a1, a2) Q^T and nu = 1 + amplitude b(r), which is
exactly I and 1 where the bump b vanishes.  Obstacles are smooth star-shaped curves
r = rho(theta).  All evaluation callables are pure and vectorized over a
trailing coordinate axis: positions have shape (..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .util import bump


@dataclass(frozen=True)
class CoefficientField:
    """Matrix field A, scalar field nu, their gradients, and quadratic-form bounds.

    eval_A(x): (..., 2) -> (..., 2, 2) symmetric
    eval_nu(x): (..., 2) -> (...)
    eval_grad_A(x, A=None): (..., 2) -> (..., 2, 2, 2), last axis the derivative direction
    eval_grad_nu(x, nu=None): (..., 2) -> (..., 2)

    Like numpy's ``out=``, a gradient callable given a value array, (..., 2, 2)
    or (...), also writes A(x) or nu(x) into it, equal bit for bit to
    ``eval_A(x)`` or ``eval_nu(x)``: an RK4 stage then evaluates the bump once
    (``validate_configuration`` checks the written values on a grid).

    ``A_min == A_max == 1`` declares A = I everywhere, and ``nu_min == nu_max
    == 1`` declares nu = 1: the ray tracer (A only) and the FEM assembly then
    skip the pinned coefficient, so a field that declares a pin must keep it
    (``validate_configuration`` checks the bounds on a grid).
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
    """Radii: coefficient support R1 < truncation R."""

    R1: float
    R: float

    def __post_init__(self):
        if not (0.0 < self.R1 < self.R):
            raise ValueError(f"radii must satisfy 0 < R1 < R, got ({self.R1}, {self.R})")


# ---------------------------------------------------------------------------
# coefficient presets


_GAP_FLOOR = 1e-100    # below every positive 1 - rho^2, which is at least 2^-53


def _radius(x, w):
    """|x|, capped at 2w: the bump vanishes from |x| = w on, and the cap keeps
    rho^2 finite at every x of finite norm."""
    return np.minimum(np.hypot(x[..., 0], x[..., 1]), 2.0 * w)


def _bump_grad(x, w, scale=1.0):
    """b = bump(|x| / w) and the gradient of scale * b in x, from one
    evaluation of the bump.

    With rho = |x| / w and t = 1 - rho^2, the chain rule through |x| gives
    grad b(|x| / w) = -2 b x / (w^2 t^2): no division by |x|, so the origin
    needs no guard.  A floor stands in for a mask.  Where t is positive the
    floor leaves it unchanged; elsewhere exp(1 - 1/floor) is exactly 0, so b
    and the gradient are 0.
    """
    r = _radius(x, w)
    rho = r / w
    t = np.maximum(1.0 - rho * rho, _GAP_FLOOR)
    b = np.exp(1.0 - 1.0 / t)
    f = b / (t * t)
    f *= -2.0 * scale / (w * w)
    # one column at a time: a broadcast over the last axis costs several times more
    g = np.empty(x.shape)
    np.multiply(f, x[..., 0], out=g[..., 0])
    np.multiply(f, x[..., 1], out=g[..., 1])
    return b, g


def _identity_A(x):
    return np.zeros(np.shape(x)[:-1] + (2, 2)) + np.eye(2)


def _one(x):
    return np.ones(np.shape(x)[:-1])


def _zero_grad_A(x, A=None):
    if A is not None:
        A[...] = np.eye(2)
    return np.zeros(np.shape(x)[:-1] + (2, 2, 2))


def _zero_grad_nu(x, nu=None):
    if nu is not None:
        nu[...] = 1.0
    return np.zeros(np.shape(x)[:-1] + (2,))


def _radial_bump(amplitude=0.0, a1=0.0, a2=0.0, angle=0.0, width=0.5):
    """A = I + b(r) Q diag(a1, a2) Q^T and nu = 1 + amplitude b(r), with b(r) =
    bump(r / width) and Q the rotation by ``angle``, declared supported in
    the disk of radius ``width``.

    Where b = 0 both are exactly I and 1.  A part with no perturbation (a1 = a2
    = 0, or amplitude = 0) is the plain identity / one and never evaluates b.
    """
    if amplitude <= -1.0:
        raise ValueError("amplitude must exceed -1 to keep nu positive")
    if min(a1, a2) <= -1.0:
        raise ValueError("eigenvalue perturbations must exceed -1")
    w = float(width)
    eval_A, eval_grad_A, eval_nu, eval_grad_nu = _identity_A, _zero_grad_A, _one, _zero_grad_nu

    if a1 != 0.0 or a2 != 0.0:
        c, s = np.cos(angle), np.sin(angle)
        P = np.array([[a1 * c * c + a2 * s * s, (a1 - a2) * c * s],
                      [(a1 - a2) * c * s, a1 * s * s + a2 * c * c]])    # Q diag(a1, a2) Q^T

        def eval_A(x):
            x = np.asarray(x, dtype=float)
            b = bump(_radius(x, w) / w)
            return np.eye(2) + b[..., None, None] * P

        def eval_grad_A(x, A=None):
            b, g = _bump_grad(np.asarray(x, dtype=float), w)
            if A is not None:
                np.add(np.eye(2), b[..., None, None] * P, out=A)
            return P[:, :, None] * g[..., None, None, :]

    if amplitude != 0.0:
        def eval_nu(x):
            x = np.asarray(x, dtype=float)
            return 1.0 + amplitude * bump(_radius(x, w) / w)

        def eval_grad_nu(x, nu=None):
            b, g = _bump_grad(np.asarray(x, dtype=float), w, amplitude)
            if nu is not None:
                np.add(1.0, amplitude * b, out=nu)
            return g

    eigs = (1.0, 1.0 + a1, 1.0 + a2)
    return CoefficientField(
        eval_A, eval_nu, eval_grad_A, eval_grad_nu,
        support_radius=w,
        A_min=min(eigs), A_max=max(eigs),
        nu_min=1.0 + min(amplitude, 0.0), nu_max=1.0 + max(amplitude, 0.0),
    )


def identity_coefficients():
    """A = I, nu = 1 everywhere."""
    return _radial_bump(width=0.0)


def nu_bump_coefficients(amplitude=1.0, width=0.5):
    """A = I and nu = 1 + amplitude * bump(r / width): a radial refractive bump.

    nu_max = 1 + amplitude at the origin; the perturbation vanishes identically
    for r >= width.
    """
    return _radial_bump(amplitude=amplitude, width=width)


def anisotropic_coefficients(a1=0.5, a2=0.0, angle=0.0, width=0.5):
    """A = I + b Q diag(a1, a2) Q^T with b the radial bump, Q a fixed rotation."""
    return _radial_bump(a1=a1, a2=a2, angle=angle, width=width)


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


def boundary_normal(obstacle: Obstacle, x):
    """Outward Euclidean unit normal at a point on the obstacle curve (within
    1e-6 in signed distance)."""
    x = np.asarray(x, dtype=float)
    d = signed_distance(obstacle, x)
    if np.any(np.abs(d) > 1e-6):
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


def validate_configuration(coeffs: CoefficientField, obstacle: Optional[Obstacle],
                           geom: TruncationGeometry):
    """Dense-sample check of the structural invariants of a configuration, on
    the disk of radius 2 R; returns the failures as (invariant name, sample
    point or None) pairs, none when the configuration passes.

    Checks, in order: exact identity coefficients outside both R1 and the
    declared ``support_radius`` (beyond which the ray tracer flies straight),
    quadratic-form bounds and symmetry of A inside, nu bounds, the values the
    gradient callables write (bit for bit those of eval_nu and eval_A),
    obstacle smoothness/periodicity, and obstacle containment in the support
    disk.
    Smoothness of the curve and non-degenerate tangency are documented
    preconditions, not decidable here.
    """
    failures = []
    r_max = 2.0 * geom.R

    th = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    # outside the support radius: exactly Euclidean
    for r in np.linspace(min(geom.R1, coeffs.support_radius) * 1.000001, r_max, 8):
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        dev = np.maximum(np.abs(coeffs.eval_A(pts) - np.eye(2)).max(axis=(-2, -1)),
                         np.abs(coeffs.eval_nu(pts) - 1.0))
        if dev.max() != 0.0:
            failures.append(("coefficient support violation", pts[int(np.argmax(dev))]))
            break

    # inside: bounds and symmetry
    rr = np.linspace(0.0, r_max, 24)
    grid = np.stack(
        [rr[:, None] * np.cos(th)[None, :], rr[:, None] * np.sin(th)[None, :]], axis=-1
    ).reshape(-1, 2)
    A = coeffs.eval_A(grid)
    nu = coeffs.eval_nu(grid)
    asym = np.abs(A[..., 0, 1] - A[..., 1, 0]).max()
    if asym > 1e-12:
        failures.append(("A not symmetric", grid[int(np.argmax(np.abs(A[..., 0, 1] - A[..., 1, 0])))]))
    # half the eigenvalue gap as a hypot: sqrt((tr/2)^2 - det) cancels where
    # the two eigenvalues nearly coincide
    mean = (A[..., 0, 0] + A[..., 1, 1]) / 2
    disc = np.hypot((A[..., 0, 0] - A[..., 1, 1]) / 2, A[..., 0, 1])
    lam_lo, lam_hi = mean - disc, mean + disc
    tol = 1e-10
    if np.any(lam_lo < coeffs.A_min - tol) or np.any(lam_hi > coeffs.A_max + tol):
        i = int(np.argmax(np.maximum(coeffs.A_min - lam_lo, lam_hi - coeffs.A_max)))
        failures.append(("A eigenvalue bounds violated", grid[i]))
    if np.any(nu < coeffs.nu_min - tol) or np.any(nu > coeffs.nu_max + tol):
        i = int(np.argmax(np.maximum(coeffs.nu_min - nu, nu - coeffs.nu_max)))
        failures.append(("nu bounds violated", grid[i]))
    # the values the gradient callables write, which the ray tracer reads in
    # place of eval_nu and eval_A; it makes no A call where A is pinned to I
    written = [("nu", coeffs.eval_grad_nu, nu)]
    if not coeffs.A_min == coeffs.A_max == 1.0:
        written.append(("A", coeffs.eval_grad_A, A))
    for name, grad, value in written:
        out = np.empty(value.shape)
        grad(grid, out)
        off = (out != value).reshape(len(grid), -1).any(axis=1)
        if off.any():
            failures.append((f"{name} written by eval_grad_{name} differs from eval_{name}",
                             grid[int(np.argmax(off))]))

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

    return failures


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
