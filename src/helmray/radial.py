"""Fourier-mode radial solver for rotationally symmetric configurations.

When A = a(r) I, nu = nu(r), the obstacle is a centered disk (or absent), and
the cutoff is radial, the cutoff solution operator block-diagonalizes over the
angular modes e^{i n theta}.  Each block is a one-dimensional problem on
[r_in, R] with weight r dr, closed by the mode's radiation coefficient t_n at
r = R.  This turns resolvent-norm estimation at large k from an intractable
2-D solve into a sweep of tridiagonal systems.

A scan computes the quadrature once (:func:`radial_quadrature`: the grid, the
mode-independent bands, one evaluation of a and nu); each mode then only
combines bands (:func:`assemble_radial_mode`; the energy Gram only for s = 1),
factors its complex system with ``fem.TridiagonalLU`` (LAPACK ``?gttrf``, as
the angular solver does), and estimates its norm by Lanczos in the mass inner
product (``util.power_sigma``).  The mass factor (``fem.TridiagonalLDL``,
``?pttrf``) and the seeded start vector depend only on the number of free
nodes, so the sweep keeps one record of both per layout: two when r_inner = 0
(mode 0 keeps the axis node), one otherwise.

For s = 0 the sweep solves only the modes that can carry the maximum.  Let
c_n = min_q (n^2 a_q / x_q^2 - k^2 nu_q) over the Gauss points x_q of the
quadrature, and kappa the largest ratio of the lumped to the consistent
r dr mass over the element blocks (4 on the axis element, about 3 elsewhere).
Where c_n > 0, ||chi K_n^{-1} M chi||_{M->M} <= kappa max|chi|^2 / c_n under
three hypotheses:

* a > 0 at the Gauss points, so the stiffness band S is positive
  semidefinite and n^2 C - k^2 Mnu >= c_n M0 point by point;
* Re t_n <= 0, the sign of the radiation coefficient, so the boundary term
  -R t_n |u(R)|^2 has a nonnegative real part; with the two above,
  Re u^H K_n u >= c_n u^H M u and ||K_n^{-1} M||_{M->M} <= 1 / c_n;
* the output norm is the mass (s = 0), in which chi M chi <= max|chi|^2
  lumped M <= kappa max|chi|^2 M, since the off-diagonal mass entries are
  nonnegative.

c_n > 0 reads n/k > max_r r sqrt(nu/a): the mode has more angular momentum
than any ray in the ball carries, so it is classically forbidden everywhere
(J. Ralston, Comm. Pure Appl. Math. 24, 1971).  A Lanczos estimate is a
lower bound of the true norm, so a mode whose bound lies below the largest
estimate so far cannot change the maximum; the sweep screens it with a
relative margin of 1e-6 for rounding and reports its bound instead of an
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .dtn import default_n_max, hankel_ratio
from .fem import TridiagonalLDL, TridiagonalLU
from .util import cutoff_normal, power_sigma, solve_real

_GP = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GW = np.array([5.0, 8.0, 5.0]) / 9.0


def _bands(d00, d01, d11):
    """Main and off diagonal of the tridiagonal matrix assembled from per-element
    2x2 blocks [[d00, d01], [d01, d11]]."""
    main = np.zeros(len(d00) + 1)
    main[:-1] += d00
    main[1:] += d11
    return main, d01


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix held as its bands: ``main`` and ``off``
    (symmetric, not Hermitian, when complex)."""

    main: np.ndarray
    off: np.ndarray

    @property
    def shape(self):
        return (len(self.main), len(self.main))

    @cached_property
    def _complex_bands(self):
        # cast once: a real band times a complex vector is cast on every product
        return self.main.astype(complex, copy=False), self.off.astype(complex, copy=False)

    def __matmul__(self, x):
        main, off = self._complex_bands if x.dtype.kind == "c" else (self.main, self.off)
        y = main * x
        y[:-1] += off * x[1:]
        y[1:] += off * x[:-1]
        return y


@dataclass
class RadialMode:
    grid: np.ndarray
    K: Tridiagonal            # complex system with the radiation closure
    M: Tridiagonal            # plain r dr mass on free nodes
    B: Tridiagonal            # output Gram on free nodes: M (s = 0) or the energy Gram (s = 1)
    free: np.ndarray

    def lu(self):
        return TridiagonalLU(self.K.off, self.K.main, self.K.off)

    def lu_mass(self):
        return TridiagonalLDL(self.M.main, self.M.off)


@dataclass(frozen=True)
class RadialQuadrature:
    """The mode-independent part of every radial mode on one grid.

    ``S``, ``C``, ``M0`` and ``Mnu`` are the (main, off) bands of
    int a u' v' r dr, int a u v / r dr, int u v r dr and int nu u v r dr on
    all nodes of ``grid``.
    """

    R: float
    r_inner: float
    grid: np.ndarray
    S: tuple
    C: tuple
    M0: tuple
    Mnu: tuple
    a_x2: np.ndarray        # a / x^2 at the Gauss points x, shape (3, n_r)
    nu_q: np.ndarray        # nu at the Gauss points
    kappa: float            # max over elements of 1 + b (a + c + 2 b) / (a c - b^2)


def radial_quadrature(R, n_r, r_inner=0.0, a_of_r=None, nu_of_r=None) -> RadialQuadrature:
    """Three-point Gauss quadrature of the P1 bands on ``n_r`` equal elements
    of [r_inner, R], with a(r) and nu(r) evaluated once.

    ``kappa`` is the largest eigenvalue of the lumped ``M0`` element block
    against the block [[a, b], [b, c]] itself, so that lumped M0 <= kappa M0:
    4 on the element at the axis, about 3 away from it."""
    r = np.linspace(r_inner, R, n_r + 1)
    r0, r1 = r[:-1], r[1:]
    hs = r1 - r0
    x = 0.5 * (r0 + r1)[None, :] + 0.5 * hs[None, :] * _GP[:, None]   # (3, n_r)
    w = 0.5 * hs[None, :] * _GW[:, None]
    phi0 = (r1[None, :] - x) / hs[None, :]
    phi1 = (x - r0[None, :]) / hs[None, :]
    a_q = np.ones_like(x) if a_of_r is None else a_of_r(x)
    nu_q = np.ones_like(x) if nu_of_r is None else nu_of_r(x)

    def blocks(wt):
        return (np.sum(wt * phi0 * phi0, 0), np.sum(wt * phi0 * phi1, 0),
                np.sum(wt * phi1 * phi1, 0))

    m00, m01, m11 = blocks(w * x)
    s_el = np.sum(w * a_q * x, axis=0) / hs**2
    return RadialQuadrature(R=R, r_inner=r_inner, grid=r, S=_bands(s_el, -s_el, s_el),
                            C=_bands(*blocks(w * a_q / x)), M0=_bands(m00, m01, m11),
                            Mnu=_bands(*blocks(w * nu_q * x)), a_x2=a_q / x**2, nu_q=nu_q,
                            kappa=float(np.max(1.0 + m01 * (m00 + m11 + 2.0 * m01)
                                               / (m00 * m11 - m01 * m01))))


def mode_norm_bound(n, k, quad: RadialQuadrature, chi_max):
    """Upper bound ``kappa chi_max^2 / c_n`` of the s = 0 norm of mode ``n``,
    with c_n = min_q (n^2 a_q / x_q^2 - k^2 nu_q) over the Gauss points;
    ``inf`` where c_n <= 0.  Valid where a > 0 and Re t_n <= 0 (module
    docstring)."""
    c_n = np.min((n * n) * quad.a_x2 - (k * k) * quad.nu_q)
    return float(quad.kappa * chi_max**2 / c_n) if c_n > 0.0 else np.inf


def assemble_radial_mode(n, k, quad: RadialQuadrature, s=0) -> RadialMode:
    """P1 discretization of the mode-n operator with the radiation closure.

    Bilinear form: int (a u' v' + a n^2/r^2 u v - k^2 nu u v) r dr - R t_n u(R) v(R),
    with t_n = k H_n'(kR) / H_n(kR).
    Node r = r_inner is constrained when it is an obstacle boundary, and when
    n != 0 at the axis (modes with angular dependence vanish at r = 0).
    The output Gram ``B`` is ``M`` itself for s = 0 and the energy Gram
    int (a u' v' + a n^2/r^2 u v + k^2 nu u v) r dr for s = 1.
    """
    t_n = k * hankel_ratio(n, k * quad.R)
    A = [st + n * n * c for st, c in zip(quad.S, quad.C)]
    K = [a.astype(complex) - (k * k) * m for a, m in zip(A, quad.Mnu)]
    K[0][-1] -= quad.R * t_n

    # the Dirichlet node r_inner drops out as the first row and column
    first = 1 if (quad.r_inner > 0.0) or (n != 0) else 0

    def matrix(bands):
        return Tridiagonal(bands[0][first:], bands[1][first:])

    M = matrix(quad.M0)
    B = M if s == 0 else matrix([a + (k * k) * m for a, m in zip(A, quad.Mnu)])
    return RadialMode(grid=quad.grid, K=matrix(K), M=M, B=B,
                      free=np.arange(first, len(quad.grid)))


def mode_cutoff_norm(mode: RadialMode, chi_vals, lu_mass, v0, rtol=1e-5, maxit=400):
    """Norm of f -> chi K^{-1} M (chi f) on the mode, by Lanczos on the normal
    operator in the mass inner product.

    Input norm is the plain radial mass; output norm is ``mode.B``.
    ``lu_mass`` is the factor of ``mode.M`` and ``v0`` the Lanczos start
    vector, both shared by every mode with as many free nodes.
    Returns ``(sigma, iterations, converged, residual)`` from
    :func:`~helmray.util.power_sigma`, the residual being the relative Ritz
    residual.
    """
    apply_normal = cutoff_normal(mode.lu(), partial(solve_real, lu_mass),
                                 mode.M, mode.B, chi_vals)
    return power_sigma(apply_normal, mode.M, v0, rtol=rtol, maxit=maxit)


_SCREEN_MARGIN = 1e-6      # relative rounding allowance of a screening decision


@dataclass
class RadialScanResult:
    value: float
    per_mode: list          # (n, sigma, iterations, converged) of the solved modes
    screened: list          # (n, bound) of the modes screened by mode_norm_bound
    n_r: int
    converged: bool
    residual: float         # largest relative Ritz residual over the solved modes


def radial_cutoff_resolvent_norm(k, R, h_r, chi: Callable, r_inner=0.0,
                                 a_of_r=None, nu_of_r=None, s=0, rtol=1e-5,
                                 seed=0) -> RadialScanResult:
    """Cutoff solution-operator norm as the max over angular modes n <= default_n_max(k, R).

    For s = 0 the modes whose :func:`mode_norm_bound` lies below the largest
    estimate so far are screened, not solved (module docstring); the bound
    falls with n and the estimate only grows, so they are the sweep's tail.
    """
    n_r = max(16, int(np.ceil((R - r_inner) / h_r)))
    quad = radial_quadrature(R, n_r, r_inner=r_inner, a_of_r=a_of_r, nu_of_r=nu_of_r)
    chi_grid = chi(quad.grid)
    chi_max = np.max(np.abs(chi_grid))
    screen = s == 0 and np.min(quad.a_x2) > 0.0
    per_mode, screened, layouts = [], [], {}   # free-node count -> (mass factor, v0)
    best, all_conv, residual = 0.0, True, 0.0
    for n in range(0, default_n_max(k, R) + 1):
        if screen:
            bound = mode_norm_bound(n, k, quad, chi_max)
            if (bound * (1.0 + _SCREEN_MARGIN) < best
                    and (k * hankel_ratio(n, k * R)).real <= 0.0):
                screened.append((n, bound))
                continue
        mode = assemble_radial_mode(n, k, quad, s)
        m = len(mode.free)
        if m not in layouts:
            rng = np.random.default_rng(seed)
            layouts[m] = mode.lu_mass(), rng.standard_normal(m) + 1j * rng.standard_normal(m)
        sigma, iters, conv, resid = mode_cutoff_norm(mode, chi_grid[mode.free], *layouts[m],
                                                     rtol=rtol)
        per_mode.append((n, sigma, iters, conv))
        all_conv, residual = all_conv and conv, max(residual, resid)
        best = max(best, sigma)
    return RadialScanResult(value=best, per_mode=per_mode, screened=screened, n_r=n_r,
                            converged=all_conv, residual=residual)
