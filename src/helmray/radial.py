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
product (``util.power_sigma``).

The mass M, its factor (``fem.TridiagonalLDL``, ``?pttrf``) and the seeded
start vector depend only on the number of free nodes, so the sweep builds one
workspace per layout (:func:`mode_workspace`): two when r_inner = 0 (mode 0
keeps the axis node), one otherwise.  The modes of a layout are consecutive
in n, so the sweep holds one workspace at a time.  Its M is one object of
the quadrature, shared by every mode of the layout, so its bands are cast to
complex once; its ``util.LanczosBasis`` holds the start rows, normalized
once, and the basis buffers that every mode's Lanczos run writes in turn.  A
mode's solves take temporaries they may overwrite (``overwrite`` of the
``fem`` factors), and the mass solve takes the complex vector as one
right-hand side.  A lone :func:`mode_cutoff_norm` call with a fresh
workspace gives the bits of the sweep.

For s = 0 the sweep solves only the modes that can carry the maximum.  Let
c_n = min_q (n^2 a_q / x_q^2 - k^2 nu_q) over the Gauss points x_q of the
quadrature, and kappa_chi = max_e lambda_max(D_e M_e D_e, M_e) over the
r dr mass blocks M_e of the elements, with D_e the diagonal of chi at the
element's two nodes (:func:`cutoff_constant`).  Where c_n > 0,
||chi K_n^{-1} M chi||_{M->M} <= kappa_chi / c_n under three hypotheses:

* a > 0 at the Gauss points, so the stiffness band S is positive
  semidefinite and n^2 C - k^2 Mnu >= c_n M0 point by point;
* Re t_n <= 0, the sign of the radiation coefficient, so the boundary term
  -R t_n |u(R)|^2 has a nonnegative real part; with the two above,
  Re u^H K_n u >= c_n u^H M u and ||K_n^{-1} M||_{M->M} <= 1 / c_n;
* the output norm is the mass (s = 0) and chi is real, so
  ||chi||^2_{M->M} <= kappa_chi: both (chi u)^H M (chi u) and u^H M u are
  sums of element forms, and each element's ratio is at most its
  eigenvalue (A. Wathen, IMA J. Numer. Anal. 7, 1987).  kappa_chi is at
  most kappa max|chi|^2, kappa (4 on the axis element, about 3 elsewhere)
  being the factor that lumping the mass costs; on a smooth cutoff it
  exceeds max|chi|^2 only by the change of chi across an element (by
  7e-10 on euclid.ini's cutoff at k = 20).

c_n > 0 reads n/k > max_r r sqrt(nu/a): the mode has more angular momentum
than any ray in the ball carries, so it is classically forbidden everywhere
(J. Ralston, Comm. Pure Appl. Math. 24, 1971).  The sweep takes no bound
below n = floor(k max r sqrt(nu/a)), one mode short of the first that can
have c_n > 0, so that rounding cannot move it.  A Lanczos estimate is a
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
from .util import LanczosBasis, cutoff_normal, power_sigma

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
    M: Tridiagonal            # plain r dr mass on free nodes, shared by the layout
    B: Tridiagonal            # output Gram on free nodes: M (s = 0) or the energy Gram (s = 1)
    free: np.ndarray

    def lu(self):
        return TridiagonalLU(self.K.off, self.K.main, self.K.off)

    def lu_mass(self):
        return TridiagonalLDL(self.M.main, self.M.off)


@dataclass(frozen=True)
class RadialQuadrature:
    """The mode-independent part of every radial mode on one grid.

    ``S``, ``C`` and ``Mnu`` are the (main, off) bands of int a u' v' r dr,
    int a u v / r dr and int nu u v r dr on all nodes of ``grid``.  The plain
    mass int u v r dr is kept as its element blocks [[m00, m01], [m01, m11]]
    and as the two matrices a mode can take: ``mass[0]`` on all nodes,
    ``mass[1]`` without the first.
    """

    R: float
    r_inner: float
    grid: np.ndarray
    S: tuple
    C: tuple
    Mnu: tuple
    mass_blocks: tuple      # (m00, m01, m11), one entry per element
    mass: tuple             # (Tridiagonal on all nodes, Tridiagonal without the first)
    a_x2: np.ndarray        # a / x^2 at the Gauss points x, shape (3, n_r)
    nu_q: np.ndarray        # nu at the Gauss points


def radial_quadrature(R, n_r, r_inner=0.0, a_of_r=None, nu_of_r=None) -> RadialQuadrature:
    """Three-point Gauss quadrature of the P1 bands on ``n_r`` equal elements
    of [r_inner, R], with a(r) and nu(r) evaluated once."""
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

    m_el = blocks(w * x)
    main, off = _bands(*m_el)
    s_el = np.sum(w * a_q * x, axis=0) / hs**2
    return RadialQuadrature(R=R, r_inner=r_inner, grid=r, S=_bands(s_el, -s_el, s_el),
                            C=_bands(*blocks(w * a_q / x)), Mnu=_bands(*blocks(w * nu_q * x)),
                            mass_blocks=m_el,
                            mass=(Tridiagonal(main, off), Tridiagonal(main[1:], off[1:])),
                            a_x2=a_q / x**2, nu_q=nu_q)


def cutoff_constant(quad: RadialQuadrature, chi):
    """kappa_chi = max_e lambda_max(D_e M_e D_e, M_e) for real nodal values
    ``chi`` on ``quad.grid``, so that ||diag(chi)||^2_{M->M} <= kappa_chi on
    all nodes and on any subset of them (module docstring).

    On an element with values c0, c1, d = c0 - c1 and
    g = m00 m11 / (2 det M_e), det(D_e M_e D_e - lambda M_e) = 0 has the
    larger root c0 c1 + g d^2 + sqrt(g d^2 (g d^2 + 2 c0 c1)), its
    discriminant factored so that it vanishes exactly where c0 = c1, and
    the root is then c0^2."""
    m00, m01, m11 = quad.mass_blocks
    chi = np.asarray(chi, dtype=float)
    c0, c1 = chi[:-1], chi[1:]
    gd2 = m00 * m11 / (2.0 * (m00 * m11 - m01 * m01)) * (c0 - c1) ** 2
    return float(np.max(c0 * c1 + gd2 + np.sqrt(np.maximum(gd2 * (gd2 + 2.0 * c0 * c1), 0.0))))


def mode_norm_bound(n, k, quad: RadialQuadrature, kappa_chi):
    """Upper bound ``kappa_chi / c_n`` of the s = 0 norm of mode ``n``, with
    c_n = min_q (n^2 a_q / x_q^2 - k^2 nu_q) over the Gauss points and
    ``kappa_chi`` from :func:`cutoff_constant`; ``inf`` where c_n <= 0.
    Valid where a > 0 and Re t_n <= 0 (module docstring)."""
    c_n = np.min((n * n) * quad.a_x2 - (k * k) * quad.nu_q)
    return float(kappa_chi / c_n) if c_n > 0.0 else np.inf


def assemble_radial_mode(n, k, quad: RadialQuadrature, s=0) -> RadialMode:
    """P1 discretization of the mode-n operator with the radiation closure.

    Bilinear form: int (a u' v' + a n^2/r^2 u v - k^2 nu u v) r dr - R t_n u(R) v(R),
    with t_n = k H_n'(kR) / H_n(kR).
    Node r = r_inner is constrained when it is an obstacle boundary, and when
    n != 0 at the axis (modes with angular dependence vanish at r = 0).
    The mass ``M`` is ``quad.mass[first]``, one object for every mode with
    as many free nodes.  The output Gram ``B`` is ``M`` itself for s = 0 and
    the energy Gram int (a u' v' + a n^2/r^2 u v + k^2 nu u v) r dr for
    s = 1; no other s is defined.
    """
    if s not in (0, 1):
        raise ValueError(f"Sobolev index s = {s!r}: expected 0 or 1")
    t_n = k * hankel_ratio(n, k * quad.R)
    A = [st + n * n * c for st, c in zip(quad.S, quad.C)]
    K = [a.astype(complex) - (k * k) * m for a, m in zip(A, quad.Mnu)]
    K[0][-1] -= quad.R * t_n

    # the Dirichlet node r_inner drops out as the first row and column
    first = 1 if (quad.r_inner > 0.0) or (n != 0) else 0

    def matrix(bands):
        return Tridiagonal(bands[0][first:], bands[1][first:])

    M = quad.mass[first]
    B = M if s == 0 else matrix([a + (k * k) * m for a, m in zip(A, quad.Mnu)])
    return RadialMode(grid=quad.grid, K=matrix(K), M=M, B=B,
                      free=np.arange(first, len(quad.grid)))


def mode_workspace(mode: RadialMode, v0):
    """What every mode with as many free nodes as ``mode`` shares in
    :func:`mode_cutoff_norm`: the factor of their mass ``mode.M`` and the
    Lanczos basis of ``v0`` in it."""
    return mode.lu_mass(), LanczosBasis(mode.M, v0)


def mode_cutoff_norm(mode: RadialMode, chi_vals, workspace, rtol=1e-5, maxit=400):
    """Norm of f -> chi K^{-1} M (chi f) on the mode, by Lanczos on the normal
    operator in the mass inner product.

    Input norm is the plain radial mass; output norm is ``mode.B``.
    ``workspace`` is the :func:`mode_workspace` of a mode with the same
    ``M``.  Returns ``(sigma, iterations, converged, residual)`` from
    :func:`~helmray.util.power_sigma`, the residual being the relative Ritz
    residual.
    """
    lu_mass, basis = workspace
    apply_normal = cutoff_normal(partial(mode.lu().solve, overwrite=True),
                                 partial(lu_mass.solve, overwrite=True),
                                 mode.M, mode.B, chi_vals)
    return power_sigma(apply_normal, basis, rtol=rtol, maxit=maxit)


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
    screen = s == 0 and np.min(quad.a_x2) > 0.0
    if screen:
        kappa_chi = cutoff_constant(quad, chi_grid)
        # c_n <= 0 for n <= k max r sqrt(nu/a); one mode of margin below that
        n_bounded = int(k * np.sqrt(max(np.max(quad.nu_q / quad.a_x2), 0.0)))
    per_mode, screened, workspace, m = [], [], None, 0
    best, all_conv, residual = 0.0, True, 0.0
    for n in range(0, default_n_max(k, R) + 1):
        if screen and n >= n_bounded:
            bound = mode_norm_bound(n, k, quad, kappa_chi)
            if (bound * (1.0 + _SCREEN_MARGIN) < best
                    and (k * hankel_ratio(n, k * R)).real <= 0.0):
                screened.append((n, bound))
                continue
        mode = assemble_radial_mode(n, k, quad, s)
        if len(mode.free) != m:     # a new layout; the last one has no mode left
            m, rng = len(mode.free), np.random.default_rng(seed)
            workspace = mode_workspace(mode, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        sigma, iters, conv, resid = mode_cutoff_norm(mode, chi_grid[mode.free], workspace,
                                                     rtol=rtol)
        per_mode.append((n, sigma, iters, conv))
        all_conv, residual = all_conv and conv, max(residual, resid)
        best = max(best, sigma)
    return RadialScanResult(value=best, per_mode=per_mode, screened=screened, n_r=n_r,
                            converged=all_conv, residual=residual)
