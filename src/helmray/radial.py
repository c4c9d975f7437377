"""Fourier-mode radial solver for rotationally symmetric configurations.

When A = a(r) I, nu = nu(r), the obstacle is a centered disk (or absent), and
the cutoff is radial, the cutoff solution operator block-diagonalizes over the
angular modes e^{i n theta}.  Each block is a one-dimensional problem on
[r_in, R] with weight r dr, closed by the mode's radiation coefficient t_n at
r = R.  This turns resolvent-norm estimation at large k from an intractable
2-D solve into a sweep of tridiagonal systems.

A scan computes the quadrature once (:func:`radial_quadrature`: the grid, the
mode-independent bands, one evaluation of a and nu); each mode then only
combines bands (:func:`assemble_radial_mode`), factors its complex system
with ``fem.TridiagonalLU`` (LAPACK ``?gttrf``, as the angular solver does) and
its real SPD mass with ``fem.TridiagonalLDL`` (``?pttrf``), and estimates its
norm by Lanczos in the mass inner product (``util.power_sigma``).  The seeded
Lanczos start vector depends only on the number of free nodes, so it is drawn
once per layout: twice when r_inner = 0 (mode 0 keeps the axis node), once
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
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
    E: Tridiagonal            # k-weighted energy Gram on free nodes
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

    def gram(wt):
        return _bands(np.sum(wt * phi0 * phi0, 0), np.sum(wt * phi0 * phi1, 0),
                      np.sum(wt * phi1 * phi1, 0))

    s_el = np.sum(w * a_q * x, axis=0) / hs**2
    return RadialQuadrature(R=R, r_inner=r_inner, grid=r, S=_bands(s_el, -s_el, s_el),
                            C=gram(w * a_q / np.maximum(x, 1e-300)), M0=gram(w * x),
                            Mnu=gram(w * nu_q * x))


def assemble_radial_mode(n, k, quad: RadialQuadrature) -> RadialMode:
    """P1 discretization of the mode-n operator with the radiation closure.

    Bilinear form: int (a u' v' + a n^2/r^2 u v - k^2 nu u v) r dr - R t_n u(R) v(R),
    with t_n = k H_n'(kR) / H_n(kR).
    Node r = r_inner is constrained when it is an obstacle boundary, and when
    n != 0 at the axis (modes with angular dependence vanish at r = 0).
    """
    t_n = k * hankel_ratio(n, k * quad.R)
    A = [s + n * n * c for s, c in zip(quad.S, quad.C)]
    K = [a.astype(complex) - (k * k) * m for a, m in zip(A, quad.Mnu)]
    K[0][-1] -= quad.R * t_n
    E = [a + (k * k) * m for a, m in zip(A, quad.Mnu)]

    # the Dirichlet node r_inner drops out as the first row and column
    first = 1 if (quad.r_inner > 0.0) or (n != 0) else 0

    def matrix(bands):
        return Tridiagonal(bands[0][first:], bands[1][first:])

    return RadialMode(grid=quad.grid, K=matrix(K), M=matrix(quad.M0),
                      E=matrix(E), free=np.arange(first, len(quad.grid)))


def mode_cutoff_norm(mode: RadialMode, chi_vals, s=0, rtol=1e-5, maxit=400, seed=0):
    """Norm of f -> chi K^{-1} M (chi f) on the mode, by Lanczos on the normal
    operator in the mass inner product.

    Input norm is the plain radial mass; output norm is the mass (s = 0) or the
    k-weighted energy Gram (s = 1).  Lanczos starts from the complex Gaussian
    vector of ``seed``, the same for every mode with as many free nodes.
    Returns ``(sigma, iterations, converged, residual)`` from
    :func:`~helmray.util.power_sigma`, the residual being the relative Ritz
    residual.
    """
    apply_normal = cutoff_normal(mode.lu(), partial(solve_real, mode.lu_mass()),
                                 mode.M, mode.M if s == 0 else mode.E, chi_vals)
    return power_sigma(apply_normal, mode.M, _start_vector(seed, mode.M.shape[0]),
                       rtol=rtol, maxit=maxit)


@lru_cache(maxsize=1)      # a scan runs its modes in order of n: layouts come in runs
def _start_vector(seed, n):
    """Read-only complex Gaussian vector of length ``n`` from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v0.flags.writeable = False
    return v0


@dataclass
class RadialScanResult:
    value: float
    per_mode: list          # (n, sigma, iterations, converged)
    n_r: int
    converged: bool
    residual: float         # largest relative Ritz residual over the modes


def radial_cutoff_resolvent_norm(k, R, h_r, chi: Callable, r_inner=0.0,
                                 a_of_r=None, nu_of_r=None, s=0, rtol=1e-5,
                                 seed=0) -> RadialScanResult:
    """Cutoff solution-operator norm as the max over angular modes n <= default_n_max(k, R)."""
    n_r = max(16, int(np.ceil((R - r_inner) / h_r)))
    quad = radial_quadrature(R, n_r, r_inner=r_inner, a_of_r=a_of_r, nu_of_r=nu_of_r)
    chi_grid = chi(quad.grid)
    per_mode = []
    best, all_conv, residual = 0.0, True, 0.0
    for n in range(0, default_n_max(k, R) + 1):
        mode = assemble_radial_mode(n, k, quad)
        sigma, iters, conv, resid = mode_cutoff_norm(mode, chi_grid[mode.free], s=s,
                                                     rtol=rtol, seed=seed)
        per_mode.append((n, sigma, iters, conv))
        all_conv, residual = all_conv and conv, max(residual, resid)
        best = max(best, sigma)
    return RadialScanResult(value=best, per_mode=per_mode, n_r=n_r, converged=all_conv,
                            residual=residual)

