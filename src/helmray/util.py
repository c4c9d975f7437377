"""Shared numerics: smooth bumps, quadrature rules, the Lanczos singular-value
estimate, deterministic RNG, artifact writers."""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
from scipy.linalg import lapack


def bump(rho):
    """C-infinity bump on [-1, 1]: exp(1 - 1/(1-rho^2)) inside, 0 outside, value 1 at 0.

    Off the open support the exponent is -inf, so the kernel raises no
    floating-point flag, not even underflow.
    """
    rho = np.asarray(rho, dtype=float)
    t = 1.0 - rho * rho
    return np.exp(1.0 - np.divide(1.0, t, out=np.full(t.shape, np.inf), where=t > 0.0))


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


# Symmetric Gauss rules on the reference triangle, given as (barycentric coords, weights
# summing to 1).  Degree 2: 3 points; degree 4: 6 points.
_TRI_DEG2 = (
    np.array(
        [
            [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
        ]
    ),
    np.full(3, 1.0 / 3.0),
)

_a1, _b1, _w1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
_a2, _b2, _w2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
_TRI_DEG4 = (
    np.array(
        [
            [_a1, _b1, _b1],
            [_b1, _a1, _b1],
            [_b1, _b1, _a1],
            [_a2, _b2, _b2],
            [_b2, _a2, _b2],
            [_b2, _b2, _a2],
        ]
    ),
    np.array([_w1, _w1, _w1, _w2, _w2, _w2]),
)


def triangle_rule(degree):
    """Barycentric points and unit weights for a symmetric triangle rule."""
    if degree <= 2:
        return _TRI_DEG2
    if degree <= 4:
        return _TRI_DEG4
    raise ValueError(f"no triangle rule of degree {degree}")


def gauss_legendre(n, a=0.0, b=1.0):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    xm, xr = 0.5 * (a + b), 0.5 * (b - a)
    return xm + xr * x, xr * w


def composite_gauss(f, a, b):
    """Composite Gauss-Legendre quadrature of ``f`` on [a, b]: 120 panels of 20 nodes."""
    edges = np.linspace(a, b, 121)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(20, lo, hi)
        total += float(np.sum(w * f(x)))
    return total


def require_positive(name, value):
    """Raise a ValueError naming ``name`` unless ``value`` is positive and finite."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} = {value}: expected a positive finite number")


def make_rng(seed):
    """Counter-based deterministic generator (Philox)."""
    return np.random.Generator(np.random.Philox(seed))


def solve_real(lu, b):
    """x = A^{-1} b for the LU of a real matrix A and a complex b, a vector or
    the columns of a matrix: the real and imaginary parts of b go as the
    columns of one real solve."""
    x = lu.solve(np.column_stack([b.real, b.imag]))
    m = x.shape[1] // 2
    out = np.empty((len(x), m), dtype=complex)
    out.real, out.imag = x[:, :m], x[:, m:]
    return out.reshape(b.shape)


def cutoff_normal(solve, mass_solve, M, B, ch):
    """Normal operator of T f = ch K^{-1} M (ch f).

    ``solve(b)`` is K^{-1} b for the complex symmetric system K, and
    ``mass_solve(b)`` is M^{-1} b for the real mass M and a complex b; both
    are handed temporaries, which they may overwrite.  The input norm is M,
    the output norm B, and the adjoint is taken in M, the inner product of
    :func:`power_sigma`.  Since K^T = K, the adjoint solve K^{-H} c is the
    conjugated forward solve conj(K^{-1} conj(c)).
    """
    def apply_normal(v):
        w = solve(M @ (ch * v))
        w *= ch
        c = B @ w
        c *= ch
        y = solve(np.conjugate(c, out=c))
        z = M @ np.conjugate(y, out=y)
        z *= ch
        return mass_solve(z)

    return apply_normal


_BASIS_ROWS = 17     # Lanczos vectors held before the basis doubles
_ROUNDING = 1e-12    # relative Ritz residual estimate below which it is checked


class LanczosBasis:
    """The start and the basis buffers of :func:`power_sigma` for the inner
    product of ``M`` and the start vector ``v0``: rows ``Q`` and
    ``MQc = conj(M Q)``, of which the first hold ``v0`` normalized in ``M``.

    A run writes rows from the second on and reads only rows it has written,
    so one basis serves any number of runs with the same ``M`` and ``v0``,
    each with the bits of a run on a fresh basis, and allocates no vector
    but those its operator makes.  A run that needs more rows doubles both
    buffers; later runs keep the larger ones.
    """

    def __init__(self, M, v0):
        v = np.asarray(v0, dtype=complex)
        Mv = M @ v
        self.M = M
        self.Q = np.empty((_BASIS_ROWS, len(v)), dtype=complex)
        self.MQc = np.empty_like(self.Q)
        _scaled(v, Mv, 1.0 / np.sqrt(np.vdot(v, Mv).real), self.Q[0], self.MQc[0])


def power_sigma(apply_normal, basis: LanczosBasis, rtol=1e-5, maxit=400):
    """Largest singular value from Lanczos on the normal operator in the M
    inner product <u, v> = u^H M v, started at the vector of ``basis``.

    ``apply_normal(v)`` must realize T*T v with the adjoint taken in that inner
    product, as a new array, which the iteration overwrites, and
    ``basis.M @ v`` the real symmetric positive definite M.  Every new
    Lanczos vector is orthogonalized against all earlier ones by two classical
    Gram-Schmidt passes (full reorthogonalization; C. Lanczos, J. Res. NBS 45,
    1950; C. C. Paige, IMA J. Appl. Math. 18, 1976), so the basis Q and
    conj(M Q) are kept: two complex vectors per iteration.  The largest Ritz
    value theta of the tridiagonal projection is sigma^2, and the iteration
    stops once its Ritz residual ||T*T y - theta y||_M is at most
    ``rtol * theta``, which bounds the distance from theta to an eigenvalue of
    T*T.  The estimate b |s| of that residual holds in exact arithmetic
    only: it keeps falling after the true residual stops at rounding, and can
    reach 0 (B. N. Parlett, The Symmetric Eigenvalue Problem, SIAM, 1998).
    Below 1e-12 theta the Ritz vector y is formed from Q and its residual
    computed with one more operator application.  Returns ``(sigma,
    iterations, converged, residual)``, with the residual relative to theta.
    The name is kept from the power iteration this replaced, under which the
    benchmark binds it.
    """
    M, Q, MQc = basis.M, basis.Q, basis.MQc
    alpha, beta = np.zeros(maxit), np.zeros(maxit)
    for j in range(1, maxit + 1):
        w, a = apply_normal(Q[j - 1]), 0.0
        for _ in range(2):
            c = MQc[:j] @ w
            w -= c @ Q[:j]
            a += c[j - 1].real
        alpha[j - 1] = a
        Mw = M @ w
        b = np.sqrt(max(np.vdot(w, Mw).real, 0.0))
        # beta[j - 1] is still 0 here: dstev wants one off-diagonal entry at j = 1
        theta, s, _ = lapack.dstev(alpha[:j], beta[:max(j - 1, 1)])
        theta = max(theta[-1], 0.0)
        resid = b * abs(s[-1, -1])
        if resid < _ROUNDING * theta:   # the estimate claims less than rounding allows
            y = s[:, -1] @ Q[:j]
            r = apply_normal(y) - theta * y
            resid = np.sqrt(np.vdot(r, M @ r).real)
        converged = resid <= rtol * theta or b == 0.0
        if converged or j == maxit:
            break
        if j == len(Q):
            Q, MQc = (np.concatenate([X, np.empty_like(X)]) for X in (Q, MQc))
            basis.Q, basis.MQc = Q, MQc
        beta[j - 1] = b
        _scaled(w, Mw, 1.0 / b, Q[j], MQc[j])
    relative = resid / theta if theta > 0.0 else (0.0 if resid == 0.0 else np.inf)
    return float(np.sqrt(theta)), j, bool(converged), float(relative)


def _scaled(q, Mq, inv, q_row, Mq_conj_row):
    """Basis rows q * inv and conj(Mq) * inv, written in place.  numpy divides
    a complex array by a real scalar as by a complex one, by multiplying with
    the reciprocal, so the product gives the quotient's bits at a quarter of
    its cost; conjugating in place leaves no temporary for conj(Mq)."""
    np.multiply(q, inv, out=q_row)
    np.multiply(Mq, inv, out=Mq_conj_row)
    np.conjugate(Mq_conj_row, out=Mq_conj_row)


_CSV_ROWS = 16384    # rows converted to Python values at a time


def write_csv(path, header, columns):
    """RFC-4180 CSV of equal-length columns (ndarrays or lists), one row per
    index, converted to Python values ``_CSV_ROWS`` rows at a time.  Floats are
    written in their shortest round-trip form, ``None`` as an empty cell and
    bools as ``True``/``False``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(0, max(map(len, columns), default=0), _CSV_ROWS):
            w.writerows(zip(*(c[i:i + _CSV_ROWS].tolist() if isinstance(c, np.ndarray)
                              else c[i:i + _CSV_ROWS] for c in columns), strict=True))


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def json_default(obj):
    """``default`` of every JSON encoding: numpy scalars and arrays as Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")
