"""Exact radiation boundary operator on the truncation circle, in Fourier modes.

Outgoing solutions of the constant-coefficient Helmholtz equation outside the
circle of radius R expand in modes H_n(kr) e^{i n theta}, so the map from
Dirichlet to Neumann data is diagonal with coefficients
t_n = k H_n'(kR) / H_n(kR).  Every coefficient has nonpositive real part, which
is what makes the truncated variational problem satisfy a Garding inequality.

Boundary modes are plain (2 n_max + 1,) arrays, mode n at index n + n_max, as
``fem.modal_projection`` produces them; ``build_dtn`` and ``incident_wave_data``
use the same layout, and ``fem`` pairs them, <T g, h> = 2 pi R sum t_n g_n conj(h_n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1, jv, jvp

from .util import require_positive


def _hankel_ratio_sweep(n_max: int, z: float) -> np.ndarray:
    """H_n^{(1)'}(z) / H_n^{(1)}(z) for n = 0..n_max in one forward sweep.

    The ratio q_n = H_n / H_{n-1} obeys q_{n+1} = 2n/z - 1/q_n, seeded from
    scipy's H_0 and H_1, and H_n'/H_n = 1/q_n - n/z.  Only the ratio is
    carried, so the sweep stays finite deep into the evanescent regime n >> z
    where H_n itself overflows; forward recurrence is stable there because
    H_n is the dominant solution.  ``z`` is taken as a Python float, so that
    a numpy scalar does not switch ``1 / q`` to numpy's complex division.
    """
    z = float(z)
    if z <= 0.0:
        raise ValueError("argument must be positive")
    q = complex(hankel1(1, z) / hankel1(0, z))
    out = np.empty(n_max + 1, dtype=complex)
    out[0] = -q  # H_0' = -H_1
    for n in range(1, n_max + 1):
        out[n] = 1.0 / q - n / z
        q = 2.0 * n / z - 1.0 / q
    return out


def hankel_ratio(n: int, z: float) -> complex:
    """H_n^{(1)'}(z) / H_n^{(1)}(z) for integer order, even-in-n."""
    m = abs(int(n))  # H_{-n} equals H_n up to a constant phase, which cancels
    return complex(_hankel_ratio_sweep(m, z)[m])


def default_n_max(k: float, R: float) -> int:
    """Modal truncation: past n = kR the modes are evanescent; the cube-root
    margin covers the transition zone."""
    kr = k * R
    return int(np.ceil(kr)) + max(16, int(np.ceil(4.0 * kr ** (1.0 / 3.0))))


@dataclass(frozen=True)
class DtnOperator:
    """Diagonal modal representation of the radiation map on the circle r = R."""

    k: float
    R: float
    n_max: int
    coefficients: np.ndarray  # t_n for n = -n_max..n_max, index n + n_max

    @property
    def orders(self):
        return np.arange(-self.n_max, self.n_max + 1)


def build_dtn(k: float, R: float, n_max: int | None = None) -> DtnOperator:
    """Assemble the modal coefficients t_n = k H_n'(kR)/H_n(kR), n = -n_max..n_max."""
    require_positive("k", k)
    require_positive("R", R)
    if n_max is None:
        n_max = default_n_max(k, R)
    n_min_req = int(np.ceil(k * R))
    if n_max < n_min_req:
        raise ValueError(f"n_max={n_max} below the propagating range ceil(kR)={n_min_req}")
    half = k * _hankel_ratio_sweep(n_max, k * R)
    coeffs = np.concatenate([half[:0:-1], half])
    return DtnOperator(k=k, R=R, n_max=n_max, coefficients=coeffs)


def incident_wave_data(op: DtnOperator, direction) -> np.ndarray:
    """Modal coefficients of (d u_inc / dr - T u_inc) on the circle for a plane wave.

    The plane wave e^{i k x . d} expands as sum_n i^n J_n(kr) e^{i n (theta - phi_d)},
    so mode n of the data is i^n e^{-i n phi_d} (k J_n'(kR) - t_n J_n(kR)).
    """
    d = np.asarray(direction, dtype=float)
    if not abs(np.hypot(d[0], d[1]) - 1.0) <= 1e-12:     # NaN fails too
        raise ValueError(f"direction = {d}: expected a finite unit vector")
    phi = np.arctan2(d[1], d[0])
    k, R = op.k, op.R
    n = op.orders
    jn, jp = jv(n, k * R), jvp(n, k * R)
    return (1j) ** n * np.exp(-1j * n * phi) * (k * jp - op.coefficients * jn)
