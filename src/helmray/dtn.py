"""Exact radiation boundary operator on the truncation circle, in Fourier modes.

Outgoing solutions of the constant-coefficient Helmholtz equation outside the
circle of radius R expand in modes H_n(kr) e^{i n theta}, so the map from
Dirichlet to Neumann data is diagonal with coefficients
t_n = k H_n'(kR) / H_n(kR).  Every coefficient has nonpositive real part, which
is what makes the truncated variational problem satisfy a Garding inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1, jv, jvp


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

    def t(self, n):
        return self.coefficients[np.asarray(n) + self.n_max]

    @property
    def orders(self):
        return np.arange(-self.n_max, self.n_max + 1)


@dataclass(frozen=True)
class FourierTrace:
    """Trace on the circle r = R stored as Fourier coefficients g_n, |n| <= n_max."""

    coefficients: np.ndarray  # index n + n_max
    R: float

    @property
    def n_max(self):
        return (len(self.coefficients) - 1) // 2

    @classmethod
    def from_samples(cls, values, R):
        """Coefficients from uniformly spaced samples over the full circle.

        Trapezoidal projection; spectrally accurate for smooth traces.  Keeps
        modes below the Nyquist limit of the sample count.
        """
        values = np.asarray(values, dtype=complex)
        N = len(values)
        fft = np.fft.fft(values) / N
        n_max = (N - 1) // 2
        coeffs = np.concatenate([fft[-n_max:], fft[: n_max + 1]])
        return cls(coefficients=coeffs, R=R)

    def truncated(self, n_max):
        m = self.n_max
        if n_max > m:
            pad = np.zeros(n_max - m, dtype=complex)
            return FourierTrace(np.concatenate([pad, self.coefficients, pad]), self.R)
        c = self.coefficients[m - n_max : m + n_max + 1]
        return FourierTrace(c.copy(), self.R)

    def evaluate(self, theta):
        theta = np.asarray(theta, dtype=float)
        n = np.arange(-self.n_max, self.n_max + 1)
        return np.tensordot(np.exp(1j * np.outer(theta, n)), self.coefficients, axes=(1, 0))


def build_dtn(k: float, R: float, n_max: int | None = None) -> DtnOperator:
    """Assemble the modal coefficients t_n = k H_n'(kR)/H_n(kR), n = -n_max..n_max."""
    if k * R <= 0.0:
        raise ValueError("need kR > 0")
    if n_max is None:
        n_max = default_n_max(k, R)
    n_min_req = int(np.ceil(k * R))
    if n_max < n_min_req:
        raise ValueError(f"n_max={n_max} below the propagating range ceil(kR)={n_min_req}")
    half = k * _hankel_ratio_sweep(n_max, k * R)
    coeffs = np.concatenate([half[:0:-1], half])
    return DtnOperator(k=k, R=R, n_max=n_max, coefficients=coeffs)


def apply_dtn(op: DtnOperator, g: FourierTrace) -> FourierTrace:
    """Diagonal action: (T g)_n = t_n g_n."""
    if g.R != op.R:
        raise ValueError("trace radius does not match the operator")
    gg = g.truncated(op.n_max)
    return FourierTrace(op.coefficients * gg.coefficients, op.R)


def dtn_pairing(op: DtnOperator, g: FourierTrace, h: FourierTrace) -> complex:
    """<T g, h> on the circle = 2 pi R sum_n t_n g_n conj(h_n)."""
    if g.R != op.R or h.R != op.R:
        raise ValueError("trace radius does not match the operator")
    gg = g.truncated(op.n_max).coefficients
    hh = h.truncated(op.n_max).coefficients
    return complex(2.0 * np.pi * op.R * np.sum(op.coefficients * gg * np.conj(hh)))


def incident_wave_data(op: DtnOperator, direction) -> FourierTrace:
    """Modal coefficients of (d u_inc / dr - T u_inc) on the circle for a plane wave.

    The plane wave e^{i k x . d} expands as sum_n i^n J_n(kr) e^{i n (theta - phi_d)},
    so mode n of the data is i^n e^{-i n phi_d} (k J_n'(kR) - t_n J_n(kR)).
    """
    d = np.asarray(direction, dtype=float)
    if abs(np.hypot(d[0], d[1]) - 1.0) > 1e-12:
        raise ValueError("incidence direction must be a unit vector")
    phi = np.arctan2(d[1], d[0])
    k, R = op.k, op.R
    n = op.orders
    jn, jp = jv(n, k * R), jvp(n, k * R)
    coeffs = (1j) ** n * np.exp(-1j * n * phi) * (k * jp - op.coefficients * jn)
    return FourierTrace(coefficients=coeffs, R=R)
