"""Closed-form reference fields: sound-soft disk scattering and point sources.

These are the oracle side of the validation pairs.  They evaluate the field
values from scipy's cylinder functions, while the radiation closure in
``dtn`` carries only the ratios H_n'/H_n.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.special import hankel1, jv


def _mie_orders(ka):
    return int(np.ceil(ka)) + max(18, int(np.ceil(6.0 * ka ** (1.0 / 3.0))))


def soft_disk_total_field(k, a, direction):
    """Total field of a plane wave on a sound-soft disk: ``(value, field)``
    callables; ``value`` sums the value series alone, ``field`` also the gradient's.

    u = u_inc + u_scat with u = 0 on r = a; the scattered part is the outgoing
    modal series with coefficients -i^n J_n(ka)/H_n(ka).  Folding the +-n pairs
    gives u_scat = -q_0 H_0(kr) - 2 sum_{n>=1} q_n H_n(kr) cos(n psi) with
    q_n = i^n J_n(ka)/H_n(ka) and psi = theta - phi_d; the orders are generated
    by the (stable upward) two-term recurrence from scipy-seeded H_0, H_1.
    """
    d = np.asarray(direction, float)
    d = d / np.hypot(d[0], d[1])
    phi_d = np.arctan2(d[1], d[0])
    n_terms = _mie_orders(k * a)
    ns = np.arange(0, n_terms + 1)
    qn = (1j) ** ns * jv(ns, k * a) / hankel1(ns, k * a)

    def series(points, gradient):
        pts = np.atleast_2d(np.asarray(points, float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        psi = th - phi_d
        kr = k * r
        h_prev = hankel1(0, kr)
        h_cur = hankel1(1, kr)
        uinc = np.exp(1j * k * (pts @ d))
        val = uinc - qn[0] * h_prev
        dr = -k * qn[0] * (-h_cur)          # H_0' = -H_1
        dth = 0.0
        for n in range(1, n_terms + 1):
            cosn = np.cos(n * psi)
            val = val - 2.0 * qn[n] * h_cur * cosn
            if gradient:
                hp = h_prev - (n / kr) * h_cur  # H_n'
                dr = dr - 2.0 * k * qn[n] * hp * cosn
                dth = dth + 2.0 * qn[n] * h_cur * n * np.sin(n * psi)
            h_prev, h_cur = h_cur, (2.0 * n / kr) * h_cur - h_prev
        if not gradient:
            return val
        ginc = 1j * k * d[None, :] * uinc[:, None]
        rhat = np.stack([np.cos(th), np.sin(th)], axis=1)
        that = np.stack([-np.sin(th), np.cos(th)], axis=1)
        return val, ginc + dr[:, None] * rhat + (dth / r)[:, None] * that

    return partial(series, gradient=False), partial(series, gradient=True)
