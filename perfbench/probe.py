"""Host-speed probe: a fixed computation that uses no helmray code.

On a shared host the speed of a core drifts by 20-50 % over seconds to
minutes (other tenants on the same physical core and memory), and wall times
drift with it.  The untraced benchmark runs ``Probe.run`` right before every
timed operation and divides each operation's time by the mean of the probes
on either side of it; set-up times are divided by probes timed right after
set-up.  The probe mixes the kinds of work the workloads do:
interpreter loops, ufunc calls on small arrays (the ray tracer's RK4 steps)
and a sparse LU factorization (the FEM and radial solves).  It depends only
on Python, numpy and scipy, so a change to helmray cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class Probe:
    # ``run`` time on a quiet vCPU of the machine the baseline was measured on
    # (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4, scipy 1.17): the
    # unit in which ``wall_norm_s`` reads as seconds.
    nominal_s = 0.040

    def __init__(self, n=60, n_points=256):
        lap = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-n, -1, 0, 1, n], shape=(n * n, n * n))
        self.matrix = sp.csc_matrix(lap)
        self.points = np.random.default_rng(0).random((n_points, 2))

    def run(self):
        """Seconds taken by one fixed unit of work."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        y = self.points
        for _ in range(300):
            y = np.sin(y) * 0.5 + np.einsum("ij,ij->i", y, y)[:, None] * 1e-3
        for _ in range(3):
            spla.splu(self.matrix)
        return time.perf_counter() - t0
