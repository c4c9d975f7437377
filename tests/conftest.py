import os
import sys

# One BLAS thread, as the benchmark workers run: with two threads on a busy
# 2-vCPU host, multi-column SuperLU solves took ten times as long.  The
# variables are read when numpy loads, so they are set before it is imported;
# a variable already in the environment wins.
NUMPY_LOADED_BEFORE_BLAS_PIN = "numpy" in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from helmray.geometry import (TruncationGeometry, disk_obstacle,  # noqa: E402
                              identity_coefficients, nu_bump_coefficients)


@pytest.fixture(scope="session")
def ident():
    return identity_coefficients()


@pytest.fixture(scope="session")
def nu_bump():
    # the shipped refractive-bump preset: nu_max = 2, support radius 0.5
    return nu_bump_coefficients(amplitude=1.0, width=0.5)


@pytest.fixture(scope="session")
def unit_ball_geom():
    return TruncationGeometry(R1=0.5, R=1.0, R_ray=1.25)


@pytest.fixture(scope="session")
def half_disk():
    return disk_obstacle(0.5)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def interpolate(mesh, vertex_values, points):
    """The P1 interpolant of nodal data on ``mesh`` at arbitrary points."""
    tri_idx, bary = mesh.locate(points)
    vals = np.asarray(vertex_values)[mesh.triangles[tri_idx]]
    return np.einsum("pj,pj...->p...", bary, vals)
