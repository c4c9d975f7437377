"""Reference computations that the package replaced by closed forms; the tests
check the closed forms against them."""

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from helmray.dtn import build_dtn
from helmray.fem import assemble, build_space, modal_projection
from helmray.geometry import TruncationGeometry, identity_coefficients
from helmray.mesh import generate_mesh
from helmray.util import solve_real


def estimate_C_DtN_tilde(R, k_values, h=0.05):
    """Exact discrete norm of the radiation pairing in unweighted k-norms.

    For each k, the largest singular value of E^{-1/2} D E^{-1/2}, with
    E = stiffness + k^2 mass (identity weights) and D = P^H (2 pi R diag(t)) P
    the radiation block, equals that of C^H (2 pi R diag(t)) C, where
    C C^H = P E^{-1} P^H (Cholesky of the small modal Gram).  Returns the max over k.
    """
    geom = TruncationGeometry(R1=0.9 * R, R=R, R_ray=3.0 * R)
    space = build_space(generate_mesh(None, geom, h))
    system = assemble(identity_coefficients(), space, None, 0.0)
    worst = 0.0
    for k in k_values:
        dtn = build_dtn(k, R)
        E = (system.stiffness + k**2 * system.mass_plain).tocsc()
        P = modal_projection(space, dtn.n_max)
        W = P @ solve_real(spla.splu(E), P.conj().T.toarray())
        C = np.linalg.cholesky(0.5 * (W + W.conj().T))      # W = C C^H
        core = C.conj().T @ ((2.0 * np.pi * R) * dtn.coefficients[:, None] * C)
        worst = max(worst, float(scipy.linalg.svdvals(core)[0]))
    return worst
