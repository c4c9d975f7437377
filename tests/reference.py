"""Reference computations that the package replaced by closed forms or leaner
kernels; the tests check the package against them."""

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from helmray.dtn import build_dtn
from helmray.fem import assemble, build_space, modal_projection
from helmray.geometry import TruncationGeometry, identity_coefficients
from helmray.mesh import generate_mesh
from helmray.util import bump, solve_real


def estimate_C_DtN_tilde(R, k_values, h=0.05):
    """Exact discrete norm of the radiation pairing in unweighted k-norms.

    For each k, the largest singular value of E^{-1/2} D E^{-1/2}, with
    E = stiffness + k^2 mass (identity weights) and D = P^H (2 pi R diag(t)) P
    the radiation block, equals that of C^H (2 pi R diag(t)) C, where
    C C^H = P E^{-1} P^H (Cholesky of the small modal Gram).  Returns the max over k.
    """
    geom = TruncationGeometry(R1=0.9 * R, R=R)
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


def bump_and_deriv(rho):
    """The bump exp(1 - 1/(1 - rho^2)) and its derivative by masked division:
    1/(1 - rho^2) is +inf and the derivative's quotient 0 off the open support.
    The floored kernel of ``geometry._bump_grad`` replaced this."""
    rho = np.asarray(rho, dtype=float)
    t = 1.0 - rho * rho
    b = np.exp(1.0 - np.divide(1.0, t, out=np.full(t.shape, np.inf), where=t > 0.0))
    return b, b * np.divide(-2.0 * rho, t * t, out=np.zeros(t.shape), where=t > 0.0)


def bump_deriv(rho):
    return bump_and_deriv(rho)[1]


def bump_grad(x, w, scale=1.0):
    """b = bump(|x| / w) and the gradient of scale * b in x, 0 at the origin by
    a mask on |x| > 0: the chain rule through the derivative of the bump and
    x / |x|, an independent derivation of what ``geometry._bump_grad``
    computes."""
    r = np.hypot(x[..., 0], x[..., 1])
    b, db = bump_and_deriv(r / w)
    db = scale * db / w
    return b, np.divide(db, r, out=np.zeros(r.shape), where=r > 0.0)[..., None] * x


def masked_bump_grad(x, w, scale=1.0):
    """b = bump(|x| / w) and the gradient of scale * b in x by the identity
    grad b(|x| / w) = -2 b x / (w^2 t^2), t = 1 - |x|^2 / w^2, in the operation
    order of ``geometry._bump_grad``, with a mask on t > 0 where the kernel
    floors t."""
    rho = np.hypot(x[..., 0], x[..., 1]) / w
    t = 1.0 - rho * rho
    b = bump(rho)
    f = np.divide(b, t * t, out=np.zeros(t.shape), where=t > 0.0)
    f *= -2.0 * scale / (w * w)
    return b, f[..., None] * x


def radial_bump_fields(x, w, amplitude=0.0, P=np.zeros((2, 2))):
    """nu, grad nu, A and grad A of the radial-bump presets, nu = 1 + amplitude b
    and A = I + b P with b = bump(|x| / w), from the masked kernel above."""
    b, grad_nu = masked_bump_grad(x, w, amplitude)
    grad_b = masked_bump_grad(x, w)[1]
    return (1.0 + amplitude * b, grad_nu, np.eye(2) + b[..., None, None] * P,
            P[:, :, None] * grad_b[..., None, None, :])
