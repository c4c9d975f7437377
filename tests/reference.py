"""Reference computations that the package replaced by closed forms or leaner
kernels, and oracles that no library code reads; the tests check the package
against them."""

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from helmray.dtn import build_dtn
from helmray.fem import assemble, build_space, modal_projection
from helmray.geometry import TruncationGeometry, identity_coefficients
from helmray.mesh import INTERIOR, TRUNCATION_BOUNDARY, generate_mesh
from helmray.raytrace import Termination, _segment_ball_exit
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


def volterra_discrete_norm(L, n=2000):
    """Largest singular value of the discretized cumulative-integration operator.

    Midpoint collocation: row i integrates up to t_i with trapezoid-style half
    weight on the diagonal.  Converges to 2L/pi as n grows.
    """
    dt = L / n
    V = np.tril(np.full((n, n), dt), -1) + np.eye(n) * (dt / 2.0)
    return float(scipy.linalg.svdvals(V)[0])


def time_in_ball(traj, R):
    """Last time the escaped trajectory ``traj`` is inside the closed ball
    B(0, R); 0 if never.

    The crossing instant in the bracketing sample pair is refined assuming a
    straight segment, exact when the coefficients are Euclidean for |x| >= R.
    """
    assert traj.termination is Termination.ESCAPED
    x = traj.states[:, :2]
    inside = np.nonzero(np.hypot(x[:, 0], x[:, 1]) <= R)[0]
    if not len(inside):
        return 0.0
    last = int(inside[-1])
    if last == len(x) - 1:
        return float(traj.times[-1])
    tau = float(_segment_ball_exit(x[last][None, :], x[last + 1][None, :], R)[0])
    return float(traj.times[last] + tau * (traj.times[last + 1] - traj.times[last]))


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


def cross2(a, b):
    """z component of the cross product of 2-vectors on the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def triangle_geometry(mesh):
    """(h_fem, shape_regularity, gradients, areas) of a mesh from whole-point
    gathers p = vertices[triangles], lengths by ``np.linalg.norm`` and the
    areas by ``cross2``: the formulas that the column-gather pass of
    ``mesh._orient_ccw``, ``mesh._quality`` and ``fem.element_gradients``
    replaced, to be matched bit for bit."""
    p = mesh.vertices[mesh.triangles]
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    b = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    det = cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    K = 0.5 * np.abs(det)
    circum = a * b * c / (4.0 * K)
    inr = 2.0 * K / (a + b + c)
    (x1, y1), (x2, y2) = (p[:, 1] - p[:, 0]).T, (p[:, 2] - p[:, 0]).T
    grads = np.empty((len(det), 3, 2))
    grads[:, 1, 0], grads[:, 1, 1] = y2 / det, -x2 / det
    grads[:, 2, 0], grads[:, 2, 1] = -y1 / det, x1 / det
    grads[:, 0] = -(grads[:, 1] + grads[:, 2])
    return float(np.max(2.0 * circum)), float(np.max(circum / inr)), grads, K


def zip_rings(idx_a, idx_b):
    """Triangulate the band between two uniform concentric vertex rings.

    Both rings start at angle zero with equal spacing; the sweep compares the
    next corner angles as exact integer fractions (i+1)/ma vs (j+1)/mb, so the
    pattern inherits every common discrete rotational symmetry of the counts
    instead of depending on floating-point ties.
    """
    ma, mb = len(idx_a), len(idx_b)
    tris = []
    i = j = 0
    while i < ma or j < mb:
        va = idx_a[i % ma]
        vb = idx_b[j % mb]
        if i < ma and (j >= mb or (i + 1) * mb <= (j + 1) * ma):
            tris.append((va, vb, idx_a[(i + 1) % ma]))
            i += 1
        else:
            tris.append((va, vb, idx_b[(j + 1) % mb]))
            j += 1
    return tris


def disk_fan(R, n_r):
    """The disk fan built ring by ring, one vertex tuple and one swept
    triangle at a time: the loop that the index arithmetic of
    ``mesh._disk_fan`` replaced, to be matched byte for byte."""
    verts = [(0.0, 0.0)]
    rings = [(np.array([0]), np.array([0.0]))]
    tags = [INTERIOR]
    for i in range(1, n_r + 1):
        m = 6 * i
        th = 2.0 * np.pi * np.arange(m) / m
        r = R * i / n_r
        start = len(verts)
        verts.extend(zip(r * np.cos(th), r * np.sin(th)))
        tags.extend([TRUNCATION_BOUNDARY if i == n_r else INTERIOR] * m)
        rings.append((np.arange(start, start + m), th))
    tris = []
    inner_idx, _ = rings[1]
    for j in range(6):
        tris.append((0, inner_idx[j], inner_idx[(j + 1) % 6]))
    for i in range(1, n_r):
        tris.extend(zip_rings(rings[i][0], rings[i + 1][0]))
    return np.array(verts), np.array(tris, dtype=int), np.array(tags), rings[-1]
