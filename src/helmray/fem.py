"""P1 Galerkin discretization of the truncated exterior problem.

The sesquilinear form is
    a(u, v) = int_D (A grad u . conj(grad v) - k^2 nu u conj(v)) - <T (u|_G), v|_G>
with T the modal radiation operator on the outer circle G.  Obstacle vertices
carry homogeneous Dirichlet constraints.  One sparse trace operator P
(``modal_projection``) maps dofs to the m = 2 n_max + 1 Fourier modes on G.
The radiation operator C P, with C = 2 pi R P^H diag(t), is never formed:
the system operator K0 - C P (K0 = S - k^2 M_nu) is applied as K0 u - C (P u).

The solver follows the mesh.  On a star annulus (n_theta vertices on each of
its rings) K0 couples neighbouring rings and angles only; for a centred disk
with radial coefficients K0 - C P is block-circulant in angle with tridiagonal
coupling between rings, since P is the boundary DFT and the radiation term is
one scalar per angular frequency.  Its angle-averaged stencil (T. Chan's
optimal circulant, SIAM J. Sci. Stat. Comput. 9, 1988) is solved by an FFT in
angle and one tridiagonal solve per frequency (Hockney, J. ACM 12, 1965) with
LAPACK's ``?gttrf`` (:class:`TridiagonalLU`).  A solve starts from the
circulant solve and checks its residual on the true operator: columns above
1e-12 take one refinement step, and only those still above it go to GMRES,
preconditioned by the circulant solve.  An invariant system, circulant to
rounding, needs no GMRES iteration.  The same class factors the plain mass
matrix; the resolvent estimate solves with it where the mesh is invariant in
angle (a centred disk annulus).  A disk fan has no such layout:
its modes mu = P u become unknowns of the sparse bordered system
    [[K0, -C], [P, -I_m]] [u; mu] = [b; 0]
(Keller & Givoli, J. Comput. Phys. 82, 1989), factored by SuperLU in a
geometric nested-dissection order with the mode rows last.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .dtn import DtnOperator, incident_wave_data
from .geometry import CoefficientField
from .mesh import Mesh, OBSTACLE_BOUNDARY, TRUNCATION_BOUNDARY
from .util import triangle_rule


class SolveError(Exception):
    pass


class SingularSystemError(SolveError):
    """The discrete system failed to factorize; discrete uniqueness is not
    guaranteed below the mesh threshold, so this is surfaced as data."""


class FactorizationMemoryError(MemoryError):
    """SuperLU ran out of memory; a limit of the host, not of the system."""


@dataclass
class FeSpace:
    mesh: Mesh
    dirichlet_outer: bool = False
    dof_of_vertex: np.ndarray = None
    free_vertices: np.ndarray = None
    boundary_dofs: np.ndarray = None      # outer-circle dofs in angular order
    boundary_thetas: np.ndarray = None

    @property
    def n_dofs(self):
        return len(self.free_vertices)


def build_space(mesh: Mesh, dirichlet_outer: bool = False) -> FeSpace:
    constrained = mesh.vertex_tags == OBSTACLE_BOUNDARY
    if dirichlet_outer:
        constrained = constrained | (mesh.vertex_tags == TRUNCATION_BOUNDARY)
    free = np.nonzero(~constrained)[0]
    dof_of_vertex = np.full(mesh.n_vertices, -1, dtype=int)
    dof_of_vertex[free] = np.arange(len(free))
    if dirichlet_outer:
        bdofs = np.array([], dtype=int)
        bthetas = np.array([])
    else:
        bdofs = dof_of_vertex[mesh.boundary_indices]
        bthetas = mesh.boundary_thetas
    return FeSpace(mesh=mesh, dirichlet_outer=dirichlet_outer,
                   dof_of_vertex=dof_of_vertex, free_vertices=free,
                   boundary_dofs=bdofs, boundary_thetas=bthetas)


# ---------------------------------------------------------------------------
# element geometry and quadrature


def element_gradients(mesh: Mesh):
    """Constant P1 basis gradients per element: (M, 3, 2), plus areas (M,)."""
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    g0 = -(g1 + g2)
    return np.stack([g0, g1, g2], axis=1), area


def quadrature(mesh: Mesh, degree=4):
    """Physical quadrature points (M, Q, 2), absolute weights (M, Q), bary (Q, 3)."""
    bary, w = triangle_rule(degree)
    p = mesh.vertices[mesh.triangles]          # (M, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return bary @ p, area[:, None] * w, bary


# ---------------------------------------------------------------------------
# assembly


_LEAF = 16     # parts this small are not cut: 16 filled least among 4..256 on disk.ini


def _dissection_order(xy, graph) -> np.ndarray:
    """Geometric nested-dissection elimination order of the vertices of a mesh graph.

    Level by level, every part larger than ``_LEAF`` is cut at the median of
    its vertices along its longer bounding-box side; the upper endpoints of
    the graph edges the cut crosses form the part's separator, and the two
    halves left go on to the next level.  Leaves come first, then the
    separators from the deepest level up, so every separator follows the
    halves it splits (A. George, SIAM J. Numer. Anal. 10, 1973).
    """
    n = len(xy)
    edges = sp.triu(graph, k=1).tocoo()
    a, b = edges.row, edges.col
    part = np.ones(n, dtype=np.int64)      # heap numbering: part p splits into 2p, 2p + 1
    tier = np.full(n, -1, dtype=np.int64)  # depth of the separator joined; -1 while unplaced
    upper = np.zeros(n, dtype=bool)
    live = np.arange(n)                    # unplaced vertices, sorted by part
    depth = 0
    while live.size:
        p = part[live]
        start = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        size = np.diff(np.r_[start, live.size])
        grp = np.repeat(np.arange(start.size), size)
        xl = xy[live]
        lo = np.minimum.reduceat(xl, start)
        extent = np.maximum.reduceat(xl, start) - lo
        ax = np.argmax(extent, axis=1)
        g = np.arange(start.size)
        lo, span = lo[g, ax], 2 * extent[g, ax] + 1e-300
        # offsets along the longer side scaled into [0, 1/2]: one sort orders by
        # part, then along the cut axis, so lower halves precede upper ones
        off = (xl[np.arange(live.size), ax[grp]] - lo[grp]) / span[grp]
        live = live[np.argsort(grp + off, kind="stable")]
        upper[live] = np.arange(live.size) - start[grp] >= (size // 2)[grp]
        tier[live[(size <= _LEAF)[grp]]] = 64    # above any depth: leaves go first
        inside = (part[a] == part[b]) & (tier[a] < 0) & (tier[b] < 0)
        a, b = a[inside], b[inside]
        cut = upper[a] != upper[b]
        tier[np.where(upper[a[cut]], a[cut], b[cut])] = depth
        live = live[tier[live] < 0]
        part[live] = 2 * part[live] + upper[live]
        depth += 1
    return np.lexsort((part, -tier))


def _splu(matrix) -> spla.SuperLU:
    """SuperLU of ``matrix`` as ordered; a failure raises a typed error."""
    try:
        return spla.splu(matrix.tocsc(), permc_spec="NATURAL")
    except RuntimeError as exc:   # SuperLU reports malloc failures so too
        oom = "malloc" in str(exc).lower() or "memory" in str(exc).lower()
        raise (FactorizationMemoryError if oom else SingularSystemError)(str(exc)) from exc


class TridiagonalLU:
    """LAPACK ``?gttrf`` factors of the tridiagonal matrix with bands
    ``(lower, main, upper)``.  ``solve(b, trans)`` runs ``?gttrs`` under
    SuperLU's contract: ``trans`` "N", "T" or "H", ``b`` a vector or the
    columns of a matrix, and a real factor rejects a complex ``b``."""

    def __init__(self, lower, main, upper):
        gttrf, self._gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"), (lower, main, upper))
        *self._factors, info = gttrf(lower, main, upper)
        if info > 0:
            raise SingularSystemError(
                f"tridiagonal factorization has an exact zero pivot in row {info - 1}")
        self.dtype = self._factors[1].dtype

    @property
    def nnz(self):
        """Entries the factors store: the bands dl, d, du and du2."""
        return sum(f.size for f in self._factors[:4])

    def solve(self, b, trans="N"):
        b = np.asarray(b).astype(self.dtype, casting="safe", copy=False)
        x, _ = self._gttrs(*self._factors, b, trans={"H": "C"}.get(trans, trans))
        return x


class TridiagonalLDL:
    """LAPACK ``?pttrf`` factors L D L^T of the real symmetric positive
    definite tridiagonal matrix with bands ``(main, off)``: no pivoting, half
    the work of :class:`TridiagonalLU` per solve.  ``solve(b, trans)`` keeps
    that class's contract; every ``trans`` is the same solve."""

    def __init__(self, main, off):
        pttrf, self._pttrs = lapack.get_lapack_funcs(("pttrf", "pttrs"), (main, off))
        *self._factors, info = pttrf(main, off)
        if info > 0:
            raise SingularSystemError(
                f"tridiagonal matrix is not positive definite: nonpositive pivot in row {info - 1}")
        self.dtype = self._factors[0].dtype

    def solve(self, b, trans="N"):
        b = np.asarray(b).astype(self.dtype, casting="safe", copy=False)
        x, _ = self._pttrs(*self._factors, b)
        return x


@dataclass(frozen=True)
class Factorization:
    """Sparse LU of a system matrix; solves take and return dof vectors.

    ``solve`` pads the right-hand side with zeros on the mode rows of the
    bordered matrix and drops the modes from the result.  The padding is exact
    for every ``trans``: the second block row of B^T (B^H) gives
    mu = -C^T x (-C^H x), so x solves (K0 - C P)^T x = b ((K0 - C P)^H x = b).
    """
    lu: spla.SuperLU
    perm: np.ndarray       # elimination order of the rows and columns of the matrix
    n_dofs: int
    solver = "lu"
    iterations = 0         # a direct solve: no GMRES iterations

    @property
    def nnz(self):
        return self.lu.nnz

    def solve(self, b, trans="N"):
        b = np.asarray(b)
        pad = np.zeros((len(self.perm),) + b.shape[1:], dtype=complex)
        pad[:self.n_dofs] = b
        x = np.empty_like(pad)
        x[self.perm] = self.lu.solve(pad[self.perm], trans=trans)
        return x[:self.n_dofs]


def dissection_lu(system: "GalerkinSystem") -> Factorization:
    """LU of ``system.matrix`` in nested-dissection order of the dofs, modes last:
    the solver of disk fans, and the oracle of the angular one."""
    space = system.fe_space
    order = _dissection_order(space.mesh.vertices[space.free_vertices], system.stiffness)
    perm = np.concatenate([order, np.arange(space.n_dofs, system.matrix.shape[0])])
    return Factorization(lu=_splu(system.matrix[perm][:, perm]), perm=perm, n_dofs=space.n_dofs)


_GMRES_RTOL, _GMRES_RESTART, _GMRES_CYCLES = 1e-12, 50, 4
CERTIFIED_RTOL = 1e-10     # relative residual a solve must reach
# largest gap between the entries of a matrix and its angle-averaged stencil,
# relative to its largest entry, that still counts as rounding: the mass of a
# centred disk annulus reaches 2.4e-13 at 301,940 dofs, that of a star
# annulus 0.14 or more, since its diagonals flip with the angle
_INVARIANT_RTOL = 1e-10


class AngularFactorization:
    """Solver of a ring-structured real matrix on a star annulus: the system's
    K0 with its DtN closure, or the plain mass matrix with none (the resolvent
    estimate's mass solve where the matrix is ``invariant``).

    Dof l * n_theta + i sits on free ring l at angle 2 pi i / n_theta.  The
    stencil of the matrix between rings l and l + dl at angular offset di,
    averaged over i, gives the symbol T_f[l, l + dl] = sum_di s[l, dl, di]
    w^(f di), w = e^(2 pi i / n_theta); the DtN closure adds -2 pi R t_n /
    n_theta on the outer ring at frequency f = n mod n_theta.  The n_theta
    tridiagonal blocks are factored as one frequency-major tridiagonal matrix,
    and ``precondition`` is the circulant solve with them.  ``invariant``
    records whether the matrix equals its angle-averaged stencil to rounding,
    as on a centred disk, where the circulant solve is exact.

    ``solve`` checks every column against ``apply(u, trans)``, the true
    operator (the matrix itself unless given): x = precondition(b) and one
    refinement step x += precondition(b - apply(x)) where the residual is
    above 1e-12 |b|, then GMRES from x on the columns still above it.
    ``iterations`` holds the GMRES iterations of the last ``solve``.
    """
    solver = "angular"

    def __init__(self, matrix: sp.csr_matrix, n_theta: int,
                 dtn: Optional[DtnOperator] = None, apply: Optional[Callable] = None):
        K = matrix
        n_rings = K.shape[0] // n_theta
        ring, i = np.divmod(np.repeat(np.arange(K.shape[0], dtype=K.indices.dtype),
                                      np.diff(K.indptr)), n_theta)
        ring_c, i_c = np.divmod(K.indices, n_theta)
        dl, di = ring_c - ring + 1, (i_c - i + 1) % n_theta    # 0, 1, 2 for -1, 0, 1
        slot = (ring * 3 + dl) * 3 + di
        stencil = np.bincount(slot, weights=K.data, minlength=9 * n_rings) / n_theta
        self.invariant = bool(np.max(np.abs(K.data - stencil[slot]), initial=0.0)
                              <= _INVARIANT_RTOL * np.max(np.abs(K.data), initial=0.0))
        symbol = stencil.reshape(n_rings, 3, 3) @ np.exp(
            2j * np.pi / n_theta * np.outer([-1, 0, 1], np.arange(n_theta)))
        if dtn is not None:
            n = np.arange(-dtn.n_max, dtn.n_max + 1)
            np.add.at(symbol[-1, 1], n % n_theta, -2.0 * np.pi * dtn.R * dtn.coefficients / n_theta)
        # frequency-major unknowns f * n_rings + l; the entries that would couple
        # neighbouring blocks (below ring 0, above the last ring) are zero
        lower, diag, upper = (symbol[:, d].T.ravel() for d in range(3))
        self.lu = TridiagonalLU(lower[1:], diag, upper[:-1])
        self._apply = apply or (lambda u, trans="N": (K.T if trans == "H" else K) @ u)
        self.n_theta, self.n_rings = n_theta, n_rings
        self.iterations = 0

    @property
    def nnz(self):
        return self.lu.nnz

    def precondition(self, b, trans="N"):
        """The circulant solve with b; with its conjugate transpose for trans="H"."""
        bh = np.fft.fft(b.reshape(self.n_rings, self.n_theta, -1), axis=1)
        x = self.lu.solve(bh.transpose(1, 0, 2).reshape(len(b), -1), trans=trans)
        x = x.reshape(self.n_theta, self.n_rings, -1).transpose(1, 0, 2)
        return np.fft.ifft(x, axis=1).reshape(b.shape)

    def solve(self, b, trans="N"):
        """x with A x = b (or its transpose, or conjugate transpose), column by
        column, for the true operator A.

        GMRES aims at a relative residual of 1e-12.  That lies below the
        rounding floor of fine meshes with mass-weighted loads (a source load
        at 301,940 dofs: 1.5e-12, where the LU reaches 3.0e-12), so a solve
        that stalls above it stands if its residual is within the certificate
        ``CERTIFIED_RTOL`` of ``solve``, and raises ``SolveError`` otherwise.
        """
        b = np.asarray(b, dtype=complex)
        if trans == "T":
            return np.conj(self.solve(np.conj(b), "H"))
        n = len(b)
        B = b.reshape(n, -1)
        target = _GMRES_RTOL * np.linalg.norm(B, axis=0)
        x = self.precondition(B, trans)
        r = B - self._apply(x, trans)
        todo = np.flatnonzero(np.linalg.norm(r, axis=0) > target)
        if todo.size:
            x[:, todo] += self.precondition(r[:, todo], trans)
            res = np.linalg.norm(B[:, todo] - self._apply(x[:, todo], trans), axis=0)
            todo = todo[res > target[todo]]
        self.iterations = 0
        A = spla.LinearOperator((n, n), lambda u: self._apply(u, trans), dtype=complex)
        M = spla.LinearOperator((n, n), lambda u: self.precondition(u, trans), dtype=complex)
        for j in todo:
            steps = []
            x[:, j], info = spla.gmres(A, B[:, j], x0=x[:, j], M=M,
                                       rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
                                       maxiter=_GMRES_CYCLES, callback=steps.append,
                                       callback_type="pr_norm")
            self.iterations += len(steps)
            if info:    # stalled: at the rounding floor, or not converged
                r = self._apply(x[:, j], trans) - B[:, j]
                res = np.linalg.norm(r) / np.linalg.norm(B[:, j])
                if res > CERTIFIED_RTOL:
                    raise SolveError(f"GMRES stopped at relative residual {res:.3e} "
                                     f"after {len(steps)} iterations")
        return x.reshape(b.shape)


@dataclass
class GalerkinSystem:
    fe_space: FeSpace
    coeffs: CoefficientField
    dtn: Optional[DtnOperator]
    k: float
    stiffness: sp.csr_matrix
    mass_nu: sp.csr_matrix
    mass_plain: sp.csr_matrix
    dtn_block: Optional[sp.csr_matrix]    # C = 2 pi R P^H diag(t), n_dofs x m
    projection: Optional[sp.csr_matrix]   # P, m x n_dofs: radiation operator is C @ P
    _operator: Optional[sp.csr_matrix] = field(default=None, repr=False)
    _matrix: Optional[sp.csr_matrix] = field(default=None, repr=False)
    _factorization = None

    @property
    def operator(self):
        """The real K0 = S - k^2 M_nu."""
        if self._operator is None:
            self._operator = (self.stiffness - (self.k**2) * self.mass_nu).tocsr()
        return self._operator

    @property
    def matrix(self):
        """Bordered [[K0, -C], [P, -I_m]] on (u, mu = P u); K0 alone without dtn."""
        if self._matrix is None:
            K = self.operator.astype(complex)
            if self.dtn_block is not None:
                m = self.projection.shape[0]
                K = sp.bmat([[K, -self.dtn_block], [self.projection, -sp.identity(m)]])
            self._matrix = K.tocsr()
        return self._matrix

    def apply(self, u, trans="N"):
        """(K0 - C P) u, or (K0 - C P)^H u for trans="H"."""
        u = np.asarray(u)
        if trans == "H":
            out = self.operator.T @ u
            if self.dtn_block is not None:
                out = out - np.conj(self.projection.T @ (self.dtn_block.T @ np.conj(u)))
            return out
        out = self.operator @ u
        if self.dtn_block is not None:
            out = out - self.dtn_block @ (self.projection @ u)
        return out

    def factorize(self):
        """The angular solver on a star annulus, the nested-dissection LU on a
        disk fan; either has ``solve(b, trans)`` on dof vectors and ``nnz``."""
        if self._factorization is None:
            n_theta = self.fe_space.mesh.n_theta
            self._factorization = (
                AngularFactorization(self.operator, n_theta, self.dtn, self.apply)
                if n_theta else dissection_lu(self))
        return self._factorization

    def energy_matrix(self):
        """Real SPD Gram of the k-weighted norm: stiffness + k^2 nu-mass."""
        return (self.stiffness + (self.k**2) * self.mass_nu).tocsr()

    def action(self, u, v):
        """a(u, v) for dof vectors: trial u, test v (conjugated slot)."""
        return complex(np.vdot(v, self.apply(u)))


def _shared_csr(rows, cols, shape, *values):
    """One CSR matrix of ``shape`` per real value array, holding the sums of its
    values over the entries (rows, cols) broadcast to its shape; entries with a
    negative row or column are left out.

    The sorted unique keys and the slot of every entry are found once, each
    value array is summed into the slots by ``np.bincount``, and the matrices
    share ``indptr`` and ``indices`` (Cuvelier, Japhet & Scarella, BIT 2016).
    """
    rows, cols = np.broadcast_arrays(rows, cols)
    keep = (rows >= 0) & (cols >= 0)
    keys, slot = np.unique(rows[keep].astype(np.int64) * shape[1] + cols[keep],
                           return_inverse=True)
    # the index type scipy would pick, so that no matrix copies the pattern
    idx = np.int32 if max(len(keys), *shape) < np.iinfo(np.int32).max else np.int64
    indices = (keys % shape[1]).astype(idx)
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1]).astype(idx)
    return [sp.csr_matrix((np.bincount(slot, weights=v[keep], minlength=len(keys)),
                           indices, indptr), shape=shape) for v in values]


def assemble(coeffs: CoefficientField, fe_space: FeSpace,
             dtn: Optional[DtnOperator], k: float, quad_degree=4) -> GalerkinSystem:
    """Assemble stiffness, masses, and the radiation factors C and P."""
    mesh = fe_space.mesh
    grads, _ = element_gradients(mesh)
    pts, wts, bary = quadrature(mesh, quad_degree)

    flat = pts.reshape(-1, 2)
    A_q = coeffs.eval_A(flat).reshape(pts.shape[0], pts.shape[1], 2, 2)
    nu_q = coeffs.eval_nu(flat).reshape(pts.shape[:2])

    A_bar = np.einsum("mq,mqab->mab", wts, A_q)
    S_loc = grads @ A_bar @ grads.transpose(0, 2, 1)
    phi_phi = (bary[:, :, None] * bary[:, None, :]).reshape(len(bary), 9)   # (Q, 9)
    Mnu_loc = ((wts * nu_q) @ phi_phi).reshape(-1, 3, 3)
    M0_loc = (wts @ phi_phi).reshape(-1, 3, 3)

    tri_dofs = fe_space.dof_of_vertex[mesh.triangles]
    n = fe_space.n_dofs
    S, Mnu, M0 = _shared_csr(tri_dofs[:, :, None], tri_dofs[:, None, :], (n, n),
                             S_loc, Mnu_loc, M0_loc)

    C = P = None
    if dtn is not None:
        if fe_space.dirichlet_outer:
            raise ValueError("radiation block incompatible with outer Dirichlet")
        if abs(dtn.k - k) > 1e-12:
            raise ValueError(f"operator wavenumber {dtn.k} != {k}")
        P = modal_projection(fe_space, dtn.n_max)
        C = ((2.0 * np.pi * dtn.R) * (P.conj().T @ sp.diags(dtn.coefficients))).tocsr()

    return GalerkinSystem(fe_space=fe_space, coeffs=coeffs, dtn=dtn, k=k,
                          stiffness=S, mass_nu=Mnu, mass_plain=M0,
                          dtn_block=C, projection=P)


def modal_projection(fe_space: FeSpace, n_max: int) -> sp.csr_matrix:
    """Sparse (2 n_max + 1, n_dofs) map from dof vectors to boundary Fourier modes.

    Row n (for n = -n_max..n_max) holds e^{-i n theta_b} / N_b in the
    outer-circle dof columns: the trapezoidal projection on the uniformly
    spaced boundary vertices.
    """
    th = fe_space.boundary_thetas
    Nb = len(th)
    if Nb < 2 * n_max + 5:
        raise ValueError(f"{Nb} boundary vertices cannot resolve {n_max} modes")
    gaps = np.diff(np.sort(th % (2 * np.pi)))
    if np.max(np.abs(gaps - 2 * np.pi / Nb)) > 1e-8:
        raise ValueError("boundary vertices are not uniformly spaced in angle")
    n = np.arange(-n_max, n_max + 1)
    vals = np.exp(-1j * np.outer(n, th)) / Nb
    rows, cols = np.repeat(n + n_max, Nb), np.tile(fe_space.boundary_dofs, len(n))
    return sp.csr_matrix((vals.ravel(), (rows, cols)), shape=(len(n), fe_space.n_dofs))


# ---------------------------------------------------------------------------
# loads


def assemble_load_source(fe_space: FeSpace, f: Callable, quad_degree=4,
                         support_radius=None):
    """Right-hand side F(v) = int f conj(v) for a callable source."""
    mesh = fe_space.mesh
    pts, wts, bary = quadrature(mesh, quad_degree)
    fv = np.asarray(f(pts.reshape(-1, 2)), dtype=complex).reshape(pts.shape[:2])
    if support_radius is not None:
        r = np.hypot(pts[..., 0], pts[..., 1])
        tail = np.abs(fv[r > support_radius])
        if tail.size and tail.max() > 1e-12 * max(np.abs(fv).max(), 1e-300):
            warnings.warn("source is not supported inside the stated radius")
    loc = np.einsum("mq,mq,qi->mi", wts, fv, bary)
    tri_dofs = fe_space.dof_of_vertex[mesh.triangles]
    rhs = np.zeros(fe_space.n_dofs, dtype=complex)
    keep = tri_dofs >= 0
    np.add.at(rhs, tri_dofs[keep], loc[keep])
    return rhs


def assemble_load_scattering(fe_space: FeSpace, dtn: DtnOperator, direction):
    """Boundary data load for plane-wave scattering off the Dirichlet obstacle."""
    data = incident_wave_data(dtn, direction)
    P = modal_projection(fe_space, dtn.n_max)
    return (2.0 * np.pi * dtn.R) * (P.conj().T @ data)


# ---------------------------------------------------------------------------
# solves


@dataclass
class DiscreteSolution:
    dofs: np.ndarray
    fe_space: FeSpace
    k: float
    residual: float = 0.0
    iterations: int = 0       # GMRES iterations of the solve; 0 for the LU

    def vertex_values(self):
        out = np.zeros(self.fe_space.mesh.n_vertices, dtype=complex)
        out[self.fe_space.free_vertices] = self.dofs
        return out

    def evaluate(self, points):
        return self.fe_space.mesh.interpolate(self.vertex_values(), points)


def solve(system: GalerkinSystem, rhs, rtol=CERTIFIED_RTOL) -> DiscreteSolution:
    """Solve with a residual certificate."""
    b = np.asarray(rhs, dtype=complex)
    lu = system.factorize()
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    bn = np.linalg.norm(b)
    res = float(np.linalg.norm(system.apply(x) - b) / bn) if bn > 0 else 0.0
    if res > rtol:
        raise SolveError(f"relative residual {res:.3e} exceeds {rtol:g}")
    return DiscreteSolution(dofs=x, fe_space=system.fe_space, k=system.k, residual=res,
                            iterations=lu.iterations)


def solve_adjoint(system: GalerkinSystem, f: Union[Callable, np.ndarray]) -> DiscreteSolution:
    """Solution of the adjoint problem with L^2 data f.

    Realized as the conjugate of the direct solve with source conj(f): the
    adjoint solution operator satisfies S* f = conj(S conj(f)).
    """
    if callable(f):
        load = assemble_load_source(system.fe_space, lambda x: np.conj(f(x)))
    else:
        load = system.mass_plain @ np.conj(np.asarray(f, dtype=complex))
    u = solve(system, load)
    return DiscreteSolution(dofs=np.conj(u.dofs), fe_space=system.fe_space,
                            k=system.k, residual=u.residual, iterations=u.iterations)


# ---------------------------------------------------------------------------
# norms, errors, interpolation


def energy_norm(system: GalerkinSystem, u) -> float:
    """k-weighted norm (|A^{1/2} grad u|^2 + k^2 |nu^{1/2} u|^2)^{1/2} from the
    Gram matrix of the system."""
    dofs = u.dofs if isinstance(u, DiscreteSolution) else np.asarray(u)
    return float(np.sqrt(max(np.real(np.vdot(dofs, system.energy_matrix() @ dofs)), 0.0)))


def _fe_values(fe_space, dofs, quad_degree=4):
    """FE function values (..., M, Q) and (constant) gradients (..., M, Q, 2) at
    the quadrature points, for dof vectors stacked on the last axis of ``dofs``."""
    mesh = fe_space.mesh
    grads, _ = element_gradients(mesh)
    pts, wts, bary = quadrature(mesh, quad_degree)
    vv = np.zeros(np.shape(dofs)[:-1] + (mesh.n_vertices,), dtype=complex)
    vv[..., fe_space.free_vertices] = dofs
    nodal = vv[..., mesh.triangles]                  # (..., M, 3)
    vals = np.einsum("qj,...mj->...mq", bary, nodal)
    grad = np.einsum("...mj,mja->...ma", nodal, grads)     # per element
    grads_q = np.repeat(grad[..., None, :], pts.shape[1], axis=-2)
    return vals, grads_q, pts, wts


def errors_vs_exact(coeffs: CoefficientField, fe_space: FeSpace, us, exact, k: float):
    """One (energy, L2) pair per dof vector (or DiscreteSolution) in ``us``: the
    norms (|A^{1/2} grad e|^2 + k^2 |nu^{1/2} e|^2)^{1/2} and |e|_{L2} of
    e = u - u_ex, where ``exact(points)`` returns (u_ex, grad u_ex), or of
    e = u for ``exact=None``.

    The degree-4 rule, the coefficients and the reference are evaluated once
    for all vectors.
    """
    dofs = np.stack([u.dofs if isinstance(u, DiscreteSolution) else np.asarray(u)
                     for u in us])
    vals, grads_q, pts, wts = _fe_values(fe_space, dofs)
    flat = pts.reshape(-1, 2)
    A_q = coeffs.eval_A(flat).reshape(pts.shape[:2] + (2, 2))
    nu_q = coeffs.eval_nu(flat).reshape(pts.shape[:2])
    ev = eg = 0.0
    if exact is not None:
        ev, eg = exact(flat)
        ev = np.asarray(ev, dtype=complex).reshape(pts.shape[:2])
        eg = np.asarray(eg, dtype=complex).reshape(pts.shape[:2] + (2,))
    out = []
    for dv, dg in zip(vals - ev, grads_q - eg):
        gAg = np.einsum("mqa,mqab,mqb->mq", np.conj(dg), A_q, dg).real
        energy = np.sqrt(np.sum(wts * (gAg + k**2 * nu_q * np.abs(dv) ** 2)))
        out.append((float(energy), float(np.sqrt(np.sum(wts * np.abs(dv) ** 2)))))
    return out


def l2_norm_exact(fe_space: FeSpace, fn, quad_degree=4):
    """L2 norm of a scalar or vector-valued callable (values on the last axis)."""
    pts, wts, _ = quadrature(fe_space.mesh, quad_degree)
    v = np.asarray(fn(pts.reshape(-1, 2))).reshape(pts.shape[:2] + (-1,))
    return float(np.sqrt(np.sum(wts * np.sum(np.abs(v) ** 2, axis=-1))))


def nodal_interpolant(fe_space: FeSpace, v):
    """Dof vector of the vertex interpolant of a callable."""
    mesh = fe_space.mesh
    vals = np.asarray(v(mesh.vertices), dtype=complex)
    return vals[fe_space.free_vertices]


def recovered_hessian_h2_norm(fe_space: FeSpace, u, within_radius=None):
    """Discrete full H^2 norm via nodal gradient recovery.

    The piecewise gradient is averaged to vertices (area weights), then
    differentiated again per element; optionally restricted to elements whose
    centroid lies inside the given radius.
    """
    mesh = fe_space.mesh
    dofs = u.dofs if isinstance(u, DiscreteSolution) else np.asarray(u)
    vals, grads_q, _, wts = _fe_values(fe_space, dofs, 2)
    grad_K = grads_q[:, 0]                           # (M, 2)
    grads, area = element_gradients(mesh)

    wsum = np.zeros(mesh.n_vertices)
    gsum = np.zeros((mesh.n_vertices, 2), dtype=complex)
    for loc in range(3):
        idx = mesh.triangles[:, loc]
        np.add.at(wsum, idx, area)
        np.add.at(gsum, idx, area[:, None] * grad_K)
    grad_nodal = gsum / wsum[:, None]

    hess = np.einsum("mjb,mja->mab", grad_nodal[mesh.triangles], grads)
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))

    sel = np.ones(len(area), dtype=bool)
    if within_radius is not None:
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        sel = np.hypot(cent[:, 0], cent[:, 1]) <= within_radius
    hnorm2 = (np.abs(hess[:, 0, 0]) ** 2 + np.abs(hess[:, 0, 1]) ** 2
              + np.abs(hess[:, 1, 1]) ** 2)
    total = (np.sum(wts[sel] * np.abs(vals[sel]) ** 2)
             + np.sum(area[sel] * np.sum(np.abs(grad_K[sel]) ** 2, axis=-1))
             + np.sum(area[sel] * hnorm2[sel]))
    return float(np.sqrt(total))

