"""P1 Galerkin discretization of the truncated exterior problem.

The sesquilinear form is
    a(u, v) = int_D (A grad u . conj(grad v) - k^2 nu u conj(v)) - <T (u|_G), v|_G>
with T the modal radiation operator on the outer circle G.  Obstacle vertices
carry homogeneous Dirichlet constraints.  The stiffness and both masses are
summed by ``np.bincount`` (Cuvelier, Japhet & Scarella, BIT 2016) into one CSR
pattern, the diagonal and both directions of every element edge; a coefficient
the bounds pin (A = I or nu = 1) is never evaluated.  The pattern is built
first, then each matrix's element entries are summed and dropped in turn: on
disk.ini assembly peaks at about 416 B per dof (``tracemalloc``, h = 0.005),
of which the result holds 160-200.  The element gradients and areas come
from one pass over gathers of one coordinate column at a time; gathering
whole (M, 3) coordinate arrays raised that peak to 456 B per dof.  One
sparse trace operator P (``modal_projection``) maps dofs to the
m = 2 n_max + 1 Fourier modes on G.
The radiation operator C P, with C = 2 pi R P^H diag(t), is never formed:
the system operator K0 - C P (K0 = S - k^2 M_nu) is applied as K0 u - C (P u).
It is complex symmetric (the assembly copies upper entries to lower ones, and
t_n = t_{-n}), so every solver here solves forward only: a solve with the
conjugate transpose is conj(K^{-1} conj(b)) (R. W. Freund, SIAM J. Sci. Stat.
Comput. 13, 1992), as in ``solve_adjoint`` and ``util.cutoff_normal``.

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
rounding, takes no GMRES iteration: its refined solve stands within the
residual certificate.  The same class factors the real SPD matrices
of the estimates, the plain mass and the coarse energy Gram, where the mesh is
invariant in angle (a centred disk annulus).  A disk fan has no such layout:
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
    x, y, t = mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.triangles
    x0, y0 = x[t[:, 0]], y[t[:, 0]]
    x1, y1 = x[t[:, 1]] - x0, y[t[:, 1]] - y0
    x2, y2 = x[t[:, 2]] - x0, y[t[:, 2]] - y0
    det = x1 * y2 - y1 * x2
    grads = np.empty((len(det), 3, 2))
    grads[:, 1, 0], grads[:, 1, 1] = y2 / det, -x2 / det
    grads[:, 2, 0], grads[:, 2, 1] = -y1 / det, x1 / det
    grads[:, 0] = -(grads[:, 1] + grads[:, 2])
    return grads, 0.5 * det


def quadrature(mesh: Mesh, degree=4):
    """Physical quadrature points (M, Q, 2), absolute weights (M, Q), bary (Q, 3)."""
    bary, w = triangle_rule(degree)
    return bary @ mesh.vertices[mesh.triangles], mesh.areas()[:, None] * w, bary


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


def _superlu_error(exc: RuntimeError) -> Exception:
    """The typed error for SuperLU's ``exc``: SuperLU reports malloc failures
    as a RuntimeError too."""
    oom = "malloc" in str(exc).lower() or "memory" in str(exc).lower()
    return (FactorizationMemoryError if oom else SingularSystemError)(str(exc))


def _splu(matrix) -> spla.SuperLU:
    """SuperLU of ``matrix`` as ordered; a failure raises a typed error."""
    try:
        return spla.splu(matrix.tocsc(), permc_spec="NATURAL")
    except RuntimeError as exc:
        raise _superlu_error(exc) from exc


class TridiagonalLU:
    """LAPACK ``?gttrf`` factors of the tridiagonal matrix with bands
    ``(lower, main, upper)``.  ``solve(b)`` runs ``?gttrs`` on a vector or
    the columns of a matrix; a real factor rejects a complex ``b``.  With
    ``overwrite=True`` a contiguous ``b`` of the factor's type is solved in
    place, with no copy, and the solution returned is ``b``."""

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

    def solve(self, b, overwrite=False):
        b = np.asarray(b).astype(self.dtype, casting="safe", copy=False)
        x, _ = self._gttrs(*self._factors, b, overwrite_b=overwrite)
        return x


class TridiagonalLDL:
    """LAPACK ``?pttrf`` factors L D L^T of the real symmetric positive
    definite tridiagonal matrix with bands ``(main, off)``: no pivoting, half
    the work of :class:`TridiagonalLU` per solve, whose ``solve(b, overwrite)``
    contract it keeps, but for a complex ``b``.  That is solved as one complex
    right-hand side by ``zpttrs`` with the real factors: ``D`` is real and
    ``L`` has a zero imaginary part, so no product or quotient mixes the two
    parts of ``b``, and each comes out with the bits of a real solve of it
    (but for the sign of a zero)."""

    def __init__(self, main, off):
        pttrf, self._pttrs = lapack.get_lapack_funcs(("pttrf", "pttrs"), (main, off))
        *self._factors, info = pttrf(main, off)
        if info > 0:
            raise SingularSystemError(
                f"tridiagonal matrix is not positive definite: nonpositive pivot in row {info - 1}")
        self.dtype = self._factors[0].dtype
        self._complex_factors = self._factors[0], self._factors[1].astype(complex)

    def solve(self, b, overwrite=False):
        b = np.asarray(b)
        if b.dtype.kind == "c":
            x, _ = lapack.zpttrs(*self._complex_factors, b.astype(complex, copy=False),
                                 overwrite_b=overwrite)
        else:
            b = b.astype(self.dtype, casting="safe", copy=False)
            x, _ = self._pttrs(*self._factors, b, overwrite_b=overwrite)
        return x


@dataclass(frozen=True)
class Factorization:
    """Sparse LU of a system matrix; solves take and return dof vectors.

    ``solve`` pads the right-hand side with zeros on the mode rows of the
    bordered matrix and drops the modes from the result: the second block row
    gives mu = P x, so x solves (K0 - C P) x = b.
    """
    lu: spla.SuperLU
    perm: np.ndarray       # elimination order of the rows and columns of the matrix
    n_dofs: int
    solver = "lu"
    iterations = 0         # a direct solve: no GMRES iterations

    @property
    def nnz(self):
        return self.lu.nnz

    def solve(self, b):
        b = np.asarray(b)
        pad = np.zeros((len(self.perm),) + b.shape[1:], dtype=complex)
        pad[:self.n_dofs] = b
        x = np.empty_like(pad)
        x[self.perm] = self.lu.solve(pad[self.perm])
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


def _ring_stencil(K, n_theta):
    """The stencil s[ring, dl, di] of a ring-structured matrix K averaged over
    the angle, flat, and whether K equals it to ``_INVARIANT_RTOL``."""
    scale = np.max(np.abs(K.data), initial=0.0)
    rows = np.arange(K.shape[0], dtype=K.indices.dtype)
    counts = np.diff(K.indptr)
    # slot (ring * 3 + dl) * 3 + di of every entry, dl and di being 0, 1, 2 for
    # offsets -1, 0, 1, is 6 ring + 3 ring_c + 3 + di: built in place
    ring_c, slot = np.divmod(K.indices, n_theta)
    slot -= np.repeat(rows % n_theta - 1, counts)
    slot %= n_theta
    ring_c *= 3
    slot += ring_c
    slot += np.repeat(rows // n_theta * 6 + 3, counts)
    del ring_c
    stencil = np.bincount(slot, weights=K.data, minlength=9 * (len(rows) // n_theta)) / n_theta
    gap = stencil[slot]
    del slot
    np.subtract(K.data, gap, out=gap)
    return stencil, bool(np.max(np.abs(gap, out=gap), initial=0.0) <= _INVARIANT_RTOL * scale)


class AngularFactorization:
    """Solver of a ring-structured real matrix on a star annulus: the system's
    K0 with its DtN closure, or a real SPD matrix with none where it is
    ``invariant`` (the plain mass of the resolvent estimate, the coarse energy
    Gram of the eta estimate).

    Dof l * n_theta + i sits on free ring l at angle 2 pi i / n_theta.  The
    stencil of the matrix between rings l and l + dl at angular offset di,
    averaged over i, gives the symbol T_f[l, l + dl] = sum_di s[l, dl, di]
    w^(f di), w = e^(2 pi i / n_theta); the DtN closure adds -2 pi R t_n /
    n_theta on the outer ring at frequency f = n mod n_theta.  The n_theta
    tridiagonal blocks are factored as one frequency-major tridiagonal matrix,
    and ``precondition`` is the circulant solve with them.  ``invariant``
    records whether the matrix equals its angle-averaged stencil to rounding,
    as on a centred disk, where the circulant solve is exact.

    ``solve`` checks every column against ``apply(u)``, the true operator
    (the matrix itself unless given): x = precondition(b) and one
    refinement step x += precondition(b - apply(x)) where the residual is
    above 1e-12 |b|, then GMRES from x on the columns still above it.  An
    invariant matrix takes no GMRES step: its refined solve stands within
    ``CERTIFIED_RTOL`` and raises ``SolveError`` above it.
    ``iterations`` holds the GMRES iterations of the last ``solve``.
    """
    solver = "angular"

    def __init__(self, matrix: sp.csr_matrix, n_theta: int,
                 dtn: Optional[DtnOperator] = None, apply: Optional[Callable] = None):
        K = matrix
        n_rings = K.shape[0] // n_theta
        stencil, self.invariant = _ring_stencil(K, n_theta)
        symbol = stencil.reshape(n_rings, 3, 3) @ np.exp(
            2j * np.pi / n_theta * np.outer([-1, 0, 1], np.arange(n_theta)))
        if dtn is not None:
            n = np.arange(-dtn.n_max, dtn.n_max + 1)
            np.add.at(symbol[-1, 1], n % n_theta, -2.0 * np.pi * dtn.R * dtn.coefficients / n_theta)
        # frequency-major unknowns f * n_rings + l; the entries that would couple
        # neighbouring blocks (below ring 0, above the last ring) are zero
        lower, diag, upper = (symbol[:, d].T.ravel() for d in range(3))
        self.lu = TridiagonalLU(lower[1:], diag, upper[:-1])
        self._apply = apply or K.dot
        self.n_theta, self.n_rings = n_theta, n_rings
        self.iterations = 0

    @property
    def nnz(self):
        return self.lu.nnz

    def precondition(self, b):
        """The circulant solve with b."""
        bh = np.fft.fft(b.reshape(self.n_rings, self.n_theta, -1), axis=1)
        x = self.lu.solve(bh.transpose(1, 0, 2).reshape(len(b), -1))
        x = x.reshape(self.n_theta, self.n_rings, -1).transpose(1, 0, 2)
        return np.fft.ifft(x, axis=1).reshape(b.shape)

    def solve(self, b):
        """x with A x = b, column by column, for the true operator A.

        GMRES aims at a relative residual of 1e-12.  That lies below the
        rounding floor of fine meshes with mass-weighted loads (a source load
        at 301,940 dofs: 1.5e-12, where the LU reaches 3.0e-12), so a solve
        that stalls above it stands if its residual is within the certificate
        ``CERTIFIED_RTOL`` of ``solve``, and raises ``SolveError`` otherwise;
        an invariant matrix's refined solve meets the same test without GMRES.
        """
        b = np.asarray(b, dtype=complex)
        n = len(b)
        B = b.reshape(n, -1)
        target = _GMRES_RTOL * np.linalg.norm(B, axis=0)
        x = self.precondition(B)
        r = B - self._apply(x)
        todo = np.flatnonzero(np.linalg.norm(r, axis=0) > target)
        if todo.size:
            x[:, todo] += self.precondition(r[:, todo])
            res = np.linalg.norm(B[:, todo] - self._apply(x[:, todo]), axis=0)
            if not self.invariant:
                todo = todo[res > target[todo]]
            else:   # circulant to rounding: the refined solve is at the floor, where GMRES stalls
                rel = np.max(res / np.linalg.norm(B[:, todo], axis=0))
                if rel > CERTIFIED_RTOL:
                    raise SolveError(f"circulant solve stopped at relative residual {rel:.3e}")
                todo = todo[:0]
        self.iterations = 0
        A = spla.LinearOperator((n, n), self._apply, dtype=complex)
        M = spla.LinearOperator((n, n), self.precondition, dtype=complex)
        for j in todo:
            steps = []
            x[:, j], info = spla.gmres(A, B[:, j], x0=x[:, j], M=M,
                                       rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
                                       maxiter=_GMRES_CYCLES, callback=steps.append,
                                       callback_type="pr_norm")
            self.iterations += len(steps)
            if info:    # stalled: at the rounding floor, or not converged
                r = self._apply(x[:, j]) - B[:, j]
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
            self._operator = _on_pattern(self.stiffness, -(self.k**2), self.mass_nu)
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

    def apply(self, u):
        """(K0 - C P) u."""
        u = np.asarray(u)
        out = self.operator @ u
        if self.dtn_block is not None:
            out = out - self.dtn_block @ (self.projection @ u)
        return out

    def factorize(self):
        """The angular solver on a star annulus, the nested-dissection LU on a
        disk fan; either has ``solve(b)`` on dof vectors and ``nnz``."""
        if self._factorization is None:
            n_theta = self.fe_space.mesh.n_theta
            self._factorization = (
                AngularFactorization(self.operator, n_theta, self.dtn, self.apply)
                if n_theta else dissection_lu(self))
        return self._factorization

    def energy_matrix(self):
        """Real SPD Gram of the k-weighted norm: stiffness + k^2 nu-mass."""
        return _on_pattern(self.stiffness, self.k**2, self.mass_nu)


def _on_pattern(S, c, M):
    """S + c M for CSR matrices on one pattern, as ``assemble`` builds them:
    entry for entry scipy's ``S + c * M``, an entry that cancels to 0 dropped,
    without its buffers sized for nnz(S) + nnz(M)."""
    K = sp.csr_matrix((S.data + c * M.data, S.indices.copy(), S.indptr.copy()), shape=S.shape)
    K.eliminate_zeros()
    return K


# local pairs (i, j) of a symmetric P1 element matrix: its diagonal, then i < j
_I, _J = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])


def _edge_csr(tri_dofs, n):
    """The CSR pattern of the P1 matrices on triangles with dofs ``tri_dofs``
    (dofs < 0 are left out): the diagonal and both directions of every edge
    with two free ends.  Returns ``to_csr(local)``, which sums an (M, 6) array
    of element entries at the local pairs (_I, _J) into one symmetric n x n CSR
    matrix with one ``np.bincount`` and copies its upper edges to the lower;
    all of them share one ``indices`` and one ``indptr``.

    The edges are numbered by one argsort of their keys lo * n + hi (equal
    keys share a number, so any order of them does; the stable sort is the
    faster), and the place of every entry in ``data`` follows from per-row
    counts.  Every array of size M is dropped once used: with the element
    entries, they set the peak memory of assembly."""
    m = len(tri_dofs)
    keys = np.empty((m, 3), dtype=np.int64)
    for c, (i, j) in enumerate(zip(_I[3:], _J[3:])):
        lo = np.minimum(tri_dofs[:, i], tri_dofs[:, j])
        hi = np.maximum(tri_dofs[:, i], tri_dofs[:, j])
        # an edge with a constrained end takes the key n^2, above every free edge's
        keys[:, c] = np.where(lo >= 0, lo * n + hi, n * n)
    order = np.argsort(keys, axis=None, kind="stable")
    keys = keys.ravel()[order]
    first = np.r_[True, keys[1:] != keys[:-1]]
    edges = keys[first]
    del keys
    slot = np.empty((m, 3), dtype=np.int32)         # edge number of each local edge
    slot.ravel()[order] = np.cumsum(first, dtype=np.int32) - 1
    del order
    e = np.searchsorted(edges, n * n)               # slot e: a constrained end
    lo, hi = np.divmod(edges[:e], n)
    # row r holds its lower edges, its diagonal, then its upper edges, each by
    # column: the upper edges of a row are consecutive in key order, and a
    # stable sort by hi orders the lower ones
    up, down = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
    indptr = np.r_[0, np.cumsum(down + 1 + up)]
    nnz = indptr[-1]
    diag = indptr[:-1] + down
    # the index type scipy would pick, so that no matrix copies the pattern
    idx = np.int32 if nnz < np.iinfo(np.int32).max else np.int64
    at_up = ((diag + 1 - (np.cumsum(up) - up))[lo] + np.arange(e)).astype(idx)
    by_hi = np.argsort(hi, kind="stable")
    at_down = np.empty(e, dtype=idx)
    at_down[by_hi] = (indptr[:-1] - (np.cumsum(down) - down))[hi[by_hi]] + np.arange(e)
    indices = np.empty(nnz, dtype=idx)
    indices[diag], indices[at_up], indices[at_down] = np.arange(n), hi, lo
    indptr = indptr.astype(idx)
    # place in ``data`` of every element entry; nnz takes what is left out:
    # dof -1 reads the last entry of diag_at, slot e that of edge_at
    diag_at, edge_at = np.r_[diag, nnz], np.r_[at_up, nnz]
    place = np.empty((m, 6), dtype=np.intp)        # bincount's own type: no copy
    for c in range(3):
        place[:, c] = diag_at[tri_dofs[:, c]]
        place[:, 3 + c] = edge_at[slot[:, c]]

    def to_csr(local):
        data = np.bincount(place.ravel(), weights=local.ravel(), minlength=nnz + 1)[:nnz]
        data[at_down] = data[at_up]
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    return to_csr


def _stiffness_entries(grads, area, A_bar=None):
    """Element stiffness entries (M, 6) at the local pairs (_I, _J), built
    column by column: area * G G^T where A = I, else G A_bar G^T with A_bar
    the quadrature-weighted sum of A over the element."""
    gx, gy = grads[..., 0], grads[..., 1]
    if A_bar is not None:
        ax = gx * A_bar[:, None, 0, 0] + gy * A_bar[:, None, 1, 0]     # rows of G A
        ay = gx * A_bar[:, None, 0, 1] + gy * A_bar[:, None, 1, 1]
    out = np.empty((len(area), 6))
    for c, (i, j) in enumerate(zip(_I, _J)):
        out[:, c] = (area * (gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]) if A_bar is None
                     else ax[:, i] * gx[:, j] + ay[:, i] * gy[:, j])
    return out


def assemble(coeffs: CoefficientField, fe_space: FeSpace,
             dtn: Optional[DtnOperator], k: float, quad_degree=4) -> GalerkinSystem:
    """Assemble stiffness, masses, and the radiation factors C and P.
    Coefficients the bounds pin are not evaluated: A = I gives the element
    stiffness area * G G^T, and nu = 1 makes the nu-mass the plain mass.

    The pattern comes first.  Then each matrix's element entries are built,
    summed and dropped in turn, so that besides the pattern the peak holds one
    (M, 6) array of entries and what it is built from."""
    mesh = fe_space.mesh
    to_csr = _edge_csr(fe_space.dof_of_vertex[mesh.triangles], fe_space.n_dofs)
    grads, area = element_gradients(mesh)
    bary, w = triangle_rule(quad_degree)
    pair = bary[:, _I] * bary[:, _J]                 # (Q, 6) basis products
    pinned_A = coeffs.A_min == coeffs.A_max == 1.0
    pinned_nu = coeffs.nu_min == coeffs.nu_max == 1.0
    if not (pinned_A and pinned_nu):
        flat = (bary @ mesh.vertices[mesh.triangles]).reshape(-1, 2)
    A_bar = None if pinned_A else np.einsum(
        "mq,mqab->mab", area[:, None] * w, coeffs.eval_A(flat).reshape(len(area), len(w), 2, 2))
    S_loc = _stiffness_entries(grads, area, A_bar)
    del grads, A_bar
    S = to_csr(S_loc)
    del S_loc
    wts = area[:, None] * w
    Mnu = None if pinned_nu else to_csr((wts * coeffs.eval_nu(flat).reshape(wts.shape)) @ pair)
    M0_loc = wts @ pair
    del wts
    M0 = to_csr(M0_loc)
    del M0_loc, to_csr          # to_csr holds the pattern's (M, 6) places

    C = P = None
    if dtn is not None:
        if fe_space.dirichlet_outer:
            raise ValueError("radiation block incompatible with outer Dirichlet")
        if abs(dtn.k - k) > 1e-12:
            raise ValueError(f"operator wavenumber {dtn.k} != {k}")
        P = modal_projection(fe_space, dtn.n_max)
        C = ((2.0 * np.pi * dtn.R) * (P.conj().T @ sp.diags(dtn.coefficients))).tocsr()

    return GalerkinSystem(fe_space=fe_space, coeffs=coeffs, dtn=dtn, k=k, stiffness=S,
                          mass_nu=M0 if pinned_nu else Mnu,   # nu = 1: the plain mass
                          mass_plain=M0, dtn_block=C, projection=P)


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


def assemble_load_source(fe_space: FeSpace, f: Callable, support_radius=None):
    """Right-hand side F(v) = int f conj(v) for a callable source."""
    mesh = fe_space.mesh
    pts, wts, bary = quadrature(mesh, 4)
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
    residual: float = 0.0
    iterations: int = 0       # GMRES iterations of the solve; 0 for the LU

    def vertex_values(self):
        out = np.zeros(self.fe_space.mesh.n_vertices, dtype=complex)
        out[self.fe_space.free_vertices] = self.dofs
        return out


def solve(system: GalerkinSystem, rhs) -> DiscreteSolution:
    """Solve with a residual certificate: relative residual <= CERTIFIED_RTOL."""
    b = np.asarray(rhs, dtype=complex)
    lu = system.factorize()
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    bn = np.linalg.norm(b)
    res = float(np.linalg.norm(system.apply(x) - b) / bn) if bn > 0 else 0.0
    if res > CERTIFIED_RTOL:
        raise SolveError(f"relative residual {res:.3e} exceeds {CERTIFIED_RTOL:g}")
    return DiscreteSolution(dofs=x, fe_space=system.fe_space, residual=res,
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
                            residual=u.residual, iterations=u.iterations)


# ---------------------------------------------------------------------------
# norms, errors, interpolation


def energy_norm(system: GalerkinSystem, u) -> float:
    """k-weighted norm (|A^{1/2} grad u|^2 + k^2 |nu^{1/2} u|^2)^{1/2} from the
    stiffness and nu-mass products, without forming their sum."""
    dofs = u.dofs if isinstance(u, DiscreteSolution) else np.asarray(u)
    e = np.vdot(dofs, system.stiffness @ dofs) + system.k**2 * np.vdot(dofs, system.mass_nu @ dofs)
    return float(np.sqrt(max(e.real, 0.0)))


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


def l2_norm_exact(fe_space: FeSpace, fn):
    """L2 norm of a scalar or vector-valued callable (values on the last axis)."""
    pts, wts, _ = quadrature(fe_space.mesh, 4)
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

