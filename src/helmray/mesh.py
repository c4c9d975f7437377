"""Structured polar triangulations of disk and annulus-like domains.

Two constructions, both shape-regular under refinement with uniformly spaced
vertices on the outer circle (which the boundary Fourier projection relies on):

* disk fan: ring i carries 6i vertices, consecutive rings are zipped by an
  angular two-pointer sweep;
* star annulus: the region between a star-shaped curve r = rho(theta) and the
  outer circle, mapped layer by layer at fixed angles.  The mesh states this
  ring layout as ``n_theta``, and ``read_mesh`` recovers it from the file.

Vertex tags: 0 interior, 1 obstacle boundary, 2 truncation (outer) boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree


INTERIOR, OBSTACLE_BOUNDARY, TRUNCATION_BOUNDARY = 0, 1, 2


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class MeshSizeError(Exception):
    """Requested resolution would exceed the configured vertex budget."""


@dataclass
class Mesh:
    vertices: np.ndarray        # (N, 2)
    triangles: np.ndarray       # (M, 3) CCW
    vertex_tags: np.ndarray     # (N,)
    h_fem: float                # max circumdiameter
    shape_regularity: float     # max circumradius / inradius
    boundary_indices: np.ndarray = None   # outer-circle vertices in angular order
    boundary_thetas: np.ndarray = None
    n_theta: int = 0            # star annulus: vertex j * n_theta + i on ring j at
                                # angle 2 pi i / n_theta; 0 for a disk fan
    _tree: Optional[cKDTree] = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def areas(self):
        p = self.vertices[self.triangles]
        return 0.5 * np.abs(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))

    # -- point location -----------------------------------------------------

    def _centroid_tree(self):
        if self._tree is None:
            self._tree = cKDTree(self.vertices[self.triangles].mean(axis=1))
        return self._tree

    def locate(self, points):
        """Triangle index and barycentric coordinates for each query point.

        A point takes the first of its 24 nearest-centroid triangles
        that holds it (barycentric deficiency <= 1e-12).  Points outside the
        triangulated polygon (boundary-snap mismatches) are clamped to the
        first candidate of least deficiency.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k = min(24, self.n_triangles)
        cand = self._centroid_tree().query(points, k=k)[1].reshape(len(points), k)
        tri_idx, bary = np.empty(len(points), dtype=int), np.empty((len(points), 3))
        best = np.full(len(points), np.inf)
        todo = np.arange(len(points))
        for j in range(k):
            t = cand[todo, j]
            a, b, c = np.moveaxis(self.vertices[self.triangles[t]], 1, 0)
            lam = np.linalg.solve(np.stack([b - a, c - a], axis=-1), (points[todo] - a)[..., None])
            w = np.concatenate([1.0 - lam[:, 0] - lam[:, 1], lam[:, 0], lam[:, 1]], axis=1)
            deficiency = np.maximum(-w.min(axis=1), 0.0)
            better = deficiency < best[todo]
            tri_idx[todo[better]], bary[todo[better]] = t[better], w[better]
            best[todo[better]] = deficiency[better]
            todo = todo[deficiency > 1e-12]
            if not len(todo):
                break
        return tri_idx, bary


# ---------------------------------------------------------------------------
# construction helpers


def _zip_rings(idx_a, idx_b):
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


def _orient_ccw(vertices, triangles):
    p = vertices[triangles]
    signed = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = signed < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    signed = np.abs(signed)
    if np.any(signed <= 0.0):
        raise ValueError("degenerate triangle produced")
    return triangles


def _quality(vertices, triangles):
    p = vertices[triangles]
    a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    b = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    K = 0.5 * np.abs(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))
    circum = a * b * c / (4.0 * K)
    inr = 2.0 * K / (a + b + c)
    return float(np.max(2.0 * circum)), float(np.max(circum / inr))


def _disk_fan(R, n_r):
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
    # center fan
    inner_idx, _ = rings[1]
    for j in range(6):
        tris.append((0, inner_idx[j], inner_idx[(j + 1) % 6]))
    for i in range(1, n_r):
        ia, _ = rings[i]
        ib, _ = rings[i + 1]
        tris.extend(_zip_rings(ia, ib))
    vertices = np.array(verts)
    triangles = _orient_ccw(vertices, np.array(tris, dtype=int))
    return vertices, triangles, np.array(tags), rings[-1]


def _ring_tags(n_layers, n_theta):
    return np.repeat([OBSTACLE_BOUNDARY] + [INTERIOR] * (n_layers - 1) + [TRUNCATION_BOUNDARY],
                     n_theta)


def _ring_count(vertices, triangles, tags):
    """Vertices per ring if the mesh has the star-annulus layout, else 0.

    Star-annulus rings run from the obstacle to the outer circle, each holding
    one vertex at every angle 2 pi i / n_theta in the same order, and every
    triangle joins neighbouring rings and angles.
    """
    n_theta = int(np.sum(tags == TRUNCATION_BOUNDARY))
    if n_theta < 3 or len(tags) % n_theta or len(tags) < 2 * n_theta:
        return 0
    if not np.array_equal(tags, _ring_tags(len(tags) // n_theta - 1, n_theta)):
        return 0
    th = np.arctan2(vertices[:, 1], vertices[:, 0]).reshape(-1, n_theta)
    drift = np.angle(np.exp(1j * (th - 2.0 * np.pi * np.arange(n_theta) / n_theta)))
    ring, i = np.divmod(triangles, n_theta)
    step = (i[:, [1, 2, 0]] - i) % n_theta
    near = (np.abs(ring[:, [1, 2, 0]] - ring) <= 1) & ((step <= 1) | (step == n_theta - 1))
    return n_theta if np.max(np.abs(drift)) <= 1e-9 and near.all() else 0


def _star_annulus(obstacle, R_out, n_layers, n_theta):
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rho = obstacle.rho(th)
    t = np.arange(n_layers + 1)[:, None] / n_layers
    r = rho + t * (R_out - rho)                          # (n_layers + 1, n_theta)
    vertices = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1).reshape(-1, 2)
    tags = _ring_tags(n_layers, n_theta)
    # quad corners a0, a1 on layer j and b0, b1 on layer j + 1, at angles i, i + 1
    a0 = np.arange(n_layers * n_theta).reshape(n_layers, n_theta)
    a1 = np.roll(a0, -1, axis=1)
    b0, b1 = a0 + n_theta, a1 + n_theta
    # split each quad along its shorter diagonal; on a centred disk both have
    # the same length, so lengths within 1e-12 relative are ties, split a0-b1
    # on even layers and a1-b0 on odd ones, and the mesh keeps its rotations
    main = np.linalg.norm(vertices[a0] - vertices[b1], axis=-1)
    cross = np.linalg.norm(vertices[a1] - vertices[b0], axis=-1)
    tie = np.abs(main - cross) <= 1e-12 * np.maximum(main, cross)
    even = (np.arange(n_layers) % 2 == 0)[:, None]
    short = np.where(tie, even, main < cross)[..., None]
    first = np.where(short, np.stack([a0, b0, b1], -1), np.stack([a0, b0, a1], -1))
    second = np.where(short, np.stack([a0, b1, a1], -1), np.stack([a1, b0, b1], -1))
    triangles = _orient_ccw(vertices, np.stack([first, second], -2).reshape(-1, 3))
    outer = np.arange(n_layers * n_theta, (n_layers + 1) * n_theta)
    return vertices, triangles, tags, (outer, th)


def generate_mesh(obstacle, geom, h_target, outer_radius=None,
                  max_vertices=2_500_000):
    """Shape-regular structured triangulation of B(0, R) minus the obstacle.

    The mesh width (max circumdiameter) is driven at or below ``h_target``;
    obstacle and outer-circle vertices sit exactly on their curves.
    """
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    R_out = float(outer_radius if outer_radius is not None else geom.R)
    delta = h_target / 1.55
    est = (np.pi * R_out**2) / (0.5 * delta**2)
    if est > max_vertices:
        raise MeshSizeError(
            f"~{est:.0f} vertices needed for h_target={h_target:g}, "
            f"budget is {max_vertices}")

    for _ in range(4):
        if obstacle is None:
            n_r, n_theta = max(2, int(np.ceil(R_out / delta))), 0
            vertices, triangles, tags, (outer, th) = _disk_fan(R_out, n_r)
        else:
            if not obstacle.centered:
                raise ValueError("structured meshing needs an origin-centered obstacle")
            rho_min = obstacle.min_radius
            if rho_min >= R_out:
                raise ValueError("obstacle is not inside the domain")
            n_theta = max(12, int(np.ceil(2.0 * np.pi * R_out / delta)))
            n_layers = max(2, int(np.ceil((R_out - rho_min) / delta)))
            vertices, triangles, tags, (outer, th) = _star_annulus(
                obstacle, R_out, n_layers, n_theta)
        h_fem, shape_reg = _quality(vertices, triangles)
        if h_fem <= h_target:
            break
        delta *= 0.98 * h_target / h_fem
    else:
        raise RuntimeError("mesh width target not reached")

    return Mesh(vertices=vertices, triangles=triangles, vertex_tags=tags,
                h_fem=h_fem, shape_regularity=shape_reg,
                boundary_indices=outer, boundary_thetas=th, n_theta=n_theta)


# ---------------------------------------------------------------------------
# plain-text exchange format


def write_mesh(path, mesh: Mesh):
    """Sections: $vertices (count then x y lines), $triangles, $tags."""
    with open(path, "w") as fh:
        fh.write(f"$vertices\n{mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"$triangles\n{mesh.n_triangles}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{int(a)} {int(b)} {int(c)}\n")
        fh.write(f"$tags\n{mesh.n_vertices}\n")
        for t in mesh.vertex_tags:
            fh.write(f"{int(t)}\n")


def read_mesh(path):
    with open(path) as fh:
        tok = fh.read().split()
    pos = 0

    def expect(name):
        nonlocal pos
        if tok[pos] != name:
            raise ValueError(f"expected {name}, found {tok[pos]}")
        pos += 1

    expect("$vertices")
    n = int(tok[pos]); pos += 1
    vertices = np.array(tok[pos:pos + 2 * n], dtype=float).reshape(n, 2)
    pos += 2 * n
    expect("$triangles")
    m = int(tok[pos]); pos += 1
    triangles = np.array(tok[pos:pos + 3 * m], dtype=int).reshape(m, 3)
    pos += 3 * m
    expect("$tags")
    nt = int(tok[pos]); pos += 1
    tags = np.array(tok[pos:pos + nt], dtype=int)

    h_fem, shape_reg = _quality(vertices, triangles)
    outer = np.nonzero(tags == TRUNCATION_BOUNDARY)[0]
    th = np.arctan2(vertices[outer, 1], vertices[outer, 0]) % (2.0 * np.pi)
    order = np.argsort(th)
    return Mesh(vertices=vertices, triangles=triangles, vertex_tags=tags,
                h_fem=h_fem, shape_regularity=shape_reg,
                boundary_indices=outer[order], boundary_thetas=th[order],
                n_theta=_ring_count(vertices, triangles, tags))
