import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helmray.config import RunConfig
from helmray.fem import element_gradients
from helmray.geometry import TruncationGeometry, disk_obstacle, fourier_obstacle
from helmray.mesh import (OBSTACLE_BOUNDARY, TRUNCATION_BOUNDARY, MeshSizeError,
                          _disk_fan, _orient_ccw, generate_mesh)
from conftest import interpolate, rng
from reference import cross2, disk_fan, triangle_geometry

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def geom():
    return TruncationGeometry(R1=1.0, R=2.0)


def test_disk_mesh_meets_width_target(geom):
    m = generate_mesh(None, geom, 0.2)
    assert m.h_fem <= 0.2
    assert m.shape_regularity <= 12.0
    assert np.all(np.bincount(m.vertex_tags, minlength=3)[[0, 2]] > 0)


def test_disk_mesh_area_converges(geom):
    errs = [abs(generate_mesh(None, geom, h).areas().sum() - np.pi * 4.0)
            for h in (0.2, 0.1)]
    assert errs[1] <= errs[0] / 3.0  # O(h^2) polygon deficit


def test_annulus_area_oracle(geom):
    m = generate_mesh(disk_obstacle(0.5), geom, 0.1)
    exact = np.pi * (4.0 - 0.25)
    assert m.areas().sum() == pytest.approx(exact, abs=20 * m.h_fem**2)


def test_vertex_count_scaling(geom):
    n1 = generate_mesh(None, geom, 0.2).n_vertices
    n2 = generate_mesh(None, geom, 0.1).n_vertices
    assert 4.0 * 0.8 <= n2 / n1 <= 4.0 * 1.2


def test_shape_regularity_uniform_over_refinement(geom):
    obs = fourier_obstacle([0.8, 0.0, 0.15])
    srs = [generate_mesh(obs, geom, h).shape_regularity for h in (0.2, 0.1, 0.05)]
    assert max(srs) <= 12.0
    assert max(srs) <= 1.5 * min(srs)


def test_triangles_positively_oriented(geom):
    m = generate_mesh(fourier_obstacle([0.7, 0.1, 0.1]), geom, 0.15)
    p = m.vertices[m.triangles]
    signed = cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.all(signed > 0)


@pytest.mark.parametrize("n_r", [2, 3, 17, 100, 333])
def test_disk_fan_matches_ring_by_ring_sweep(n_r):
    got, want = _disk_fan(1.3, n_r), disk_fan(1.3, n_r)
    for a, b in zip([*got[:3], *got[3]], [*want[:3], *want[3]]):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


# tracemalloc peak inside ``generate_mesh`` on euclid.ini at h = 0.01 (72,541
# vertices): 279 B per vertex, set by the column gathers of ``_quality`` on top
# of the 88 B the fan and its areas hold; the fan built from Python tuples and
# a triangle-by-triangle sweep took 552.  The bound leaves 25 % over 279 and
# sits 200 B per vertex below the tuple-built fan.
_FAN_MESH_PEAK_PER_VERTEX = 350


def test_fan_mesh_peak_memory_per_vertex():
    geom = RunConfig.from_file(CONFIGS / "euclid.ini").geometry()
    tracemalloc.start()
    try:
        mesh = generate_mesh(None, geom, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_vertices == 72_541
    assert peak / mesh.n_vertices < _FAN_MESH_PEAK_PER_VERTEX


def test_orient_ccw_turns_clockwise_triangles_and_rejects_degenerate_ones():
    vertices = rng(3).standard_normal((39, 2))
    triangles = np.arange(39).reshape(13, 3)
    p = vertices[triangles]
    before = cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.any(before < 0) and np.any(before > 0)
    turned, area2 = _orient_ccw(vertices, triangles.copy())
    p = vertices[turned]
    after = cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    # a clockwise triangle comes back counterclockwise, first vertex kept
    np.testing.assert_array_equal(turned[before < 0], triangles[before < 0][:, [0, 2, 1]])
    np.testing.assert_array_equal(turned[before > 0], triangles[before > 0])
    # the doubled area is the oriented triangle's, bit for bit, and the input's modulus
    np.testing.assert_array_equal(area2, after)
    np.testing.assert_array_equal(area2, np.abs(before))
    with pytest.raises(ValueError, match="degenerate triangle produced"):
        _orient_ccw(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), np.array([[0, 1, 2]]))


_LAYOUTS = {"fan": None, "disk_annulus": disk_obstacle(0.5),
            "star_annulus": fourier_obstacle([0.7, 0.1, 0.1], [0.0, 0.05])}


@pytest.mark.parametrize("h", [0.2, 0.07])
@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_triangle_geometry_matches_whole_point_formulas(geom, layout, h):
    m = generate_mesh(_LAYOUTS[layout], geom, h)
    h_fem, shape_reg, grads_ref, area_ref = triangle_geometry(m)
    assert m.h_fem == h_fem and m.shape_regularity == shape_reg
    grads, area = element_gradients(m)
    np.testing.assert_array_equal(grads, grads_ref)
    np.testing.assert_array_equal(area, area_ref)
    np.testing.assert_array_equal(m.areas(), area_ref)


def test_annulus_quads_split_along_shorter_diagonal(geom):
    # layer j holds vertices j * n_theta + i at angles 2 pi i / n_theta; where
    # the diagonals differ in length the shorter one splits the quad, on ties
    # (every quad of a centred disk) a0-b1 on even layers and a1-b0 on odd ones
    for obstacle, disk in ((fourier_obstacle([0.7, 0.1, 0.1], [0.0, 0.05]), False),
                           (disk_obstacle(0.7), True)):
        m = generate_mesh(obstacle, geom, 0.15)
        p = m.vertices[m.triangles]
        assert np.all(cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) > 0)
        n_theta = len(m.boundary_indices)
        n_layers = m.n_vertices // n_theta - 1
        assert m.n_triangles == 2 * n_layers * n_theta
        edges = {tuple(sorted(e)) for a, b, c in m.triangles.tolist()
                 for e in ((a, b), (b, c), (c, a))}
        V = m.vertices
        splits, ties = [], []
        for j in range(n_layers):
            for i in range(n_theta):
                a0, a1 = j * n_theta + i, j * n_theta + (i + 1) % n_theta
                b0, b1 = a0 + n_theta, a1 + n_theta
                main = tuple(sorted((a0, b1))) in edges
                assert main != (tuple(sorted((a1, b0))) in edges)
                d_main, d_cross = np.linalg.norm(V[a0] - V[b1]), np.linalg.norm(V[a1] - V[b0])
                tie = abs(d_main - d_cross) <= 1e-12 * max(d_main, d_cross)
                assert main == (j % 2 == 0 if tie else d_main < d_cross)
                splits.append(main)
                ties.append(tie)
        assert 0 < sum(splits) < len(splits)    # both diagonals occur
        assert all(ties) if disk else not any(ties)


@pytest.mark.parametrize("h", [0.06, 0.15])
def test_disk_annulus_invariant_under_one_angular_step(h):
    # a centred disk: rotating by 2 pi / n_theta maps the triangle set to itself
    m = generate_mesh(disk_obstacle(0.5), TruncationGeometry(R1=0.7, R=1.0), h)
    n_theta = len(m.boundary_indices)
    layer, i = np.divmod(m.triangles, n_theta)
    rotated = layer * n_theta + (i + 1) % n_theta
    assert ({tuple(t) for t in np.sort(rotated, axis=1).tolist()}
            == {tuple(t) for t in np.sort(m.triangles, axis=1).tolist()})


def test_boundary_vertices_on_curves(geom):
    obs = fourier_obstacle([0.8, 0.0, 0.15])
    m = generate_mesh(obs, geom, 0.1)
    outer = m.vertices[m.vertex_tags == TRUNCATION_BOUNDARY]
    assert np.abs(np.hypot(outer[:, 0], outer[:, 1]) - 2.0).max() < 1e-12
    inner = m.vertices[m.vertex_tags == OBSTACLE_BOUNDARY]
    th = np.arctan2(inner[:, 1], inner[:, 0])
    assert np.abs(np.hypot(inner[:, 0], inner[:, 1]) - obs.rho(th)).max() < 1e-12


def test_boundary_ring_uniform_angles(geom):
    m = generate_mesh(None, geom, 0.15)
    th = m.boundary_thetas
    gaps = np.diff(th)
    assert np.abs(gaps - gaps[0]).max() < 1e-12


def test_memory_guard(geom):
    with pytest.raises(MeshSizeError):
        generate_mesh(None, geom, 1e-5, max_vertices=10_000)


def test_point_location_and_interpolation(geom):
    m = generate_mesh(disk_obstacle(0.5), geom, 0.1)
    vals = m.vertices[:, 0] + 2.0 * m.vertices[:, 1]  # linear: exact under P1
    g = np.random.Generator(np.random.Philox(4))
    th = g.uniform(0, 2 * np.pi, 64)
    r = g.uniform(0.55, 1.95, 64)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], -1)
    exact = pts[:, 0] + 2.0 * pts[:, 1]
    assert np.abs(interpolate(m, vals, pts) - exact).max() < 1e-10


def _locate_one_by_one(m, points, k_search=24):
    # per point, the candidates in nearest-centroid order: the first holding
    # the point, else the first of least deficiency
    _, cand = m._centroid_tree().query(points, k=k_search)
    tri, bary = [], []
    for pt, cands in zip(points, cand):
        best, best_w, best_def = -1, None, np.inf
        for t in cands:
            a, b, c = m.vertices[m.triangles[t]]
            lam = np.linalg.solve(np.array([b - a, c - a]).T, pt - a)
            w = np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])
            deficiency = -min(w.min(), 0.0)
            if deficiency < best_def:
                best, best_w, best_def = t, w, deficiency
            if deficiency <= 1e-12:
                break
        tri.append(best)
        bary.append(best_w)
    return np.array(tri), np.array(bary)


@pytest.mark.parametrize("obstacle", [None, fourier_obstacle([0.7, 0.1, 0.1], [0.0, 0.05])],
                         ids=["fan", "annulus"])
def test_locate_matches_per_point_oracle(geom, obstacle):
    m = generate_mesh(obstacle, geom, 0.15)
    g = np.random.Generator(np.random.Philox(8))
    th = g.uniform(0, 2 * np.pi, 400)
    r = g.uniform(0.0, 2.05, 400)      # some beyond the outer polygon or in the hole
    edges = m.vertices[m.triangles[:, [0, 1]]].mean(axis=1)[:200]
    pts = np.concatenate([np.stack([r * np.cos(th), r * np.sin(th)], -1), m.vertices, edges])
    tri, bary = m.locate(pts)
    tri_ref, bary_ref = _locate_one_by_one(m, pts)
    np.testing.assert_array_equal(tri, tri_ref)
    np.testing.assert_array_equal(bary, bary_ref)
    # the weights reproduce each point, also where it is clamped
    np.testing.assert_allclose(np.einsum("pj,pjd->pd", bary, m.vertices[m.triangles[tri]]),
                               pts, rtol=0.0, atol=1e-12)


def test_off_center_obstacle_rejected(geom):
    with pytest.raises(ValueError):
        generate_mesh(disk_obstacle(0.3, center=(0.5, 0.0)), geom, 0.2)
