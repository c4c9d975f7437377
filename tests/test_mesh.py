import numpy as np
import pytest

from helmray.geometry import TruncationGeometry, disk_obstacle, fourier_obstacle
from helmray.mesh import (OBSTACLE_BOUNDARY, TRUNCATION_BOUNDARY, MeshSizeError,
                          _cross2, generate_mesh, read_mesh, write_mesh)


@pytest.fixture(scope="module")
def geom():
    return TruncationGeometry(R1=1.0, R=2.0, R_ray=4.0)


def test_disk_mesh_meets_width_target(geom):
    m = generate_mesh(None, geom, 0.2)
    assert m.h_fem <= 0.2
    assert m.shape_regularity <= 12.0
    assert np.all(np.bincount(m.vertex_tags, minlength=3)[[0, 2]] > 0)


def test_disk_mesh_area_converges(geom):
    errs = [abs(generate_mesh(None, geom, h).total_area() - np.pi * 4.0)
            for h in (0.2, 0.1)]
    assert errs[1] <= errs[0] / 3.0  # O(h^2) polygon deficit


def test_annulus_area_oracle(geom):
    m = generate_mesh(disk_obstacle(0.5), geom, 0.1)
    exact = np.pi * (4.0 - 0.25)
    assert m.total_area() == pytest.approx(exact, abs=20 * m.h_fem**2)


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
    signed = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.all(signed > 0)


def test_annulus_quads_split_along_shorter_diagonal(geom):
    # layer j holds vertices j * n_theta + i at angles 2 pi i / n_theta
    m = generate_mesh(fourier_obstacle([0.7, 0.1, 0.1], [0.0, 0.05]), geom, 0.15)
    p = m.vertices[m.triangles]
    assert np.all(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) > 0)
    n_theta = len(m.boundary_indices)
    n_layers = m.n_vertices // n_theta - 1
    assert m.n_triangles == 2 * n_layers * n_theta
    edges = {tuple(sorted(e)) for a, b, c in m.triangles.tolist()
             for e in ((a, b), (b, c), (c, a))}
    V = m.vertices
    splits = []
    for j in range(n_layers):
        for i in range(n_theta):
            a0, a1 = j * n_theta + i, j * n_theta + (i + 1) % n_theta
            b0, b1 = a0 + n_theta, a1 + n_theta
            main = tuple(sorted((a0, b1))) in edges
            assert main != (tuple(sorted((a1, b0))) in edges)
            shorter = np.sum((V[a0] - V[b1]) ** 2) <= np.sum((V[a1] - V[b0]) ** 2)
            assert main == shorter
            splits.append(main)
    assert 0 < sum(splits) < len(splits)    # both diagonals occur


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
    assert np.abs(m.interpolate(vals, pts) - exact).max() < 1e-10


def test_mesh_file_roundtrip(tmp_path, geom):
    m = generate_mesh(disk_obstacle(0.5), geom, 0.2)
    path = tmp_path / "mesh.txt"
    write_mesh(path, m)
    mr = read_mesh(path)
    np.testing.assert_array_equal(mr.triangles, m.triangles)
    np.testing.assert_allclose(mr.vertices, m.vertices, atol=0)
    np.testing.assert_array_equal(mr.vertex_tags, m.vertex_tags)
    assert mr.h_fem == pytest.approx(m.h_fem)


def test_off_center_obstacle_rejected(geom):
    with pytest.raises(ValueError):
        generate_mesh(disk_obstacle(0.3, center=(0.5, 0.0)), geom, 0.2)
