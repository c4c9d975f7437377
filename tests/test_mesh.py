import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmray.geometry import TruncationGeometry, disk_obstacle, fourier_obstacle
from helmray.mesh import (OBSTACLE_BOUNDARY, TRUNCATION_BOUNDARY, MeshSizeError,
                          _cross2, generate_mesh, read_mesh, write_mesh)
from conftest import interpolate


@pytest.fixture(scope="module")
def geom():
    return TruncationGeometry(R1=1.0, R=2.0, R_ray=4.0)


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
    signed = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.all(signed > 0)


def test_annulus_quads_split_along_shorter_diagonal(geom):
    # layer j holds vertices j * n_theta + i at angles 2 pi i / n_theta; where
    # the diagonals differ in length the shorter one splits the quad, on ties
    # (every quad of a centred disk) a0-b1 on even layers and a1-b0 on odd ones
    for obstacle, disk in ((fourier_obstacle([0.7, 0.1, 0.1], [0.0, 0.05]), False),
                           (disk_obstacle(0.7), True)):
        m = generate_mesh(obstacle, geom, 0.15)
        p = m.vertices[m.triangles]
        assert np.all(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) > 0)
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
    m = generate_mesh(disk_obstacle(0.5), TruncationGeometry(R1=0.7, R=1.0, R_ray=3.5), h)
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


def test_mesh_file_roundtrip(tmp_path, geom):
    m = generate_mesh(disk_obstacle(0.5), geom, 0.2)
    path = tmp_path / "mesh.txt"
    write_mesh(path, m)
    mr = read_mesh(path)
    np.testing.assert_array_equal(mr.triangles, m.triangles)
    np.testing.assert_allclose(mr.vertices, m.vertices, atol=0)
    np.testing.assert_array_equal(mr.vertex_tags, m.vertex_tags)
    assert mr.h_fem == pytest.approx(m.h_fem)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["fan", "disk", "star"]), r0=st.floats(0.3, 1.2),
       c2=st.floats(-0.1, 0.1), s1=st.floats(-0.1, 0.1), h=st.floats(0.15, 0.4))
def test_mesh_file_roundtrip_keeps_layout(geom, kind, r0, c2, s1, h):
    obstacle = {"fan": None, "disk": disk_obstacle(r0),
                "star": fourier_obstacle([r0, 0.0, c2], [0.0, s1])}[kind]
    m = generate_mesh(obstacle, geom, h)
    with tempfile.TemporaryDirectory() as tmp:
        write_mesh(Path(tmp) / "mesh.txt", m)
        mr = read_mesh(Path(tmp) / "mesh.txt")
    for name in ("vertices", "triangles", "vertex_tags", "boundary_indices"):
        np.testing.assert_array_equal(getattr(mr, name), getattr(m, name))
    np.testing.assert_allclose(mr.boundary_thetas, m.boundary_thetas, rtol=0, atol=1e-12)
    assert (mr.h_fem, mr.shape_regularity) == (m.h_fem, m.shape_regularity)
    assert mr.n_theta == m.n_theta == (0 if kind == "fan" else len(m.boundary_indices))


def test_read_mesh_recovers_no_layout_from_other_meshes(geom, tmp_path):
    m = generate_mesh(disk_obstacle(0.5), geom, 0.2)
    n_theta = m.n_theta
    # one ring turned by half a step: no longer rings at fixed angles
    turned = m.vertices.copy()
    ring = slice(n_theta, 2 * n_theta)
    r = np.hypot(*turned[ring].T)
    th = np.arctan2(turned[ring, 1], turned[ring, 0]) + np.pi / n_theta
    turned[ring] = np.stack([r * np.cos(th), r * np.sin(th)], -1)
    write_mesh(tmp_path / "turned.txt", replace(m, vertices=turned))
    assert read_mesh(tmp_path / "turned.txt").n_theta == 0
    # the same vertices with one triangle reaching two rings out
    far = m.triangles.copy()
    far[0, np.argmax(far[0])] += 2 * n_theta
    write_mesh(tmp_path / "far.txt", replace(m, triangles=far))
    assert read_mesh(tmp_path / "far.txt").n_theta == 0


def test_off_center_obstacle_rejected(geom):
    with pytest.raises(ValueError):
        generate_mesh(disk_obstacle(0.3, center=(0.5, 0.0)), geom, 0.2)
