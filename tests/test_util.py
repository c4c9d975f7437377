"""The artifact writers: ``write_csv`` keeps the bytes of the per-cell
formatter it replaced, and ``write_json`` encodes numpy values as Python ones.
The singular-value estimate ``power_sigma`` reports converged only within its
tolerance, and keeps the results of the loop with complex quotients and
conjugated copies that it replaced.  The bump and the reference derivative
that the ray tracer's kernel is checked against are exactly 0 off the open
support, match their closed forms on it and raise no floating-point error."""

import csv
import json
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from helmray import util
from helmray.dtn import build_dtn
from helmray.experiments import RadialCutoff
from helmray.fem import assemble, build_space
from helmray.mesh import generate_mesh
from helmray.radial import assemble_radial_mode, radial_quadrature
from helmray.util import bump, cutoff_normal, power_sigma, solve_real, write_csv, write_json
from reference import bump_deriv


def _fmt_float(x):
    """The per-cell formatter ``write_csv`` replaced (shortest round-trip decimal)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{_fmt_float(x.real)}{'+' if x.imag >= 0 else '-'}{_fmt_float(abs(x.imag))}j"
    return repr(float(x))


def _reference_csv(path, header, rows):
    """The row-wise writer ``write_csv`` replaced, with the CLI's cell rules:
    bools as ``str``, a missing value as an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if c is None else str(c) if isinstance(c, (bool, np.bool_))
                        else c if isinstance(c, str) else _fmt_float(c) for c in row])


FLOATS = [-0.0, 5e-324, 1e16, 1e-5, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0]


def test_write_csv_matches_the_per_cell_formatter(tmp_path):
    n = len(FLOATS)
    bits = np.random.default_rng(0).integers(0, 2**64 - 1, size=n, dtype=np.uint64,
                                             endpoint=True)
    columns = [
        np.arange(n),                                   # numpy ints
        list(range(-4, n - 4)),                         # Python ints
        np.array(FLOATS),                               # numpy floats, as an array
        [np.float64(v) for v in FLOATS],                # numpy float scalars in a list
        list(FLOATS),                                   # Python floats
        bits.view(np.float64),                          # arbitrary doubles
        np.arange(n) % 2 == 0,                          # a numpy bool array
        [True, False, np.True_, np.False_, True, None, False, np.True_, None],
        [None, 1.5, None, 2, "a,b", 'say "x"', "plain", None, 0.0],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "columns.csv", header, columns)
    rows = [[col[i] for col in columns] for i in range(n)]
    _reference_csv(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_bytes_do_not_depend_on_the_chunk(tmp_path, monkeypatch):
    # 11 rows in chunks of 1, 4 (a short last chunk) and 11, against one chunk
    x = np.random.default_rng(1).standard_normal(11)
    columns = [np.arange(11), x, list(x * 1e-300), [None, True] + ["a"] * 9]
    write_csv(tmp_path / "whole.csv", ["i", "x", "y", "z"], columns)
    for rows in (1, 4, 11):
        monkeypatch.setattr(util, "_CSV_ROWS", rows)
        write_csv(tmp_path / f"{rows}.csv", ["i", "x", "y", "z"], columns)
        assert (tmp_path / f"{rows}.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_write_csv_rejects_columns_of_unequal_length(tmp_path, monkeypatch):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(3), [1.0, 2.0]])
    monkeypatch.setattr(util, "_CSV_ROWS", 2)     # the first column ends on a chunk boundary
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.arange(4), [1.0] * 5])


def test_write_json_encodes_numpy_as_python(tmp_path):
    write_json(tmp_path / "np.json", {"f": np.float64(0.1), "i": np.int64(3),
                                      "b": np.True_, "a": np.array([[1.0, 2.5]])})
    write_json(tmp_path / "py.json", {"f": 0.1, "i": 3, "b": True, "a": [[1.0, 2.5]]})
    assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})
    assert json.loads((tmp_path / "np.json").read_text())["i"] == 3


@pytest.mark.parametrize("seed", range(4))
def test_power_sigma_converged_means_within_rtol(seed):
    # a cluster 1, 0.999, 0.998 at the top of the spectrum: a test on the change
    # of sigma between iterations stops short by 5.5e-4 to 1.2e-3 and still
    # reports converged; the Ritz residual bounds the actual error
    n, rtol = 400, 1e-4
    eig = np.concatenate([[1.0, 0.999, 0.998], np.linspace(0.0, 0.9, n - 3)])
    mass = np.linspace(0.5, 2.0, n)
    g = np.random.default_rng(seed)
    v0 = g.standard_normal(n) + 1j * g.standard_normal(n)
    # a diagonal operator is self-adjoint in the diagonal mass inner product
    sigma, _, conv, residual = power_sigma(lambda v: eig * v, sp.diags(mass), v0, rtol=rtol)
    assert conv and residual <= rtol
    assert abs(sigma - 1.0) <= rtol


def _power_sigma_quotients(apply_normal, M, v0, rtol, maxit):
    """The Lanczos loop ``power_sigma`` replaced: it divides by the norms and
    keeps M Q, conjugating twice per Gram-Schmidt pass.  Its residual
    certificate below rounding is the one ``power_sigma`` took on since."""
    v = np.asarray(v0, dtype=complex)
    Mv = M @ v
    scale = np.sqrt(np.vdot(v, Mv).real)
    Q = np.empty((maxit + 1, len(v)), dtype=complex)
    MQ = np.empty_like(Q)
    Q[0], MQ[0] = v / scale, Mv / scale
    alpha, beta = np.zeros(maxit), np.zeros(maxit)
    for j in range(1, maxit + 1):
        w, a = apply_normal(Q[j - 1]), 0.0
        for _ in range(2):
            c = np.conj(MQ[:j] @ np.conj(w))
            w = w - c @ Q[:j]
            a += c[j - 1].real
        alpha[j - 1] = a
        Mw = M @ w
        b = np.sqrt(max(np.vdot(w, Mw).real, 0.0))
        theta, s, _ = lapack.dstev(alpha[:j], beta[:max(j - 1, 1)])
        theta = max(theta[-1], 0.0)
        resid = b * abs(s[-1, -1])
        if resid < 1e-12 * theta:       # the certificate check power_sigma keeps
            y = s[:, -1] @ Q[:j]
            r = apply_normal(y) - theta * y
            resid = np.sqrt(np.vdot(r, M @ r).real)
        converged = resid <= rtol * theta or b == 0.0
        if converged or j == maxit:
            break
        beta[j - 1] = b
        Q[j], MQ[j] = w / b, Mw / b
    return float(np.sqrt(theta)), j, bool(converged), float(resid / theta)


@pytest.mark.parametrize("path, rtol", [("modal", 1e-10), ("fem2d", 1e-10), ("fem2d", 0.0)])
def test_power_sigma_matches_loop_with_quotients(path, rtol, ident, unit_ball_geom):
    # a radial mode (tridiagonal mass) and a 2-D fan (sparse mass); on the fan
    # rtol = 0 runs to maxit, past the rows the basis first holds, so it grows
    cut = RadialCutoff(0.8, 0.97)
    if path == "modal":
        mode = assemble_radial_mode(3, 6.0, radial_quadrature(1.0, 120))
        M, lu, luM, ch = mode.M, mode.lu(), mode.lu_mass(), cut(mode.grid[mode.free])
    else:
        space = build_space(generate_mesh(None, unit_ball_geom, 0.1))
        system = assemble(ident, space, build_dtn(3.0, unit_ball_geom.R), 3.0)
        M, lu, luM = system.mass_plain, system.factorize(), spla.splu(system.mass_plain.tocsc())
        ch = cut.at_points(space.mesh.vertices[space.free_vertices])
    apply_normal = cutoff_normal(lu, partial(solve_real, luM), M, M, ch)
    g = np.random.default_rng(5)
    v0 = g.standard_normal(M.shape[0]) + 1j * g.standard_normal(M.shape[0])
    sigma, iters, conv, resid = power_sigma(apply_normal, M, v0, rtol=rtol, maxit=30)
    ref = _power_sigma_quotients(apply_normal, M, v0, rtol=rtol, maxit=30)
    assert (iters, conv) == ref[1:3] == ((30, False) if rtol == 0.0 else (iters, True))
    assert sigma == pytest.approx(ref[0], rel=1e-15, abs=0.0)
    assert resid == pytest.approx(ref[3], rel=1e-15, abs=0.0)


def _radial_mode_normal():
    """Normal operator, mass and start vector of the n = 3 mode at k = 6 with
    120 elements, cutoff (0.8, 0.97), and a dense oracle of its sigma."""
    cut = RadialCutoff(0.8, 0.97)
    mode = assemble_radial_mode(3, 6.0, radial_quadrature(1.0, 120))
    M = mode.M
    apply_normal = cutoff_normal(mode.lu(), partial(solve_real, mode.lu_mass()), M, M,
                                 cut(mode.grid[mode.free]))
    g = np.random.default_rng(5)
    v0 = g.standard_normal(M.shape[0]) + 1j * g.standard_normal(M.shape[0])
    return apply_normal, M, v0


def test_power_sigma_certifies_no_tolerance_below_rounding():
    # the Ritz residual estimate b |s| keeps falling after the true residual
    # of the Ritz vector stops at rounding (about 1e-14 theta here) and reaches
    # exactly 0 at iteration 15: rtol = 0 was reported met, with residual 0
    apply_normal, M, v0 = _radial_mode_normal()
    sigma, iters, conv, resid = power_sigma(apply_normal, M, v0, rtol=0.0, maxit=30)
    assert (iters, conv) == (30, False)
    assert 1e-16 < resid < 1e-12
    # a tolerance above rounding is met, and its certificate is the true residual
    sigma_ok, _, conv, resid_ok = power_sigma(apply_normal, M, v0, rtol=1e-10, maxit=30)
    assert conv and 1e-16 < resid_ok <= 1e-10
    assert sigma_ok == pytest.approx(sigma, rel=1e-14)


def test_bump_kernels_match_closed_form_and_vanish_off_support():
    rho = np.linspace(-2.0, 2.0, 4001)
    inside = np.abs(rho) < 1.0
    r = rho[inside]
    b = np.exp(1.0 - 1.0 / (1.0 - r**2))
    # points in 0.9966 < |rho| < 1 give exp an underflowing argument, a
    # rounding of the result and not a fault of the kernel
    with np.errstate(all="raise", under="ignore"):
        vals, ders = bump(rho), bump_deriv(rho)
    np.testing.assert_array_equal(vals[inside], b)
    np.testing.assert_array_equal(ders[inside], b * (-2.0 * r / (1.0 - r**2) ** 2))
    assert not vals[~inside].any() and not ders[~inside].any()
    edges = np.array([-np.inf, -3.0, -1.0, 1.0, 1.5, np.inf, 0.0, 0.5, -0.9])
    with np.errstate(all="raise"):
        vals, ders = bump(edges), bump_deriv(edges)
    assert not vals[:6].any() and not ders[:6].any()
    assert vals[6] == 1.0 and ders[6] == 0.0


@pytest.mark.parametrize("rho", [np.float64(0.25), np.array(1.0), np.full((3, 2), 0.5)])
def test_bump_kernels_keep_input_shape(rho):
    assert np.shape(bump(rho)) == np.shape(rho)
    assert np.shape(bump_deriv(rho)) == np.shape(rho)

