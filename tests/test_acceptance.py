"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is pinned, not calibrated.
"""

import time

import numpy as np
import pytest
from scipy.special import jv, jvp, yv, yvp

from helmray.bounds import (ConstantsLedger, estimate_C_H2, estimate_C_int_tilde,
                            mesh_threshold, threshold_rhs, volterra_discrete_norm)
from helmray.cli import main as cli_main
from helmray.dtn import build_dtn
from helmray.experiments import (RadialCutoff, estimate_resolvent_norm,
                                 quasimode_lower_bound, quasioptimality_study)
from helmray.fem import (assemble, assemble_load_scattering, build_space,
                         errors_vs_exact, l2_norm_exact, solve)
from helmray.geometry import (TruncationGeometry, disk_obstacle,
                              identity_coefficients, nu_bump_coefficients)
from helmray.mesh import generate_mesh
from helmray.mie import soft_disk_total_field
from helmray.raytrace import (RayConfig, _ham, _rk4_step, longest_ray_length,
                              unit_covector)
from conftest import rng
from reference import estimate_C_DtN_tilde


def _report(idx, ok, detail):
    line = f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_volterra_constant():
    t0 = time.perf_counter()
    sigma = volterra_discrete_norm(1.0, 2000)
    elapsed = time.perf_counter() - t0
    err = abs(sigma - 2.0 / np.pi)
    ok = err <= 1e-3 and elapsed < 10.0
    _report(1, ok, f"cumulative-integration norm {sigma:.6f}, err {err:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_02_longest_ray_euclidean():
    t0 = time.perf_counter()
    geom = TruncationGeometry(R1=0.5, R=1.0, R_ray=1.25)
    res = longest_ray_length(identity_coefficients(), None, geom, 1.0, RayConfig())
    elapsed = time.perf_counter() - t0
    ok = abs(res.L - 1.0) <= 1e-3 and elapsed < 30.0
    _report(2, ok, f"L = {res.L:.6f} (want 1 +- 1e-3), {elapsed:.1f}s")


def test_criterion_03_longest_ray_disk():
    t0 = time.perf_counter()
    geom = TruncationGeometry(R1=0.6, R=1.0, R_ray=1.25)
    res = longest_ray_length(identity_coefficients(), disk_obstacle(0.5),
                             geom, 1.0, RayConfig())
    elapsed = time.perf_counter() - t0
    target = np.sqrt(3.0) / 2.0
    ok = abs(res.L - target) <= 2e-3 and elapsed < 60.0
    _report(3, ok, f"L = {res.L:.6f} (want {target:.6f} +- 2e-3), {elapsed:.1f}s")


def _bump_drift(coeffs, states, dt, duration):
    H0 = _ham(coeffs, states)
    drift = 0.0
    s = states.copy()
    for _ in range(int(round(duration / dt))):
        s = _rk4_step(coeffs, s, dt)
        drift = max(drift, float(np.abs(_ham(coeffs, s) - H0).max()))
    return drift


def test_criterion_04_energy_conservation_and_order():
    coeffs = nu_bump_coefficients(amplitude=1.0, width=0.5)
    g = rng(0)
    n = 1000
    ang = g.uniform(0, 2 * np.pi, n)
    r = 0.9 * np.sqrt(g.uniform(0, 1, n))
    pos = np.stack([r * np.cos(ang), r * np.sin(ang)], -1)
    dang = g.uniform(0, 2 * np.pi, n)
    xi = unit_covector(coeffs, pos, np.stack([np.cos(dang), np.sin(dang)], -1))
    states = np.concatenate([pos, xi], -1)
    d1 = _bump_drift(coeffs, states, 1e-3, 1.5)
    d2 = _bump_drift(coeffs, states, 5e-4, 1.5)
    order = np.log2(d1 / d2)
    ok = d1 <= 1e-8 and order >= 3.5
    _report(4, ok, f"max drift {d1:.2e} at step 1e-3, observed order {order:.2f}")


def test_criterion_05_dtn_sign_and_wronskian():
    worst_re = -np.inf
    worst_w = 0.0
    for kr in (0.5, 1.0, 5.0, 20.0, 100.0):
        op = build_dtn(kr, 1.0)
        worst_re = max(worst_re, float(op.coefficients.real.max()))
        for n in range(op.n_max + 1):
            w = jv(n, kr) * yvp(n, kr) - jvp(n, kr) * yv(n, kr)
            worst_w = max(worst_w, abs(w * np.pi * kr / 2.0 - 1.0))
    ok = worst_re <= 0.0 and worst_w <= 1e-12
    _report(5, ok, f"max Re t_n = {worst_re:.2e}, worst Wronskian residual "
                   f"{worst_w:.2e}")


def test_criterion_06_mie_validation_and_order():
    t0 = time.perf_counter()
    k, a, R = 4.0, 1.0, 2.0  # kR = 8 on the truncation circle
    geom = TruncationGeometry(R1=1.5, R=R, R_ray=4.5)
    coeffs = identity_coefficients()
    obs = disk_obstacle(a)
    uex, field = soft_disk_total_field(k, a, (1.0, 0.0))
    errs, hs = [], []
    for h in (0.25, 0.125, 0.0625, 0.03125):
        mesh = generate_mesh(obs, geom, h)
        space = build_space(mesh)
        dtn = build_dtn(k, R)
        system = assemble(coeffs, space, dtn, k)
        u = solve(system, assemble_load_scattering(space, dtn, (1.0, 0.0)))
        [(_, l2)] = errors_vs_exact(coeffs, space, [u], field, k)
        errs.append(l2 / l2_norm_exact(space, uex))
        hs.append(mesh.h_fem)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    final = errs[-1]
    ok = (final <= 0.05 and 1.8 <= slope <= 2.2
          and hs[-1] * k**2 <= 0.5 and elapsed < 300.0)
    _report(6, ok, f"final L2 rel err {final:.4f} at h k^2 = "
                   f"{hs[-1] * k**2:.3f}, fitted order {slope:.2f}, "
                   f"{elapsed:.0f}s")


def test_criterion_07_garding_inequality():
    geom = TruncationGeometry(R1=1.2, R=2.0, R_ray=4.0)
    k = 4.0
    coeffs = nu_bump_coefficients(0.8, 1.0, support_radius=1.2)
    mesh = generate_mesh(disk_obstacle(0.8), geom, 0.1)
    space = build_space(mesh)
    system = assemble(coeffs, space, build_dtn(k, geom.R), k)
    E = system.energy_matrix()
    g = rng(1)
    worst = np.inf
    for _ in range(100):
        v = g.standard_normal(space.n_dofs) + 1j * g.standard_normal(space.n_dofs)
        re_a = np.real(np.vdot(v, system.apply(v)))
        rhs = (np.real(np.vdot(v, E @ v))
               - 2.0 * k**2 * coeffs.nu_max * np.real(np.vdot(v, system.mass_plain @ v)))
        scale = max(abs(re_a), abs(rhs), 1.0)
        worst = min(worst, (re_a - rhs) / scale)
    ok = worst >= -1e-10
    _report(7, ok, f"minimal normalized slack {worst:.2e} over 100 draws")


def test_criterion_08_resolvent_plateau():
    t0 = time.perf_counter()
    geom = TruncationGeometry(R1=0.5, R=1.0, R_ray=3.0)
    cut = RadialCutoff(0.8, 0.97)
    lo = 2.0 * 0.8 / np.pi * 0.85
    hi = 2.0 * 1.0 / np.pi * 1.15
    vals = {}
    ok = True
    for k in (20.0, 30.0, 40.0):
        est = estimate_resolvent_norm(identity_coefficients(), None, geom, k,
                                      cut, 0.5 / k**2, method="modal", rtol=1e-4)
        vals[k] = k * est.value
        ok = ok and est.converged and (lo <= vals[k] <= hi)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _report(8, ok, "k*norm = " + ", ".join(f"{k:g}: {v:.4f}" for k, v in vals.items())
            + f" in [{lo:.4f}, {hi:.4f}], {elapsed:.0f}s")


def test_criterion_09_quasimode_ratio():
    res = quasimode_lower_bound(1.0, 0.1, 0.01)
    id_err = abs(res.f_norm_sq - np.pi / (4.0 * res.mu))
    ok = res.ratio >= 50.9 and id_err <= 1e-8
    _report(9, ok, f"ratio {res.ratio:.2f} >= 50.9, source-norm identity "
                   f"residual {id_err:.1e}")


def test_criterion_10_quasioptimality():
    t0 = time.perf_counter()
    geom = TruncationGeometry(R1=0.7, R=1.0, R_ray=3.5)
    obs = disk_obstacle(0.5)
    coeffs = identity_coefficients()
    k0 = 2.0

    ray_cfg = RayConfig(grid_pos_r=6, grid_pos_theta=12, grid_dir=32)
    ray = longest_ray_length(coeffs, obs, geom, geom.R + 2.0, ray_cfg)
    ledger = ConstantsLedger(
        C_int_tilde=estimate_C_int_tilde(h_values=(0.2, 0.1)),
        C_DtN_tilde=estimate_C_DtN_tilde(geom.R, [k0, 2 * k0], h=0.06),
        C_H2=estimate_C_H2(coeffs, obs, geom, h=0.05, samples=4, seed=0).value,
        A_min=1.0, A_max=1.0, nu_min=1.0, nu_max=1.0, k0=k0, L_ray=ray.L,
        provenance={"C_int_tilde": "empirical", "C_DtN_tilde": "empirical",
                    "C_H2": "empirical", "L_ray": "empirical"},
    )
    table = quasioptimality_study(coeffs, obs, geom, ledger,
                                  [2.0, 4.0], [0.08, 0.04, 0.02, 0.01])
    elapsed = time.perf_counter() - t0
    admissible = [r for r in table.rows if not r.get("failed") and r["admissible"]]
    violations = [r for r in admissible
                  if r["qo_ratio"] > table.quasioptimality_bound]
    ok = (len(admissible) > 0 and not violations
          and not any(r.get("failed") for r in table.rows) and elapsed < 1200.0)
    _report(10, ok, f"{len(admissible)} admissible rows, max ratio "
                    f"{max((r['qo_ratio'] for r in admissible), default=0):.3f} "
                    f"<= bound {table.quasioptimality_bound:.3f}, {elapsed:.0f}s")


def test_criterion_11_threshold_mechanics():
    led = ConstantsLedger(C_int_tilde=0.7, C_DtN_tilde=1.3, C_H2=1.1,
                          A_min=0.8, A_max=1.5, nu_min=0.7, nu_max=1.9,
                          k0=1.5, L_ray=2.5)
    ok = True
    detail = []
    for k in (2.0, 5.0, 10.0, 40.0):
        rep = mesh_threshold(led, k)
        below = threshold_rhs(led, k, rep.h_max * (1 - 1e-6))
        above = threshold_rhs(led, k, rep.h_max * (1 + 1e-6))
        at = threshold_rhs(led, k, rep.h_max)
        led2 = ConstantsLedger(**{**led.__dict__, "L_ray": 2 * led.L_ray})
        ok = ok and below < 1.0 < above and abs(at - 1.0) <= 1e-10
        ok = ok and mesh_threshold(led2, k).h_max < rep.h_max
        detail.append(f"k={k:g}: h_max={rep.h_max:.3e}")
    _report(11, ok, "; ".join(detail))


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nr1 = 0.5\nr = 1.0\nr_ray = 1.25\n")
    blobs = []
    for name in ("first", "second"):
        rc = cli_main(["resolvent-scan", "--config", str(cfg), "--ks", "3,5",
                       "--seed", "11", "--out", str(tmp_path / name)])
        assert rc == 0
        blobs.append((tmp_path / name / "resolvent_scan.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(12, ok, f"identical seed/config reproduce {len(blobs[0])} CSV bytes "
                    f"byte-for-byte: {ok}")
