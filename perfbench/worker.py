"""One benchmark workload in one process: set up, run, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.  Each
workload is a list of operations (one call of its top-level function each).
An operation fails if it raises or its output misses the check tolerance;
every result is checked after its timed call, and checks are not timed.  A
first, untimed pass warms up.  Without ``--trace`` the workload then repeats
whole passes until ``--seconds`` have elapsed, checks included (at least one
pass, and no more once an operation has failed), and reports the time of
every operation; with ``--trace`` it runs one pass under the span recorder and
reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
import traceback
import types
from pathlib import Path
from typing import Callable, NamedTuple


ROOT = Path(__file__).resolve().parent.parent

# Benchmark sizes.  Each operation takes 0.3-3 s on a 2-vCPU machine, so
# that one run times many of them and reports medians: on a shared host the
# speed of a core drifts by 20-40 % over seconds, and a run of one long call
# per workload measured the host rather than the program.  The ray grid is
# the smallest that still finds L on both configurations (one refinement
# round misses nu_bump by 2.6 %).
FULL = {"ray_grid": {"grid_pos_r": 4, "grid_pos_theta": 8, "grid_dir": 16,
                     "refine_points": 7, "refinement_rounds": 2},
        "scatter_k": 8.0, "scatter_h": 0.02,
        "fem2d_k": 4.0, "fem2d_h": 0.5 / 4.0**2, "modal_ks": (20.0, 30.0, 40.0)}
# Reduced sizes for the self-test: tiny ray grid, h = 0.05 and small k.
TINY = {"ray_grid": {"grid_pos_r": 4, "grid_pos_theta": 8, "grid_dir": 16,
                     "refine_points": 7, "refinement_rounds": 3},
        "scatter_k": 4.0, "scatter_h": 0.05,
        "fem2d_k": 4.0, "fem2d_h": 0.05, "modal_ks": (10.0,)}

L_DISK = math.sqrt(3.0) / 2.0      # tangent chord of the r = 1/2 disk in B(0, 1)
L_NU_BUMP = 1.2104                  # tied to the dense inward sweep in tests/test_raytrace.py
PLATEAU = (0.85 * 1.6 / math.pi, 1.15 * 2.0 / math.pi)   # acceptance criterion 8
# Power-iteration start vectors are the CLI default for every benchmark seed.
# fem2d: across start vectors the iteration count ranges 12 to 87 at k = 6
# (coefficient of variation 23-39 %), which moved wall_s by 40 % between seeds.
# modal: the start vectors change the allocation history enough to move peak
# RSS between 183 and 216 MB across four seeds; at a fixed seed it repeats.
POWER_SEED = 0


def import_helmray():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "helmray" / "__init__.py").is_file():
        raise SystemExit(f"no helmray sources under {src}")
    sys.path.insert(0, str(src))
    import helmray
    from helmray import config, dtn, experiments, fem, mesh, mie, radial, raytrace
    if Path(helmray.__file__).resolve().parent != src / "helmray":
        raise SystemExit(f"helmray imported from {helmray.__file__}, not {src}")
    return types.SimpleNamespace(config=config, dtn=dtn, experiments=experiments, fem=fem,
                                 mesh=mesh, mie=mie, radial=radial, raytrace=raytrace)


class Op(NamedTuple):
    """One timed call plus its untimed check.

    ``check(result)`` returns (ok, message, values); values are the
    certificates reported as per-layer metrics in the traced run.
    """

    label: str
    call: Callable
    check: Callable


def load_case(hr, name):
    cfg = hr.config.RunConfig.from_file(ROOT / "configs" / f"{name}.ini")
    return cfg, cfg.coefficients(), cfg.obstacle(), cfg.geometry()


# ---------------------------------------------------------------------------
# workloads: setup(hr, seed, size) -> inputs; ops(hr, inputs, wrap) -> [Op]
# ``wrap`` maps a coefficient field to the one the operations receive.


def setup_rays(hr, seed, size):
    grid = dict(size["ray_grid"])
    grid_dir = grid.get("grid_dir", hr.raytrace.RayConfig().grid_dir)
    rotation = random.Random(seed).uniform(0.0, 2.0 * math.pi / grid_dir)
    ray_cfg = hr.raytrace.RayConfig(frame_rotation=rotation, **grid)
    return {"cases": [(name,) + load_case(hr, name)[1:] for name in ("disk", "nu_bump")],
            "ray_cfg": ray_cfg, "params": {"frame_rotation": rotation, **grid}}


def ops_rays(hr, inp, wrap):
    rt, ray_cfg = hr.raytrace, inp["ray_cfg"]
    refs = {"disk": L_DISK, "nu_bump": L_NU_BUMP}
    ops = []
    for name, coeffs, obstacle, geom in inp["cases"]:
        coeffs = wrap(coeffs)

        def call(coeffs=coeffs, obstacle=obstacle, geom=geom):
            return rt.longest_ray_length(coeffs, obstacle, geom, 1.0, ray_cfg)

        def check(res, name=name, coeffs=coeffs, obstacle=obstacle, geom=geom):
            traj = rt.integrate_ray(coeffs, obstacle, geom, res.maximizer, ray_cfg)
            x, xi = traj.states[:, :2], traj.states[:, 2:]
            H = (xi[:, None, :] @ coeffs.eval_A(x) @ xi[:, :, None])[:, 0, 0] / coeffs.eval_nu(x) - 1.0
            drift = float(abs(H).max())
            err = abs(res.L - refs[name])
            ok_L = err <= 2e-3 if name == "disk" else err <= 5e-3 * refs[name]
            values = {f"raytrace.L.{name}": res.L,
                      f"raytrace.H_drift.{name}": drift,
                      f"raytrace.censored_fraction.{name}": res.diagnostics.censored_fraction}
            if name == "disk":
                values["raytrace.L_err.disk"] = err
            return (ok_L and drift <= 1e-6,
                    f"L={res.L:.6f} (ref {refs[name]:.6f}), H drift {drift:.2e}", values)

        ops.append(Op(name, call, check))
    return ops


def setup_scatter(hr, seed, size):
    cfg, coeffs, obstacle, geom = load_case(hr, "disk")
    angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return {"coeffs": coeffs, "obstacle": obstacle, "geom": geom,
            "k": size["scatter_k"], "h": size["scatter_h"],
            "quad_degree": cfg.get("fem", "quad_degree", 4),
            "direction": (math.cos(angle), math.sin(angle)),
            "params": {"k": size["scatter_k"], "h": size["scatter_h"], "incident_angle": angle}}


def ops_scatter(hr, inp, wrap):
    fem, k, direction = hr.fem, inp["k"], inp["direction"]
    coeffs, obstacle, geom = wrap(inp["coeffs"]), inp["obstacle"], inp["geom"]

    def call():
        # the steps of `helmray solve --problem scattering`
        m = hr.mesh.generate_mesh(obstacle, geom, inp["h"])
        space = fem.build_space(m)
        op = hr.dtn.build_dtn(k, geom.R)
        system = fem.assemble(coeffs, space, op, k, inp["quad_degree"])
        rhs = fem.assemble_load_scattering(space, op, direction)
        return fem.solve(system, rhs)

    def check(u):
        exact, _ = hr.mie.soft_disk_total_field(k, obstacle.max_radius, direction)
        ref = exact(u.fe_space.mesh.vertices)
        err = float(abs(u.vertex_values() - ref).max() / abs(ref).max())
        return (u.residual <= 1e-10 and err <= 5e-3,
                f"residual {u.residual:.2e}, max nodal error vs Mie {err:.2e}",
                {"fem.residual": u.residual})

    return [Op("scatter_solve", call, check)]


def setup_fem2d(hr, seed, size):
    cfg, coeffs, obstacle, geom = load_case(hr, "disk")
    cutoff = hr.experiments.RadialCutoff(inner=cfg.get("experiment", "cutoff_inner"),
                                         outer=cfg.get("experiment", "cutoff_outer"))
    return {"coeffs": coeffs, "obstacle": obstacle, "geom": geom, "cutoff": cutoff,
            "k": size["fem2d_k"], "h": size["fem2d_h"],
            "params": {"k": size["fem2d_k"], "h": size["fem2d_h"], "power_seed": POWER_SEED}}


def ops_fem2d(hr, inp, wrap):
    ex, k = hr.experiments, inp["k"]
    coeffs, obstacle, geom, cutoff = wrap(inp["coeffs"]), inp["obstacle"], inp["geom"], inp["cutoff"]

    def call():
        return ex.estimate_resolvent_norm(coeffs, obstacle, geom, k, cutoff, inp["h"],
                                          seed=POWER_SEED, method="fem2d")

    reference = []      # the modal estimate is deterministic: compute it once

    def check(est):
        if not reference:
            reference.append(ex.estimate_resolvent_norm(
                inp["coeffs"], obstacle, geom, k, cutoff, 0.5 / k**2, seed=POWER_SEED,
                method="modal"))
        modal = reference[0]
        rel = abs(est.value / modal.value - 1.0)
        return (est.converged and modal.converged and rel <= 1e-2,
                f"k*norm {k * est.value:.5f} vs modal {k * modal.value:.5f} "
                f"({est.iterations} iterations, converged={est.converged})", {})

    return [Op("resolvent_fem2d", call, check)]


def setup_modal(hr, seed, size):
    cfg, coeffs, obstacle, geom = load_case(hr, "euclid")
    cutoff = hr.experiments.RadialCutoff(inner=cfg.get("experiment", "cutoff_inner"),
                                         outer=cfg.get("experiment", "cutoff_outer"))
    return {"coeffs": coeffs, "obstacle": obstacle, "geom": geom, "cutoff": cutoff,
            "ks": size["modal_ks"], "params": {"ks": size["modal_ks"], "power_seed": POWER_SEED}}


def ops_modal(hr, inp, wrap):
    ex = hr.experiments
    coeffs, obstacle, geom, cutoff = wrap(inp["coeffs"]), inp["obstacle"], inp["geom"], inp["cutoff"]
    ops = []
    for k in inp["ks"]:
        def call(k=k):
            # `helmray resolvent-scan`: default h = 0.5/k^2, modal path
            return ex.resolvent_scan(coeffs, obstacle, geom, [k], cutoff, s=0,
                                     rtol=1e-4, seed=POWER_SEED)

        def check(scan):
            row = scan.rows[0]
            ok = (scan.method == "modal" and row["converged"]
                  and PLATEAU[0] <= row["k_times_norm"] <= PLATEAU[1])
            return ok, f"k*norm {row['k_times_norm']:.5f} in {PLATEAU}, converged={row['converged']}", {}

        ops.append(Op(f"k{k:g}", call, check))
    return ops


WORKLOADS = {
    "rays": (setup_rays, ops_rays),
    "scatter_solve": (setup_scatter, ops_scatter),
    "resolvent_fem2d": (setup_fem2d, ops_fem2d),
    "resolvent_modal": (setup_modal, ops_modal),
}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


def layer_metrics(stats, counters, values, op_children_s, pass_s):
    """Every per-layer metric; a layer the workload never enters reads 0.

    Times are inclusive of child spans except ``fem.solve_s`` and
    ``radial.mode_cutoff_norm_s``, which exclude the factorizations that
    have metrics of their own.  ``trace_coverage_frac`` is the share of the
    pass spent inside the layer calls each operation makes directly.
    """
    def total(name, op=None, col=1):
        return sum(v[col] for (o, n), v in stats.items() if n == name and op in (None, o))

    def cnt(name, op=None):
        return sum(v for (o, n), v in counters.items() if n == name and op in (None, o))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for c in ("disk", "nu_bump"):
        t = total("raytrace.longest_ray_length", c)
        steps = cnt("raytrace.steps", c)
        m[f"raytrace.longest_ray_length_s.{c}"] = t
        m[f"raytrace.n_samples.{c}"] = cnt("raytrace.n_samples", c)
        m[f"raytrace.rays_per_s.{c}"] = ratio(cnt("raytrace.n_samples", c), t)
        m[f"raytrace.steps.{c}"] = steps
        m[f"raytrace.steps_per_s.{c}"] = ratio(steps, t)
        m[f"raytrace.stage_evals.{c}"] = cnt("raytrace.stage_evals", c)
        m[f"geometry.coeff_eval_s.{c}"] = sum(
            total(f"geometry.{f}", c) for f in ("eval_A", "eval_nu", "eval_grad_A", "eval_grad_nu"))
        m[f"raytrace.L.{c}"] = values.get(f"raytrace.L.{c}", 0.0)
        seed_L = cnt("raytrace.seed_grid_L", c)
        m[f"raytrace.refine_gain.{c}"] = m[f"raytrace.L.{c}"] - seed_L if seed_L else 0.0
        m[f"raytrace.H_drift.{c}"] = values.get(f"raytrace.H_drift.{c}", 0.0)
        m[f"raytrace.censored_fraction.{c}"] = values.get(f"raytrace.censored_fraction.{c}", 0.0)
    m["raytrace.in_support_frac.nu_bump"] = ratio(cnt("raytrace.in_support", "nu_bump"),
                                                  cnt("raytrace.stage_evals", "nu_bump"))
    m["raytrace.impacts.disk"] = total("raytrace.boundary_normal", "disk", col=0)
    m["raytrace.sdf_calls.disk"] = total("raytrace.signed_distance", "disk", col=0)
    m["raytrace.L_err.disk"] = values.get("raytrace.L_err.disk", 0.0)

    m["mesh.generate_mesh_s"] = total("mesh.generate_mesh")
    m["mesh.n_vertices"] = cnt("mesh.n_vertices")
    m["mesh.n_triangles"] = cnt("mesh.n_triangles")

    m["fem.factorize_s"] = total("fem.factorize")
    m["fem.lu_fill"] = cnt("fem.lu_fill")
    m["fem.nnz"] = cnt("fem.nnz")
    m["fem.fill_ratio"] = ratio(m["fem.lu_fill"], m["fem.nnz"])
    m["fem.radiation_nnz"] = cnt("fem.radiation_nnz")
    m["fem.assemble_s"] = total("fem.assemble")
    m["fem.load_s"] = total("fem.assemble_load_scattering")
    m["fem.solve_s"] = total("fem.solve", col=2)
    m["fem.residual"] = values.get("fem.residual", 0.0)
    m["fem.n_dofs"] = cnt("fem.n_dofs")

    m["experiments.power_sigma_s"] = total("experiments.power_sigma")
    m["experiments.power_iters"] = cnt("experiments.power_iters")
    m["experiments.s_per_iter"] = ratio(m["experiments.power_sigma_s"], m["experiments.power_iters"])
    m["experiments.mass_lu_s"] = total("experiments.mass_lu")

    m["radial.assemble_radial_mode_s"] = total("radial.assemble_radial_mode")
    m["radial.lu_s"] = total("radial.lu") + total("radial.lu_mass")
    m["radial.mode_cutoff_norm_s"] = total("radial.mode_cutoff_norm", col=2)
    for name in ("power_iters", "unconverged_modes", "n_modes"):
        m[f"radial.{name}"] = cnt(f"radial.{name}")
    m["radial.n_r"] = max((v for (o, n), v in counters.items() if n == "radial.n_r"), default=0)

    m["dtn.build_dtn_s"] = total("dtn.build_dtn")
    m["dtn.n_modes"] = cnt("dtn.n_modes")
    m["dtn.hankel_ratio_calls"] = total("dtn.hankel_ratio", col=0)
    m["dtn.hankel_ratio_s"] = total("dtn.hankel_ratio")

    m["trace_coverage_frac"] = ratio(op_children_s, pass_s)
    m["src_lines"] = src_lines()
    return m


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


# ---------------------------------------------------------------------------


def run(args):
    hr = import_helmray()
    setup, make_ops = WORKLOADS[args.workload]
    size = TINY if args.size == "tiny" else FULL
    inputs = setup(hr, args.seed, size)
    setup_s = time.monotonic() - args.t_spawn       # process start to inputs ready
    if args.setup_only:
        from probe import Probe
        probe = Probe()
        probe.run()         # its own warm-up
        return {"setup_s": setup_s, "probes": [probe.run() for _ in range(3)],
                "nominal_probe_s": probe.nominal_s}

    tracer = None
    wrap = lambda coeffs: coeffs  # noqa: E731
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(hr)
        wrap = tracer.wrap_coefficients
    ops = make_ops(hr, inputs, wrap)

    # After warm-up, the untraced run times a host-speed probe before every
    # operation, and once more after the last one (probe.py).
    probe = None
    seq, probes = [], []        # (label, seconds) of each operation; probe seconds
    passes, failures, checks, values = [], [], [], {}
    attempted = 0

    def one_pass(traced):
        """Run every operation once, checking each result; return the pass time."""
        nonlocal attempted
        pass_s = 0.0
        for op in ops:
            attempted += 1
            call = op.call
            if probe is not None:
                probes.append(probe.run())
            if traced:
                tracer.op, tracer.enabled = op.label, True
                call = tracer.span(op.call, "op")
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception:  # a raising operation is a failed one
                result = None
                failures.append(f"{op.label}: {traceback.format_exc()}")
            t = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            pass_s += t
            seq.append((op.label, t))
            if result is None:
                continue
            try:
                ok, message, vals = op.check(result)
            except Exception:  # a check that cannot run fails its operation
                ok, message, vals = False, traceback.format_exc(), {}
            if len(checks) < len(ops):
                checks.append(f"{op.label}: {message}")
            values.update(vals)
            if not ok:
                failures.append(f"{op.label}: check failed: {message}")
        return pass_s

    # Warm-up pass: first calls pay one-off costs (lazy imports, allocator
    # growth) that repeated use does not.  Its time is not reported; its
    # checks count like any other.
    if tracer is not None:
        tracer.enabled = False
    warmup_s = one_pass(traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seq.clear()
    if tracer is None:
        from probe import Probe
        probe = Probe()
        probe.run()         # its own warm-up
    t_start = time.perf_counter()
    while True:
        passes.append(one_pass(traced=tracer is not None))
        # at least one timed pass; a traced run makes exactly one, and no
        # more follow a failed operation
        if tracer is not None or failures or time.perf_counter() - t_start >= args.seconds:
            break
    times = {op.label: [] for op in ops}
    ratios = {op.label: [] for op in ops}   # operation time / probe time around it
    if probe is not None:
        probes.append(probe.run())
    for i, (label, t) in enumerate(seq):
        times[label].append(t)
        if probe is not None:
            ratios[label].append(t / (0.5 * (probes[i] + probes[i + 1])))

    import numpy
    import scipy
    out = {"context": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                       "python": sys.version.split()[0], "src_lines": src_lines(),
                       "inputs": inputs["params"]},
           "setup_s": setup_s, "warmup_s": warmup_s, "passes": passes,
           "op_times": times, "op_ratios": ratios, "probes": probes,
           "nominal_probe_s": probe.nominal_s if probe is not None else None,
           "attempted": attempted,
           "failed": len(failures), "failures": failures, "checks": checks,
           "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        stats, op_children_s, violations = tracer.summary()
        out["per_layer"] = layer_metrics(stats, tracer.counters, values, op_children_s, passes[0])
        out["nesting_violations"] = violations
        table = {}
        for (op, name), (calls, incl, self_s) in stats.items():
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += self_s
        out["spans"] = {name: {"calls": c, "total_s": t, "self_s": s}
                        for name, (c, t, s) in sorted(table.items(), key=lambda kv: -kv[1][2])}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    args = p.parse_args(argv)
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
