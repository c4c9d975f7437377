"""Command-line entry point: one binary, subcommand dispatch, manifest outputs.

Each subcommand is a function ``(args, cfg) -> Run`` that computes and writes
nothing.  ``main`` is the one runner: it loads the config, writes into it
every flag whose dest names a config key (``"section.key"``), calls the
subcommand, and only then creates the output directory and writes the
returned artifacts, a manifest.json (config hash, seed, versions, argv) and
the config.ini it ran with, so a run that raises leaves no directory.  CSV
outputs are byte-reproducible for identical config and seed; timestamps and
the ``profile`` of a solve (wall seconds and peak resident memory per stage)
live only in the manifest.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import scipy

from . import __version__
from .bounds import (ConstantsLedger, estimate_C_H2, estimate_C_int_tilde,
                     exact_C_DtN_tilde, mesh_threshold)
from .config import RunConfig
from .dtn import build_dtn
from .experiments import (RadialCutoff, estimate_eta, h2_scaling_study,
                          quasimode_lower_bound, quasioptimality_study,
                          resolvent_scan)
from .fem import (assemble, assemble_load_scattering, assemble_load_source,
                  build_space, energy_norm, solve)
from .geometry import check_gradients, validate_configuration
from .mesh import generate_mesh
from .raytrace import _ham, classify_trapping, integrate_ray, longest_ray_length
from .util import json_default, write_csv, write_json


class Run(NamedTuple):
    """A subcommand's outcome, as computed.  ``artifacts`` maps file names to a
    dict (written as JSON) or a ``(header, columns)`` pair, each column an
    ndarray or list of cells (written as CSV); ``summary`` is printed as is
    when a string, else as JSON; ``manifest`` holds extra manifest fields."""

    artifacts: dict
    summary: object
    code: int = 0
    manifest: Optional[dict] = None


def _manifest(args, cfg: RunConfig, extra=None):
    return {
        "subcommand": args.command,
        "argv": sys.argv[1:],
        "config_sha256": cfg.sha256(),
        "seed": cfg.seed(),
        "versions": {
            "helmray": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "timestamps": {"written_at_unix": time.time()},
        **(extra or {}),
    }


def _mark(profile, stage, start):
    """Append to the list ``profile`` a stage's wall seconds since ``start`` and
    the peak resident memory of the process so far (ru_maxrss, kilobytes on
    Linux) in MB; return the time now, the start of the next stage."""
    now = time.perf_counter()
    profile.append({"stage": stage, "wall_s": now - start,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return now


def _floats(text):
    """Comma- or space-separated numbers, as ``--ks`` and ``--hs`` take them."""
    return [float(tok) for tok in text.replace(",", " ").split()]


# ---------------------------------------------------------------------------
# subcommands: (args, cfg) -> Run; ``main`` writes every file


def _cmd_validate(args, cfg):
    coeffs = cfg.coefficients()
    R1, R = cfg.get("geometry", "R1"), cfg.get("geometry", "R")
    # misordered radii admit no TruncationGeometry, so no other invariant is checked
    failures = (validate_configuration(coeffs, cfg.obstacle(), cfg.geometry())
                if 0.0 < R1 < R else [("radius ordering", None)])
    grad_err = check_gradients(coeffs, np.array([[0.1, 0.2], [0.5, -0.3], [0.9, 0.1]]))
    payload = {
        "ok": not failures,
        "failures": [{"invariant": name, "point": pt} for name, pt in failures],
        "gradient_fd_relative_error": grad_err,
    }
    return Run({"validation.json": payload}, payload, code=0 if not failures else 1)


def _cmd_rays(args, cfg):
    coeffs, obstacle, geom = cfg.problem()
    ray_cfg = cfg.ray_config()
    R = args.R if args.R is not None else geom.R
    result = longest_ray_length(coeffs, obstacle, geom, R, ray_cfg,
                                allow_censored=args.allow_censored)
    # certificates: L after each refinement round, and the Hamiltonian
    # drift along the re-traced maximizing ray
    traj = integrate_ray(coeffs, obstacle, geom, result.maximizer, ray_cfg)
    H = _ham(coeffs, traj.states)
    payload = {
        "L": result.L,
        "maximizer": {"x": result.maximizer.x, "xi": result.maximizer.xi},
        "censored_fraction": result.diagnostics.censored_fraction,
        "n_samples": result.diagnostics.n_samples,
        "n_glancing": result.diagnostics.n_glancing,
        "n_budget": result.diagnostics.n_budget,
        "refinement_history": result.diagnostics.refinement_history,
        "H_drift": np.max(np.abs(H)),
        "R": R,
    }
    artifacts = {"rays.json": payload}
    if args.dump_trajectory:
        artifacts["trajectory.csv"] = (
            ["s", "x1", "x2", "xi1", "xi2", "H"], [traj.times, *traj.states.T, H])
    return Run(artifacts, payload)


def _cmd_trapping(args, cfg):
    coeffs, obstacle, geom = cfg.problem()
    ray_cfg = cfg.ray_config()
    diag = classify_trapping(coeffs, obstacle, geom, ray_cfg)
    payload = {
        "nontrapping": diag.nontrapping,
        "n_samples": diag.n_samples,
        "n_budget": diag.n_budget,
        "n_glancing": diag.n_glancing,
        "budget": ray_cfg.max_time_budget,
        "censored": [{"x": p.x, "xi": p.xi} for p in diag.censored],
    }
    return Run({"trapping.json": payload},
               {k: payload[k] for k in ("nontrapping", "n_samples", "n_budget", "n_glancing")})


def _cmd_dtn_check(args, cfg):
    op = build_dtn(args.k, args.R, args.nmax)
    t = op.coefficients
    sign_ok = np.all(t.real <= 1e-12 * np.abs(t))
    payload = {"k": args.k, "R": args.R, "n_max": op.n_max,
               "sign_property_re_nonpositive": sign_ok, "max_re": t.real.max()}
    return Run({"dtn_coefficients.csv": (["n", "re_t_n", "im_t_n"],
                                         [op.orders, t.real, t.imag]),
                "sign_report.json": payload}, payload, code=0 if sign_ok else 1)


def _cmd_solve(args, cfg):
    profile, t = [], time.perf_counter()
    coeffs, obstacle, geom = cfg.problem()
    k, h = cfg.get("wave", "k"), cfg.get("fem", "h")
    mesh = generate_mesh(obstacle, geom, h)
    t = _mark(profile, "mesh", t)
    space = build_space(mesh)
    dtn = build_dtn(k, geom.R)
    system = assemble(coeffs, space, dtn, k)
    t = _mark(profile, "assembly", t)
    if args.problem == "scattering":
        ang = np.deg2rad(args.incident_angle)
        rhs = assemble_load_scattering(space, dtn, (np.cos(ang), np.sin(ang)))
    else:
        width = 0.25 * geom.R1

        def f(x):
            x = np.atleast_2d(x)
            return np.exp(-np.sum(x**2, axis=1) / (2.0 * width**2))

        rhs = assemble_load_source(space, f, support_radius=geom.R)
    u = solve(system, rhs)
    vv = u.vertex_values()
    payload = {
        "k": k, "h_target": h, "h_fem": mesh.h_fem,
        "problem": args.problem,
        "n_vertices": mesh.n_vertices, "n_dofs": space.n_dofs,
        "shape_regularity": mesh.shape_regularity,
        "energy_norm": energy_norm(system, u),
        "residual": u.residual,
        "solver": system.factorize().solver, "gmres_iterations": u.iterations,
        # the bordered [[K0, -C], [P, -I]], counted from its blocks
        "nnz": (system.operator.nnz + system.dtn_block.nnz + system.projection.nnz
                + system.projection.shape[0]),
        "lu_fill": system.factorize().nnz,
    }
    _mark(profile, "solve", t)      # load, factorization, solve and its certificates
    columns = [np.arange(mesh.n_vertices), *mesh.vertices.T, vv.real, vv.imag]
    return Run({"solution.csv": (["vertex", "x1", "x2", "re_u", "im_u"], columns),
                "solve.json": payload}, payload, manifest={"profile": profile})


def _cmd_constants(args, cfg):
    coeffs, obstacle, geom = cfg.problem()
    k0 = cfg.get("wave", "k0")
    c_int_tilde = estimate_C_int_tilde()
    c_dtn_tilde = exact_C_DtN_tilde(geom.R, [k0, 2.0 * k0, 4.0 * k0])
    ch2 = estimate_C_H2(coeffs, obstacle, geom, samples=args.samples, seed=cfg.seed())
    ray = longest_ray_length(coeffs, obstacle, geom, geom.R + 2.0, cfg.ray_config(),
                             allow_censored=args.allow_censored)
    ledger = ConstantsLedger(
        C_int_tilde=c_int_tilde,
        C_DtN_tilde=c_dtn_tilde,
        C_H2=ch2.value,
        A_min=coeffs.A_min, A_max=coeffs.A_max,
        nu_min=coeffs.nu_min, nu_max=coeffs.nu_max,
        k0=k0,
        L_ray=ray.L,
        provenance={"C_int_tilde": "empirical", "C_DtN_tilde": "empirical",
                    "C_H2": "empirical", "L_ray": "empirical",
                    "A_bounds": "supplied", "nu_bounds": "supplied",
                    "k0": "supplied"},
    )
    ledger.validate()
    return Run({"ledger.json": asdict(ledger)},
               {"C_int_tilde": ledger.C_int_tilde, "C_DtN_tilde": ledger.C_DtN_tilde,
                "C_H2": ledger.C_H2, "L_ray": ledger.L_ray,
                "C_int": ledger.C_int, "C_DtN": ledger.C_DtN})


def _cmd_threshold(args, cfg):
    report = mesh_threshold(ConstantsLedger.from_json(args.ledger), args.k, h_query=args.h)
    return Run({"threshold.json": report.to_dict()}, report.to_dict())


def _cmd_resolvent_scan(args, cfg):
    ks = _floats(args.ks)
    cutoff = RadialCutoff(inner=cfg.get("experiment", "cutoff_inner"),
                          outer=cfg.get("experiment", "cutoff_outer"))
    scan = resolvent_scan(*cfg.problem(), ks, cutoff, s=args.s,
                          rtol=1e-4, seed=cfg.seed())
    header = ["k", "norm", "k_times_norm", "lower_reference", "upper_reference",
              "converged", "iterations", "residual"]
    columns = [[r[c] for r in scan.rows] for c in header]
    return Run({"resolvent_scan.csv": (header, columns)}, scan.rows,
               manifest={"method": scan.method, "s": scan.s})


def _cmd_quasimode(args, cfg):
    result = quasimode_lower_bound(args.L, args.delta, args.h)
    payload = {"L": args.L, "delta": args.delta, "h": args.h,
               "ratio": result.ratio, "reference": result.reference,
               "f_norm_sq": result.f_norm_sq, "u_norm_sq": result.u_norm_sq,
               "mu": result.mu,
               "note": "flat 1-D transport model of the amplification pair"}
    return Run({"quasimode.json": payload}, payload)


def _cmd_eta(args, cfg):
    est = estimate_eta(*cfg.problem(), cfg.get("wave", "k"), cfg.get("fem", "h"),
                       samples=args.samples, seed=cfg.seed())
    payload = {"k": est.k, "h_fem": est.h_fem, "samples": est.samples,
               "eta": est.value, "per_sample": est.per_sample}
    return Run({"eta.json": payload},
               {k2: payload[k2] for k2 in ("k", "h_fem", "samples", "eta")})


def _cmd_convergence(args, cfg):
    ledger = ConstantsLedger.from_json(args.ledger)
    ks, hs = _floats(args.ks), _floats(args.hs)
    table = quasioptimality_study(*cfg.problem(), ledger, ks, hs)
    header = ["k", "h_target", "h_fem", "energy_error", "l2_error",
              "best_approx_error", "qo_ratio", "threshold_rhs", "admissible",
              "failed"]
    summary = {"quasioptimality_bound": table.quasioptimality_bound,
               "rows": len(table.rows),
               "admissible_rows": sum(1 for r in table.rows if r.get("admissible") is True)}
    columns = [[r.get(c) for r in table.rows] for c in header]    # None: not computed
    return Run({"convergence.csv": (header, columns), "summary.json": summary},
               f"{len(table.rows)} rows; bound 2(1+C_DtN) = "
               f"{table.quasioptimality_bound:.4f}")


def _cmd_h2_scan(args, cfg):
    result = h2_scaling_study(*cfg.problem(), _floats(args.ks), seed=cfg.seed())
    header = ["k", "load", "h2_over_f", "ratio_to_linear", "h_fem"]
    summary = {"fitted_exponent": result["fitted_exponent"]}
    return Run({"h2_scan.csv": (header, [[r[c] for r in result["rows"]] for c in header]),
                "summary.json": summary}, summary)


# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration path")
    common.add_argument("--out", help="output directory")
    # only the subcommands that draw random numbers take a seed
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, dest="experiment.seed",
                        help="override the config seed")

    p = argparse.ArgumentParser(prog="helmray",
                                description="longest rays, radiation-closed "
                                            "Helmholtz FEM, and explicit "
                                            "mesh-threshold constants")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, *parents):
        return sub.add_parser(name, help=help_text, parents=[common, *parents])

    sp = add("validate", "check configuration invariants")
    sp.set_defaults(fn=_cmd_validate)

    sp = add("rays", "longest-ray length of a ball")
    sp.add_argument("--R", type=float, help="ball radius (default geometry R)")
    sp.add_argument("--grid-pos", type=int, dest="ray.grid_pos_r")
    sp.add_argument("--grid-dir", type=int, dest="ray.grid_dir")
    sp.add_argument("--step", type=float, dest="ray.step_size")
    sp.add_argument("--budget", type=float, dest="ray.max_time_budget")
    sp.add_argument("--refine", type=int, dest="ray.refinement_rounds")
    sp.add_argument("--allow-censored", action="store_true")
    sp.add_argument("--dump-trajectory", action="store_true")
    sp.set_defaults(fn=_cmd_rays)

    sp = add("trapping", "sampled nontrapping verdict")
    sp.set_defaults(fn=_cmd_trapping)

    sp = add("dtn-check", "modal radiation coefficients")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--nmax", type=int, default=None)
    sp.set_defaults(fn=_cmd_dtn_check)

    sp = add("solve", "one discretized solve")
    sp.add_argument("--k", type=float, dest="wave.k")
    sp.add_argument("--h", type=float, dest="fem.h")
    sp.add_argument("--problem", choices=("source", "scattering"),
                    default="scattering")
    sp.add_argument("--incident-angle", type=float, default=0.0,
                    help="degrees")
    sp.set_defaults(fn=_cmd_solve)

    sp = add("constants", "estimate the constants ledger", seeded)
    sp.add_argument("--samples", type=int, default=8)
    sp.add_argument("--allow-censored", action="store_true")
    sp.set_defaults(fn=_cmd_constants)

    sp = add("threshold", "mesh-size admissibility report")
    sp.add_argument("--ledger", required=True, help="ledger.json from constants")
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--h", type=float, default=None)
    sp.set_defaults(fn=_cmd_threshold)

    sp = add("resolvent-scan", "cutoff resolvent norms over k", seeded)
    sp.add_argument("--ks", required=True, help="comma-separated wavenumbers")
    sp.add_argument("--s", type=int, choices=(0, 1), default=0)
    sp.set_defaults(fn=_cmd_resolvent_scan)

    sp = add("quasimode", "1-D transport amplification pair")
    sp.add_argument("--L", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--h", type=float, default=0.01)
    sp.set_defaults(fn=_cmd_quasimode)

    sp = add("eta", "adjoint best-approximation estimate", seeded)
    sp.add_argument("--k", type=float, dest="wave.k")
    sp.add_argument("--h", type=float, dest="fem.h")
    sp.add_argument("--samples", type=int, default=8)
    sp.set_defaults(fn=_cmd_eta)

    sp = add("convergence", "quasioptimality sweep")
    sp.add_argument("--ledger", required=True)
    sp.add_argument("--ks", required=True)
    sp.add_argument("--hs", required=True)
    sp.set_defaults(fn=_cmd_convergence)

    sp = add("h2-scan", "second-order norm growth in k", seeded)
    sp.add_argument("--ks", required=True)
    sp.set_defaults(fn=_cmd_h2_scan)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig.default()
        # a flag whose dest is "section.key" overrides that config value
        for dest, value in vars(args).items():
            if "." in dest and value is not None:
                cfg.set(*dest.split("."), value)
        run = args.fn(args, cfg)
        out = Path(args.out or f"out-{args.command}")
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        for name, artifact in run.artifacts.items():
            if isinstance(artifact, dict):
                write_json(out / name, artifact)
            else:
                write_csv(out / name, *artifact)
        if run.manifest and "profile" in run.manifest:
            _mark(run.manifest["profile"], "writing", start)
        write_json(out / "manifest.json", _manifest(args, cfg, run.manifest))
        (out / "config.ini").write_text(cfg.to_text())
        print(run.summary if isinstance(run.summary, str)
              else json.dumps(run.summary, indent=2, default=json_default))
        return run.code
    except Exception as exc:
        report = {"error": type(exc).__name__, "message": str(exc),
                  "subcommand": args.command, "traceback": traceback.format_exc()}
        print(json.dumps(report, indent=2), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
