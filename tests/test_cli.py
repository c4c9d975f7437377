import argparse
import csv
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmray.bounds import ConstantsLedger, exact_C_DtN_tilde
from helmray.cli import build_parser, main
from helmray.config import _KEYS, RunConfig
from helmray.dtn import build_dtn
from helmray.fem import assemble, build_space
from helmray.geometry import COEFFICIENT_PRESETS
from helmray.mesh import generate_mesh
from helmray.raytrace import RayConfig
from helmray.util import write_json

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EUCLID_CFG = """
[geometry]
R1 = 0.5
R = 1.0

[wave]
k = 4.0
k0 = 1.0
"""

DISK_CFG = """
[coefficients]
preset = identity

[obstacle]
rho_fourier_coefficients = 0.5

[geometry]
R1 = 0.7
R = 1.0

[wave]
k = 4.0
k0 = 2.0
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_roundtrip_stable():
    cfg = RunConfig.from_text(DISK_CFG)
    text1 = cfg.to_text()
    cfg2 = RunConfig.from_text(text1)
    assert cfg2.to_text() == text1
    assert cfg2.sha256() == cfg.sha256()


_floats = st.floats(allow_nan=False, allow_infinity=False)    # the config takes finite numbers
# a strategy for the typed values of each key type, and how `set` receives them
_STRATEGIES = {
    float: (_floats, lambda v: v),
    int: (st.integers(-2**63, 2**63), lambda v: v),
    list: (st.lists(_floats, max_size=5), lambda v: ", ".join(map(repr, v))),
    str: (st.sampled_from(sorted(COEFFICIENT_PRESETS)), lambda v: v),  # only `preset`
}
# every key of the table with its strategy
_TYPED = [((sec, key), *_STRATEGIES[kind])
          for sec, keys in sorted(_KEYS.items()) for key, (kind, _) in sorted(keys.items())]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_config_roundtrip_keeps_text_and_typed_values(data):
    cfg = RunConfig.default()
    chosen = data.draw(st.lists(st.sampled_from(range(len(_TYPED))), unique=True))
    typed = {}
    for i in chosen:
        (sec, key), values, as_set = _TYPED[i]
        value = data.draw(values)
        # option names are case-insensitive: set and get them in upper case
        cfg.set(sec, key.upper(), as_set(value))
        typed[(sec, key)] = value
    text = cfg.to_text()
    back = RunConfig.from_text(text)
    assert back.to_text() == text
    for sec, keys in _KEYS.items():
        for key in keys:
            assert back.get(sec, key) == cfg.get(sec, key)
    for (sec, key), value in typed.items():
        assert back.get(sec, key.upper()) == value


def test_config_typed_access():
    cfg = RunConfig.from_text(DISK_CFG)
    assert cfg.get("geometry", "R") == 1.0
    assert cfg.get("obstacle", "rho_fourier_coefficients") == [0.5]
    obstacle = cfg.obstacle()
    assert obstacle.max_radius == pytest.approx(0.5)


def test_config_rejects_unknown_section():
    with pytest.raises(ValueError):
        RunConfig.from_text("[nonsense]\na = 1\n")
    with pytest.raises(ValueError, match=r"\[nonsense\]"):
        RunConfig.from_text("[nonsense]\n")


@pytest.mark.parametrize("sec,key", [("fem", "hh"), ("coefficients", "amplitud"),
                                     ("fem", "quad_degree"), ("wave", "kk")])
def test_config_rejects_unknown_key(sec, key):
    with pytest.raises(ValueError, match=rf"'{key}' in section \[{sec}\]"):
        RunConfig.from_text(f"[{sec}]\n{key} = 1\n")


def test_config_ray_defaults_match_ray_config_defaults():
    # config._KEYS["ray"] derives its defaults from RayConfig's fields
    assert RunConfig.default().ray_config() == RayConfig()


def test_config_get_returns_default_for_unset_keys():
    cfg = RunConfig.default()
    assert cfg.get("fem", "quad_degree", 4) == 4
    assert cfg.get("nonsense", "a", 1.5) == 1.5
    assert cfg.get("coefficients", "amplitude") is None


@pytest.mark.parametrize("text", ["[wave]\nk = 4,0\n",
                                  "[ray]\ngrid_dir = 64.0\n",
                                  "[obstacle]\nrho_fourier_sin = 0.1 x\n",
                                  # numbers must be finite
                                  "[wave]\nk = inf\n", "[geometry]\nr = nan\n",
                                  "[ray]\nframe_rotation = -inf\n",
                                  "[obstacle]\nrho_fourier_coefficients = 0.5 nan\n"])
def test_config_rejects_a_value_of_the_wrong_type(text):
    key = text.split("\n")[1].split(" =")[0]
    with pytest.raises(ValueError, match=rf"\] {key} = "):
        RunConfig.from_text(text)


def test_removed_keys_are_rejected_by_name(tmp_path):
    # keys that restated what the code derives fail as [fem] quad_degree does
    for sec, line in (("obstacle", "empty = false"), ("geometry", "R_ray = 1.25"),
                      ("coefficients", "support_radius = 0.5")):
        key = line.split(" =")[0].lower()
        with pytest.raises(ValueError, match=rf"'{key}' in section \[{sec}\]"):
            RunConfig.from_text(f"[{sec}]\n{line}\n")
    led = ConstantsLedger(C_int_tilde=0.2, C_DtN_tilde=2.7, C_H2=0.35, A_min=1.0, A_max=1.0,
                          nu_min=1.0, nu_max=1.0, k0=2.0, L_ray=2.0)
    path = tmp_path / "ledger.json"
    write_json(path, {**asdict(led), "s": 0.0})
    with pytest.raises(ValueError, match="unknown ledger key 's'"):
        ConstantsLedger.from_json(path)


def test_obstacle_exists_exactly_when_its_coefficients_are_set():
    assert RunConfig.from_text("").obstacle() is None
    obstacle = RunConfig.from_text("[obstacle]\nrho_fourier_coefficients = 0.5\n").obstacle()
    assert obstacle.min_radius == obstacle.max_radius == 0.5
    with pytest.raises(ValueError, match="rho_fourier_coefficients"):
        RunConfig.from_text("[obstacle]\nrho_fourier_sin = 0.1\n").obstacle()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_config_parses_and_validates(tmp_path, path):
    cfg = RunConfig.from_file(path)
    radius = {"disk.ini": 0.5, "euclid.ini": None, "nu_bump.ini": None}[path.name]
    obstacle = cfg.obstacle()
    if radius is None:
        assert obstacle is None
    else:
        assert obstacle.centered and obstacle.min_radius == obstacle.max_radius == radius
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "validation.json").read_text())["ok"] is True


def test_validate_subcommand(tmp_path):
    cfg = _write(tmp_path, EUCLID_CFG)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "validation.json").read_text())
    assert payload["ok"]
    assert payload["gradient_fd_relative_error"] < 1e-6


@pytest.mark.parametrize("preset,key", [("identity", "width"), ("anisotropic", "amplitude"),
                                        ("nu_bump", "a1")])
def test_config_rejects_a_key_the_preset_does_not_take(preset, key):
    cfg = RunConfig.from_text(f"[coefficients]\npreset = {preset}\n{key} = 0.3\n")
    with pytest.raises(ValueError, match=rf"\[coefficients\] {key} .* preset '{preset}'"):
        cfg.coefficients()


def test_validate_reports_a_key_the_preset_does_not_take(tmp_path, capsys):
    cfg = _write(tmp_path, EUCLID_CFG + "\n[coefficients]\npreset = identity\nwidth = 0.3\n")
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ValueError" and "width" in report["message"]


def test_validate_fails_on_bad_geometry(tmp_path):
    bad = EUCLID_CFG.replace("R1 = 0.5", "R1 = 1.5")
    cfg = _write(tmp_path, bad)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    payload = json.loads((tmp_path / "o" / "validation.json").read_text())
    assert payload["ok"] is False
    assert payload["failures"] == [{"invariant": "radius ordering", "point": None}]


def test_rays_subcommand_tangent_chord(tmp_path, capsys):
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["rays", "--config", cfg, "--R", "1.0",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "rays.json").read_text())
    assert payload["L"] == pytest.approx(np.sqrt(0.75), abs=2e-3)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["subcommand"] == "rays"
    assert "config_sha256" in manifest


def test_rays_subcommand_certificates(tmp_path):
    nu_bump_ini = Path(__file__).resolve().parents[1] / "configs" / "nu_bump.ini"
    rc = main(["rays", "--config", str(nu_bump_ini), "--R", "1.0", "--grid-pos", "4",
               "--grid-dir", "16", "--refine", "2", "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "rays.json").read_text())
    history = payload["refinement_history"]
    assert len(history) == 2
    assert history == sorted(history) and history[-1] == payload["L"]
    # RK4 through the bump at the default step: drift of order 1e-9
    assert 0.0 < payload["H_drift"] <= 1e-6


def test_rays_subcommand_ball_inside_unit_circle(tmp_path):
    disk_ini = Path(__file__).resolve().parents[1] / "configs" / "disk.ini"
    rc = main(["rays", "--config", str(disk_ini), "--R", "0.8",
               "--out", str(tmp_path / "o")])
    assert rc == 0


def test_dtn_check_subcommand(tmp_path):
    rc = main(["dtn-check", "--k", "5.0", "--R", "2.0",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "sign_report.json").read_text())
    assert report["sign_property_re_nonpositive"]
    csv_text = (tmp_path / "o" / "dtn_coefficients.csv").read_text()
    assert csv_text.splitlines()[0] == "n,re_t_n,im_t_n"


def test_threshold_matches_hand_formula(tmp_path):
    led = ConstantsLedger(C_int_tilde=1.0, C_DtN_tilde=1.0, C_H2=1.0,
                          A_min=1.0, A_max=1.0, nu_min=1.0, nu_max=1.0,
                          k0=1.0, L_ray=2.0)
    ledger_path = tmp_path / "ledger.json"
    write_json(ledger_path, asdict(led))
    cfg = _write(tmp_path, EUCLID_CFG)
    k, h = 10.0, 0.01
    rc = main(["threshold", "--config", cfg, "--ledger", str(ledger_path),
               "--k", str(k), "--h", str(h), "--out", str(tmp_path / "o")])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "threshold.json").read_text())
    # hand evaluation of the admissibility inequality's right-hand side
    bracket = 1.0 + 2.0 / 1.0 + 1.0
    rhs = (h * k**2 * np.sqrt(1 + (h * k) ** 2) * 2.0 * 1.0 * 1.0 * 2.0
           * 1.0 * (4 * np.sqrt(2) / np.pi) * bracket)
    assert rep["rhs_at_query"] == pytest.approx(rhs, rel=1e-12)
    assert rep["admissible"] == (rhs <= 1.0)
    assert rep["quasioptimality_constant"] == pytest.approx(4.0)


def test_quasimode_subcommand(tmp_path):
    rc = main(["quasimode", "--L", "1.0", "--delta", "0.1", "--h", "0.01",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "quasimode.json").read_text())
    assert payload["ratio"] >= 50.9


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_negative_refinement_rounds_rejected(tmp_path, capsys):
    # a negative count once ran no refinement and was written to config.ini
    cfg = _write(tmp_path, EUCLID_CFG)
    rc = main(["rays", "--config", cfg, "--refine", "-2", "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ValueError" and "refinement_rounds" in report["message"]
    assert not (tmp_path / "o").exists()


def test_non_finite_ray_setting_rejected(tmp_path, capsys):
    # NaN passed every "<= 0" check and gave a wrong L, or failed deep in the tracer
    cfg = str(CONFIGS / "disk.ini")
    rc = main(["rays", "--config", cfg, "--step", "nan", "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ValueError" and "step_size" in report["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["rays", "--config", "disk.ini", "--R", "0.4"],
    ["rays", "--config", "euclid.ini", "--R", "0"],
    ["resolvent-scan", "--config", "euclid.ini", "--ks", "0"],
    ["resolvent-scan", "--config", "euclid.ini", "--ks", "-5"],
    ["resolvent-scan", "--config", "euclid.ini", "--ks", ""],
    ["h2-scan", "--config", "disk.ini", "--ks", "0,2"],
    ["threshold", "--k", "0"],
    ["threshold", "--k", "-2", "--h", "0.1"],
    ["threshold", "--k", "4", "--h", "-0.1"],
    ["quasimode", "--h", "nan"],
    ["quasimode", "--h", "inf"],
    ["quasimode", "--L", "inf"],
    ["dtn-check", "--k", "nan", "--R", "1"],
    ["dtn-check", "--k", "4", "--R", "nan"],
    ["dtn-check", "--k", "inf", "--R", "1"],
    ["dtn-check", "--k", "4", "--R", "inf"],
    ["dtn-check", "--k", "-5", "--R", "-2"],
    ["solve", "--config", "disk.ini", "--k", "4", "--h", "0.05", "--incident-angle", "nan"],
], ids=" ".join)
def test_a_value_out_of_range_is_a_value_error(tmp_path, capsys, argv):
    # these once failed with ZeroDivisionError, OverflowError or TypeError,
    # blamed censored rays for a ray grid inside the obstacle or a singular
    # system for a NaN incidence angle, named no value when a NaN k or R met
    # int(), built an operator for k < 0 and R < 0, or wrote a threshold, a
    # NaN quasimode ratio, an empty scan or, for R = 0, L = 0 from rays that
    # all start at the origin
    argv = [str(CONFIGS / a) if a.endswith(".ini") else a for a in argv]
    if argv[0] == "threshold":
        led = ConstantsLedger(C_int_tilde=1.0, C_DtN_tilde=1.0, C_H2=1.0, A_min=1.0, A_max=1.0,
                              nu_min=1.0, nu_max=1.0, k0=1.0, L_ray=2.0)
        write_json(tmp_path / "ledger.json", asdict(led))
        argv += ["--ledger", str(tmp_path / "ledger.json")]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    report = json.loads(capsys.readouterr().err)
    # the message names the value, as "name = value: ..."
    assert report["error"] == "ValueError" and re.match(r"\w+ = [^:]+: ", report["message"])
    assert not (tmp_path / "o").exists()


def test_error_reported_structurally(tmp_path, capsys):
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["threshold", "--config", cfg, "--ledger", "/nonexistent.json",
               "--k", "4", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert not (tmp_path / "o").exists()


def test_bad_ledger_reported_by_key(tmp_path, capsys):
    cfg = _write(tmp_path, DISK_CFG)
    ledger = tmp_path / "bad.json"
    ledger.write_text(json.dumps({"C_int_tilde": 1.0, "C_DtN_tilde": 1.0, "C_H2": "1.0",
                                  "A_min": 1.0, "A_max": 1.0, "nu_min": 1.0,
                                  "nu_max": 1.0, "k0": 1.0, "L_ray": 2.0}))
    rc = main(["threshold", "--config", cfg, "--ledger", str(ledger),
               "--k", "4", "--out", str(tmp_path / "o")])
    assert rc == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ValueError" and "C_H2" in report["message"]


def test_error_report_carries_traceback(tmp_path, capsys):
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["threshold", "--config", cfg, "--ledger", "/nonexistent.json",
               "--k", "4", "--out", str(tmp_path / "o")])
    assert rc == 1
    trace = json.loads(capsys.readouterr().err)["traceback"]
    assert trace.startswith("Traceback") and "FileNotFoundError" in trace


def test_out_of_memory_reported_by_name(tmp_path, capsys, monkeypatch):
    import helmray.fem as fem

    def no_memory(*args, **kwargs):
        raise RuntimeError("SUPERLU_MALLOC fails for buf in complexMalloc()")

    monkeypatch.setattr(fem.spla, "splu", no_memory)
    # no obstacle: a disk fan, which SuperLU factors
    cfg = _write(tmp_path, EUCLID_CFG)
    rc = main(["solve", "--config", cfg, "--k", "3.0", "--h", "0.1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FactorizationMemoryError"


def test_resolvent_scan_deterministic(tmp_path):
    cfg = _write(tmp_path, EUCLID_CFG)
    outs = []
    for name in ("a", "b"):
        rc = main(["resolvent-scan", "--config", cfg, "--ks", "3,4",
                   "--seed", "7", "--out", str(tmp_path / name)])
        assert rc == 0
        outs.append((tmp_path / name / "resolvent_scan.csv").read_bytes())
    assert outs[0] == outs[1]
    # the last column is the certificate: the relative Ritz residual
    with open(tmp_path / "a" / "resolvent_scan.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-1] == "residual" and len(rows) == 2
    assert all(row[-3] == "True" and float(row[-1]) <= 1e-4 for row in rows)
    # the seed override lands in config.ini and the manifest
    written = RunConfig.from_file(tmp_path / "a" / "config.ini")
    assert written.sections["experiment"]["seed"] == "7"
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["config_sha256"] == written.sha256()


def test_resolvent_scan_summary_carries_the_screening_certificates(tmp_path, capsys):
    # the printed rows name the modes screened by their coercivity bound and
    # the largest such bound; the CSV keeps its columns
    cfg = _write(tmp_path, EUCLID_CFG)
    assert main(["resolvent-scan", "--config", cfg, "--ks", "4", "--out", str(tmp_path / "o")]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["n_screened"] > 0 and 0.0 < row["screen_bound"] < row["norm"]
    with open(tmp_path / "o" / "resolvent_scan.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["k", "norm", "k_times_norm", "lower_reference",
                                        "upper_reference", "converged", "iterations", "residual"]


def test_seed_only_on_subcommands_that_draw_random_numbers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seeded = {name for name, sp in sub.choices.items()
              if any("--seed" in a.option_strings for a in sp._actions)}
    assert seeded == {"constants", "resolvent-scan", "eta", "h2-scan"}
    for argv in (["dtn-check", "--k", "5", "--R", "2"], ["solve"]):
        with pytest.raises(SystemExit):
            main(argv + ["--seed", "5"])


def test_solve_subcommand_outputs(tmp_path):
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["solve", "--config", cfg, "--k", "3.0", "--h", "0.1",
               "--problem", "scattering", "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "solve.json").read_text())
    assert payload["residual"] <= 1e-10
    assert payload["h_fem"] <= 0.1
    assert payload["lu_fill"] > 0
    # nnz counts the bordered matrix from its blocks, without building it
    run = RunConfig.from_text(DISK_CFG)
    space = build_space(generate_mesh(run.obstacle(), run.geometry(), 0.1))
    assert payload["nnz"] == assemble(run.coefficients(), space, build_dtn(3.0, 1.0),
                                      3.0).matrix.nnz
    # a centred disk with identity coefficients: the angular solve is exact
    assert payload["solver"] == "angular" and payload["gmres_iterations"] == 0
    assert (tmp_path / "o" / "solution.csv").exists()


def test_trapping_subcommand(tmp_path):
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["trapping", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "trapping.json").read_text())
    assert payload["nontrapping"] is True


def test_rays_trajectory_dump(tmp_path):
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["rays", "--config", cfg, "--R", "1.0", "--grid-pos", "5",
               "--grid-dir", "16", "--refine", "1", "--dump-trajectory",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "s,x1,x2,xi1,xi2,H"
    assert len(lines) > 10
    h_col = np.array([float(l.split(",")[5]) for l in lines[1:]])
    assert np.abs(h_col).max() < 1e-8  # characteristic set along the dump


def test_eta_subcommand(tmp_path):
    cfg = _write(tmp_path, EUCLID_CFG)
    rc = main(["eta", "--config", cfg, "--k", "2.0", "--h", "0.15",
               "--samples", "2", "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "eta.json").read_text())
    assert payload["eta"] > 0 and payload["samples"] == 2


def test_convergence_subcommand(tmp_path):
    led = ConstantsLedger(C_int_tilde=0.2, C_DtN_tilde=2.7, C_H2=0.35,
                          A_min=1.0, A_max=1.0, nu_min=1.0, nu_max=1.0,
                          k0=2.0, L_ray=float(np.sqrt(9 - 0.25)))
    ledger_path = tmp_path / "ledger.json"
    write_json(ledger_path, asdict(led))
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["convergence", "--config", cfg, "--ledger", str(ledger_path),
               "--ks", "2", "--hs", "0.08,0.04", "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "convergence.csv").read_text().splitlines()
    assert lines[0].startswith("k,h_target,h_fem,energy_error")
    assert len(lines) == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["rows"] == 2


def test_constants_subcommand(tmp_path):
    cfg_text = DISK_CFG + "\n[ray]\ngrid_pos_r = 5\ngrid_pos_theta = 8\ngrid_dir = 24\nrefinement_rounds = 1\n"
    cfg = _write(tmp_path, cfg_text)
    rc = main(["constants", "--config", cfg, "--samples", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    led = ConstantsLedger.from_json(tmp_path / "o" / "ledger.json")
    led.validate()
    # ray ball radius R + 2 = 3 around the half-unit disk: sqrt(9 - 1/4)
    assert led.L_ray == pytest.approx(np.sqrt(8.75), rel=2e-3)
    assert led.provenance["C_H2"] == "empirical"
    # disk.ini's k0 = 2 on R = 1; the closed form is the ledger's value
    assert led.C_DtN_tilde == exact_C_DtN_tilde(1.0, [2.0, 4.0, 8.0])


def test_h2_scan_subcommand(tmp_path):
    cfg = _write(tmp_path, DISK_CFG)
    rc = main(["h2-scan", "--config", cfg, "--ks", "2,3",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert np.isfinite(summary["fitted_exponent"])


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["dtn-check", "--k", "5.0", "--R", "2.0"],
    ["quasimode", "--L", "1.0", "--delta", "0.1", "--h", "0.05"],
    ["threshold", "--k", "10", "--h", "0.01"],
    ["resolvent-scan", "--ks", "3"],
], ids=lambda argv: argv[0])
def test_runner_writes_manifest_config_and_json_summary(tmp_path, capsys, argv):
    if argv[0] == "threshold":
        ledger = ConstantsLedger(C_int_tilde=1.0, C_DtN_tilde=1.0, C_H2=1.0, A_min=1.0,
                                 A_max=1.0, nu_min=1.0, nu_max=1.0, k0=1.0, L_ray=2.0)
        write_json(tmp_path / "l.json", asdict(ledger))
        argv = argv + ["--ledger", str(tmp_path / "l.json")]
    out = tmp_path / "o"
    rc = main(argv + ["--config", _write(tmp_path, EUCLID_CFG), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == argv[0]
    assert RunConfig.from_file(out / "config.ini").sha256() == manifest["config_sha256"]
    json.loads(capsys.readouterr().out)


def test_solve_overrides_land_in_config_and_rerun_reproduces(tmp_path):
    cfg = _write(tmp_path, DISK_CFG)
    out = tmp_path / "a"
    rc = main(["solve", "--config", cfg, "--k", "3", "--h", "0.1", "--out", str(out)])
    assert rc == 0
    written = RunConfig.from_file(out / "config.ini")
    assert written.sections["wave"]["k"] == "3.0"
    assert written.sections["fem"]["h"] == "0.1"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == written.sha256()
    rc = main(["solve", "--config", str(out / "config.ini"), "--out", str(tmp_path / "b")])
    assert rc == 0
    assert ((tmp_path / "b" / "solution.csv").read_bytes()
            == (out / "solution.csv").read_bytes())
    assert (tmp_path / "b" / "config.ini").read_bytes() == (out / "config.ini").read_bytes()


def test_solve_manifest_profiles_every_stage(tmp_path):
    cfg = _write(tmp_path, DISK_CFG)
    assert main(["solve", "--config", cfg, "--k", "3", "--h", "0.1",
                 "--out", str(tmp_path / "o")]) == 0
    profile = json.loads((tmp_path / "o" / "manifest.json").read_text())["profile"]
    assert [p["stage"] for p in profile] == ["mesh", "assembly", "solve", "writing"]
    assert all(p["wall_s"] >= 0.0 for p in profile)
    peaks = [p["peak_rss_mb"] for p in profile]
    assert peaks[0] > 0.0 and peaks == sorted(peaks)       # a running maximum
    # timings stay out of the CSV
    header = (tmp_path / "o" / "solution.csv").read_text().splitlines()[0]
    assert header == "vertex,x1,x2,re_u,im_u"


def test_solve_k_below_k0_runs(tmp_path):
    # k0 = 2 in the file: the explicit constants are not claimed below it,
    # but a solve there is still a well-posed problem
    cfg = _write(tmp_path, DISK_CFG)
    assert main(["solve", "--config", cfg, "--k", "1.5", "--h", "0.1",
                 "--out", str(tmp_path / "o")]) == 0
    assert RunConfig.from_file(tmp_path / "o" / "config.ini").get("wave", "k") == 1.5


def test_rays_overrides_land_in_config(tmp_path):
    cfg = _write(tmp_path, DISK_CFG)
    out = tmp_path / "o"
    rc = main(["rays", "--config", cfg, "--R", "1.0", "--grid-pos", "3", "--grid-dir", "8",
               "--refine", "0", "--step", "0.004", "--budget", "20", "--out", str(out)])
    assert rc == 0
    ray = RunConfig.from_file(out / "config.ini").ray_config()
    assert (ray.grid_pos_r, ray.grid_dir, ray.refinement_rounds) == (3, 8, 0)
    assert (ray.step_size, ray.max_time_budget) == (0.004, 20.0)
    assert json.loads((out / "rays.json").read_text())["refinement_history"] == []
