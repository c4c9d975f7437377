"""Checks that the benchmark harness and the README stay in step with the code.

The traced benchmark run wraps helmray functions by the names its callers
resolve (module globals, class attributes, ``experiments.spla.splu``).  The
benchmark harness is fixed, so a change that unbinds one of those names
breaks it; this catches that from the tier-1 suite.  A traced modal run must
also enter every layer the modal per-layer metrics read.  The README's
command block must list exactly the subcommands the parser accepts, each
table of docs/config.md exactly the keys its section accepts, and every flag
that overrides a config value must name a key of the config table."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from helmray.cli import build_parser
from helmray.config import _KEYS

ROOT = Path(__file__).resolve().parents[1]


def test_blas_threads_pinned_before_numpy_loads():
    import conftest

    assert not conftest.NUMPY_LOADED_BEFORE_BLAS_PIN
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert var in os.environ


def test_benchmark_tracer_installs():
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from worker import import_helmray; from tracing import Tracer; "
            "Tracer().install(import_helmray())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_spans_modal_layers():
    code = """
import json, sys
sys.path.insert(0, 'perfbench')
from worker import import_helmray
from tracing import Tracer
hr = import_helmray()
from helmray.geometry import TruncationGeometry, identity_coefficients
tracer = Tracer()
tracer.install(hr)
hr.experiments.estimate_resolvent_norm(
    identity_coefficients(), None, TruncationGeometry(R1=0.5, R=1.0),
    5.0, hr.experiments.RadialCutoff(0.8, 0.97), 0.02, method="modal")
stats = tracer.summary()[0]
print(json.dumps({name: [calls, incl] for (op, name), (calls, incl, _) in stats.items()}))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.splitlines()[-1])
    for name in ("radial.assemble_radial_mode", "radial.lu", "radial.lu_mass",
                 "radial.mode_cutoff_norm", "dtn.hankel_ratio"):
        calls, seconds = spans.get(name, (0, 0.0))
        assert calls > 0 and seconds > 0.0, name



def test_benchmark_tracer_counts_rk4_stages():
    # the tracer counts stage evaluations through eval_grad_nu, which every
    # RK4 stage calls, also where A = I lets the stage skip eval_A
    code = """
import json, sys
sys.path.insert(0, 'perfbench')
from worker import import_helmray, load_case
from tracing import Tracer
hr = import_helmray()
tracer = Tracer()
tracer.install(hr)
_, coeffs, obstacle, geom = load_case(hr, 'nu_bump')
cfg = hr.raytrace.RayConfig(grid_pos_r=2, grid_pos_theta=4, grid_dir=8, refinement_rounds=0)
hr.raytrace.longest_ray_length(tracer.wrap_coefficients(coeffs), obstacle, geom, 1.0, cfg)
print(json.dumps({name: v for (op, name), v in tracer.counters.items()}))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["raytrace.stage_evals"] == 4 * counts["raytrace.steps"] > 0
    assert counts["raytrace.in_support"] > 0

def test_readme_lists_every_subcommand():
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("helmray ")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


def test_docs_config_lists_every_key():
    accepted = {sec: set(keys) for sec, keys in _KEYS.items()}
    documented = {}
    for part in (ROOT / "docs" / "config.md").read_text().split("\n## [")[1:]:
        sec, body = part.split("]", 1)
        # the first column of every table row names its keys in backticks
        cells = [line.split("|")[1] for line in body.splitlines() if line.startswith("| `")]
        documented[sec] = {key.lower() for cell in cells for key in re.findall(r"`([^`]+)`", cell)}
    assert documented == accepted


def test_cli_override_dests_name_config_keys():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    overrides = {(action.option_strings[0], action.dest)
                 for sp in sub.choices.values() for action in sp._actions
                 if "." in action.dest}
    for _, dest in overrides:
        sec, key = dest.split(".")
        assert key in _KEYS.get(sec, {}), dest
    # and docs/config.md lists exactly these flags with their keys
    body = (ROOT / "docs" / "config.md").read_text().split("## Command-line overrides")[1]
    rows = [line.split("|") for line in body.split("\n## ")[0].splitlines()
            if line.startswith("| `")]
    documented = {(row[1].strip(" `"), ".".join(re.fullmatch(r" `\[(\w+)\] (\w+)` *", row[3])
                                                  .groups())) for row in rows}
    assert documented == overrides


def test_failing_given_test_prints_its_report(tmp_path):
    # under the repo's warning filters a failing @given test must show its
    # falsifying example, not an INTERNALERROR from the hypothesis plugin's
    # report hook, and any other DeprecationWarning must still fail its test
    (tmp_path / "test_probe.py").write_text("""
import warnings
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers())
def test_given_fails(n):
    assert n < 5

def test_other_deprecation_fails():
    warnings.warn("some other API is deprecated", DeprecationWarning)
""")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rf",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "FAILED test_probe.py::test_given_fails" in out
    assert "FAILED test_probe.py::test_other_deprecation_fails" in out
    assert "2 failed" in out
