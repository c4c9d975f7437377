"""Reduced-size self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at the tiny sizes (small ray grid, h = 0.05, one small
k), untraced and traced, and checks that each run passes its correctness
checks, emits exactly the metrics BENCHMARK.json names, and that traced self
times never exceed the spans that contain them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def run_tiny(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return [json.loads(line) for line in lines]


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    *extra, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    context = extra[0]["context"]
    assert context["seed"] == 5 and context["src_lines"] > 0
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    detail = extra[1]["detail"]
    assert detail["nesting_violations"] == 0
    for name, row in detail["spans"].items():
        assert -1e-12 <= row["self_s"] <= row["total_s"] + 1e-12, name
    assert values["trace_coverage_frac"] > 0.5


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    inner = tr.span(lambda: sum(range(10000)), "inner")
    outer = tr.span(lambda: [inner(), inner()], "outer")
    tr.op = "x"
    outer()
    stats, _, violations = tr.summary()
    calls, total, self_s = stats[("x", "outer")]
    assert violations == 0 and calls == 1 and stats[("x", "inner")][0] == 2
    assert self_s == pytest.approx(total - stats[("x", "inner")][1], abs=1e-12)
    assert 0.0 <= self_s <= total


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "rays", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
