"""The traced benchmark run wraps helmray functions by the names its callers
resolve (module globals, class attributes, ``experiments.spla.splu``).  The
benchmark harness is fixed, so a change that unbinds one of those names
breaks it; this catches that from the tier-1 suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from worker import import_helmray; from tracing import Tracer; "
            "Tracer().install(import_helmray())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
