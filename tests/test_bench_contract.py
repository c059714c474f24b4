"""The names the benchmark harness under bench/ takes from gdasum still exist.

bench/env.py must be imported before numpy, so the harness is imported
in a fresh interpreter: each of its modules, then a Tracer installed
over the package and removed again.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
import env
import checks, inputs, stages, tracing

gdasum = env.import_gdasum()
original = gdasum.kts.kts_changepoints
tracer = tracing.Tracer(gdasum)
tracer.install()
assert gdasum.kts.kts_changepoints is not original
tracer.uninstall()
assert gdasum.kts.kts_changepoints is original
"""


def test_bench_modules_import_and_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(bench=str(BENCH))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
