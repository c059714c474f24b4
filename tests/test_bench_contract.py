"""The names the benchmark harness under bench/ takes from gdasum still exist.

bench/env.py must be imported before numpy, so the harness is imported
in a fresh interpreter: each of its modules, then a Tracer installed
over the package and removed again.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

PRELUDE = """
import sys
sys.path.insert(0, {bench!r})
import env
import checks, inputs, stages, tracing

gdasum = env.import_gdasum()
"""

SCRIPT = PRELUDE + """
original = gdasum.kts.kts_changepoints
tracer = tracing.Tracer(gdasum)
tracer.install()
assert gdasum.kts.kts_changepoints is not original
tracer.uninstall()
assert gdasum.kts.kts_changepoints is original
"""

# Prints the layers PER_LAYER times or counts, and the layers an installed Tracer wraps.
LAYERS_SCRIPT = PRELUDE + """
import json

class Recording(tracing.Tracer):
    def _wrap(self, name, fn):
        wrapped.append(name)
        return super()._wrap(name, fn)

wrapped = []
tracer = Recording(gdasum)
tracer.install()
tracer.uninstall()
timed = [key.rpartition(".")[0] for key in tracing.PER_LAYER
         if key.endswith((".self_s", ".calls"))]
print(json.dumps(dict(timed=timed, wrapped=wrapped)))
"""

# Layers PER_LAYER still names although gdasum no longer has them; each
# reads 0 until the benchmark drops it.
STALE_LAYERS = {"losses.dpp_kernel"}


def run_script(script):
    proc = subprocess.run(
        [sys.executable, "-c", script.format(bench=str(BENCH))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_modules_import_and_tracer_installs():
    run_script(SCRIPT)


def test_every_timed_layer_is_traced():
    layers = json.loads(run_script(LAYERS_SCRIPT))
    assert layers["timed"]
    assert set(layers["timed"]) - set(layers["wrapped"]) <= STALE_LAYERS
