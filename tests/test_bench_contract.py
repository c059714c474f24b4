"""The names the benchmark harness under bench/ takes from gdasum still exist,
and the files gdasum writes still pass the harness's own output check.

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

# Summarizes and evaluates a tiny planted corpus the way the summarize
# workload does, once per KTS kernel, and prints on its last line what
# bench/checks.py's check_part finds wrong with each pass.
CHECK_PART_SCRIPT = PRELUDE + """
import json
from pathlib import Path

from gdasum.cli import main
from gdasum.model import HyperParams, init_params
from gdasum.synthetic import PlantedSpec, make_planted_dataset
from gdasum.train import save_checkpoint

root = Path({root!r})
records = make_planted_dataset(PlantedSpec(n_videos=2, n_frames=60, dim=8, center_scale=1.0))
manifest = str(inputs.write_corpus(root / "corpus", records, change_points=False))
checkpoint = str(root / "init.ckpt")
hyper = HyperParams(hidden=8, embed=4)
save_checkpoint(init_params(8, hyper, 0), checkpoint, hyper)
fails = {{}}
for kernel, zeta in (("linear", True), ("rbf", False)):
    part = dict(manifest=manifest, summaries=str(root / kernel / "summaries"),
                metrics=str(root / kernel / "metrics"), kernel=kernel, zeta=zeta)
    assert main(["summarize", "--manifest", manifest, "--checkpoint", checkpoint,
                 "--kts-kernel", kernel, "--out", part["summaries"]]) == 0
    assert main(["eval", "--manifest", manifest, "--summaries", part["summaries"],
                 "--out", part["metrics"], *(["--zeta"] if zeta else [])]) == 0
    fails[kernel] = checks.check_part(part)
print(json.dumps(fails))
"""

# Trains on a tiny planted corpus the way the training workloads do, for
# two epochs in each mode, and prints on its last line what bench/checks.py's
# check_training finds wrong with each run.
CHECK_TRAINING_SCRIPT = PRELUDE + """
import json
from pathlib import Path

from gdasum.cli import main
from gdasum.data import make_splits
from gdasum.synthetic import PlantedSpec, make_planted_dataset

root = Path({root!r})
epochs, seed = 2, 0
records = make_planted_dataset(PlantedSpec(n_videos=6, n_frames=60, center_scale=1.0))
manifest = str(inputs.write_corpus(root / "corpus", records, change_points=True))
train_ids = list(make_splits(records, "canonical", seed)[0].train_ids)
fails = {{}}
for mode in ("supervised", "unsupervised"):
    plan = dict(manifest=manifest, train_ids=train_ids, train_out=str(root / mode))
    assert main(["train", "--manifest", manifest, "--setting", "canonical", "--fold", "0",
                 "--mode", mode, "--epochs", str(epochs), "--seed", str(seed),
                 "--hidden", "8", "--embed", "4", "--out", plan["train_out"]]) == 0
    fails[mode] = checks.check_training(plan, mode, epochs, seed)
print(json.dumps(fails))
"""

# Times every stage of bench/stages.py once at a small planted length,
# through the library calls the stage table makes, and prints the times.
STAGES_SCRIPT = PRELUDE + """
import json
print(json.dumps(stages.stage_times(60, 0, 1)))
"""

def run_script(script, **fields):
    proc = subprocess.run(
        [sys.executable, "-c", script.format(bench=str(BENCH), **fields)],
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
    assert set(layers["timed"]) <= set(layers["wrapped"])


def test_summaries_and_metrics_pass_the_benchmark_output_check(tmp_path):
    out = run_script(CHECK_PART_SCRIPT, root=str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == {"linear": [], "rbf": []}


def test_training_passes_the_benchmark_training_check(tmp_path):
    out = run_script(CHECK_TRAINING_SCRIPT, root=str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == {"supervised": [], "unsupervised": []}


def test_stage_timings_run_at_a_small_planted_length():
    times = json.loads(run_script(STAGES_SCRIPT).splitlines()[-1])
    assert "clip+Adam" in times and "supervised backward" in times
    assert all(0.0 < t < 60.0 for t in times.values()), times
