"""The gdasum benchmark: one workload per call, inputs made from a seed.

    python3 bench/run.py --workload train-sup --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Sets the workload's inputs up several times (``setup_s`` is the
median), runs the measured load in a child process of its own (so
``peak_rss_mb`` is that of a process that ran only this workload),
checks the outputs against computations made apart from the program,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Both times, ``setup_s`` and ``frames_per_s``, are given at the
reference host speed of ``hostspeed``; the lines before the result
also give them as timed.  ``--workload all`` runs every workload in
turn, each in its own process.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import env

SETUP_REPEATS = 7
WORK_DIR = env.ROOT / ".bench_work"


def load_timeout(seconds: float) -> float:
    """How long the load may take: SECONDS, the rounds it finishes past
    them, and a traced run's warm-up and extra traced rounds."""
    return 120.0 + 3.0 * seconds


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    import checks
    import inputs
    import numpy
    from hostspeed import slowdown

    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    try:
        setup_times, speeds = [], [slowdown()]
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            started = time.perf_counter()
            plan = inputs.make_inputs(workload, seed, work)
            setup_times.append(time.perf_counter() - started)
            speeds.append(slowdown())
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        spans = WORK_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        try:
            proc = subprocess.run(
                [sys.executable, str(env.BENCH_DIR / "load.py"), str(plan_path),
                 str(seconds), "1" if trace else "0", str(spans)],
                capture_output=True, text=True, timeout=load_timeout(seconds), cwd=env.ROOT,
            )
        except subprocess.TimeoutExpired:
            print(f"bench: the load of {workload.name} did not end within "
                  f"{load_timeout(seconds):.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"bench: the load of {workload.name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        load = json.loads(proc.stdout.strip().splitlines()[-1])

        fails = []
        if not load["same_outputs_every_round"]:
            fails.append("rounds of the same commands wrote different outputs")
        for op, message in load["errors"].items():
            print(f"{op} failed: {message}", file=sys.stderr)
        for op in load["unexpected_errors"]:
            fails.append(f"{op} failed, but not with the known fault it probes")
        if not load["last_round_ok"]:
            fails.append("a command of the last round failed, so its outputs went unchecked")
        elif workload.kind == "train":
            fails += checks.check_training(plan, workload.mode, inputs.EPOCHS, seed)
        else:
            fails += checks.check_summaries(plan, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in fails:
        print(f"check failed: {message}", file=sys.stderr)
    if trace:
        metrics = load["per_layer"]
    else:
        metrics = {
            "frames_per_s": {
                "value": statistics.median(load["round_fps"] or [0.0]) * load["slowdown"],
                "unit": "frames/s",
            },
            "setup_s": {
                "value": statistics.median(setup_times) / statistics.median(speeds),
                "unit": "s",
            },
            "peak_rss_mb": {"value": load["peak_rss_mb"], "unit": "MB"},
        }
    print(f"numpy {numpy.__version__}, BLAS threads {env.blas_threads()}, nproc {env.NPROC}")
    print(f"{workload.name} seed {seed}: frames/s of each untraced round as timed "
          f"{[round(v, 1) for v in load['round_fps']]}, host slowdown "
          f"{load['slowdown']:.3f}; median set-up as timed {statistics.median(setup_times):.4f} s, "
          f"host slowdown {statistics.median(speeds):.3f}; probe {load['probe_seconds']:.3f} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not fails,
        "attempted": load["attempted"],
        "failed": load["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    import inputs

    status = 0
    for name in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0"],
            timeout=load_timeout(seconds) + 60,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import inputs
    except env.MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in inputs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(inputs.WORKLOADS)}")
    return run_workload(inputs.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
