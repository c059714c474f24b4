"""The measured load of one workload, in a process of its own.

    python3 bench/load.py PLAN.json SECONDS TRACE SPANS.jsonl

Runs whole rounds of the plan's commands through ``gdasum.cli.main``
until SECONDS have passed and at least MIN_ROUNDS untraced rounds
have run.  Then prints one JSON object: operations attempted and
failed, the frames per second of each round's counted commands as
timed, the host's median slowdown over the timed rounds (see
``hostspeed``; sampled before the first of them and after every
command), the peak resident memory of this process, whether every
round wrote the same bytes, and with TRACE=1 the per-layer metrics.
Every run starts with one untimed warm-up round.  A traced run then
alternates untraced and traced rounds and reports the gap between
their frames per second as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import env

gdasum = env.import_gdasum()

import gdasum.cli  # noqa: E402
from hostspeed import slowdown  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402

# A run goes on past SECONDS until it holds this many untraced rounds
# (and a traced run as many traced ones), so that frames per second are
# medians and every run compares outputs.
MIN_ROUNDS = 2


def call_cli(argv):
    """One command, as a user would run it; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gdasum.cli.main(argv)
    return code, err.getvalue()


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def output_files(plan) -> list[Path]:
    """What a round writes, less the training report, which records wall time."""
    if "train_out" in plan:
        return list(Path(plan["train_out"]).glob("*.ckpt"))
    dirs = [Path(part[key]) for part in plan["parts"] for key in ("summaries", "metrics")]
    return [p for d in dirs if d.is_dir() for p in d.iterdir() if p.is_file()]


def run_round(plan, tracer, stats, speeds):
    """One pass over the plan's commands, each followed by a slowdown
    sample appended to ``speeds``; returns (frames, seconds) counted."""
    frames = seconds = 0.0
    stats["last_round_ok"] = True
    for op in plan["ops"]:
        counted = "expect_error" not in op
        if tracer is not None and counted:
            tracer.install()
        try:
            started = time.perf_counter()
            code, err = call_cli(op["argv"])
            elapsed = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        speeds.append(slowdown())
        stats["attempted"] += 1
        if code != 0:
            stats["failed"] += 1
            stats["errors"].setdefault(op["name"], err.strip()[-500:])
            stats["last_round_ok"] &= not counted
            if not counted and op["expect_error"] not in err:
                stats["unexpected_errors"].setdefault(op["name"], err.strip()[-500:])
        elif counted:
            frames += op["frames"]
            seconds += elapsed
        if not counted:
            stats["probe_seconds"] += elapsed
    return frames, seconds


def main(argv) -> int:
    plan = json.loads(Path(argv[0]).read_text())
    seconds = float(argv[1])
    traced_run = argv[2] == "1"
    spans_path = argv[3]

    tracer = Tracer(gdasum) if traced_run else None
    stats = {"attempted": 0, "failed": 0, "errors": {}, "unexpected_errors": {},
             "probe_seconds": 0.0}
    round_fps = {False: [], True: []}  # traced? -> frames per second of each round
    rounds = {False: 0, True: 0}
    digests = set()
    # An untimed warm-up: the first round of a process also pays for
    # first-touch memory and lazy set-up; in unsupervised training it
    # ran 5-20% slower than the rounds after it.
    run_round(plan, None, stats, [])
    digests.add(digest(output_files(plan)))
    speeds = [slowdown()]
    started = time.perf_counter()
    while True:
        traced = traced_run and rounds[False] > rounds[True]
        frames, secs = run_round(plan, tracer if traced else None, stats, speeds)
        rounds[traced] += 1
        if secs:
            round_fps[traced].append(frames / secs)
        digests.add(digest(output_files(plan)))
        if (
            time.perf_counter() - started >= seconds
            and rounds[False] >= MIN_ROUNDS
            and (not traced_run or rounds[True] == rounds[False])
        ):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "errors": stats["errors"],
        "unexpected_errors": stats["unexpected_errors"],
        "round_fps": round_fps[False],
        "slowdown": statistics.median(speeds),
        "probe_seconds": stats["probe_seconds"],
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "same_outputs_every_round": len(digests) == 1,
        "last_round_ok": stats["last_round_ok"],
    }
    if traced_run:
        untraced, traced = (statistics.median(round_fps[k] or [0.0]) for k in (False, True))
        overhead = 100.0 * (1.0 - traced / untraced) if untraced else 0.0
        result["per_layer"] = per_layer_metrics(tracer, rounds[True], overhead)
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
