"""The host's speed of the moment, from a fixed reference computation.

The benchmark runs on a few cores of a host shared with other tenants.
Their load makes the work here slower or faster for minutes at a time,
by up to 1.7x on the machine in bench/README.md; the steal time in
/proc/stat hardly moves, so the cores are not taken away, they run
slower.  Timing a fixed computation between the program's commands
measures that speed, so that the benchmark can report its times at one
reference speed.  One sample takes ~0.35 s, and two samples taken back
to back differ by ~10%, so a run takes the median of all its samples.

The reference uses numpy only, never gdasum, so no change to the
program can change it.  It has one part for each kind of work the
workloads do, since the host's load slows each kind by a different
amount: products of model-sized matrices on every BLAS thread (the
model and its gradients), a Python loop of row gathers and
matrix-vector products over prefix sums (the linear KTS inner loop),
a Python loop of small index-and-reduce operations over a table (the
RBF KTS inner loop), and broadcast passes over an N x N x E array (the
pairwise distances of the losses, and the optimizer's streaming).  A
sample's slowdown is the mean over the parts of each part's time over
its time on the machine in bench/README.md.
"""

from __future__ import annotations

import time

import numpy as np

# Median seconds of each part on the machine in bench/README.md.  They
# only scale the reported figures; their spread does not depend on them.
MATMUL_S = 0.069
GATHER_S = 0.076
SMALL_OPS_S = 0.091
BROADCAST_S = 0.098


def _matmul() -> float:
    a = np.sin(np.arange(600 * 1024.0)).reshape(600, 1024)
    b = np.cos(np.arange(1024 * 1024.0)).reshape(1024, 1024) / 32.0
    started = time.perf_counter()
    for _ in range(4):
        np.tanh(a @ b)
    return time.perf_counter() - started


def _gather() -> float:
    prefix = np.cumsum(np.sin(np.arange(360 * 1024.0)).reshape(360, 1024), axis=0)
    started = time.perf_counter()
    for t in range(1, len(prefix)):
        prefix[np.arange(t)] @ prefix[t]
    return time.perf_counter() - started


def _small_ops() -> float:
    block = np.cumsum(np.sin(np.arange(601 * 601.0)).reshape(601, 601), axis=0)
    diag = np.cumsum(np.cos(np.arange(601.0)))
    best = np.zeros(601)
    started = time.perf_counter()
    for k in range(1, 6):
        for end in range(k, 601):
            s = np.arange(k - 1, end)
            blk = block[end, end] - block[s, end] - block[end, s] + block[s, s]
            np.argmin(best[s] + (diag[end] - diag[s]) - blk / (end - s))
    return time.perf_counter() - started


def _broadcast() -> float:
    e = np.sin(np.arange(96 * 256.0)).reshape(96, 256)
    started = time.perf_counter()
    for _ in range(11):
        d = e[:, None, :] - e[None, :, :]
        np.square(d, out=d)
        d.sum(axis=-1)
        del d
    return time.perf_counter() - started


def slowdown() -> float:
    """How much slower than on the reference machine the host runs now.

    The inputs are made anew each time and dropped after, so that the
    reference holds no memory between samples.  Its largest arrays take
    8 and 19 MB, so that it adds little or nothing to a workload's
    ``peak_rss_mb``.
    """
    return (
        _matmul() / MATMUL_S
        + _gather() / GATHER_S
        + _small_ops() / SMALL_OPS_S
        + _broadcast() / BROADCAST_S
    ) / 4.0
