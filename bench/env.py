"""Process environment shared by every benchmark entry point.

Importing this module, before numpy is imported, sets the BLAS thread
pools to the number of CPUs this process may run on, and puts the
checkout's ``src`` first on ``sys.path`` so that ``gdasum`` is always
the copy under test, never an installed one.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

if "numpy" in sys.modules:
    raise RuntimeError("bench.env must be imported before numpy")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class MissingSources(RuntimeError):
    """The checkout holds no gdasum sources to benchmark."""


def import_gdasum():
    """Import gdasum from this checkout's src, refusing any other copy."""
    if not (SRC / "gdasum" / "__init__.py").is_file():
        raise MissingSources(f"no gdasum sources under {SRC}")
    import gdasum

    if Path(gdasum.__file__).resolve().parent != SRC / "gdasum":
        raise MissingSources(f"gdasum was imported from {gdasum.__file__}, not {SRC}")
    return gdasum


def blas_threads() -> int:
    return int(os.environ["OPENBLAS_NUM_THREADS"])
