"""Workload table and memory guard shared by the launcher and the workers.

This module imports nothing beyond the standard library, so the launcher can
use it before any process has imported NumPy (the BLAS thread caps must be in
the environment before that import).
"""

from __future__ import annotations

import json
import math
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Order fixes the workload's entry in each op's SeedSequence([seed, id, op]).
WORKLOADS = ("verify-large", "transforms", "calderon", "verify-small")

#: Group shapes per workload, and how many of those groups keep their tables
#: alive at once (transforms holds both groups warm; the others build one
#: group per op and drop it).
SIZES = {
    "verify-large": {"groups": [[256], [16, 16], [4, 8, 8]], "alive": 1},
    "transforms": {"groups": [[1024], [32, 32]], "alive": 2},
    "calderon": {"groups": [[12], [6]], "alive": 2},
    "verify-small": {"groups": [[6], [8], [4, 6], [12], [5, 5], [9]], "alive": 1},
}

#: Closed loop, one client: each op starts when the previous one returns.
LOAD_MODEL = "closed loop, 1 client, 1 process, BLAS/OpenMP threads capped at 1"

THREAD_CAPS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: A workload is refused when its estimate exceeds this share of MemAvailable.
MEM_SHARE = 0.5
#: |G|^2-sized complex arrays alive at the peak of one transform op (output,
#: window/kernel products, index tables gathered for the op).
ARRAYS_PER_OP = 8


def estimate_bytes(groups, alive: int = 1) -> int:
    """About 32*|G|^2 bytes of tables per live group (complex character table
    plus int64 add/sub index) plus the transform outputs of one op."""
    sizes = sorted((math.prod(g) for g in groups), reverse=True)
    tables = sum(32 * n * n for n in sizes[:alive])
    outputs = ARRAYS_PER_OP * 16 * sizes[0] ** 2
    return tables + outputs


def mem_available_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise OSError("MemAvailable not found in /proc/meminfo")


class MemoryRefused(RuntimeError):
    pass


def check_memory(groups, alive: int, available: int) -> int:
    """Raise MemoryRefused when the estimate exceeds MEM_SHARE of available."""
    need = estimate_bytes(groups, alive)
    if need > MEM_SHARE * available:
        raise MemoryRefused(
            f"estimated {need / 2**20:.0f} MiB exceeds {MEM_SHARE:.0%} of"
            f" MemAvailable ({available / 2**20:.0f} MiB)"
        )
    return need


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
