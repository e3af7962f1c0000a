"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Checks, without a real large allocation, that the memory guard refuses a
group whose estimate exceeds its share of MemAvailable; then, for each
workload, that one cycle of ops gives bit-identical results untraced and
traced (report fingerprints, max_ratio and array digests), that the tracer
puts every original function back, and that span self times add up to the
top-level span time.  Exits 1 on the first failure.
"""

from __future__ import annotations

import math
import os
import sys

from spec import (
    SIZES,
    SRC,
    THREAD_CAPS,
    WORKLOADS,
    MemoryRefused,
    check_memory,
    mem_available_bytes,
)

os.environ.update(THREAD_CAPS)  # before NumPy is imported below
sys.path.insert(0, SRC)

from tracing import Tracer  # noqa: E402
from worker import measure  # noqa: E402
from workloads import REGISTRY  # noqa: E402


def check_guard() -> None:
    available = mem_available_bytes()
    try:
        check_memory([[65536]], 1, available)
    except MemoryRefused as exc:
        print(f"guard refuses |G| = 65536 by estimate: {exc}")
    else:
        raise SystemExit("memory guard accepted |G| = 65536")
    for sizes in SIZES.values():
        check_memory(sizes["groups"], sizes["alive"], available)


def check_workload(name: str) -> None:
    wl = REGISTRY[name](seed=7)
    wl.setup()
    plain, traced = [], []
    one_cycle = lambda op, busy: op >= wl.cycle  # noqa: E731
    _, failed, _ = measure(wl, one_cycle, digests=plain)
    tracer = Tracer()
    tracer.install()
    try:
        _, failed_traced, _ = measure(wl, one_cycle, tracer=tracer, digests=traced)
    finally:
        tracer.uninstall()
    if failed or failed_traced:
        raise SystemExit(f"{name}: {failed} + {failed_traced} ops failed")
    if plain != traced:
        raise SystemExit(f"{name}: traced results differ from untraced ones")
    if not tracer.originals_restored():
        raise SystemExit(f"{name}: tracer left a wrapper in place")
    total_self = sum(tracer.self_times().values())
    if not tracer.spans or not math.isclose(total_self, tracer.top_level_time(), rel_tol=1e-9):
        raise SystemExit(f"{name}: span self times do not add up")
    print(f"{name}: {wl.cycle} ops identical traced and untraced, {len(tracer.spans)}"
          f" spans, originals restored; digests {plain[:2]}")


def main() -> int:
    check_guard()
    for name in WORKLOADS:
        check_workload(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
