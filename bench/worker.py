"""One workload in one fresh process: set-up, the timed closed loop, checks.

Started by run.py with the BLAS/OpenMP thread caps already in the
environment.  Human-readable lines go to stderr; the last line on stdout is
one JSON object for the launcher.

Untraced runs read op times and set-up time on the process CPU clock
(time.process_time).  An op is single-threaded (BLAS capped at one thread)
and does no I/O, so on an idle core its CPU time is its wall time; on a
shared host the CPU clock leaves out the time the process waited for a core.
Wall-clock figures are reported beside them.  Traced runs time ops and spans
on perf_counter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --t0 MONOTONIC [--part K --parts P]

An untraced run is split over P fresh processes: part K times its share
S/P of the ops, starting K * PART_CYCLES whole cycles in, and prints its
raw op times for the launcher to pool.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
import traceback

from spec import BENCH_DIR, ROOT, SRC, THREAD_CAPS, WORKLOADS

#: At least this many timed ops over all parts, so that ten samples lie
#: beyond p90.
MIN_OPS = 100
#: Part K of a run starts this many whole cycles after part K - 1, so the
#: parts run distinct ops and each starts at the first slot of a cycle.
PART_CYCLES = 10**6
#: A traced run replays at most this many ops, to bound the spans kept.
TRACE_MAX_OPS = 250
#: Stop timing after this much wall time even below MIN_OPS, so that a much
#: slower library still finishes within the per-run limit.
WALL_CAP_S = 120.0


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def measure(wl, stop, clock=time.process_time, tracer=None, digests=None, first=0):
    """Closed loop over ops first, first + 1, ... until ``stop(done, busy)``
    holds, where ``done`` ops have run.

    Op n+1 starts when op n and its check have returned.  Inputs are made
    and checked outside the timed interval; ``busy`` is the op time so far,
    read on ``clock``.  Returns (latencies, failed, wall seconds of the ops).
    """
    latencies, failed = [], 0
    busy, wall = 0.0, 0.0
    while not stop(len(latencies), busy):
        op = first + len(latencies)
        inp = wl.inputs(op)
        if tracer is not None:
            tracer.op = op
        wall_start = time.perf_counter()
        start = clock()
        try:
            out, error = wl.run(inp), None
        except Exception:  # a failing op is counted, not fatal
            error = traceback.format_exc()
        dt = clock() - start
        wall += time.perf_counter() - wall_start
        if tracer is not None:
            tracer.op = None
        latencies.append(dt)
        busy += dt
        if error is not None:
            failed += 1
            log(f"op {op} raised:\n{error}")
        else:
            try:
                wl.check(op, inp, out)
            except Exception:
                failed += 1
                log(f"op {op} failed its check:\n{traceback.format_exc()}")
            if digests is not None:
                digests.append(wl.digest(out))
    return latencies, failed, wall


def timed_stop(wl, seconds: float, min_ops: int, max_ops: float, wall_cap: float):
    """Stop at a whole cycle once ``seconds`` of op time and ``min_ops`` ops
    are done, or ``max_ops`` ops, or ``wall_cap`` seconds of wall time."""
    wall_end = time.monotonic() + wall_cap

    def stop(done: int, busy: float) -> bool:
        return done > 0 and done % wl.cycle == 0 and (
            (busy >= seconds and done >= min_ops)
            or done >= max_ops
            or time.monotonic() > wall_end
        )

    return stop


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = blas.get("openblas configuration", "")
        blas = f"{blas.get('name')} {blas.get('version')} ({config})"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas.strip(),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import tflab
    from workloads import REGISTRY

    if os.path.dirname(os.path.dirname(os.path.abspath(tflab.__file__))) != SRC:
        log(f"imported tflab from {tflab.__file__}, not from {SRC}")
        return 2

    wl = REGISTRY[args.workload](args.seed)
    wl.setup()
    for op in wl.warmup:
        wl.run(wl.inputs(op))
    gc.collect()
    # CPU time of this process since it started, interpreter start-up included
    setup_s = time.process_time()
    setup_wall_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "env": environment()}
    if not args.trace:
        stop = timed_stop(wl, args.seconds / args.parts, math.ceil(MIN_OPS / args.parts),
                          math.inf, WALL_CAP_S / args.parts)
        lat, failed, wall = measure(wl, stop, first=args.part * PART_CYCLES * wl.cycle)
        result.update(
            latencies=lat,
            failed=failed,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    else:
        result.update(traced(wl, args))
    print(json.dumps(result))
    return 0


def traced(wl, args) -> dict:
    """Untraced pass, then the same ops again under the tracer.

    The two passes must give bit-identical results and the tracer must put
    every original function back; either failure makes the run incorrect.
    """
    from tracing import Tracer

    plain_digests, traced_digests = [], []
    # spans are read on perf_counter, so both passes time ops on it too
    stop = timed_stop(wl, args.seconds / 2, 0, TRACE_MAX_OPS, WALL_CAP_S / 2)
    plain, failed, _ = measure(wl, stop, clock=time.perf_counter, digests=plain_digests)
    tracer = Tracer()
    tracer.install()
    try:
        lat, failed_traced, _ = measure(
            wl, lambda done, busy: done >= len(plain), clock=time.perf_counter,
            tracer=tracer, digests=traced_digests,
        )
    finally:
        tracer.uninstall()
    identical = plain_digests == traced_digests
    restored = tracer.originals_restored()
    if not identical:
        log("traced and untraced runs of the same ops gave different results")
    if not restored:
        log("the tracer left a wrapper in place")
    metrics = tracer.metrics(len(lat), sum(lat))
    metrics["trace.overhead_ratio"] = sum(lat) / sum(plain)

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    log(f"{len(tracer.spans)} spans over {len(lat)} ops written to {os.path.relpath(path, ROOT)}")
    failed += failed_traced
    return {
        "attempted": len(plain) + len(lat),
        "failed": failed,
        "correct": failed == 0 and identical and restored,
        "metrics": metrics,
        "selftest": {"identical": identical, "restored": restored,
                     "fingerprints": traced_digests[:3]},
    }


if __name__ == "__main__":
    sys.exit(main())
