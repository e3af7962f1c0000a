"""tflab benchmark launcher.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs the baseline drift gate once, then each named workload in fresh worker
processes with the BLAS/OpenMP threads capped, and prints the machine record,
every metric by name and unit, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  Exit codes: 1 baseline drift or a worker failure, 2 tflab source
missing, 3 workload refused by the memory guard.

This file imports no NumPy: the caps must be in a process's environment
before NumPy is imported, so all numerical work runs in the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spec import (
    BENCH_DIR,
    LOAD_MODEL,
    ROOT,
    SIZES,
    SRC,
    THREAD_CAPS,
    WORKLOADS,
    MemoryRefused,
    check_memory,
    load_benchmark,
    mem_available_bytes,
)

#: An untraced run splits its ops over this many fresh worker processes, so
#: that no one process's memory layout sets the figures; setup_s is the
#: median of their set-up times.
PARTS = 5
#: Wall-time budget of one workload's processes (with the drift gate for the
#: first), under the 180 s run limit.
BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(script: str, args, deadline: float) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_CAPS)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, script), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{script} {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def run_workload(name: str, args, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    def worker(*extra) -> dict:
        out = run_child("worker.py", common + ["--t0", repr(time.monotonic()), *extra], deadline)
        return json.loads(out.strip().splitlines()[-1])

    if args.trace:
        return worker()
    parts = [worker("--part", str(k), "--parts", str(PARTS)) for k in range(PARTS)]
    lat = [x for part in parts for x in part["latencies"]]
    failed = sum(part["failed"] for part in parts)
    p90 = percentile(lat, 90)
    return {
        "env": parts[0]["env"],
        "attempted": len(lat),
        "failed": failed,
        "correct": failed == 0,
        "beyond_p90": sum(x > p90 for x in lat),
        "setups": [part["setup_s"] for part in parts],
        "setup_wall_s": statistics.median(part["setup_wall_s"] for part in parts),
        "wall_throughput_ops_s": len(lat) / sum(part["wall_s"] for part in parts),
        "metrics": {
            "setup_s": statistics.median(part["setup_s"] for part in parts),
            "throughput_ops_s": len(lat) / sum(lat),
            "latency_p50_s": percentile(lat, 50),
            "latency_p90_s": p90,
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
            "success_ratio": (len(lat) - failed) / len(lat),
        },
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (NumPy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _command(cmd, **kwargs) -> str:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=10,
                              check=True, **kwargs).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def _fields(lines) -> dict:
    pairs = (line.split(":", 1) for line in lines if ":" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def machine_record() -> dict:
    lscpu = _fields(_command(["lscpu"], env=dict(os.environ, LC_ALL="C")).splitlines())
    model, l3 = lscpu.get("Model name"), lscpu.get("L3 cache")
    if not model:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                info = _fields(fh)
        except OSError:
            info = {}
        model = info.get("model name")
        if not l3 and "cache size" in info:
            l3 = f"{info['cache size']} (per-core, from /proc/cpuinfo)"
    # the checkout may not be a git repository; never look above it for one
    commit = _command(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))).strip()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or "unknown",
        "l3_cache": l3 or "unknown",
        "python": platform.python_version(),
        "git_commit": commit or "unknown (not a git checkout)",
        "load_model": LOAD_MODEL,
    }


def print_workload(name: str, result: dict, spec: dict, trace: int) -> None:
    n, failed = result["attempted"], result["failed"]
    print(f"== {name}: {n} ops attempted, {failed} failed,"
          f" failed_ratio {failed / n:.4g} ({failed}/{n})")
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    for m in metrics:
        note = ""
        if m["name"] == "setup_s":
            runs = " ".join(f"{s:.4f}" for s in result["setups"])
            note = f"  median of {len(result['setups'])}: {runs}"
            note += f"; wall {result['setup_wall_s']:.4f} s"
        elif m["name"] == "throughput_ops_s":
            note = f"  wall {result['wall_throughput_ops_s']:.4f} ops/s"
        elif m["name"] == "latency_p90_s":
            note = f"  {n} samples, {result['beyond_p90']} beyond p90"
        print(f"  {m['name']:<28} {result['metrics'][m['name']]:>14.6g} {m['unit']}{note}")
    if trace:
        print(f"  self-test: {result['selftest']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "tflab", "__init__.py")):
        print(f"tflab source not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_benchmark()
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    record = machine_record()
    available = mem_available_bytes()
    record["mem_available_mib"] = available // 2**20
    try:
        for name in names:
            need = check_memory(SIZES[name]["groups"], SIZES[name]["alive"], available)
            record[f"estimate_mib.{name}"] = round(need / 2**20, 1)
    except MemoryRefused as exc:
        print(f"refusing {name}: {exc}", file=sys.stderr)
        return 3

    try:
        deadline = time.monotonic() + BUDGET_S
        run_child("drift.py", [], deadline)
        results = {}
        for name in names:
            results[name] = run_workload(name, args, deadline)
            deadline = time.monotonic() + BUDGET_S  # for the next one under "all"
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record.update(next(iter(results.values()))["env"])
    for key, value in record.items():
        print(f"# {key}: {value}")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        print_workload(name, result, spec, args.trace)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for m in metrics:
            summary["metrics"][prefix + m["name"]] = {
                "value": result["metrics"][m["name"]], "unit": m["unit"]
            }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
