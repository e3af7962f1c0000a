"""Baseline drift gate: recompute tflab's regression baselines and compare
them with the shipped src/tflab/data/baselines.json.

Prints each entry's relative drift and exits 1 if any entry drifts by more
than the library's 1e-9 relative gate or is missing on either side.

    python3 bench/drift.py
"""

from __future__ import annotations

import json
import os
import sys

from spec import SRC

GATE = 1e-9


def main() -> int:
    sys.path.insert(0, SRC)
    import tflab

    with open(os.path.join(SRC, "tflab", "data", "baselines.json"), encoding="utf-8") as fh:
        stored = json.load(fh)["entries"]
    computed = tflab.compute_baselines()
    bad = sorted(set(stored) ^ set(computed))
    for key in sorted(set(stored) & set(computed)):
        new, old = computed[key], stored[key]
        drift = abs(new - old) / max(abs(new), abs(old), 1e-30)
        print(f"drift {key}: {drift:.3e}", file=sys.stderr)
        if not drift <= GATE:
            bad.append(key)
    if bad:
        print(f"baseline drift gate FAILED: {sorted(bad)}", file=sys.stderr)
        return 1
    print(f"baseline drift gate passed: {len(computed)} entries within {GATE:g}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
