"""
Empirical verification of the boundedness theorems
==================================================

Each theorem in the catalog asserts a norm inequality for some
time-frequency representation under index constraints.  The harness
draws deterministic sample families, evaluates both sides, and reports
the worst ratio observed; an extremizer search then tries to push the
ratio higher by gradient-free perturbation, where more budget never
lowers the result.
"""

from __future__ import annotations

from tflab import (
    THEOREMS,
    IndexTuple,
    TheoremInstance,
    extremizer_search,
    hypothesis_gaps,
    verify_theorem,
)

print("theorem catalog:", ", ".join(THEOREMS))

# -- a single instance: STFT boundedness on Z_8 -------------------------------------------

inst = TheoremInstance(
    theorem="t1",
    group=(8,),
    indices=IndexTuple.of(q=4, p=3, u=1, v=1, w=1),
    trials=24,
    seed=42,
)
print("unverifiable hypotheses:", hypothesis_gaps(inst) or "none")

report = verify_theorem(inst)
print(f"trials {len(report.trials)}, violations {len(report.violations)}")
worst = max(report.trials, key=lambda t: t["ratio"])
print(f"worst sample kind: {worst['kind']} (trial {worst['trial']})")
print(f"max ratio  {report.max_ratio:.8f}")
print(f"mean ratio {report.mean_ratio:.8f}")

# -- an instance that needs an invertible deformation --------------------------------------

inst2 = TheoremInstance(
    theorem="t3ii",
    group=(9,),
    indices=IndexTuple.of(q=4, p=3, u=1, v=1, w=1),
    tau=((2,),),
    trials=16,
    seed=42,
)
report2 = verify_theorem(inst2)
print(f"t3ii on Z_9 with tau=2: max ratio {report2.max_ratio:.8f}")

# -- searching for extremizers --------------------------------------------------------------

# budget counts proposals after the sweep; a run is a prefix of every longer
# run, so more budget never lowers the result
ratios = [extremizer_search(inst, budget=b)[0] for b in (0, 150, 600)]
for b, r in zip((0, 150, 600), ratios):
    print(f"budget {b:3d}: best ratio {r:.8f}")
print("more budget never lowers the result:", ratios == sorted(ratios))
