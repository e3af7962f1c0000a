"""The four workloads: seeded inputs, the timed op, and its correctness check.

Each op's inputs come from np.random.SeedSequence([seed, workload, op]), so the
same seed gives the same inputs and different seeds give independent streams.
Workload code reaches the library only through attributes of the ``tflab``
package looked up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import tflab
from spec import SIZES, WORKLOADS

KINDS = tflab.verify.SAMPLE_KINDS
#: Relative tolerance of every identity checked, the library's own gate.
REL = 1e-9


class CheckFailed(AssertionError):
    pass


def _close(a, b, what: str, scale=None) -> None:
    scale = max(abs(a), abs(b), 1e-300) if scale is None else scale
    if not abs(a - b) <= REL * scale:
        raise CheckFailed(f"{what}: {a!r} vs {b!r} (scale {scale!r})")


def _scale_matrix(k: int, c: int):
    return tuple(tuple(c if i == j else 0 for j in range(k)) for i in range(k))


class Workload:
    #: Ops per cycle; a run times whole cycles so every run has the same mix.
    cycle = 1
    #: Op ids run once during set-up, one per distinct kind of op.
    warmup: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.wid = WORKLOADS.index(self.name)

    def seed_sequence(self, op: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, self.wid, op])

    def rng(self, op: int) -> np.random.Generator:
        return np.random.default_rng(self.seed_sequence(op))

    def op_seed(self, op: int) -> int:
        return int(self.seed_sequence(op).generate_state(1)[0])

    def setup(self) -> None:
        pass

    def inputs(self, op: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, op: int, inp, out) -> None:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError


# -- verify_theorem workloads ----------------------------------------------------


class _Verify(Workload):
    #: (theorem, group, indices, tau matrix or None, trials)
    plan: tuple = ()

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cycle = len(self.plan)

    def inputs(self, op: int):
        theorem, group, indices, tau, trials = self.plan[op % self.cycle]
        return tflab.TheoremInstance(
            theorem,
            tuple(group),
            tflab.IndexTuple.of(**indices),
            tau,
            trials,
            self.op_seed(op),
        )

    def run(self, inp):
        return tflab.verify_theorem(inp)

    def check(self, op: int, inp, out) -> None:
        if out.violations:
            raise CheckFailed(f"violations: {out.violations[:3]}")
        ratios = [row["ratio"] for row in out.trials] + [out.max_ratio, out.mean_ratio]
        if not all(math.isfinite(r) for r in ratios):
            raise CheckFailed("non-finite ratio in report")
        # spot check: rearrangement route against the distribution-function oracle
        grp = tflab.FiniteAbelianGroup(inp.group)
        f, g = tflab.sample_functions(KINDS[op % len(KINDS)], grp, inp.seed)
        v = tflab.stft(f, g).to_measured()
        _close(
            tflab.lorentz_norm(v, 4, 2),
            tflab.lorentz_norm_via_distribution(v, 4, 2),
            "lorentz_norm(V_g f) vs distribution oracle",
        )

    def digest(self, out) -> str:
        # fingerprint() drops runtime_ms only from a mapping, not from the
        # report object itself
        return f"{tflab.fingerprint(out.to_json())} max_ratio={float(out.max_ratio)!r}"


_T1 = {"q": 4, "p": 3, "u": 1, "v": 1, "w": 1}
_T4 = {"q": 4, "p": 3, "u": 2, "v": 1, "w": 2}
_T5II = {"q": 4, "p": 3, "u": 1, "v": 1}
_PRIME = {"q": 4, "p1": "8/3", "p2": "8/3", "u": 2, "v": 2, "w": 1}


class VerifyLarge(_Verify):
    name = "verify-large"
    plan = tuple(
        entry
        for group in SIZES["verify-large"]["groups"]
        for entry in (
            ("t1", group, _T1, None, 2),
            ("t3ii", group, _T1, _scale_matrix(len(group), 3), 2),
            ("t5ii", group, _T5II, None, 2),
            ("t4dual", group, _T4, _scale_matrix(len(group), 1), 2),
        )
    )
    warmup = (0, 1, 2, 3)


class VerifySmall(_Verify):
    name = "verify-small"
    # The theorem instances of tflab.BASELINE_GRID, copied so that a change to
    # the library's grid does not silently change this workload, plus a t5i
    # instance so that all ten theorem ids run.  Seeds are drawn per op.
    plan = (
        ("t1prime", [6], _PRIME, None, 24),
        ("t1prime", [8], _PRIME, None, 24),
        ("t1", [6], _T1, None, 24),
        ("t1", [4, 6], _T1, None, 12),
        ("t2", [6], {"q": 3}, None, 24),
        ("t2", [12], {"q": 4}, None, 24),
        ("t3i", [5, 5], _PRIME, ((2, 0), (0, 3)), 8),
        ("t3ii", [9], _T1, ((2,),), 16),
        ("t3iii", [6], {"p": 3, "u": 1, "v": 1, "w": 1}, None, 24),
        ("t3iv", [6], {"p": 3, "u": 1, "v": 1, "w": 1}, None, 24),
        ("t4dual", [6], _T4, ((1,),), 10),
        ("t5ii", [8], _T5II, None, 20),
        ("t5i", [8], {"q": 4, "p1": "8/3", "p2": "8/3", "u": 2, "v": 2}, None, 20),
    )
    warmup = tuple(range(len(plan)))


# -- dense transforms on |G| = 1024 ----------------------------------------------


class Transforms(Workload):
    name = "transforms"
    ops = ("stft", "wigner", "weyl")
    cycle = 6
    warmup = (0, 1, 2)

    def setup(self) -> None:
        self.groups = []
        for orders in SIZES["transforms"]["groups"]:
            grp = tflab.FiniteAbelianGroup(orders)
            grp.character_table, grp.add_index, grp.sub_index  # build the lazy tables
            tau = tflab.GroupEndomorphism(grp, _scale_matrix(grp.rank, 3))
            tau.permutation
            self.groups.append((grp, tau))

    def inputs(self, op: int):
        kind = self.ops[op % 3]
        grp, tau = self.groups[(op // 3) % len(self.groups)]
        rng = self.rng(op)
        n = grp.size
        f = tflab.GroupFunction(grp, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = tflab.GroupFunction(grp, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        phi = None
        if kind == "weyl":
            phi = tflab.TFArray(
                grp,
                (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n,
            )
        return kind, tau, f, g, phi

    def run(self, inp):
        kind, tau, f, g, phi = inp
        if kind == "stft":
            return tflab.stft(f, g)
        if kind == "wigner":
            return tflab.wigner_tau(f, g, tau)
        return tflab.weyl_apply(tflab.weyl_operator(phi, tau), f)

    def check(self, op: int, inp, out) -> None:
        kind, tau, f, g, phi = inp
        grp = f.group
        a, b = tflab.fourier(f).values, tflab.fourier_fft(f).values
        _close(float(np.max(np.abs(a - b))), 0.0, "fourier vs fourier_fft",
               scale=grp.size * float(np.max(np.abs(f.values))))
        if kind == "stft":
            _close(out.l2_norm(), f.l2_norm() * g.l2_norm(), "STFT isometry")
        elif kind == "wigner":
            # marginal: sum over xi of W_tau(f,g)(x, xi) = w |G| f(x) conj g(x)
            marginal = out.values.sum(axis=1)
            expected = grp.haar_weight * grp.size * f.values * np.conj(g.values)
            scale = grp.size * float(np.max(np.abs(f.values) * np.abs(g.values)))
            _close(float(np.max(np.abs(marginal - expected))), 0.0,
                   "Wigner marginal", scale=scale)
        else:
            lhs = out.inner(g)
            rhs = tflab.tf_pairing(phi, tflab.wigner_tau(f, g, tau))
            _close(lhs, rhs, "Weyl duality <K f, g> = <phi, W_tau(f, g)>")

    def digest(self, out) -> str:
        return hashlib.sha256(np.ascontiguousarray(out.values).tobytes()).hexdigest()


# -- exact Calderon evaluation -----------------------------------------------------


class Calderon(Workload):
    name = "calderon"
    cycle = 8
    warmup = (0, 1)

    def setup(self) -> None:
        self.z12, self.z6 = (
            tflab.FiniteAbelianGroup(g) for g in SIZES["calderon"]["groups"]
        )

    def inputs(self, op: int):
        kind = KINDS[(op // 2) % len(KINDS)]
        if op % 2 == 0:
            return ("majorization",) + tflab.sample_functions(kind, self.z12, self.op_seed(op))
        f, g = tflab.sample_functions(kind, self.z6, self.op_seed(op))
        return (
            "t-functional",
            tflab.rearrangement(f.to_measured()),
            tflab.rearrangement(g.to_measured()),
        )

    def run(self, inp):
        if inp[0] == "majorization":
            return tflab.majorization_check(inp[1], inp[2])
        return tflab.calderon_t_functional(inp[1], inp[2], 4, 2)

    def check(self, op: int, inp, out) -> None:
        if not (math.isfinite(out) and out > 0):
            raise CheckFailed(f"{inp[0]} result {out!r} is not finite and positive")
        fstar, gstar = inp[1], inp[2]
        if inp[0] == "majorization":
            fstar = tflab.rearrangement(fstar.to_measured())
            gstar = tflab.rearrangement(gstar.to_measured())
        for t in (0.25, 1.0, 8.0):
            _close(
                tflab.calderon_apply(tflab.ETA_SEPARABLE, fstar, gstar, t),
                tflab.calderon_separable_value(fstar, gstar, t),
                f"separable Calderon value at t={t}",
            )

    def digest(self, out) -> str:
        return float(out).hex()


REGISTRY = {cls.name: cls for cls in (VerifyLarge, Transforms, Calderon, VerifySmall)}
