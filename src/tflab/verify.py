"""Randomized and exhaustive checks for the transform inequalities.

One catalogue, ``_THEOREMS``, says what each theorem id means: its index
rules, the exponents of ||f|| and ||g||, the numerator transform and its
exponents, its trial (a norm ratio, the uncertainty chain or the Weyl
quantization sample) and whether it needs an automorphism tau.  Trials are
deterministic, and a report's content depends only on (instance, seed).
Inequalities with explicit constants are asserted; families whose
constants are not pinned down are tracked empirically against stored
regression baselines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .calderon import ETA_SQRT_MIN, EtaSet, calderon_apply
from .exponents import (
    Exponent,
    ExponentLike,
    conjugate,
    format_exponent,
    is_inf,
    parse_exponent,
    recip,
)
from .groups import FiniteAbelianGroup, GroupEndomorphism
from .lorentz import (
    MeasuredFunction,
    _lorentz_norm,
    lorentz_norm,
    rearrangement,
    tensor_product,
)
from .serialize import fingerprint
from .tfa import (
    GroupFunction,
    TFArray,
    conjugate_rihaczek,
    rihaczek,
    stft,
    tf_pairing,
    tf_shift,
    weyl_apply,
    weyl_operator,
    wigner_tau,
)

__all__ = [
    "THEOREMS",
    "SAMPLE_KINDS",
    "IndexTuple",
    "TheoremInstance",
    "VerificationReport",
    "check_admissibility",
    "hypothesis_gaps",
    "sample_functions",
    "verify_theorem",
    "restricted_weak_type_check",
    "majorization_check",
    "uncertainty_check",
    "extremizer_search",
    "BASELINE_GRID",
    "compute_baselines",
]

SAMPLE_KINDS = ("gaussian-random", "indicator", "spike-plus-flat", "tf-atom")

#: Relative slack for inequalities stated with an explicit constant.
TOLERANCE = 1e-9


# -- index tuples ----------------------------------------------------------------


@dataclass(frozen=True)
class IndexTuple:
    """The exponent slots an inequality instance may populate.

    Values are exact rationals (or inf) so index relations such as
    1/u + 1/v = 1 + 1/w are decided without floating-point slack.
    """

    p: Optional[Exponent] = None
    p1: Optional[Exponent] = None
    p2: Optional[Exponent] = None
    q: Optional[Exponent] = None
    u: Optional[Exponent] = None
    v: Optional[Exponent] = None
    w: Optional[Exponent] = None

    @classmethod
    def of(cls, **kwargs: ExponentLike) -> "IndexTuple":
        bad = set(kwargs) - set(_INDEX_FIELDS)
        if bad:
            raise ValueError(f"unknown index fields: {sorted(bad)}")
        return cls(
            **{name: parse_exponent(value) for name, value in kwargs.items()}
        )

    def to_json(self) -> dict:
        return {
            name: format_exponent(value)
            for name in _INDEX_FIELDS
            if (value := getattr(self, name)) is not None
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IndexTuple":
        return cls.of(**obj)


_INDEX_FIELDS = tuple(slot.name for slot in fields(IndexTuple))


@dataclass(frozen=True)
class TheoremInstance:
    """One verification run: inequality id, group, indices, trial plan."""

    theorem: str
    group: Tuple[int, ...]
    indices: IndexTuple
    tau: Optional[Tuple[Tuple[int, ...], ...]] = None
    trials: int = 200
    seed: int = 42

    def __post_init__(self) -> None:
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem id {self.theorem!r}")
        object.__setattr__(self, "group", tuple(int(n) for n in self.group))
        if self.tau is not None:
            object.__setattr__(
                self, "tau", tuple(tuple(int(m) for m in row) for row in self.tau)
            )
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "group": list(self.group),
            "indices": self.indices.to_json(),
            "tau": None if self.tau is None else [list(r) for r in self.tau],
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TheoremInstance":
        return cls(
            theorem=obj["theorem"],
            group=tuple(obj["group"]),
            indices=IndexTuple.from_json(obj.get("indices", {})),
            tau=None
            if obj.get("tau") is None
            else tuple(tuple(r) for r in obj["tau"]),
            trials=int(obj.get("trials", cls.trials)),
            seed=int(obj.get("seed", cls.seed)),
        )


@dataclass
class VerificationReport:
    """Trial-level outcomes; content is a pure function of (instance, seed)."""

    instance: TheoremInstance
    trials: List[dict] = field(default_factory=list)
    skipped: int = 0
    max_ratio: float = 0.0
    mean_ratio: float = 0.0
    violations: List[dict] = field(default_factory=list)
    hypothesis_gaps: List[str] = field(default_factory=list)
    baseline: Optional[float] = None
    runtime_ms: float = 0.0
    #: wall-clock ms per stage, summed over trials: drawing (f, g), their
    #: fingerprints, and the trial's norms and transforms
    timings_ms: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(("sample", "fingerprint", "trial"), 0.0)
    )

    def to_json(self) -> dict:
        return {
            "instance": self.instance.to_json(),
            "baseline": self.baseline,
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
            "violations": self.violations,
            "trials": self.trials,
            "skipped": self.skipped,
            "hypothesis_gaps": self.hypothesis_gaps,
            "runtime_ms": self.runtime_ms,
            "timings_ms": self.timings_ms,
        }


# -- index rules -------------------------------------------------------------------

#: An index rule returns why an index tuple breaks it, or None.
_Rule = Callable[[IndexTuple], Optional[str]]


def _slots(
    names: str, why: Callable[[str, Exponent], Optional[str]]
) -> Tuple[_Rule, ...]:
    """One rule per space-separated slot: the slot is required, and
    ``why(name, value)`` explains a value outside its range."""

    def rule(name: str) -> _Rule:
        def check(idx: IndexTuple) -> Optional[str]:
            x = getattr(idx, name)
            return f"{name} is required" if x is None else why(name, x)

        return check

    return tuple(rule(name) for name in names.split())


def _above(lo: int, names: str) -> Tuple[_Rule, ...]:
    """Each slot in the open interval (lo, inf)."""
    return _slots(
        names,
        lambda name, x: None
        if not is_inf(x) and lo < x
        else f"{name} must lie in ({lo}, inf), got {format_exponent(x)}",
    )


def _at_least_one(names: str, finite: bool = False) -> Tuple[_Rule, ...]:
    """Each slot in [1, inf], or in [1, inf) when finite."""

    def why(name: str, x: Exponent) -> Optional[str]:
        if is_inf(x):
            return f"{name} must be finite, got inf" if finite else None
        return None if x >= 1 else f"{name} must be >= 1, got {format_exponent(x)}"

    return _slots(names, why)


def _need(holds: Callable[[IndexTuple], bool], why: str) -> Tuple[_Rule]:
    """A relation between slots that earlier rules have already checked."""
    return (lambda idx: None if holds(idx) else why,)


def _p_window(idx: IndexTuple) -> Optional[str]:
    """p in [q', q], p != 2, for a q already known to lie in (2, inf)."""
    p, q = idx.p, idx.q
    if p is None:
        return "p is required"
    qc = conjugate(q)
    below = is_inf(q) or (not is_inf(p) and p <= q)
    if not (below and qc <= p):
        return (
            f"p must lie in [q', q] = [{format_exponent(qc)}, {format_exponent(q)}],"
            f" got {format_exponent(p)}"
        )
    if p == 2:
        return "p = 2 is excluded"
    return None


#: 1/p1 + 1/p2 = 1 - 1/q with q in (2, inf) and p1, p2 in (1, inf)
_SPLIT_Q = _above(2, "q") + _above(1, "p1 p2") + _need(
    lambda i: recip(i.p1) + recip(i.p2) == 1 - recip(i.q),
    "need 1/p1 + 1/p2 = 1 - 1/q",
)
#: q in (2, inf) and p in [q', q] without 2
_P_IN_WINDOW = _above(2, "q") + (_p_window,)
#: the Hoelder-type relation 1/u + 1/v >= 1/w
_HOLDER = _need(
    lambda i: recip(i.u) + recip(i.v) >= recip(i.w), "need 1/u + 1/v >= 1/w"
)
#: the Young-type relation 1/u + 1/v >= 1 + 1/w
_YOUNG = _need(
    lambda i: recip(i.u) + recip(i.v) >= 1 + recip(i.w), "need 1/u + 1/v >= 1 + 1/w"
)


# -- deterministic test-function generation ------------------------------------------


def _random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """n complex Gaussians (x + i y) / sqrt(2): all the x drawn first, then all
    the y, written into one complex buffer and scaled there."""
    values = np.empty(n, dtype=np.complex128)
    values.real = rng.standard_normal(n)
    values.imag = rng.standard_normal(n)
    # a complex division, as (x + 1j * y) / sqrt(2) takes it, for the same bits
    values /= math.sqrt(2)
    return values


def _random_indicator(rng: np.random.Generator, n: int) -> np.ndarray:
    size = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=size, replace=False)
    values = np.zeros(n, dtype=np.complex128)
    values[support] = 1.0
    return values


def sample_functions(
    kind: str, group: FiniteAbelianGroup, seed: int
) -> Tuple[GroupFunction, GroupFunction]:
    """A deterministic (f, g) pair of the requested shape on the group."""
    if kind not in SAMPLE_KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; choose from {SAMPLE_KINDS}")
    rng = np.random.default_rng(seed)
    n = group.size
    if kind == "gaussian-random":
        return (
            GroupFunction(group, _random_values(rng, n)),
            GroupFunction(group, _random_values(rng, n)),
        )
    if kind == "indicator":
        return (
            GroupFunction(group, _random_indicator(rng, n)),
            GroupFunction(group, _random_indicator(rng, n)),
        )
    if kind == "spike-plus-flat":
        pair = []
        for _ in range(2):
            values = np.full(n, rng.uniform(0.02, 0.2), dtype=np.complex128)
            values[int(rng.integers(n))] += rng.uniform(1.0, 10.0)
            pair.append(GroupFunction(group, values))
        return pair[0], pair[1]
    pair = []
    for _ in range(2):
        base = GroupFunction(group, _random_indicator(rng, n))
        x = int(rng.integers(n))
        xi = int(rng.integers(n))
        pair.append(tf_shift(base, x, xi))
    return pair[0], pair[1]


def _trial_pairs(
    group: FiniteAbelianGroup, seed: int, trials: int
) -> Iterator[Tuple[str, int, GroupFunction, GroupFunction]]:
    """(kind, sub_seed, f, g) for trial i: kinds cycle, substream seed ^ i."""
    for i in range(trials):
        kind = SAMPLE_KINDS[i % len(SAMPLE_KINDS)]
        sub_seed = seed ^ i
        f, g = sample_functions(kind, group, sub_seed)
        yield kind, sub_seed, f, g


# -- trials ------------------------------------------------------------------------
#
# Every trial takes (instance, tau, f, g, trial index, sub_seed, report) and
# returns its ratio, or None when the denominator vanishes.


def _ratio_trial(
    instance: TheoremInstance,
    tau: Optional[GroupEndomorphism],
    f: GroupFunction,
    g: GroupFunction,
    *_: object,
) -> Optional[float]:
    """ratio = ||transform(f, g)|| / (||f|| ||g||)."""
    spec, idx = _THEOREMS[instance.theorem], instance.indices
    f_exp, g_exp = spec.norms(idx)
    den = f.lorentz_norm(*f_exp) * g.lorentz_norm(*g_exp)
    if den == 0:
        return None
    return spec.transform(f, g, tau).lorentz_norm(*spec.out(idx)) / den


def _uncertainty_trial(
    instance: TheoremInstance,
    tau: Optional[GroupEndomorphism],
    f: GroupFunction,
    g: GroupFunction,
    trial: int,
    sub_seed: int,
    report: VerificationReport,
) -> Optional[float]:
    """chain_lhs / chain_rhs for a random region."""
    rng = np.random.default_rng(sub_seed + 1)
    n = f.group.size
    density = rng.uniform(0.05, 1.0)
    mask = rng.random((n, n)) < density
    mask[int(rng.integers(n)), int(rng.integers(n))] = True
    idx = instance.indices
    # a Lorentz norm vanishes only for the zero function
    if not (f.values.any() and g.values.any()):
        return None
    try:
        _, lhs, rhs, _, _ = uncertainty_check(f, g, mask, idx.q, u=idx.u, v=idx.v)
    except ValueError:
        return None
    ratio = lhs / rhs if rhs else math.inf
    if lhs > rhs * (1 + TOLERANCE):
        report.violations.append(
            {"trial": trial, "kind": "uncertainty-chain", "ratio": ratio}
        )
    return ratio


def _weyl_trial(
    instance: TheoremInstance,
    tau: GroupEndomorphism,
    f: GroupFunction,
    g: GroupFunction,
    trial: int,
    sub_seed: int,
    report: VerificationReport,
) -> Optional[float]:
    """Operator-norm sample ||K f|| / (||f|| ||phi||) plus the defining
    duality identity <K f, g> = <phi, W_tau(f, g)>."""
    grp = f.group
    rng = np.random.default_rng(sub_seed + 2)
    phi = TFArray(grp, _random_values(rng, grp.size * grp.size).reshape(grp.size, -1))
    kf = weyl_apply(weyl_operator(phi, tau), f)
    lhs = kf.inner(g)
    rhs = tf_pairing(phi, wigner_tau(f, g, tau))
    scale = max(abs(lhs), abs(rhs), 1e-30)
    if abs(lhs - rhs) > TOLERANCE * scale:
        report.violations.append(
            {"trial": trial, "kind": "weyl-duality", "ratio": abs(lhs - rhs) / scale}
        )
    spec, idx = _THEOREMS[instance.theorem], instance.indices
    f_exp, phi_exp = spec.norms(idx)
    den = phi.lorentz_norm(*phi_exp) * f.lorentz_norm(*f_exp)
    if den == 0:
        return None
    return kf.lorentz_norm(*spec.out(idx)) / den


# -- the theorem catalogue ---------------------------------------------------------


_Pair = Tuple[ExponentLike, ExponentLike]


@dataclass(frozen=True)
class _Theorem:
    """Everything one theorem id means to the harness."""

    #: index rules, checked in order; the first failure explains the refusal
    rules: Tuple[_Rule, ...]
    #: _ratio_trial, _uncertainty_trial or _weyl_trial
    trial: Callable[..., Optional[float]]
    #: (p, q) exponents of ||f|| and ||g|| (of ||f|| and ||phi|| for Weyl);
    #: the uncertainty trial reads none
    norms: Optional[Callable[[IndexTuple], Tuple[_Pair, _Pair]]] = None
    #: the numerator transform, reached through the module's names at call time
    transform: Optional[Callable[..., TFArray]] = None
    #: (p, q) exponents of the numerator
    out: Optional[Callable[[IndexTuple], _Pair]] = None
    #: needs an automorphism tau, whose modulus hypothesis no finite group meets
    needs_tau: bool = False
    #: assumes a nonatomic measure, which no finite group has
    nonatomic: bool = False


_THEOREMS: Dict[str, _Theorem] = {
    "t1prime": _Theorem(
        rules=_SPLIT_Q + _at_least_one("u v w") + _HOLDER,
        trial=_ratio_trial,
        norms=lambda i: ((i.p1, i.u), (i.p2, i.v)),
        transform=lambda f, g, tau: stft(f, g),
        out=lambda i: (i.q, i.w),
    ),
    "t1": _Theorem(
        rules=_P_IN_WINDOW + _at_least_one("u v w", finite=True) + _YOUNG,
        trial=_ratio_trial,
        norms=lambda i: ((conjugate(i.p), i.u), (i.p, i.v)),
        transform=lambda f, g, tau: stft(f, g),
        out=lambda i: (i.q, i.w),
    ),
    "t2": _Theorem(
        rules=_above(2, "q"),
        trial=_ratio_trial,
        norms=lambda i: ((2, 1), (2, 1)),
        transform=lambda f, g, tau: stft(f, g),
        out=lambda i: (i.q, 1),
    ),
    "t3i": _Theorem(
        rules=_SPLIT_Q + _at_least_one("u v w") + _HOLDER,
        trial=_ratio_trial,
        norms=lambda i: ((i.p1, i.u), (i.p2, i.v)),
        transform=lambda f, g, tau: wigner_tau(f, g, tau),
        out=lambda i: (i.q, i.w),
        needs_tau=True,
    ),
    "t3ii": _Theorem(
        rules=_P_IN_WINDOW + _at_least_one("u v w", finite=True) + _YOUNG,
        trial=_ratio_trial,
        norms=lambda i: ((conjugate(i.p), i.u), (i.p, i.v)),
        transform=lambda f, g, tau: wigner_tau(f, g, tau),
        out=lambda i: (i.q, i.w),
        needs_tau=True,
    ),
    "t3iii": _Theorem(
        rules=_above(2, "p") + _at_least_one("u v w") + _YOUNG,
        trial=_ratio_trial,
        norms=lambda i: ((i.p, i.u), (conjugate(i.p), i.v)),
        transform=lambda f, g, tau: rihaczek(f, g),
        out=lambda i: (i.p, i.w),
    ),
    "t3iv": _Theorem(
        rules=_above(2, "p") + _at_least_one("u v w") + _YOUNG,
        trial=_ratio_trial,
        norms=lambda i: ((conjugate(i.p), i.u), (i.p, i.v)),
        transform=lambda f, g, tau: conjugate_rihaczek(f, g),
        out=lambda i: (i.p, i.w),
    ),
    "t4dual": _Theorem(
        rules=_P_IN_WINDOW + _above(1, "w u") + _at_least_one("v", finite=True) + _YOUNG,
        trial=_weyl_trial,
        norms=lambda i: ((i.p, i.v), (conjugate(i.q), conjugate(i.w))),
        out=lambda i: (i.p, conjugate(i.u)),
        needs_tau=True,
        nonatomic=True,
    ),
    "t5i": _Theorem(
        rules=_SPLIT_Q + _at_least_one("u v") + _need(
            lambda i: recip(i.u) + recip(i.v) <= 1, "need 1/u + 1/v <= 1"
        ),
        trial=_uncertainty_trial,
    ),
    "t5ii": _Theorem(
        rules=_P_IN_WINDOW + _at_least_one("u v", finite=True) + _need(
            lambda i: recip(i.u) + recip(i.v) > 1, "need 1/u + 1/v > 1"
        ),
        trial=_uncertainty_trial,
    ),
}

THEOREMS = tuple(_THEOREMS)


def _first_failure(rules: Sequence[_Rule], idx: IndexTuple) -> Optional[str]:
    """Why idx breaks the first of the rules it breaks, or None."""
    return next((why for rule in rules if (why := rule(idx))), None)


class _Inadmissible(ValueError):
    """An instance that breaks a hypothesis of its theorem; ``why`` names it."""

    def __init__(self, why: str):
        super().__init__(f"inadmissible instance: {why}")
        self.why = why


def _setup(
    instance: TheoremInstance,
) -> Tuple[FiniteAbelianGroup, Optional[GroupEndomorphism]]:
    """The instance's group and tau, with tau certified an automorphism here,
    once, when the theorem needs one; _Inadmissible names the first
    hypothesis the instance breaks."""
    spec = _THEOREMS[instance.theorem]
    why = _first_failure(spec.rules, instance.indices)
    if why is None and spec.needs_tau and instance.tau is None:
        why = "tau (an automorphism matrix) is required"
    if why:
        raise _Inadmissible(why)
    grp = FiniteAbelianGroup(instance.group)
    tau = None if instance.tau is None else GroupEndomorphism(grp, instance.tau)
    if spec.needs_tau and not tau.is_automorphism:
        raise _Inadmissible("tau is not an automorphism of the group")
    return grp, tau


def check_admissibility(instance: TheoremInstance) -> Tuple[bool, str]:
    """Whether the instance satisfies its inequality's index hypotheses.

    The explanation names the first violated constraint; automorphism
    hypotheses on tau are checked against the group.
    """
    try:
        _setup(instance)
    except _Inadmissible as exc:
        return False, exc.why
    return True, "admissible"


def hypothesis_gaps(instance: TheoremInstance) -> List[str]:
    """Hypotheses of the source inequality that no finite group satisfies.

    These do not block a run; they are attached to every report so that
    empirical ratios are not mistaken for a verified theorem conclusion.
    """
    spec = _THEOREMS[instance.theorem]
    gaps = []
    if spec.needs_tau:
        gaps.append(
            "tau-modulus hypothesis unattainable: every automorphism of a"
            " finite group has modulus exactly 1, never in (0, 1)"
        )
    if spec.nonatomic:
        gaps.append(
            "nonatomicity hypothesis unattainable: counting-type Haar"
            " measures on finite groups are purely atomic"
        )
    return gaps


def verify_theorem(instance: TheoremInstance) -> VerificationReport:
    """Run the instance's randomized trial plan and aggregate ratios.

    Trials cycle through the sample kinds with per-trial substreams
    seed XOR trial-index, so parallel or re-ordered execution cannot
    change the report.  Zero-denominator trials are skipped, not failed.
    """
    started = time.perf_counter()
    grp, tau = _setup(instance)
    report = VerificationReport(
        instance=instance, hypothesis_gaps=hypothesis_gaps(instance)
    )
    trial_of = _THEOREMS[instance.theorem].trial
    ratios = []
    spent = dict.fromkeys(report.timings_ms, 0.0)
    clock = time.perf_counter
    mark = clock()
    pairs = _trial_pairs(grp, instance.seed, instance.trials)
    for i, (kind, sub_seed, f, g) in enumerate(pairs):
        sampled = clock()
        spent["sample"] += sampled - mark
        row = {
            "trial": i,
            "kind": kind,
            "fingerprint_f": fingerprint(f.to_measured()),
            "fingerprint_g": fingerprint(g.to_measured()),
        }
        printed = clock()
        spent["fingerprint"] += printed - sampled
        ratio = trial_of(instance, tau, f, g, i, sub_seed, report)
        mark = clock()
        spent["trial"] += mark - printed
        if ratio is None:
            report.skipped += 1
            continue
        if not math.isfinite(ratio):
            report.violations.append(
                {"trial": i, "kind": "nonfinite-ratio", "ratio": ratio}
            )
        row["ratio"] = ratio
        ratios.append(ratio)
        report.trials.append(row)
    if ratios:
        report.max_ratio = max(ratios)
        report.mean_ratio = math.fsum(ratios) / len(ratios)
    report.timings_ms = {stage: t * 1e3 for stage, t in spent.items()}
    report.runtime_ms = (clock() - started) * 1e3
    return report


# -- restricted weak type ---------------------------------------------------------


def restricted_weak_type_check(
    group: FiniteAbelianGroup,
    u_set: Sequence[int],
    v_set: Sequence[int],
    p: ExponentLike,
    q: ExponentLike,
    r: ExponentLike,
) -> Tuple[float, float, bool]:
    """sup_t t^{1/r} [V_{1_V} 1_U]**(t)  vs  mu(U)^{1/p} mu(V)^{1/q}.

    The maximal average of a step rearrangement is b + a/t on each piece,
    so t^{1/r} (b + a/t) has derivative t^{1/r-2} (b t / r + a (1/r - 1)):
    a single sign change from - to +, hence per-piece suprema sit at the
    endpoints and the global supremum is attained on the breakpoint grid
    (plus the t -> 0 limit when r = inf).
    """
    u_idx = sorted({int(i) for i in u_set})
    v_idx = sorted({int(i) for i in v_set})
    if not u_idx or not v_idx:
        raise ValueError("U and V must be nonempty")
    p, q, r = parse_exponent(p), parse_exponent(q), parse_exponent(r)
    n = group.size
    fu = np.zeros(n, dtype=np.complex128)
    fu[u_idx] = 1.0
    gv = np.zeros(n, dtype=np.complex128)
    gv[v_idx] = 1.0
    h = stft(GroupFunction(group, fu), GroupFunction(group, gv)).to_measured()
    hstar = rearrangement(h)
    alpha = float(recip(r))
    lhs = 0.0
    if len(hstar):
        his = hstar.breaks
        integrals = np.cumsum(hstar.values * (his - hstar.lows))
        lhs = float(np.max(his**alpha * (integrals / his)))
        if is_inf(r):
            lhs = max(lhs, float(hstar.values[0]))
    mu_u = group.measure(len(u_idx))
    mu_v = group.measure(len(v_idx))
    rhs = mu_u ** float(recip(p)) * mu_v ** float(recip(q))
    return lhs, rhs, bool(lhs <= rhs * (1 + TOLERANCE))


# -- rearrangement majorization ----------------------------------------------------


def majorization_check(
    f: GroupFunction, g: GroupFunction, eta: EtaSet = ETA_SQRT_MIN
) -> float:
    """sup over t > 0 of (V_g f)*(t) / S_eta(f*, g*)(t), exactly.

    h* = (V_g f)* is right-continuous: top_i on [b_{i-1}, b_i), with
    b_{-1} = 0, and 0 past its last break.  Every kernel
    min_k r^{a_k} s^{b_k} t^{-c_k} has c_k in [0, 1], so it is continuous
    and non-increasing in t, and at t in [b/2, b] at most twice its value at
    b.  By dominated convergence S is non-increasing and continuous wherever
    it is finite, so on piece i the ratio rises to its supremum
    top_i / S(b_i): one S value per piece.  S = inf gives a ratio of 0,
    and S = 0 one of inf.
    """
    hstar = rearrangement(stft(f, g).to_measured())
    if not len(hstar):
        return 0.0
    fstar = rearrangement(f.to_measured())
    gstar = rearrangement(g.to_measured())
    s_vals = calderon_apply(eta, fstar, gstar, hstar.breaks)
    ratios = np.full(len(hstar), math.inf)
    np.divide(hstar.values, s_vals, out=ratios, where=s_vals > 0)
    return float(np.max(ratios))


# -- uncertainty chain --------------------------------------------------------------


#: q in (2, inf) and u, v in [1, inf]
_CHAIN_RULES = _above(2, "q") + _at_least_one("u v")


def _clamp(x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    return min(max(x, lo), hi)


def uncertainty_check(
    f: GroupFunction,
    g: GroupFunction,
    omega: Union[np.ndarray, Sequence[Tuple[int, int]]],
    q: ExponentLike,
    u: ExponentLike = 1,
    v: ExponentLike = 1,
) -> Tuple[float, float, float, float, bool]:
    """The concentration chain sqrt(eps) <= 2 ||V_g f||_{q,w} ||1_Omega||_{s,r}.

    eps is the spectrogram energy captured by Omega, s solves
    1/q + 1/s = 1/2, and w and r follow from the window exponents u, v in
    [1, inf]: 1/w = clamp(1/u + 1/v - 1, 0, 1/2) and 1/r = 1/2 - 1/w.
    Omega is a boolean (|G|, |G|) mask or a list of (x, xi) pairs, each
    reduced mod |G|.
    Returns (eps, chain lhs, chain rhs, implied measure lower bound, holds).
    """
    f._check_group(g)
    grp = f.group
    n = grp.size
    idx = IndexTuple.of(q=q, u=u, v=v)
    why = _first_failure(_CHAIN_RULES, idx)
    if why:
        raise ValueError(why)
    q = idx.q
    s = recip(Fraction(1, 2) - recip(q))
    w = recip(_clamp(recip(idx.u) + recip(idx.v) - 1, Fraction(0), Fraction(1, 2)))
    r = recip(Fraction(1, 2) - recip(w))

    if isinstance(omega, np.ndarray) and omega.dtype == bool:
        if omega.shape != (n, n):
            raise ValueError(f"omega mask must have shape {(n, n)}, got {omega.shape}")
        mask = omega
    else:
        mask = np.zeros((n, n), dtype=bool)
        for pt in omega:
            if np.shape(pt) != (2,):
                raise ValueError(f"omega entries must be (x, xi) pairs, got {pt!r}")
            mask[int(pt[0]) % n, int(pt[1]) % n] = True
    if not mask.any():
        raise ValueError("omega must be nonempty")

    vgf = stft(f, g)
    cell = grp.haar_weight * grp.dual_weight  # product-measure atom, 1/|G|
    mags = np.abs(vgf.values)
    eps = float(np.sum(mags[mask] ** 2) * cell)
    if eps == 0:
        raise ValueError("no spectrogram energy on omega: the bound is vacuous")

    chain_lhs = math.sqrt(eps)
    # sorts mags in place, so it comes after eps
    vnorm = _lorentz_norm(mags.ravel(), cell, q, w)
    ind_norm = _lorentz_norm(np.ones(np.count_nonzero(mask)), cell, s, r)
    chain_rhs = 2 * vnorm * ind_norm
    c_sr = 1.0 if is_inf(r) else float(s / r) ** float(recip(r))
    bound = (chain_lhs / (2 * vnorm * c_sr)) ** float(s) if vnorm else 0.0
    return eps, chain_lhs, chain_rhs, bound, bool(chain_lhs <= chain_rhs * (1 + TOLERANCE))


# -- near-extremizer search ---------------------------------------------------------


#: proposals per climb; each climb restarts from the best pair with a fresh step
_CLIMB = 25


def extremizer_search(
    instance: TheoremInstance, budget: int
) -> Tuple[float, GroupFunction, GroupFunction]:
    """Coordinate hill-climbing on the trial ratio, seeded by the instance's
    own sampled pairs (so the result dominates the randomized suite).

    budget counts proposals, one ratio evaluation each, after the initial
    sweep.  Every _CLIMB proposals the climb restarts from the best pair so
    far with a fresh step; each proposal perturbs one real or imaginary
    coordinate and is kept only if it raises the ratio, else undone with
    step decay 0.9.  The proposals come from one stream that does not
    depend on budget, so a run is a prefix of every longer run and its
    result never falls as budget grows.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    grp, tau = _setup(instance)
    if _THEOREMS[instance.theorem].trial is not _ratio_trial:
        raise ValueError(
            f"extremizer search targets bilinear ratio instances, not"
            f" {instance.theorem}"
        )

    def ratio_of(fv: np.ndarray, gv: np.ndarray) -> float:
        f, g = GroupFunction(grp, fv), GroupFunction(grp, gv)
        maybe = _ratio_trial(instance, tau, f, g)
        return 0.0 if maybe is None else maybe

    best, fbest, gbest = 0.0, None, None
    for _, _, f, g in _trial_pairs(grp, instance.seed, max(instance.trials, 1)):
        ratio = ratio_of(f.values, g.values)
        if ratio > best or fbest is None:
            best, fbest, gbest = ratio, f.values.copy(), g.values.copy()

    # a child of the seed, apart from the trial streams seed ^ i
    rng = np.random.default_rng(np.random.SeedSequence(instance.seed).spawn(1)[0])
    n = grp.size
    for k in range(budget):
        if k % _CLIMB == 0:
            fv, gv = fbest.copy(), gbest.copy()
            step = 0.5 * max(np.abs(fv).max(), np.abs(gv).max(), 1e-3)
        target = fv if rng.integers(2) == 0 else gv
        coord = int(rng.integers(n))
        bump = step * rng.standard_normal()
        old = target[coord]
        target[coord] += bump if rng.integers(2) == 0 else 1j * bump
        candidate = ratio_of(fv, gv)
        if candidate > best:
            best, fbest, gbest = candidate, fv.copy(), gv.copy()
        else:
            target[coord] = old
            step *= 0.9
    return best, GroupFunction(grp, fbest), GroupFunction(grp, gbest)


# -- regression baseline grid ---------------------------------------------------------


#: Documented instance grid whose max ratios ship as regression baselines.
BASELINE_GRID: Tuple[dict, ...] = (
    {
        "id": "t1prime-z6",
        "kind": "theorem",
        "instance": {
            "theorem": "t1prime",
            "group": [6],
            "indices": {"q": "4", "p1": "8/3", "p2": "8/3", "u": "2", "v": "2", "w": "1"},
            "tau": None,
            "trials": 24,
            "seed": 42,
        },
    },
    {
        "id": "t1prime-z8",
        "kind": "theorem",
        "instance": {
            "theorem": "t1prime",
            "group": [8],
            "indices": {"q": "4", "p1": "8/3", "p2": "8/3", "u": "2", "v": "2", "w": "1"},
            "tau": None,
            "trials": 24,
            "seed": 42,
        },
    },
    {
        "id": "t1-z6",
        "kind": "theorem",
        "instance": {
            "theorem": "t1",
            "group": [6],
            "indices": {"q": "4", "p": "3", "u": "1", "v": "1", "w": "1"},
            "tau": None,
            "trials": 24,
            "seed": 42,
        },
    },
    {
        "id": "t1-z4z6",
        "kind": "theorem",
        "instance": {
            "theorem": "t1",
            "group": [4, 6],
            "indices": {"q": "4", "p": "3", "u": "1", "v": "1", "w": "1"},
            "tau": None,
            "trials": 12,
            "seed": 42,
        },
    },
    {
        "id": "t2-z6-q3",
        "kind": "theorem",
        "instance": {
            "theorem": "t2",
            "group": [6],
            "indices": {"q": "3"},
            "tau": None,
            "trials": 24,
            "seed": 42,
        },
    },
    {
        "id": "t2-z12-q4",
        "kind": "theorem",
        "instance": {
            "theorem": "t2",
            "group": [12],
            "indices": {"q": "4"},
            "tau": None,
            "trials": 24,
            "seed": 42,
        },
    },
    {
        "id": "t3i-z5z5",
        "kind": "theorem",
        "instance": {
            "theorem": "t3i",
            "group": [5, 5],
            "indices": {"q": "4", "p1": "8/3", "p2": "8/3", "u": "2", "v": "2", "w": "1"},
            "tau": [[2, 0], [0, 3]],
            "trials": 8,
            "seed": 42,
        },
    },
    {
        "id": "t3ii-z9",
        "kind": "theorem",
        "instance": {
            "theorem": "t3ii",
            "group": [9],
            "indices": {"q": "4", "p": "3", "u": "1", "v": "1", "w": "1"},
            "tau": [[2]],
            "trials": 16,
            "seed": 42,
        },
    },
    {
        "id": "t3iii-z6",
        "kind": "theorem",
        "instance": {
            "theorem": "t3iii",
            "group": [6],
            "indices": {"p": "3", "u": "1", "v": "1", "w": "1"},
            "tau": None,
            "trials": 24,
            "seed": 42,
        },
    },
    {
        "id": "t3iv-z6",
        "kind": "theorem",
        "instance": {
            "theorem": "t3iv",
            "group": [6],
            "indices": {"p": "3", "u": "1", "v": "1", "w": "1"},
            "tau": None,
            "trials": 24,
            "seed": 42,
        },
    },
    {
        "id": "t4dual-z6",
        "kind": "theorem",
        "instance": {
            "theorem": "t4dual",
            "group": [6],
            "indices": {"q": "4", "p": "3", "u": "2", "v": "1", "w": "2"},
            "tau": [[1]],
            "trials": 10,
            "seed": 42,
        },
    },
    {
        "id": "t5ii-z8",
        "kind": "theorem",
        "instance": {
            "theorem": "t5ii",
            "group": [8],
            "indices": {"q": "4", "p": "3", "u": "1", "v": "1"},
            "tau": None,
            "trials": 20,
            "seed": 42,
        },
    },
    {
        "id": "majorization-z12",
        "kind": "majorization",
        "group": [12],
        "samples": 8,
        "seed": 42,
    },
    {
        "id": "hausdorff-young-z8",
        "kind": "hausdorff-young",
        "group": [8],
        "p": "3/2",
        "second": ["1", "3/2", "inf"],
        "samples": 8,
        "seed": 42,
    },
    {
        "id": "tensor-z6",
        "kind": "tensor",
        "group": [6],
        "indices": {"p": "3", "u": "1", "v": "1", "w": "1"},
        "samples": 12,
        "seed": 42,
    },
)


def _majorization_baseline(entry: dict) -> float:
    grp = FiniteAbelianGroup(entry["group"])
    worst = 0.0
    for _, _, f, g in _trial_pairs(grp, entry["seed"], entry["samples"]):
        worst = max(worst, majorization_check(f, g))
    return worst


def _hausdorff_young_baseline(entry: dict) -> float:
    from .tfa import hausdorff_young_check

    grp = FiniteAbelianGroup(entry["group"])
    p = entry["p"]
    worst = 0.0
    for _, _, f, _ in _trial_pairs(grp, entry["seed"], entry["samples"]):
        for second in entry["second"]:
            _, rhs, ratio = hausdorff_young_check(f, p, second)
            if rhs:
                worst = max(worst, ratio)
    return worst


def _tensor_baseline(entry: dict) -> float:
    grp = FiniteAbelianGroup(entry["group"])
    dual = grp.dual
    idx = IndexTuple.from_json(entry["indices"])
    worst = 0.0
    for _, _, f, g in _trial_pairs(grp, entry["seed"], entry["samples"]):
        fm = f.to_measured()
        gm = MeasuredFunction.from_values(
            g.values, weight=dual.haar_weight, domain="G^"
        )
        den = lorentz_norm(fm, idx.p, idx.u) * lorentz_norm(gm, idx.p, idx.v)
        if den == 0:
            continue
        worst = max(worst, lorentz_norm(tensor_product(fm, gm), idx.p, idx.w) / den)
    return worst


def compute_baselines(grid: Sequence[dict] = BASELINE_GRID) -> Dict[str, float]:
    """Recompute every grid entry's scalar (max ratio) from scratch."""
    values: Dict[str, float] = {}
    for entry in grid:
        if entry["kind"] == "theorem":
            report = verify_theorem(TheoremInstance.from_json(entry["instance"]))
            values[entry["id"]] = report.max_ratio
        elif entry["kind"] == "majorization":
            values[entry["id"]] = _majorization_baseline(entry)
        elif entry["kind"] == "hausdorff-young":
            values[entry["id"]] = _hausdorff_young_baseline(entry)
        elif entry["kind"] == "tensor":
            values[entry["id"]] = _tensor_baseline(entry)
        else:
            raise ValueError(f"unknown baseline kind {entry['kind']!r}")
    return values
