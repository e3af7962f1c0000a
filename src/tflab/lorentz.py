"""Distribution functions, decreasing rearrangements, and Lorentz norms.

Functions live on finite lists of weighted atoms, so every rearrangement is
a right-continuous step function on (0, infinity) and every Lorentz
quasi-norm has an exact closed form: no quadrature is used anywhere in this
module.  Three evaluation routes are provided:

* :func:`lorentz_norm` sorts the atoms by magnitude and integrates with one
  piece per atom, without building f* (a run of tied magnitudes telescopes
  to the integral over its merged piece); functions on a group, whose atoms
  share one weight, sort their magnitudes alone through the same core;
* :func:`step_halfline_functional` of :func:`rearrangement` integrates over
  the pieces of f*, one per distinct magnitude, through the same closed
  form; the Calderon layer needs f* itself;
* :func:`lorentz_norm_via_distribution` integrates over the distribution
  function.

The last two serve as oracles for the first.  All three are NumPy array
expressions over all atoms or pieces at once, with no per-atom Python loop.
Each divides the magnitudes by their supremum before taking powers and
multiplies it back at the end (every quasi-norm here is homogeneous of
degree one), so values from 1e-150 to 1e150 neither overflow nor underflow.
The scalar helpers :func:`power_integral` and :func:`power_sup` remain for
callers that work one piece at a time.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .exponents import (
    ExponentLike,
    conjugate,
    is_inf,
    parse_exponent,
    recip,
)

__all__ = [
    "MeasuredFunction",
    "StepFunction",
    "distribution",
    "rearrangement",
    "power_integral",
    "power_sup",
    "step_halfline_functional",
    "lorentz_norm",
    "lorentz_norm_via_distribution",
    "tensor_product",
    "holder_check",
    "embedding_constant",
    "embedding_check",
]

class MeasuredFunction:
    """A complex function on finitely many positively weighted atoms."""

    def __init__(
        self,
        ids: Sequence[int],
        weights: Sequence[float],
        values: Sequence[complex],
        domain: str = "G",
    ):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.complex128)
        if not (self.ids.shape == self.weights.shape == self.values.shape):
            raise ValueError("ids, weights, values must have equal length")
        if self.ids.ndim != 1:
            raise ValueError("atom arrays must be one-dimensional")
        # strictly increasing ids (every internal caller's arange) are
        # distinct in O(M); only other orders pay for the sort
        ids = self.ids
        if not (ids[1:] > ids[:-1]).all() and np.unique(ids).size != ids.size:
            raise ValueError("atom ids must be distinct")
        if not np.all(self.weights > 0):
            raise ValueError("atom weights must be strictly positive")
        self.domain = domain

    @classmethod
    def from_values(
        cls, values: Sequence[complex], weight: float = 1.0, domain: str = "G"
    ) -> "MeasuredFunction":
        """Uniform-weight atoms with ids 0..n-1."""
        values = np.asarray(values, dtype=np.complex128)
        n = values.size
        return cls(np.arange(n), np.full(n, float(weight)), values, domain)

    @property
    def total_measure(self) -> float:
        return float(self.weights.sum())

    def __len__(self) -> int:
        return int(self.ids.size)

    def __repr__(self) -> str:
        return f"MeasuredFunction({len(self)} atoms on {self.domain!r})"

    def pointwise_product(self, other: "MeasuredFunction") -> "MeasuredFunction":
        """fg on a shared atom list (same ids, same weights, same order)."""
        if self.domain != other.domain:
            raise ValueError(f"domain mismatch: {self.domain!r} vs {other.domain!r}")
        if not np.array_equal(self.ids, other.ids) or not np.array_equal(
            self.weights, other.weights
        ):
            raise ValueError("pointwise product needs identical atom lists")
        return MeasuredFunction(
            self.ids, self.weights, self.values * other.values, self.domain
        )

    def to_json(self) -> dict:
        return {
            "domain": self.domain,
            "atoms": [
                [i, w, [re, im]]
                for i, w, re, im in zip(
                    self.ids.tolist(),
                    self.weights.tolist(),
                    self.values.real.tolist(),
                    self.values.imag.tolist(),
                )
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MeasuredFunction":
        atoms = obj["atoms"]
        ids = [a[0] for a in atoms]
        weights = [a[1] for a in atoms]
        values = [complex(a[2][0], a[2][1]) for a in atoms]
        return cls(ids, weights, values, obj.get("domain", "G"))


class StepFunction:
    """Non-negative step function on (0, inf), zero past the last breakpoint.

    Takes value ``values[j]`` on [breaks[j-1], breaks[j]) with breaks[-1] = 0
    implicit; breakpoints are finite and strictly increasing.  With
    ``monotone=True`` the constructor also checks that the values do not
    increase.
    """

    def __init__(
        self,
        breaks: Sequence[float],
        values: Sequence[float],
        monotone: bool = False,
    ):
        self.breaks = np.asarray(breaks, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.breaks.shape != self.values.shape or self.breaks.ndim != 1:
            raise ValueError("breaks and values must be 1-d arrays of equal length")
        if self.breaks.size:
            if not np.all(np.isfinite(self.breaks)) or self.breaks[0] <= 0:
                raise ValueError("breakpoints must be finite and positive")
            if not np.all(np.diff(self.breaks) > 0):
                raise ValueError("breakpoints must be strictly increasing")
            if not np.all(self.values >= 0):
                raise ValueError("step values must be non-negative")
        if monotone and self.values.size and np.any(np.diff(self.values) > 0):
            raise ValueError("monotone flag set but values increase")

    def __len__(self) -> int:
        return int(self.breaks.size)

    def __repr__(self) -> str:
        return f"StepFunction(breaks={self.breaks.tolist()}, values={self.values.tolist()})"

    def __call__(self, t: float) -> float:
        """Value at t > 0 (right-continuous at every breakpoint)."""
        if t <= 0:
            raise ValueError(f"step functions are evaluated on t > 0, got {t}")
        j = int(np.searchsorted(self.breaks, t, side="right"))
        if j >= len(self):
            return 0.0
        return float(self.values[j])

    @property
    def lows(self) -> np.ndarray:
        """Left endpoint of each piece: 0, then breaks[:-1]."""
        return np.concatenate(([0.0], self.breaks))[:-1]

    @property
    def jumps(self) -> np.ndarray:
        """Drop at each breakpoint: values[i] - values[i+1], with 0 past the
        end, so the function is the sum of jumps[i] * 1_(0, breaks[i]]."""
        return -np.diff(self.values, append=0.0)

    @property
    def sup(self) -> float:
        return float(self.values.max()) if len(self) else 0.0

    def to_json(self) -> dict:
        return {"breaks": self.breaks.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict, monotone: bool = False) -> "StepFunction":
        return cls(obj["breaks"], obj["values"], monotone=monotone)


def distribution(f: MeasuredFunction, alpha: float) -> float:
    """d_f(alpha): total weight of atoms with |value| > alpha."""
    if alpha < 0:
        raise ValueError("threshold must be non-negative")
    return float(f.weights[np.abs(f.values) > alpha].sum())


def rearrangement(f: MeasuredFunction) -> StepFunction:
    """The non-increasing rearrangement f*(t) = inf{alpha : d_f(alpha) <= t}.

    Atoms are stable-sorted by (|value| descending, id ascending), so the
    breakpoints, running sums of unequal weights, are reproducible to the
    bit; the tie order never changes f* as a function.  Zero values are
    dropped since f* vanishes past the measure of the support.  For a
    Lorentz norm alone, :func:`lorentz_norm` needs neither f* nor this sort.
    """
    mags = np.abs(f.values)
    keep = mags > 0
    mags, weights, ids = mags[keep], f.weights[keep], f.ids[keep]
    order = np.lexsort((ids, -mags))
    mags = mags[order]
    # cumsum adds the weights one at a time in sorted order, so each total is
    # the running sum a loop would reach; keep the last atom of each run of
    # equal values
    totals = np.cumsum(weights[order])
    last = np.ones(mags.size, dtype=bool)
    last[:-1] = mags[1:] != mags[:-1]
    return StepFunction(totals[last], mags[last], monotone=True)


def power_integral(a: float, lo: float, hi: float) -> float:
    """Exact integral of t**a dt/t over (lo, hi), as an extended real.

    Divergent cases return +inf: a <= 0 with lo = 0, and a >= 0 with
    hi = inf.  Requires 0 <= lo < hi <= inf.
    """
    a = float(a)
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if a == 0:
        if lo == 0 or math.isinf(hi):
            return math.inf
        return math.log(hi / lo)
    if a > 0:
        if math.isinf(hi):
            return math.inf
        return (hi**a - lo**a) / a
    # a < 0: t**a blows up at 0 and decays at inf
    if lo == 0:
        return math.inf
    hi_pow = 0.0 if math.isinf(hi) else hi**a
    return (hi_pow - lo**a) / a


def power_sup(e: float, lo: float, hi: float) -> float:
    """Supremum of t**e over the interval (lo, hi), as an extended real."""
    e = float(e)
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if e == 0:
        return 1.0
    if e > 0:
        return math.inf if math.isinf(hi) else hi**e
    return math.inf if lo == 0 else lo**e


def step_halfline_functional(
    sf: StepFunction, e: ExponentLike, q: ExponentLike
) -> float:
    """{ integral of (t**e * sf(t))**q dt/t }**(1/q), sup form when q = inf.

    Pieces where sf vanishes are dropped, so divergent monomial integrals
    only matter where they are hit by a positive value.
    """
    lows, his, values = sf.lows, sf.breaks, sf.values
    if values.all():
        values = values.copy()
    else:
        keep = values > 0
        lows, his, values = lows[keep], his[keep], values[keep]
    return _pieces_functional(values, his, e, q, lows)


def _pieces_functional(
    values: np.ndarray,
    his: np.ndarray,
    e: ExponentLike,
    q: ExponentLike,
    lows: Optional[np.ndarray] = None,
) -> float:
    """The functional of :func:`step_halfline_functional` for the function
    equal to values[j] > 0 on each piece (lows[j], his[j]] and 0 elsewhere.

    Evaluated in closed form on all pieces at once.  The pieces run in
    order along (0, inf), so only the first touches t = 0, and none
    reaches t = inf: divergence is decided by the first piece alone.

    Without ``lows`` the pieces are contiguous from 0: ``his`` holds 0 and
    then the right end of every piece, so piece j is (his[j], his[j+1]],
    and ``his`` is raised to its power once, in place.  With ``lows`` the
    pieces may leave gaps, so both ends are raised to the power, into new
    arrays.  ``values`` is divided by its largest entry in place; both
    overwritten arrays must be buffers the caller gives up.
    """
    e = parse_exponent(e)
    q = parse_exponent(q)
    ef = float(e)
    if not is_inf(q) and q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    if not values.size:
        return 0.0
    scale = float(values.max())
    if math.isinf(scale):
        return scale
    values /= scale
    first = his[0] if lows is None else lows[0]
    if first == 0 and (ef < 0 or (ef == 0 and not is_inf(q))):
        return math.inf
    if is_inf(q):
        if ef == 0:
            return scale
        if lows is None:
            # ef > 0: contiguous pieces start at 0, so ef < 0 diverged above
            ends = np.power(his, ef, out=his)[1:]
        else:
            ends = (his if ef > 0 else lows) ** ef
        return scale * float(np.max(np.multiply(values, ends, out=values)))
    qf = float(q)
    a = ef * qf
    # one new buffer for the pieces, the values overwritten in place
    if a == 0:
        pieces = np.divide(his, lows)
        np.log(pieces, out=pieces)
    else:
        if lows is None:
            np.power(his, a, out=his)
            pieces = his[1:] - his[:-1]
        else:
            pieces = his**a
            pieces -= lows**a
        pieces /= a
    np.power(values, qf, out=values)
    total = float(np.sum(np.multiply(values, pieces, out=pieces)))
    if math.isinf(total):
        return math.inf
    return scale * total ** (1.0 / qf)


def lorentz_norm(f: MeasuredFunction, p: ExponentLike, q: ExponentLike) -> float:
    """The L^{p,q} quasi-norm, p, q in (0, inf], summed atom by atom.

    With magnitudes m_1 >= m_2 >= ... > 0 and T_j the running sum of their
    weights, f* = m_j on [T_{j-1}, T_j), so for finite q
    ||f||_{p,q}**q = (p/q) * sum of m_j**q * (T_j**(q/p) - T_{j-1}**(q/p)),
    and ||f||_{p,inf} = max of m_j * T_j**(1/p).  A run of tied magnitudes
    telescopes to the term of its merged piece of f*, so the order within
    the run does not matter: one unstable sort suffices, and f* is never
    built.  For p = inf and finite q the defining integral diverges for
    every nonzero f, so +inf is returned; L^{inf,inf} is the essential sup.
    """
    return _lorentz_norm(np.abs(f.values), f.weights, p, q)


_ZERO_INF = np.array([0.0, math.inf])


def _lorentz_norm(
    mags: np.ndarray,
    weights: Union[float, np.ndarray],
    p: ExponentLike,
    q: ExponentLike,
) -> float:
    """:func:`lorentz_norm` of the atoms with magnitudes ``mags`` and
    weights ``weights``, a scalar when every atom has the same weight.

    With one weight the magnitudes alone are sorted and then scaled, in
    place, so ``mags`` must be a buffer the caller gives up; the running
    sums of the weight then have the same bits as those of a gathered array
    of equal weights.  Unequal weights follow the magnitudes through one
    unstable argsort, into a new array.  Either way one more buffer holds 0
    and the running sums, the ends of the pieces of f*, and is raised to
    its power in place.
    """
    p = parse_exponent(p)
    if not is_inf(p) and p <= 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if np.ndim(weights) == 0:
        mags.sort()
        # ascending, NaNs last: the positive magnitudes, largest first
        lo, hi = mags.searchsorted(_ZERO_INF, "right")
        values = mags[lo:hi][::-1]
        weights = np.broadcast_to(weights, values.shape)
    else:
        # descending; zeros and NaNs sort after every positive magnitude
        order = np.argsort(-mags)[: np.count_nonzero(mags > 0)]
        values = mags[order]
        weights = weights[order]
    ends = np.empty(values.size + 1)
    ends[0] = 0.0
    np.cumsum(weights, out=ends[1:])
    return _pieces_functional(values, ends, recip(p), q)


def lorentz_norm_via_distribution(
    f: MeasuredFunction, p: ExponentLike, q: ExponentLike
) -> float:
    """Independent route through the distribution function, p finite.

    Finite q: p**(1/q) * { integral of alpha**(q-1) * d_f(alpha)**(q/p)
    d-alpha }**(1/q); q = inf: sup of alpha * d_f(alpha)**(1/p).  d_f is a
    step function of alpha with breakpoints at the distinct values of |f|,
    so both forms are exact sums.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    if is_inf(p) or p <= 0:
        raise ValueError(f"this route requires p in (0, inf), got {p}")
    pf = float(p)
    mags = np.abs(f.values)
    keep = mags > 0
    mags, weights = mags[keep], f.weights[keep]
    if not mags.size:
        return 0.0
    scale = float(mags.max())
    if math.isinf(scale):
        return math.inf
    order = np.argsort(mags)
    mags, weights = mags[order] / scale, weights[order]
    # ascending distinct values a_i with tail measures m_i = mu{|f| >= a_i}
    alphas, starts = np.unique(mags, return_index=True)
    tails = np.cumsum(weights[::-1])[::-1][starts]
    if is_inf(q):
        return scale * float(np.max(alphas * tails ** (1.0 / pf)))
    qf = float(q)
    prev = np.concatenate(([0.0], alphas[:-1]))
    total = float(np.sum(tails ** (qf / pf) * (alphas**qf - prev**qf)))
    return scale * (pf / qf * total) ** (1.0 / qf)


def tensor_product(f: MeasuredFunction, h: MeasuredFunction) -> MeasuredFunction:
    """(f (x) h) on the product atom set: weights and values multiply."""
    nf, nh = len(f), len(h)
    weights = np.multiply.outer(f.weights, h.weights).ravel()
    values = np.multiply.outer(f.values, h.values).ravel()
    return MeasuredFunction(
        np.arange(nf * nh), weights, values, f"{f.domain}x{h.domain}"
    )


def holder_check(
    f: MeasuredFunction,
    g: MeasuredFunction,
    p1: ExponentLike,
    q1: ExponentLike,
    p2: ExponentLike,
    q2: ExponentLike,
) -> Tuple[float, float, bool]:
    """Lorentz Holder bound ||fg||_{p,q} <= p' ||f||_{p1,q1} ||g||_{p2,q2}.

    The target exponents are 1/p = 1/p1 + 1/p2 and 1/q = 1/q1 + 1/q2;
    requires p1, p2, and the resulting p to lie in (1, inf).  Returns
    (lhs, rhs, lhs <= rhs).
    """
    p1, q1 = parse_exponent(p1), parse_exponent(q1)
    p2, q2 = parse_exponent(p2), parse_exponent(q2)
    for pe in (p1, p2):
        if is_inf(pe) or not 1 < pe:
            raise ValueError(f"first exponents must lie in (1, inf), got {pe}")
    p = recip(recip(p1) + recip(p2))
    q = recip(recip(q1) + recip(q2))
    if not 1 < p:
        raise ValueError(f"derived exponent p must exceed 1, got {p}")
    lhs = lorentz_norm(f.pointwise_product(g), p, q)
    rhs = (
        float(conjugate(p))
        * lorentz_norm(f, p1, q1)
        * lorentz_norm(g, p2, q2)
    )
    return lhs, rhs, bool(lhs <= rhs * (1 + 1e-12))


def embedding_constant(p: ExponentLike, q: ExponentLike, r: ExponentLike) -> float:
    """Constant (q/p)**(1/q - 1/r) in ||f||_{p,r} <= C ||f||_{p,q}, q <= r."""
    p, q, r = parse_exponent(p), parse_exponent(q), parse_exponent(r)
    if is_inf(p) or p <= 0:
        raise ValueError(f"embedding constant requires p in (0, inf), got {p}")
    if is_inf(q):
        if not is_inf(r):
            raise ValueError("embedding needs q <= r")
        return 1.0
    if not is_inf(r) and r < q:
        raise ValueError(f"embedding needs q <= r, got q={q}, r={r}")
    expo = float(recip(q)) - float(recip(r))
    return (float(q) / float(p)) ** expo


def embedding_check(
    f: MeasuredFunction, p: ExponentLike, q: ExponentLike, r: ExponentLike
) -> Tuple[float, float, bool]:
    """Second-index monotonicity with its sharp layer-cake constant."""
    lhs = lorentz_norm(f, p, r)
    rhs = embedding_constant(p, q, r) * lorentz_norm(f, p, q)
    return lhs, rhs, bool(lhs <= rhs * (1 + 1e-12) or rhs == math.inf)
