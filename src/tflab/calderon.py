"""Half-line machinery: multiplicative convolution, Hardy and Young
inequalities, and bilinear Calderon operators in closed form.

Everything operates on the measure dt/t, so log coordinates turn step
functions into piecewise-constant integrands over (possibly half-infinite)
intervals and the Calderon kernels into piecewise exponentials.  Both the
convolution and the Calderon operators read a step function in corner
form, f = sum_i df_i 1_(0, b_i] with df = ``StepFunction.jumps``, so each
is a sum over pairs of corners (breakpoints of the two functions) taken as
one array expression.  For the convolution a pair contributes
df_i dg_j log(b_i c_j / x)_+.  When the Calderon kernel's minimum
structure decomposes into diagonal bands (which covers both canonical
kernel sets), S_eta(f*, g*)(t) sums the kernel's integral over one corner
of the log plane, for a whole grid of t at once.  A truncated log-grid
quadrature covers every other kernel.

Whatever is not in closed form goes through one adaptive Gauss-Legendre
integrator (``_adaptive_gauss``), which takes all of a caller's intervals
at once and evaluates each bisection level in one array call of the
integrand.  Both Hardy forms use it at every finite q (form 1 keeps its
monomial pieces at 0 and infinity exact); their q = inf sups are closed
forms.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Tuple, Union

import numpy as np

from .exponents import (
    Exponent,
    ExponentLike,
    is_inf,
    parse_exponent,
    recip,
)
from .lorentz import (
    StepFunction,
    power_integral,
    power_sup,
    step_halfline_functional,
)

__all__ = [
    "EtaSet",
    "ETA_SQRT_MIN",
    "ETA_SEPARABLE",
    "convolution_norm",
    "young_check",
    "HardyResult",
    "hardy_check",
    "calderon_apply",
    "calderon_separable_value",
    "PiecewiseMonomial",
    "halfline_lorentz_functional",
    "calderon_t_functional",
]

_NEG_INF = -math.inf

#: Most (t, branch, f* corner, g* corner) cells in one pass of the
#: corner-form evaluator, which takes as many t values per pass as fit, and at
#: least one.  2^14 cells, 128 KiB per float temporary, is the measured knee:
#: smaller passes pay more per-pass overhead, larger ones leave the cache.
#: The budget is also what bounds the evaluator's memory on a large group.
_CORNER_CELLS = 1 << 14

#: Largest number of subintervals whose Gauss nodes the adaptive integrator
#: hands its integrand at once.
_GAUSS_ROWS = 64

#: Most subinterval pairs one level of the adaptive integrator leaves live;
#: past it the level accepts them all, which bounds memory where the
#: integrand never settles (NaN, or rounding noise above the tolerance).
_GAUSS_LIVE = 2**16

#: Most nodes the sup form of the t-functional refines its grid to before it
#: returns the midpoint of its bracket.
_SUP_NODES = 40_000

#: Relative tolerance of the t-functional.
_T_FUNCTIONAL_RTOL = 1e-6

#: Relative change between two successive windows at which the log-grid
#: quadrature stops pushing its window toward zero.
_QUADRATURE_RTOL = 1e-8


class EtaSet:
    """A finite set of exponent triples (1/u_k, 1/v_k, 1/w_k) in [0,1]^3.

    Defines the bilinear kernel min_k r^{a_k} s^{b_k} t^{-c_k}.  When every
    triple has the same a_k + b_k, the minimizing branch depends only on
    s/r, so the (r, s) plane splits into diagonal bands and the operator
    integrates in closed form against step functions.
    """

    def __init__(self, triples: Iterable[Tuple[ExponentLike, ExponentLike, ExponentLike]]):
        parsed = []
        for triple in triples:
            if len(triple) != 3:
                raise ValueError(f"expected (a, b, c) triples, got {triple!r}")
            abc = []
            for x in triple:
                val = parse_exponent(x)
                if is_inf(val) or not 0 <= val <= 1:
                    raise ValueError(f"triple components must lie in [0,1]: {triple!r}")
                abc.append(Fraction(val))
            parsed.append(tuple(abc))
        if not parsed:
            raise ValueError("eta set needs at least one triple")
        if len(set(parsed)) != len(parsed):
            raise ValueError("eta triples must be distinct")
        self.triples: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = tuple(parsed)
        #: the triples as a (K, 3) float array, for the evaluators
        self._abc = np.array(parsed, dtype=np.float64)

    def __repr__(self) -> str:
        return f"EtaSet({[tuple(map(str, t)) for t in self.triples]})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EtaSet) and set(self.triples) == set(other.triples)

    def __hash__(self) -> int:
        return hash(frozenset(self.triples))

    @functools.cached_property
    def is_band_decomposable(self) -> bool:
        sums = {a + b for a, b, _ in self.triples}
        return len(sums) == 1

    def kernel(self, r: float, s: float, t: float) -> float:
        """min_k r^{a_k} s^{b_k} t^{-c_k} for r, s, t > 0."""
        if min(r, s, t) <= 0:
            raise ValueError("kernel arguments must be positive")
        lr, ls, lt = math.log(r), math.log(s), math.log(t)
        return math.exp(
            min(float(a) * lr + float(b) * ls - float(c) * lt for a, b, c in self.triples)
        )


#: Kernel min{sqrt(rs/t), r, s}.
ETA_SQRT_MIN = EtaSet([("1/2", "1/2", "1/2"), (1, 0, 0), (0, 1, 0)])

#: Kernel min{sqrt(rs/t), sqrt(rs)} = sqrt(rs) * min(1, t^{-1/2}).
ETA_SEPARABLE = EtaSet([("1/2", "1/2", "1/2"), ("1/2", "1/2", 0)])


# -- multiplicative convolution on (R_+, dt/t) -------------------------------


def convolution_norm(f: StepFunction, g: StepFunction, w: ExponentLike) -> float:
    """||f * g||_{L^w(R_+, dx/x)}, exact on the cells between corner products.

    With f = sum_i df_i 1_(0, b_i] and g = sum_j dg_j 1_(0, c_j] (df and dg
    the jumps), the product pi = b_i c_j carries the weight omega = df_i dg_j;
    pairs of weight zero are dropped, so every product left is at least
    l_f l_g, the product of the left ends of the two supports.
    With the products pi_k sorted, f * g is affine in log x on each cell
    (pi_{k-1}, pi_k), with slope minus the sum of omega over the products
    above the cell.  Summing those slopes down from the last product, where
    f * g vanishes, gives its value h_k at every product.  The integral of
    h^w over a cell is its log-width times h_max^w times the mean of
    (h / h_max)^w, which is -expm1((w+1) log1p(-d)) / ((w+1) d) with
    d = 1 - h_min/h_max.  Unlike a difference of (w+1)-th powers divided by
    the slope, this keeps its accuracy on cells where f * g is flat and the
    summed slope is a rounding residue.  Below l_f l_g the convolution
    vanishes; when l_f l_g = 0 the head cell (0, pi_0) has slope
    -f(0+) g(0+), read from the values for the same reason.
    """
    w = parse_exponent(w)
    if not is_inf(w) and w < 1:
        raise ValueError(f"exponent w must lie in [1, inf], got {w}")
    log_pi = np.add.outer(np.log(f.breaks), np.log(g.breaks)).ravel()
    omega = np.multiply.outer(f.jumps, g.jumps).ravel()
    keep = omega != 0
    log_pi, omega = log_pi[keep], omega[keep]
    if not omega.size:
        return 0.0
    order = np.argsort(log_pi)
    log_pi, omega = log_pi[order], omega[order]
    widths = np.diff(log_pi)
    # minus the slope of f * g in log x, on each cell between two products
    slopes = np.cumsum(omega[::-1])[::-1][1:]
    h = np.append(np.cumsum((slopes * widths)[::-1])[::-1], 0.0)
    if is_inf(w):
        if f.values[0] > 0 and g.values[0] > 0:
            return math.inf
        return max(float(h.max()), 0.0)
    if f.values[0] > 0 or g.values[0] > 0:
        # a nonzero constant or log-affine head has infinite dx/x mass
        return math.inf
    wf = float(w)
    top = np.maximum(np.maximum(h[:-1], h[1:]), 0.0)
    low = np.maximum(np.minimum(h[:-1], h[1:]), 0.0)
    live = top > 0
    top, widths = top[live], widths[live]
    d = (top - low[live]) / top
    with np.errstate(divide="ignore"):  # log1p(-1) where h reaches 0
        mean = -np.expm1((wf + 1) * np.log1p(-d)) / ((wf + 1) * np.where(d > 0, d, 1.0))
    mean[d == 0] = 1.0
    return float(np.sum(widths * top**wf * mean)) ** (1.0 / wf)


def young_check(
    f: StepFunction,
    g: StepFunction,
    u: ExponentLike,
    v: ExponentLike,
    w: ExponentLike,
) -> Tuple[float, float, bool]:
    """||f*g||_w <= ||f||_u ||g||_v under 1/u + 1/v = 1 + 1/w, constant 1."""
    u, v, w = parse_exponent(u), parse_exponent(v), parse_exponent(w)
    if recip(u) + recip(v) != 1 + recip(w):
        raise ValueError(f"need 1/u + 1/v = 1 + 1/w, got u={u}, v={v}, w={w}")
    lhs = convolution_norm(f, g, w)
    rhs = step_halfline_functional(f, 0, u) * step_halfline_functional(g, 0, v)
    return lhs, rhs, bool(lhs <= rhs * (1 + 1e-12))


# -- Hardy's inequality --------------------------------------------------------


class HardyResult(NamedTuple):
    lhs1: float
    lhs2: float
    rhs1: float
    rhs2: float
    constant: float
    holds: bool


def _hardy_form1_lhs(phi: StepFunction, delta: float, q: Exponent) -> float:
    """{ integral [t^{delta-1} * integral_0^t phi(u) du]^q dt/t }^{1/q}.

    Phi(t) = integral_0^t phi is affine on each piece.  For finite q the
    pieces at 0 and at infinity are monomials in closed form and the middle
    ones go through one adaptive Gauss call; q = inf takes the closed-form
    sup of each piece.
    """
    running = 0.0
    segments = []  # (lo, hi, alpha, beta): Phi(t) = alpha + beta t on (lo, hi)
    for lo, hi, v in zip(phi.lows, phi.breaks, phi.values):
        segments.append((float(lo), float(hi), running - v * float(lo), float(v)))
        running += float(v) * (float(hi) - float(lo))
    if len(phi):
        segments.append((float(phi.breaks[-1]), math.inf, running, 0.0))
    if is_inf(q):
        sup = 0.0
        for lo, hi, alpha, beta in segments:
            sup = max(sup, _sup_power_affine(delta - 1, alpha, beta, lo, hi))
        return sup
    qf = float(q)
    lo, hi, alpha, beta = np.array(segments, dtype=np.float64).reshape(-1, 4).T
    live = (alpha != 0) | (beta != 0)
    middle = live & (lo > 0) & np.isfinite(hi)
    alpha_m, beta_m = alpha[middle], beta[middle]

    def fn(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        phi_int = np.maximum(alpha_m[which, None] + beta_m[which, None] * t, 0.0)
        return t ** ((delta - 1) * qf) * phi_int**qf / t

    quad = iter(_adaptive_gauss(fn, lo[middle], hi[middle]).tolist())
    total = 0.0
    for s_lo, s_hi, s_alpha, s_beta in segments:
        if s_alpha == 0 and s_beta == 0:
            continue
        if s_lo == 0:
            # alpha = 0 structurally (Phi(0) = 0): pure monomial piece
            total += s_beta**qf * power_integral(delta * qf, 0.0, s_hi)
        elif math.isinf(s_hi):
            total += s_alpha**qf * power_integral((delta - 1) * qf, s_lo, s_hi)
        else:
            total += next(quad)
    return total ** (1.0 / qf)


def _sup_power_affine(
    e: float, alpha: float, beta: float, lo: float, hi: float
) -> float:
    """sup of t^e (alpha + beta t) over (lo, hi) with alpha + beta t >= 0."""

    def val(t: float) -> float:
        return t**e * (alpha + beta * t)

    candidates = []
    if lo == 0:
        if alpha != 0:
            if e < 1:
                return math.inf if alpha > 0 else 0.0
            candidates.append(0.0)
        else:
            # beta * t^{e+1} near zero
            if beta > 0 and e < -1:
                return math.inf
            candidates.append(0.0)
    else:
        candidates.append(max(val(lo), 0.0))
    if math.isinf(hi):
        # alpha t^e + beta t^{e+1} at infinity
        if (beta > 0 and e > -1) or (beta == 0 and alpha > 0 and e > 0):
            return math.inf
        candidates.append(0.0)
    else:
        candidates.append(max(val(hi), 0.0))
    if beta != 0 and e != 0:
        t_star = -e * alpha / ((e + 1) * beta) if e != -1 else math.nan
        if not math.isnan(t_star) and lo < t_star < hi:
            candidates.append(max(val(t_star), 0.0))
    return max(candidates)


@functools.cache
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """The 32-node rule on [-1, 1], computed once on first use: its
    eigen-solve loads LAPACK, which costs 1.75 MiB of resident memory."""
    rule = np.polynomial.legendre.leggauss(32)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _adaptive_gauss(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    rtol: float = 1e-9,
) -> np.ndarray:
    """Integral of fn over each interval (lo[i], hi[i]): Gauss-Legendre,
    bisected breadth first until each refinement is stable.

    fn(x, which) takes the nodes of many subintervals, x of shape (m, 32),
    with which[r] the index i of the interval that row r lies in, and
    returns the integrand at x.  Each level bisects every live subinterval
    and evaluates all the halves in one call (in blocks of at most
    _GAUSS_ROWS rows).  A half-pair is accepted where
    |left + right - whole| <= rtol (|whole| + 1e-300), at depth > 24, or
    when more than _GAUSS_LIVE pairs of its level would stay live.  The
    accepted sums are then added back up the bisection tree, left child
    plus right child, the order a depth-first recursion adds them in.
    """
    nodes, weights = _gauss_legendre()

    def estimate(a: np.ndarray, b: np.ndarray, which: np.ndarray) -> np.ndarray:
        mid, half = (a + b) / 2, (b - a) / 2
        out = np.empty(a.size)
        for start in range(0, a.size, _GAUSS_ROWS):
            rows = slice(start, start + _GAUSS_ROWS)
            x = mid[rows, None] + half[rows, None] * nodes
            out[rows] = half[rows] * (weights * fn(x, which[rows])).sum(axis=1)
        return out

    a, b = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    which = np.arange(a.size)
    whole = estimate(a, b, which)
    levels = []  # (left + right, accepted) for the live pairs of each level
    depth = 0
    while a.size:
        mid = (a + b) / 2
        # the halves of interval k sit at rows 2k (left) and 2k + 1 (right)
        a, b = np.stack((a, mid), axis=1).ravel(), np.stack((mid, b), axis=1).ravel()
        which = np.repeat(which, 2)
        halves = estimate(a, b, which)
        pair = halves[0::2] + halves[1::2]
        done = np.abs(pair - whole) <= rtol * (np.abs(whole) + 1e-300)
        done |= depth > 24 or done.size - np.count_nonzero(done) > _GAUSS_LIVE
        levels.append((pair, done))
        live = np.repeat(~done, 2)
        a, b, which, whole = a[live], b[live], which[live], halves[live]
        depth += 1
    total = np.empty(0)
    for pair, done in reversed(levels):
        pair[~done] = total[0::2] + total[1::2]
        total = pair
    return total


def _hardy_form2_lhs(phi: StepFunction, delta: float, q: Exponent) -> float:
    """{ integral [t^{1-delta} * integral_t^inf phi(u) du/u]^q dt/t }^{1/q}.

    In lam = log t, Psi(t) = integral_t^inf phi(u) du/u is affine on each
    piece.  For finite q every piece goes through one adaptive Gauss call,
    the one at 0 cut where its exponential factor has decayed; q = inf
    takes the closed-form sup of each piece.
    """
    if not len(phi):
        return 0.0
    # Psi(t) = E_j - phi_j log t on piece j, accumulated from the right
    tail = 0.0
    raw = []
    for lo, hi, v in zip(phi.lows[::-1], phi.breaks[::-1], phi.values[::-1]):
        e_j = float(v) * math.log(float(hi)) + tail
        raw.append((float(lo), float(hi), e_j, float(v)))
        if v > 0 and lo > 0:
            tail += float(v) * math.log(float(hi) / float(lo))
    segments = raw[::-1]
    gamma1 = 1 - delta
    if is_inf(q):
        sup = 0.0
        for lo, hi, e_j, v in segments:
            sup = max(sup, _sup_exp_affine(gamma1, e_j, -v, lo, hi))
        return sup
    qf = float(q)
    live = [seg for seg in segments if seg[2] != 0 or seg[3] != 0]
    _, _, e, v = np.array(live, dtype=np.float64).reshape(-1, 4).T
    # from lo = 0, truncate where the exponential has decayed far below scale
    cut = (60.0 + 10.0 * qf) / (gamma1 * qf)
    a, b = np.array(
        [(math.log(lo) if lo > 0 else math.log(hi) - cut, math.log(hi)) for lo, hi, _, _ in live]
    ).reshape(-1, 2).T

    def fn(lam: np.ndarray, which: np.ndarray) -> np.ndarray:
        affine = np.maximum(e[which, None] - v[which, None] * lam, 0.0)
        return np.exp(gamma1 * qf * lam) * affine**qf

    total = sum(_adaptive_gauss(fn, a, b).tolist())
    return total ** (1.0 / qf)


def _sup_exp_affine(
    gamma: float, a: float, b: float, lo: float, hi: float
) -> float:
    """sup of e^{gamma * lam} (a + b * lam) over log-interval (log lo, log hi)."""

    def val(lam: float) -> float:
        return math.exp(gamma * lam) * max(a + b * lam, 0.0)

    cands = []
    if lo == 0:
        if gamma > 0:
            cands.append(0.0)
        else:
            return math.inf if (a != 0 or b != 0) else 0.0
    else:
        cands.append(val(math.log(lo)))
    cands.append(val(math.log(hi)))
    if b != 0 and gamma != 0:
        # the root of d/dlam = e^{gamma lam} (gamma (a + b lam) + b)
        lam_star = -a / b - 1 / gamma
        if (lo == 0 or math.log(lo) < lam_star) and lam_star < math.log(hi):
            cands.append(val(lam_star))
    return max(cands)


def hardy_check(
    phi: StepFunction, delta: ExponentLike, q: ExponentLike
) -> HardyResult:
    """Both Hardy forms with constant 1/(1 - delta), delta < 1, q in [1, inf].

    Form 1 bounds t^{delta-1} * integral_0^t phi(u) du by the weight
    t^delta phi(t); form 2 bounds t^{1-delta} * integral_t^inf phi(u) du/u
    by the weight t^{1-delta} phi(t).  (In form 2 the inner integral is
    taken against du/u: that is the unique reading invariant under
    t -> lambda t rescaling, and the one matching the delta = 1/2 + 1/p
    applications downstream.)  Each inequality is asserted only when its
    right side is finite.
    """
    delta = parse_exponent(delta)
    q = parse_exponent(q)
    if is_inf(delta) or not delta < 1:
        raise ValueError(f"delta must be < 1, got {delta}")
    if not is_inf(q) and q < 1:
        raise ValueError(f"q must lie in [1, inf], got {q}")
    df = float(delta)
    constant = 1.0 / (1.0 - df)
    lhs1 = _hardy_form1_lhs(phi, df, q)
    lhs2 = _hardy_form2_lhs(phi, df, q)
    rhs1 = constant * step_halfline_functional(phi, delta, q)
    rhs2 = constant * step_halfline_functional(phi, 1 - delta, q)
    holds = True
    if math.isfinite(rhs1):
        holds = holds and bool(lhs1 <= rhs1 * (1 + 1e-9))
    if math.isfinite(rhs2):
        holds = holds and bool(lhs2 <= rhs2 * (1 + 1e-9))
    return HardyResult(lhs1, lhs2, rhs1, rhs2, constant, holds)


# -- Calderon operators ---------------------------------------------------------


def _exp_antiderivative(
    base: np.ndarray, gamma: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """exp(base + gamma x) / gamma, or exp(base) * x where gamma = 0; at
    x = +-inf it is 0, the limit of a convergent end of an integral and
    the finite part of a divergent one."""
    finite = np.isfinite(x)
    x = np.where(finite, x, 0.0)
    flat = gamma == 0
    out = np.exp(base + gamma * x)
    out *= np.where(flat, x, 1 / np.where(flat, 1.0, gamma))
    out *= finite
    return out


def _branch_intervals(
    slopes: np.ndarray, intercepts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi), the interval of x on which line k, slopes[k] x +
    intercepts[..., k], is the lowest of the lines on the last axis; the
    interval is empty where lo >= hi.

    Line k is below line j for x under (d_j - d_k) / (b_k - b_j) when
    b_k > b_j and over it when b_k < b_j (b the slopes, d the intercepts);
    of two parallel lines the lower wins everywhere, the lower index on a
    tie.
    """
    db = slopes[:, None] - slopes[None, :]
    dd = intercepts[..., None, :] - intercepts[..., :, None]
    cross = dd / np.where(db == 0, 1.0, db)
    lo = np.where(db < 0, cross, _NEG_INF).max(axis=-1)
    hi = np.where(db > 0, cross, math.inf).min(axis=-1)
    k = np.arange(slopes.size)
    beaten = (db == 0) & ((dd < 0) | ((dd == 0) & (k < k[:, None])))
    hi[beaten.any(axis=-1)] = _NEG_INF
    return lo, hi


def _calderon_corners(
    eta: EtaSet, fstar: StepFunction, gstar: StepFunction, ts: np.ndarray
) -> np.ndarray:
    """S_eta(f*, g*) at every t in ts, for a band-decomposable eta.

    With f* = sum_i df_i 1_(0, b_i] and g* = sum_j dg_j 1_(0, c_j],
    S(t) = sum_ij df_i dg_j H(log b_i, log c_j), where H(P, Q) integrates
    the kernel over {rho < P, sigma < Q} in log coordinates.  In
    e = sigma - rho the kernel is e^{m rho} e^{b_k e - c_k log t} on branch
    k's interval (m = a_k + b_k), so H sums per branch two exponential
    integrals split at e = Q - P, where the bound on rho turns from P to
    Q - e.  A divergent end contributes a function of P alone or of Q
    alone, which cancels in the sum unless its weight f*(0+) or g*(0+) is
    positive; then S = inf.

    Accuracy: a piece of f* or g* of relative width delta (b_i = b_{i-1}(1 +
    delta)) enters as a difference of the corner integrals at its two ends,
    so S is within 1e-14/delta relative of the exact rectangle sum; when f*
    and g* each have such a piece, within 1e-14/delta^2 (tests pin both).
    """
    a, b, c = eta._abc.T
    m = a[0] + b[0]
    (p, df), (q, dg) = ((np.log(sf.breaks), sf.jumps) for sf in (fstar, gstar))
    weight = np.multiply.outer(df, dg)
    f_at_0, g_at_0 = (len(sf) > 0 and sf.values[0] > 0 for sf in (fstar, gstar))
    f_live, g_live = (bool(np.any(sf.values > 0)) for sf in (fstar, gstar))
    # axes: (t, branch, f* corner, g* corner)
    a4, b4 = a[None, :, None, None], b[None, :, None, None]
    split = (q[None, :] - p[:, None])[None, None]
    out = np.empty(ts.size)
    block = max(1, _CORNER_CELLS // max(1, a.size * weight.size))
    for start in range(0, ts.size, block):
        log_t = np.log(ts[start:start + block])
        # branch k is the line b_k e + d_k in e, with d_k = -c_k log t
        icpt = np.multiply.outer(log_t, -c)
        lo, hi = _branch_intervals(b, icpt)
        if m == 0:
            # every a_k = b_k = 0: the kernel is a constant in r and s
            h = np.exp(icpt.min(axis=1))[:, None, None] * np.multiply.outer(p, q)
        else:
            lo4, hi4 = lo[:, :, None, None], hi[:, :, None, None]
            # the (t, branch, corner, corner) arrays are updated in place,
            # since they set the peak memory
            # e < Q - P: rho runs up to P
            base = m * p[:, None] + icpt[:, :, None, None]
            edge = np.minimum(hi4, split)
            h = _exp_antiderivative(base, b4, edge)
            h -= _exp_antiderivative(base, b4, lo4)
            h[edge <= lo4] = 0.0
            # e > Q - P: rho runs up to Q - e
            base = m * q[None, :] + icpt[:, :, None, None]
            edge = np.maximum(lo4, split, out=edge)
            above = _exp_antiderivative(base, -a4, edge)
            np.subtract(_exp_antiderivative(base, -a4, hi4), above, out=above)
            above[hi4 <= edge] = 0.0
            h += above
            h = h.sum(axis=1) / m
        s = (h * weight).sum(axis=(1, 2))
        # the branch winning as e -> +inf (r -> 0) has a_k = 0, or as e -> -inf b_k = 0
        live = lo < hi
        r_diverges = (live & (hi == math.inf) & (a == 0)).any(axis=1)
        s_diverges = (live & (lo == _NEG_INF) & (b == 0)).any(axis=1)
        diverges = (f_at_0 and g_live) & r_diverges | (g_at_0 and f_live) & s_diverges
        out[start:start + log_t.size] = np.where(diverges, math.inf, s)
    return out


def _calderon_quadrature(
    eta: EtaSet,
    fstar: StepFunction,
    gstar: StepFunction,
    t: float,
) -> float:
    """Log-grid quadrature: exact in sigma, adaptive Gauss-Legendre in rho.

    The window starts at 1e-6 times the smallest breakpoint and is pushed
    further toward zero until two successive windows agree to
    _QUADRATURE_RTOL, so slowly decaying kernel heads are captured.  The rho
    axis is split at every value where the sigma-envelope pattern can change
    (pairwise line crossings hitting piece edges or each other), leaving
    analytic pieces.
    """
    log_t = math.log(t)
    fk, gk = fstar.values > 0, gstar.values > 0
    if not fk.any() or not gk.any():
        return 0.0
    # (log lo, log hi, value) of the positive pieces, raised to the floor below
    with np.errstate(divide="ignore"):
        (f_lo, f_hi), (g_lo, g_hi) = (
            (np.log(sf.lows[keep]), np.log(sf.breaks[keep]))
            for sf, keep in ((fstar, fk), (gstar, gk))
        )
    f_val, g_val = fstar.values[fk], gstar.values[gk]
    min_break = min(float(fstar.breaks[0]), float(gstar.breaks[0]))
    a, b, c = eta._abc.T
    # the sigma-crossing of branches i and j is affine in rho, slope rho +
    # offset; the envelope pattern changes only where one crosses a sigma
    # edge or another crossing, or where two parallel branches swap
    i, j = np.triu_indices(a.size, 1)
    parallel = b[i] == b[j]
    swap = parallel & (a[i] != a[j])
    kinks = [(c[i[swap]] - c[j[swap]]) * log_t / (a[i[swap]] - a[j[swap]])]
    i, j = i[~parallel], j[~parallel]
    slope = (a[j] - a[i]) / (b[i] - b[j])
    offset = -(c[j] - c[i]) * log_t / (b[i] - b[j])
    u, v = np.triu_indices(slope.size, 1)
    meet = slope[u] != slope[v]
    kinks.append((offset[v[meet]] - offset[u[meet]]) / (slope[u[meet]] - slope[v[meet]]))
    moving = slope != 0
    slope, offset = slope[moving], offset[moving]

    def total_at(floor: float) -> float:
        s_lo = np.maximum(g_lo, floor)

        def inner(x: np.ndarray, which: np.ndarray) -> np.ndarray:
            # axes: (rho node, branch, g* piece); at fixed rho branch k is
            # e^{a_k rho - c_k log t} e^{b_k sigma}, integrated in sigma over
            # its interval within the piece
            icpt = np.multiply.outer(x.ravel(), a) - c * log_t
            lo, hi = _branch_intervals(b, icpt)
            upper = np.minimum(hi[:, :, None], g_hi)
            lower = np.minimum(np.maximum(lo[:, :, None], s_lo), upper)
            base, gamma = icpt[:, :, None], b[:, None]
            part = _exp_antiderivative(base, gamma, upper)
            part -= _exp_antiderivative(base, gamma, lower)
            return (part * g_val).sum(axis=(1, 2)).reshape(x.shape)

        # each f* piece cut at the kinks inside it, one row per piece
        edges = np.concatenate((s_lo, g_hi))[:, None]
        cuts = np.unique(np.concatenate(kinks + [((edges - offset) / slope).ravel()]))
        cuts = np.concatenate(([_NEG_INF], cuts, [math.inf]))
        lo = np.maximum.outer(np.maximum(f_lo, floor), cuts[:-1])
        hi = np.minimum.outer(f_hi, cuts[1:])
        keep = hi > lo
        parts = _adaptive_gauss(inner, lo[keep], hi[keep], rtol=1e-10)
        return sum((np.broadcast_to(f_val[:, None], keep.shape)[keep] * parts).tolist())

    floor = math.log(1e-6 * min_break)
    prev = total_at(floor)
    for _ in range(6):
        floor -= math.log(1e4)
        cur = total_at(floor)
        if abs(cur - prev) <= _QUADRATURE_RTOL * (abs(cur) + 1e-300):
            return cur
        prev = cur
    return prev


def calderon_apply(
    eta: EtaSet,
    fstar: StepFunction,
    gstar: StepFunction,
    t: Union[float, np.ndarray],
    method: str = "auto",
) -> Union[float, np.ndarray]:
    """S_eta(f*, g*)(t): the bilinear Calderon operator at t > 0.

    t is a scalar (the result is a float) or a 1-d array (the result is an
    array of the same length).  Band-decomposable kernels (both canonical
    sets) are evaluated in closed form; others fall back to truncated
    log-grid quadrature, one t at a time.
    """
    ts = np.asarray(t, dtype=np.float64)
    if ts.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-d array, got shape {ts.shape}")
    if not np.all(ts > 0):
        raise ValueError(f"t must be positive, got {t}")
    if method not in {"auto", "exact", "quadrature"}:
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and not eta.is_band_decomposable:
        raise ValueError("exact method requires a band-decomposable eta set")
    flat = ts.reshape(-1)
    if method == "quadrature" or not eta.is_band_decomposable:
        out = np.array([_calderon_quadrature(eta, fstar, gstar, float(x)) for x in flat])
    else:
        out = _calderon_corners(eta, fstar, gstar, flat)
    return float(out[0]) if ts.ndim == 0 else out


def sqrt_moment(sf: StepFunction) -> float:
    """integral of sqrt(r) * sf(r) dr/r = 2 sum v (sqrt(hi) - sqrt(lo)), the
    weight appearing in the separable kernel."""
    # Python's sum adds the pieces in order, as a loop over them would
    return 2.0 * sum((sf.values * (np.sqrt(sf.breaks) - np.sqrt(sf.lows))).tolist())


def calderon_separable_value(
    fstar: StepFunction, gstar: StepFunction, t: float
) -> float:
    """Closed form for the separable kernel: min(1, t^{-1/2}) times the
    product of the two sqrt-moments."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return min(1.0, t**-0.5) * sqrt_moment(fstar) * sqrt_moment(gstar)


# -- half-line Lorentz functionals ----------------------------------------------


class PiecewiseMonomial:
    """h(t) = coef * t^expo on each interval (lo, hi), 0 elsewhere."""

    def __init__(self, pieces: Iterable[Tuple[float, float, float, float]]):
        parsed = []
        prev_hi = 0.0
        for lo, hi, coef, expo in pieces:
            lo, hi, coef, expo = float(lo), float(hi), float(coef), float(expo)
            if not (0 <= lo < hi):
                raise ValueError(f"bad interval ({lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("pieces must be sorted and disjoint")
            if coef < 0:
                raise ValueError("coefficients must be non-negative")
            parsed.append((lo, hi, coef, expo))
            prev_hi = hi
        self.pieces = parsed

    def __call__(self, t: float) -> float:
        if t <= 0:
            raise ValueError(f"evaluation needs t > 0, got {t}")
        for lo, hi, coef, expo in self.pieces:
            if lo <= t < hi:
                return coef * t**expo
        return 0.0

    @classmethod
    def bounded_inverse_sqrt(cls, scale: float = 1.0) -> "PiecewiseMonomial":
        """scale * min(1, t^{-1/2})."""
        return cls([(0.0, 1.0, scale, 0.0), (1.0, math.inf, scale, -0.5)])


def halfline_lorentz_functional(
    h: Union[StepFunction, PiecewiseMonomial], q: ExponentLike, w: ExponentLike
) -> float:
    """{ integral [t^{1/q} h(t)]^w dt/t }^{1/w}, sup form when w = inf.

    Exact for step functions and piecewise monomials, the two types taken.
    """
    q = parse_exponent(q)
    w = parse_exponent(w)
    e = recip(q)
    if isinstance(h, StepFunction):
        return step_halfline_functional(h, e, w)
    if not isinstance(h, PiecewiseMonomial):
        raise TypeError(
            f"h must be a StepFunction or a PiecewiseMonomial, got {type(h).__name__}"
        )
    ef = float(e)
    if is_inf(w):
        sup = 0.0
        for lo, hi, coef, expo in h.pieces:
            if coef > 0:
                sup = max(sup, coef * power_sup(ef + expo, lo, hi))
        return sup
    wf = float(w)
    total = 0.0
    for lo, hi, coef, expo in h.pieces:
        if coef > 0:
            total += coef**wf * power_integral((ef + expo) * wf, lo, hi)
    if math.isinf(total):
        return math.inf
    return total ** (1.0 / wf)


def calderon_t_functional(
    fstar: StepFunction,
    gstar: StepFunction,
    q: ExponentLike,
    w: ExponentLike,
    eta: EtaSet = ETA_SQRT_MIN,
) -> float:
    """{ integral [t^{1/q} S_eta(f*, g*)(t)]^w dt/t }^{1/w} for the two
    canonical kernels, q in (2, inf], to relative tolerance
    _T_FUNCTIONAL_RTOL (1e-6).

    The separable kernel factors as min(1, t^{-1/2}) times a constant, a
    closed form.  For the sqrt-min kernel: S is constant on (0, 1] (the
    kernel there is min(r,s), free of t) and M(t) = sqrt(t) S(t) increases
    to M_inf, the product of sqrt-moments, so the head is exact and the far
    tail is pinned between M(T) and M_inf.  One evaluator call gives S at
    t = 1 and at the tail candidates T = 4, 16, ..., 4^60.

    For finite w the tail starts at the first T whose bracket is tight
    (4^60 if none is), and one integrator call covers the interior (1, T),
    analytic between kinks at the gaps |log b_i - log c_j|.  For w = inf
    the candidates seed a grid.  On a cell [a, b], t^{1/q} S(t) =
    t^gamma M(t), gamma = 1/q - 1/2 < 0, lies between its end values and
    min(a^gamma M(b), b^{1/q} S(a)); past the last node T it is below
    T^gamma M_inf.  Each level evaluates in one call the geometric
    midpoints of every cell whose bound exceeds the largest value by more
    than that tolerance, and 4T if the tail's bound does.  The result is
    the middle of the bracket once no bound does, or once the grid has
    _SUP_NODES nodes.
    """
    q = parse_exponent(q)
    w = parse_exponent(w)
    if not is_inf(q) and q <= 2:
        raise ValueError(f"q must lie in (2, inf], got {q}")
    if eta == ETA_SEPARABLE:
        scale = sqrt_moment(fstar) * sqrt_moment(gstar)
        return halfline_lorentz_functional(
            PiecewiseMonomial.bounded_inverse_sqrt(scale), q, w
        )
    if eta != ETA_SQRT_MIN:
        raise ValueError(
            "the t-functional supports the sqrt-min and separable kernels only"
        )
    ts = 4.0 ** np.arange(61)
    s = _calderon_corners(eta, fstar, gstar, ts)
    s0 = float(s[0])
    m_bound = sqrt_moment(fstar) * sqrt_moment(gstar)
    if s0 == 0 or m_bound == 0:
        return 0.0
    ef = float(recip(q))
    if is_inf(w):
        # sup on (0,1] is exact: t^{1/q} S0 peaks at t = 1
        head = s0 * power_sup(ef, 0.0, 1.0)
        gamma = ef - 0.5
        while True:
            m = np.sqrt(ts) * s
            lower = max(head, float(np.max(ts**gamma * m)))
            # on a cell [a, b] S falls and M rises
            up = np.minimum(ts[:-1] ** gamma * m[1:], ts[1:] ** ef * s[:-1])
            tail_up = float(ts[-1]) ** gamma * m_bound
            upper = max(head, float(np.max(up)), tail_up)
            bar = lower * (1 + _T_FUNCTIONAL_RTOL)
            new = np.sqrt(ts[:-1] * ts[1:])[up > bar]
            if tail_up > bar and math.isfinite(4 * ts[-1]):
                new = np.append(new, 4 * ts[-1])
            # no cell and no tail left above the bar: the bracket is tight
            if not new.size or ts.size >= _SUP_NODES:
                return (upper + lower) / 2
            ts = np.append(ts, new)
            s = np.append(s, _calderon_corners(eta, fstar, gstar, new))
            order = np.argsort(ts)
            ts, s = ts[order], s[order]
    wf = float(w)
    head = s0**wf * power_integral(ef * wf, 0.0, 1.0)
    if math.isinf(head):
        return math.inf
    gamma = (ef - 0.5) * wf  # < 0 since q > 2

    # far tail: sqrt(t) S(t) is pinched between M(T) and its limit, so the
    # monotone bracket is tight once T is large; pick T with width <= tol/4
    scale = head + s0**wf * power_integral(gamma, 1.0, math.inf)
    for t_big, m_big in zip(ts[1:].tolist(), (np.sqrt(ts) * s)[1:].tolist()):
        tail_lo = m_big**wf * power_integral(gamma, t_big, math.inf)
        tail_hi = m_bound**wf * power_integral(gamma, t_big, math.inf)
        if tail_hi - tail_lo <= 0.25 * _T_FUNCTIONAL_RTOL * (scale + tail_lo):
            break
    tail = (tail_lo + tail_hi) / 2

    # interior: analytic in log t between kinks at |log-breakpoint gaps|
    lam_big = math.log(t_big)
    edges_f = [math.log(float(b)) for b in fstar.breaks]
    edges_g = [math.log(float(b)) for b in gstar.breaks]
    kinks = sorted(
        {abs(p - c) for p in edges_f for c in edges_g if 0 < abs(p - c) < lam_big}
    )
    edges = np.array([0.0] + kinks + [lam_big])

    def fn(lams: np.ndarray, which: np.ndarray) -> np.ndarray:
        svals = _calderon_corners(eta, fstar, gstar, np.exp(lams).ravel())
        return np.exp(ef * wf * lams) * svals.reshape(lams.shape) ** wf

    parts = _adaptive_gauss(fn, edges[:-1], edges[1:], rtol=0.1 * _T_FUNCTIONAL_RTOL)
    interior = sum(parts.tolist())
    return (head + interior + tail) ** (1.0 / wf)

