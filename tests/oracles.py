"""Brute-force oracles that the library's transforms are checked against.

Each evaluates its quantity entry by entry from its defining pairing, or
region by region from its defining integral, not from the closed form the
library assembles it with.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from tflab import (
    EtaSet,
    ExponentLike,
    FiniteAbelianGroup,
    GroupEndomorphism,
    GroupFunction,
    MeasuredFunction,
    StepFunction,
    TFArray,
    calderon_apply,
    is_inf,
    parse_exponent,
    rearrangement,
    recip,
    step_halfline_functional,
    stft,
    tf_pairing,
    tf_shift,
    wigner_tau,
)
from tflab.calderon import _NEG_INF, _branch_intervals, _exp_antiderivative, _gauss_legendre
from tflab.tfa import _dft_rows


# -- index tables and the transforms that gather through them ------------------


def add_index_oracle(grp: FiniteAbelianGroup) -> np.ndarray:
    """index(x_i + x_j) at [i, j], from coordinates summed mod the orders."""
    s = (grp.elements[:, None, :] + grp.elements[None, :, :]) % np.array(grp.orders)
    return np.ravel_multi_index(
        tuple(s[..., m] for m in range(grp.rank)), grp.orders
    ).astype(np.int64)


def sub_index_oracle(grp: FiniteAbelianGroup) -> np.ndarray:
    """index(x_i - x_j) at [i, j], from coordinates subtracted mod the orders."""
    s = (grp.elements[:, None, :] - grp.elements[None, :, :]) % np.array(grp.orders)
    return np.ravel_multi_index(
        tuple(s[..., m] for m in range(grp.rank)), grp.orders
    ).astype(np.int64)


def stft_table_gather(f: GroupFunction, g: GroupFunction) -> TFArray:
    """``stft`` with the window g(y - x) gathered through the sub table."""
    grp = f.group
    window = np.conj(g.values[sub_index_oracle(grp).T])
    h = f.values[None, :] * window
    return TFArray(grp, grp.haar_weight * _dft_rows(grp, h, h))


def wigner_tau_table_gather(
    f: GroupFunction, g: GroupFunction, tau: GroupEndomorphism
) -> TFArray:
    """``wigner_tau`` with f(x + tau y) and g(x - (I - tau) y) gathered
    through the add and sub tables, built here from coordinates."""
    grp = f.group
    one_minus = GroupEndomorphism.identity(tau.group) - tau
    left = f.values[add_index_oracle(grp)[:, tau.permutation]]
    right = np.conj(g.values[sub_index_oracle(grp)[:, one_minus.permutation]])
    a = left * right
    return TFArray(grp, grp.haar_weight * _dft_rows(grp, a, a))


def weyl_operator_table_gather(phi: TFArray, tau: GroupEndomorphism) -> np.ndarray:
    """``weyl_operator`` with d = b - a and x = b - tau d looked up in the sub
    table at every (a, b)."""
    grp = phi.group
    sub = sub_index_oracle(grp)
    s = _dft_rows(grp, phi.values, np.empty_like(phi.values))
    a_idx, b_idx = np.meshgrid(
        np.arange(grp.size), np.arange(grp.size), indexing="ij"
    )
    d_idx = sub[b_idx, a_idx]
    x_idx = sub[b_idx, tau.permutation[d_idx]]
    return s[x_idx, d_idx] / grp.size


def stft_via_inner_products(f: GroupFunction, g: GroupFunction) -> TFArray:
    """V_g f(x, xi) = <f, pi(x, xi) g>, entry by entry."""
    f._check_group(g)
    grp = f.group
    values = np.empty((grp.size, grp.size), dtype=np.complex128)
    for ix in range(grp.size):
        for ixi in range(grp.size):
            values[ix, ixi] = f.inner(tf_shift(g, ix, ixi))
    return TFArray(grp, values)


def weyl_operator_pointmass(phi: TFArray, tau: GroupEndomorphism) -> np.ndarray:
    """Literal assembly: pair phi with W_tau(delta_b, delta_a) directly."""
    grp = phi.group
    n = grp.size
    k = np.empty((n, n), dtype=np.complex128)
    w = grp.haar_weight
    for b in range(n):
        fb = GroupFunction.delta(grp, b)
        for a in range(n):
            wig = wigner_tau(fb, GroupFunction.delta(grp, a), tau)
            k[a, b] = tf_pairing(phi, wig) / w
    return k


# -- the Lorentz norm through f*, tied magnitudes merged ------------------------


def lorentz_norm_via_rearrangement(
    f: MeasuredFunction, p: ExponentLike, q: ExponentLike
) -> float:
    """||f||_{p,q} as the half-line functional of f*, p, q in (0, inf]:
    tied magnitudes are merged into one piece before any power is taken."""
    return step_halfline_functional(rearrangement(f), recip(parse_exponent(p)), q)


# -- maximal averages f**, one piece of f* at a time --------------------------------


def double_star_oracle(fstar: StepFunction, t: float) -> float:
    """f**(t) = (1/t) * integral of f* over (0, t], summed piece by piece."""
    if t <= 0:
        raise ValueError(f"f** is evaluated on t > 0, got {t}")
    total = 0.0
    for lo, hi, v in zip(fstar.lows.tolist(), fstar.breaks.tolist(), fstar.values.tolist()):
        if lo >= t:
            break
        total += v * (min(hi, t) - lo)
    return total / t


def restricted_weak_type_lhs_oracle(
    grp: FiniteAbelianGroup, u_set: Sequence[int], v_set: Sequence[int], r: ExponentLike
) -> float:
    """sup over t of t^{1/r} h**(t) for h = |V_{1_V} 1_U|: the max over the
    breakpoints of h*, and the t -> 0 limit h*(0+) when r = inf."""
    fu, gv = np.zeros(grp.size), np.zeros(grp.size)
    fu[list(u_set)] = 1.0
    gv[list(v_set)] = 1.0
    h = stft_via_inner_products(GroupFunction(grp, fu), GroupFunction(grp, gv))
    hstar = rearrangement(h.to_measured())
    alpha = float(recip(parse_exponent(r)))
    lhs = max(t**alpha * double_star_oracle(hstar, t) for t in hstar.breaks.tolist())
    return max(lhs, hstar.sup) if is_inf(parse_exponent(r)) else lhs


# -- the Lorentz norm with both ends of every piece raised to the power ---------


def pieces_functional_two_power(
    lows: np.ndarray, his: np.ndarray, values: np.ndarray, e: ExponentLike, q: ExponentLike
) -> float:
    """{ integral of (t**e * h(t))**q dt/t }**(1/q), sup form when q = inf,
    for h equal to values[j] > 0 on (lows[j], his[j]]: the pieces are taken
    as his**a - lows**a, from one power pass over each end.  Reads its
    arrays without writing them."""
    e, q = parse_exponent(e), parse_exponent(q)
    ef = float(e)
    if not values.size:
        return 0.0
    scale = float(values.max())
    if math.isinf(scale):
        return scale
    values = values / scale
    if lows[0] == 0 and (ef < 0 or (ef == 0 and not is_inf(q))):
        return math.inf
    if is_inf(q):
        if ef == 0:
            return scale
        return scale * float(np.max(values * (his if ef > 0 else lows) ** ef))
    qf = float(q)
    a = ef * qf
    if a == 0:
        pieces = np.log(his / lows)
    else:
        pieces = (his**a - lows**a) / a
    total = float(np.sum(values**qf * pieces))
    if math.isinf(total):
        return math.inf
    return scale * total ** (1.0 / qf)


def lorentz_norm_two_power(
    mags: np.ndarray, weights: Union[float, np.ndarray], p: ExponentLike, q: ExponentLike
) -> float:
    """||.||_{p,q} of atoms with magnitudes ``mags`` and weights ``weights``
    (a scalar for one weight), p, q in (0, inf]: the positive magnitudes
    sorted largest first (the library's argsort, so that unequal weights
    are summed in its order), their running weight sums T_j as the right
    ends and a shifted copy (0, T_1, ..., T_{n-1}) as the left ends."""
    p = parse_exponent(p)
    order = np.argsort(-mags)[: np.count_nonzero(mags > 0)]
    totals = np.cumsum(np.broadcast_to(weights, mags.shape)[order])
    lows = np.concatenate(([0.0], totals))[:-1]
    return pieces_functional_two_power(lows, totals, mags[order], recip(p), q)


# -- the multiplicative convolution, one pair of pieces at a time ---------------


def _positive_pieces(sf: StepFunction) -> List[Tuple[float, float, float]]:
    """(lo, hi, value) of the pieces with a positive value."""
    return [
        (lo, hi, v)
        for lo, hi, v in zip(sf.lows.tolist(), sf.breaks.tolist(), sf.values.tolist())
        if v > 0
    ]


def mult_convolution_oracle(f: StepFunction, g: StepFunction, x: float) -> float:
    """(f * g)(x) = integral of f(y) g(x/y) dy/y, evaluated exactly.

    For each pair of pieces the overlap in y is an interval whose dy/y
    measure is a difference of logarithms.
    """
    total = 0.0
    for flo, fhi, fv in _positive_pieces(f):
        for glo, ghi, gv in _positive_pieces(g):
            # g(x/y) = gv for y in (x/ghi, x/glo]
            lo = max(flo, x / ghi)
            hi = min(fhi, x / glo) if glo > 0 else fhi
            if hi > lo:
                total += fv * gv * math.log(hi / lo)
    return total


# -- the Calderon operator, one (f*-piece, g*-piece, band) rectangle at a time --


def _lower_envelope(
    lines: Sequence[Tuple[float, float, int]]
) -> List[Tuple[float, float, int]]:
    """Bands (lo, hi, tag) of the pointwise minimum of affine lines."""
    # drop parallel lines that are dominated everywhere
    best: dict = {}
    for slope, icpt, tag in lines:
        if slope not in best or icpt < best[slope][0]:
            best[slope] = (icpt, tag)
    reduced = [(slope, icpt, tag) for slope, (icpt, tag) in best.items()]
    crossings = []
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            s1, b1, _ = reduced[i]
            s2, b2, _ = reduced[j]
            if s1 != s2:
                crossings.append((b2 - b1) / (s1 - s2))
    xs = sorted(set(crossings))
    probes = (
        [xs[0] - 1.0]
        + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        + [xs[-1] + 1.0]
        if xs
        else [0.0]
    )
    edges = [_NEG_INF] + xs + [math.inf]
    bands: List[Tuple[float, float, int]] = []
    for lo, hi, x in zip(edges, edges[1:], probes):
        tag = min(reduced, key=lambda ln: ln[0] * x + ln[1])[2]
        if bands and bands[-1][2] == tag:
            bands[-1] = (bands[-1][0], hi, tag)
        else:
            bands.append((lo, hi, tag))
    return bands


def _log_pieces(sf: StepFunction) -> List[Tuple[float, float, float]]:
    """(log lo, log hi, value) of the pieces with a positive value; log 0 = -inf."""
    keep = sf.values > 0
    return [
        (math.log(lo) if lo > 0 else _NEG_INF, math.log(hi), v)
        for lo, hi, v in zip(
            sf.lows[keep].tolist(), sf.breaks[keep].tolist(), sf.values[keep].tolist()
        )
    ]


def _exp_integral(gamma: float, lo: float, hi: float) -> float:
    """integral of e^{gamma * x} dx over (lo, hi); lo may be -inf."""
    if math.isinf(hi):
        raise ValueError("upper endpoint must be finite")
    if lo == _NEG_INF:
        if gamma <= 0:
            return math.inf
        return math.exp(gamma * hi) / gamma
    if hi <= lo:
        return 0.0
    if gamma == 0:
        return hi - lo
    return (math.exp(gamma * hi) - math.exp(gamma * lo)) / gamma


def eta_bands(eta: EtaSet, log_t: float) -> List[Tuple[float, float, int]]:
    """Partition of e = log(s/r) into (lo, hi, branch index) intervals.

    On each band the kernel equals r^{a_k} s^{b_k} t^{-c_k} for the
    returned branch k.  Requires band decomposability.
    """
    if not eta.is_band_decomposable:
        raise ValueError("eta set is not band decomposable")
    # branch value = b_k * e + (a_k + b_k) * rho - c_k * log_t, so the
    # minimizer over k is the lower envelope of lines slope b_k,
    # intercept -c_k * log_t.
    lines = [
        (float(b), -float(c) * log_t, k)
        for k, (a, b, c) in enumerate(eta.triples)
    ]
    return _lower_envelope(lines)


def exp_affine_integral(
    gamma: float, c0: float, c1: float, lo: float, hi: float
) -> float:
    """integral of (c0 + c1 x) e^{gamma x} dx over (lo, hi); lo may be -inf."""
    if math.isinf(hi):
        raise ValueError("upper endpoint must be finite")
    if c0 == 0 and c1 == 0:
        return 0.0
    if gamma == 0:
        if lo == _NEG_INF:
            return math.inf
        return c0 * (hi - lo) + c1 * (hi**2 - lo**2) / 2

    def anti(x: float) -> float:
        return math.exp(gamma * x) * ((c0 + c1 * x) / gamma - c1 / gamma**2)

    if lo == _NEG_INF:
        if gamma <= 0:
            return math.inf
        return anti(hi)
    if hi <= lo:
        return 0.0
    return anti(hi) - anti(lo)


def band_rect_integral(
    alpha: float,
    beta: float,
    scale_log: float,
    p0: float,
    p1: float,
    s0: float,
    s1: float,
    band_lo: float,
    band_hi: float,
) -> float:
    """integral of e^{alpha*rho + beta*sigma + scale_log} over the part of
    the log-rectangle (p0,p1) x (s0,s1) with sigma - rho in (band_lo, band_hi).

    p0 and s0 may be -inf; divergent configurations return +inf.
    """
    splits = []
    for bound in (band_lo, band_hi):
        if math.isfinite(bound):
            for s_edge in (s0, s1):
                if math.isfinite(s_edge):
                    x = s_edge - bound
                    if p0 < x < p1:
                        splits.append(x)
    edges = [p0] + sorted(set(splits)) + [p1]
    total = 0.0
    for x0, x1 in zip(edges, edges[1:]):
        if not x1 > x0:
            continue
        probe = x1 - 1.0 if x0 == _NEG_INF else (x0 + x1) / 2
        lo_probe = max(s0, probe + band_lo)
        up_probe = min(s1, probe + band_hi)
        if not up_probe > lo_probe:
            continue
        up_affine = math.isfinite(band_hi) and probe + band_hi < s1
        lo_affine = math.isfinite(band_lo) and probe + band_lo > s0
        if beta == 0:
            if not lo_affine and s0 == _NEG_INF:
                return math.inf
            c0 = (band_hi if up_affine else s1) - (band_lo if lo_affine else s0)
            c1 = float(up_affine) - float(lo_affine)
            piece = exp_affine_integral(alpha, c0, c1, x0, x1)
        else:
            piece = 0.0
            if up_affine:
                piece += math.exp(beta * band_hi) * _exp_integral(alpha + beta, x0, x1)
            else:
                piece += math.exp(beta * s1) * _exp_integral(alpha, x0, x1)
            if lo_affine:
                piece -= math.exp(beta * band_lo) * _exp_integral(alpha + beta, x0, x1)
            elif s0 == _NEG_INF:
                if beta < 0:
                    return math.inf
                # e^{beta * -inf} = 0 for beta > 0: no lower-boundary term
            else:
                piece -= math.exp(beta * s0) * _exp_integral(alpha, x0, x1)
            piece /= beta
        if math.isinf(piece):
            return math.inf
        total += piece
    return math.exp(scale_log) * total if math.isfinite(total) else math.inf


def calderon_exact_oracle(eta: EtaSet, fstar: StepFunction, gstar: StepFunction, t: float) -> float:
    """S_eta(f*, g*)(t) summed over every (f*-piece, g*-piece, band) rectangle."""
    log_t = math.log(t)
    bands = eta_bands(eta, log_t)
    total = 0.0
    for p0, p1, fv in _log_pieces(fstar):
        for s0, s1, gv in _log_pieces(gstar):
            for band_lo, band_hi, k in bands:
                a, b, c = eta.triples[k]
                part = band_rect_integral(
                    float(a), float(b), -float(c) * log_t,
                    p0, p1, s0, s1, band_lo, band_hi,
                )
                if math.isinf(part):
                    return math.inf
                total += fv * gv * part
    return total


def calderon_cells_oracle(
    eta: EtaSet, fstar: StepFunction, gstar: StepFunction, ts: np.ndarray
) -> np.ndarray:
    """S_eta(f*, g*) at every t in ts, for a band-decomposable eta, cell by
    cell: each (branch, f* corner, g* corner) cell's corner integral H is
    taken on its own, then weighted by df_i dg_j and summed, one t at a time.

    H(P, Q) integrates the kernel over {rho < P, sigma < Q} in log
    coordinates.  In e = sigma - rho the kernel is e^{m rho} e^{b_k e - c_k
    log t} on branch k's interval (m = a_k + b_k), so H sums per branch two
    exponential integrals split at e = Q - P, where the bound on rho turns
    from P to Q - e.  A divergent end contributes a function of P alone or
    of Q alone, which cancels in the sum unless its weight f*(0+) or
    g*(0+) is positive; then S = inf.
    """
    a, b, c = eta._abc.T
    m = a[0] + b[0]
    (p, df), (q, dg) = ((np.log(sf.breaks), sf.jumps) for sf in (fstar, gstar))
    weight = np.multiply.outer(df, dg)
    f_at_0, g_at_0 = (len(sf) > 0 and sf.values[0] > 0 for sf in (fstar, gstar))
    f_live, g_live = (bool(np.any(sf.values > 0)) for sf in (fstar, gstar))
    # axes: (branch, f* corner, g* corner)
    a3, b3 = a[:, None, None], b[:, None, None]
    split = (q[None, :] - p[:, None])[None]
    out = []
    for log_t in np.log(np.asarray(ts, dtype=np.float64)).tolist():
        icpt = -c * log_t
        lo, hi = _branch_intervals(b, icpt)
        if m == 0:
            h = math.exp(icpt.min()) * np.multiply.outer(p, q)
        else:
            lo3, hi3 = lo[:, None, None], hi[:, None, None]
            # e < Q - P: rho runs up to P
            base = m * p[:, None] + icpt[:, None, None]
            edge = np.minimum(hi3, split)
            below = _exp_antiderivative(base, b3, edge) - _exp_antiderivative(base, b3, lo3)
            below[edge <= lo3] = 0.0
            # e > Q - P: rho runs up to Q - e
            base = m * q[None, :] + icpt[:, None, None]
            edge = np.maximum(lo3, split)
            above = _exp_antiderivative(base, -a3, hi3) - _exp_antiderivative(base, -a3, edge)
            above[hi3 <= edge] = 0.0
            h = (below + above).sum(axis=0) / m
        live = lo < hi
        diverges = (f_at_0 and g_live and (live & (hi == math.inf) & (a == 0)).any()) or (
            g_at_0 and f_live and (live & (lo == _NEG_INF) & (b == 0)).any()
        )
        out.append(math.inf if diverges else float((h * weight).sum()))
    return np.array(out)


# -- the majorization ratio sampled on a grid ----------------------------------


def majorization_grid_oracle(f: GroupFunction, g: GroupFunction, eta: EtaSet) -> float:
    """max of (V_g f)*(t) / S_eta(f*, g*)(t) over a t-grid: the geometric
    midpoint and right end of every piece of (V_g f)*, plus 32 log-spaced
    points from an eighth of its first break to eight times its last.
    Every grid value is attained, so this is a lower bound on the supremum
    ``majorization_check`` returns."""
    hstar = rearrangement(stft(f, g).to_measured())
    if not len(hstar):
        return 0.0
    fstar = rearrangement(f.to_measured())
    gstar = rearrangement(g.to_measured())
    breaks = hstar.breaks
    lows = np.concatenate(([breaks[0] / 4], breaks[:-1]))
    grid = np.unique(
        np.concatenate(
            [np.sqrt(lows * breaks), breaks, np.geomspace(breaks[0] / 8, breaks[-1] * 8, 32)]
        )
    )
    tops = np.append(hstar.values, 0.0)[np.searchsorted(breaks, grid, side="right")]
    grid, tops = grid[tops != 0], tops[tops != 0]
    s_vals = calderon_apply(eta, fstar, gstar, grid)
    ratios = np.divide(tops, s_vals, out=np.full(tops.shape, math.inf), where=s_vals > 0)
    return float(np.max(ratios, initial=0.0))


# -- adaptive quadrature ---------------------------------------------------------


def adaptive_gauss_oracle(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, rtol: float = 1e-9
) -> float:
    """Gauss-Legendre with interval bisection until the refinement is stable,
    one interval at a time, depth first: the recursion the library's
    breadth-first integrator unrolls."""
    nodes, weights = _gauss_legendre()

    def estimate(a: float, b: float) -> float:
        mid, half = (a + b) / 2, (b - a) / 2
        return half * float(np.sum(weights * fn(mid + half * nodes)))

    def refine(a: float, b: float, whole: float, depth: int) -> float:
        mid = (a + b) / 2
        left, right = estimate(a, mid), estimate(mid, b)
        if depth > 24 or abs(left + right - whole) <= rtol * (abs(whole) + 1e-300):
            return left + right
        return refine(a, mid, left, depth + 1) + refine(mid, b, right, depth + 1)

    return refine(lo, hi, estimate(lo, hi), 0)


# -- the two Hardy forms, from their defining integrals in log t ------------------


def hardy_lhs_oracle(phi: StepFunction, delta: float, q: ExponentLike) -> Tuple[float, float]:
    """(lhs1, lhs2): the q-norms in dt/t of t^{delta-1} Phi(t) and
    t^{1-delta} Psi(t), with Phi(t) the integral of phi over (0, t) and
    Psi(t) that of phi(u) du/u over (t, inf), each summed over the pieces
    of phi at every node.

    In lam = log t the measure dt/t is d lam, and each piece of phi is one
    adaptive Gauss integral.  The half-lines before the first and past the
    last breakpoint are cut where the integrand's exponential factor has
    fallen by e^80; the powers of t and the logs are taken from lam, so
    the cuts, 80/(q(1 - delta)) long, stay in the float range near
    delta = 1, and form 1's head cut, 80/(q delta) long, near delta = 0.
    Form 1 diverges at 0 exactly when phi is positive on its first piece
    and delta <= 0 (delta < 0 for the sup); form 2 never does, as
    delta < 1.  For q = inf each sup is the maximum over a dense
    geometric grid, refined three times around the argmax.
    """
    q = parse_exponent(q)
    lows, highs, vals = phi.lows, phi.breaks, phi.values
    log_highs = np.log(highs)
    log_lows = np.log(lows, out=np.full_like(lows, -np.inf), where=lows > 0)

    def form1(lam: np.ndarray) -> np.ndarray:
        cover = np.clip(np.exp(np.minimum(lam[:, None], log_highs)) - lows, 0.0, None)
        return np.exp((delta - 1) * lam) * (cover * vals).sum(axis=1)

    def form2(lam: np.ndarray) -> np.ndarray:
        logs = np.clip(log_highs - np.maximum(lam[:, None], log_lows), 0.0, None)
        return np.exp((1 - delta) * lam) * (logs * vals).sum(axis=1)

    head_diverges = vals[0] > 0 and (delta < 0 or (delta == 0 and q != math.inf))
    if q == math.inf:

        def sup(h: Callable[[np.ndarray], np.ndarray]) -> float:
            grid = np.union1d(np.geomspace(highs[0] * 1e-4, highs[-1] * 1e4, 20001), highs)
            best = 0.0
            for _ in range(4):
                vals_h = h(np.log(grid))
                k = int(np.argmax(vals_h))
                best = max(best, float(vals_h[k]))
                grid = np.geomspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], 2001)
            return best

        return (math.inf if head_diverges else sup(form1)), sup(form2)

    qf = float(q)
    edges = log_highs.tolist()
    inner = list(zip(edges, edges[1:]))

    def integral(h: Callable[[np.ndarray], np.ndarray], pieces) -> float:
        return sum(
            adaptive_gauss_oracle(lambda lam: h(lam) ** qf, lo, hi)
            for lo, hi in pieces
        )

    def head1(lam: np.ndarray) -> np.ndarray:
        # Phi(t) = phi_0 t on the first piece, so t^{delta-1} Phi(t) is
        # phi_0 t^delta, taken from lam as one power
        return vals[0] * np.exp(delta * lam)

    last = edges[-1]
    tail1 = [(last, last + 80 / (qf * (1 - delta)))]
    head2 = [(edges[0] - 80 / (qf * (1 - delta)), edges[0])]
    if head_diverges:
        lhs1 = math.inf
    else:
        # Phi vanishes on the first piece unless phi is positive there
        total = integral(form1, inner + tail1)
        if vals[0] > 0:
            total += integral(head1, [(edges[0] - 80 / (qf * delta), edges[0])])
        lhs1 = total ** (1 / qf)
    return lhs1, integral(form2, head2 + inner) ** (1 / qf)


def hardy_lhs_mp(phi: StepFunction, delta: float, q: ExponentLike) -> Tuple[float, float]:
    """(lhs1, lhs2) of ``hardy_lhs_oracle`` for finite q, from mpmath at 30
    digits: ``mp.quad`` over lam = log t split at the log of every
    breakpoint of phi, with Phi(t) = sum_i phi_i (min(t, b_i) - lo_i)_+ and
    Psi(t) = sum_i phi_i log(b_i / max(t, lo_i))_+ summed in mp arithmetic.
    In lam both integrands decay exponentially at the open ends, which
    mp.quad resolves even for delta near 1; over t the same decay is a
    power t^{-1-eps}, which loses digits.  Form 1 must be finite, so phi
    vanishes on its first piece or delta > 0."""
    from mpmath import mp

    with mp.workdps(30):
        pieces = [
            (mp.mpf(float(lo)), mp.mpf(float(hi)), mp.mpf(float(v)))
            for lo, hi, v in zip(phi.lows, phi.breaks, phi.values)
        ]
        d, qm = mp.mpf(float(delta)), mp.mpf(float(parse_exponent(q)))

        def form1(lam):
            t = mp.exp(lam)
            big_phi = mp.fsum(v * (min(t, hi) - lo) for lo, hi, v in pieces if t > lo)
            return (mp.exp((d - 1) * lam) * big_phi) ** qm

        def form2(lam):
            t = mp.exp(lam)
            psi = mp.fsum(v * mp.log(hi / max(t, lo)) for lo, hi, v in pieces if t < hi)
            return (mp.exp((1 - d) * lam) * psi) ** qm

        points = [-mp.inf] + [mp.log(hi) for _, hi, _ in pieces]
        lhs1 = mp.quad(form1, points + [mp.inf]) ** (1 / qm)
        lhs2 = mp.quad(form2, points) ** (1 / qm)
        return float(lhs1), float(lhs2)


# -- random samples ---------------------------------------------------------------


def random_values_oracle(rng: np.random.Generator, n: int) -> np.ndarray:
    """n complex Gaussians (x + i y) / sqrt(2), as one array expression."""
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
