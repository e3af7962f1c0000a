"""Brute-force oracles that the library's transforms are checked against.

Each evaluates its quantity entry by entry from its defining pairing, or
region by region from its defining integral, not from the closed form the
library assembles it with.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

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
    parse_exponent,
    rearrangement,
    recip,
    step_halfline_functional,
    tf_pairing,
    tf_shift,
    wigner_tau,
)
from tflab.calderon import _NEG_INF, _gauss_legendre
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
    return TFArray(grp, grp.haar_weight * _dft_rows(grp, h))


def wigner_tau_table_gather(
    f: GroupFunction, g: GroupFunction, tau: GroupEndomorphism
) -> TFArray:
    """``wigner_tau`` with f(x + tau y) and g(x - (I - tau) y) gathered
    through the add and sub tables, built here from coordinates."""
    grp = f.group
    one_minus = GroupEndomorphism.identity(tau.group) - tau
    left = f.values[add_index_oracle(grp)[:, tau.permutation]]
    right = np.conj(g.values[sub_index_oracle(grp)[:, one_minus.permutation]])
    return TFArray(grp, grp.haar_weight * _dft_rows(grp, left * right))


def weyl_operator_table_gather(phi: TFArray, tau: GroupEndomorphism) -> np.ndarray:
    """``weyl_operator`` with d = b - a and x = b - tau d looked up in the sub
    table at every (a, b)."""
    grp = phi.group
    sub = sub_index_oracle(grp)
    s = _dft_rows(grp, phi.values)
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
