"""Closed-form equality cases of the STFT inequalities.

For f = g = 1_H with H a subgroup, |V_g f| equals mu(H) on H x H^perp and
vanishes elsewhere, and H x H^perp has measure 1 in G x G^ (the uncertainty
principle of Donoho & Stark, SIAM J. Appl. Math. 1989, and Meshulam,
Eur. J. Combin. 2006, is an equality exactly for such indicators).  With
||1_E||_{p,q} = (p/q)^{1/q} mu(E)^{1/p}, the ratio of each STFT theorem has
a closed form, which pins the theorem catalogue's exponent wiring from
outside.  Time-frequency shifts of f and g move V_g f without changing
|V_g f|'s distribution, so they keep the ratio.  The tau-Wigner transform
of 1_H is flat on H x H^perp as well when tau H lies in H, and so are both
Rihaczek forms (derived below).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tflab import (
    FiniteAbelianGroup,
    GroupEndomorphism,
    GroupFunction,
    IndexTuple,
    TheoremInstance,
    conjugate_rihaczek,
    rihaczek,
    tf_shift,
    uncertainty_check,
    wigner_tau,
)
import tflab.verify as verify_mod

#: (orders, steps): H = step_1 Z_{n_1} x ... as a strided slice of the group
SUBGROUPS = [((12,), (step,)) for step in (6, 4, 3, 2)] + [
    ((4, 6), steps) for steps in itertools.product((1, 2, 4), (1, 2, 3, 6))
]


def _t1(q, p, u, v, w):
    pc = p / (p - 1)
    return (q / w) ** (1 / w) / ((pc / u) ** (1 / u) * (p / v) ** (1 / v))


def _t1prime(mu, q, p1, p2, u, v, w):
    den = (p1 / u) ** (1 / u) * (p2 / v) ** (1 / v)
    return mu ** (1 / q) * (q / w) ** (1 / w) / den


#: (theorem, indices, closed form of the ratio at mu = mu(H))
CASES = [
    ("t2", dict(q=3), lambda mu: 3 / 4),
    ("t2", dict(q=4), lambda mu: 4 / 4),
    ("t1", dict(q=4, p=3, u=1, v=1, w=1), lambda mu: _t1(4, 3, 1, 1, 1)),
    ("t1", dict(q=4, p=3, u=1, v=2, w=2), lambda mu: _t1(4, 3, 1, 2, 2)),
    (
        "t1prime",
        dict(q=4, p1="8/3", p2="8/3", u=2, v=2, w=1),
        lambda mu: _t1prime(mu, 4, 8 / 3, 8 / 3, 2, 2, 1),
    ),
    (
        "t1prime",
        dict(q=4, p1=2, p2=4, u=1, v=2, w=1),
        lambda mu: _t1prime(mu, 4, 2, 4, 1, 2, 1),
    ),
]


def _ratio(
    theorem: str, indices: dict, f: GroupFunction, g: GroupFunction, tau=None
) -> float:
    inst = TheoremInstance(theorem, f.group.orders, IndexTuple.of(**indices))
    return verify_mod._ratio_trial(inst, tau, f, g)


def _indicator(grp: FiniteAbelianGroup, steps) -> GroupFunction:
    values = np.zeros(grp.orders, dtype=np.complex128)
    values[tuple(slice(None, None, step) for step in steps)] = 1.0
    return GroupFunction(grp, values.reshape(-1))


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("weight", [0.5, 2.0])
@pytest.mark.parametrize("orders, steps", SUBGROUPS)
def test_subgroup_indicators_attain_closed_forms(orders, steps, weight, shifted) -> None:
    grp = FiniteAbelianGroup(orders, haar_weight=weight)
    f = g = _indicator(grp, steps)
    if shifted:
        f, g = tf_shift(f, 1, 2), tf_shift(g, 3, 5)
    mu = grp.measure(math.prod(n // step for n, step in zip(orders, steps)))
    for theorem, indices, closed_form in CASES:
        assert _ratio(theorem, indices, f, g) == pytest.approx(
            closed_form(mu), rel=1e-12
        ), (theorem, indices)


@pytest.mark.parametrize("weight", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("step", [6, 4, 3, 2])
def test_wigner_of_subgroup_indicator_is_flat(step, weight) -> None:
    """W_tau(1_H, 1_H)(x, xi) = w * sum_y 1_H(x + tau y) 1_H(x - (I - tau) y)
    conj<y, xi>.  The two arguments differ by y, so both lie in H only if
    y does; then tau y lies in H, and x + tau y does exactly when x does.
    For x in H every y in H is admissible, so W = w |H| 1_{H^perp}(xi);
    for x outside H none is.  Hence |W| = mu(H) on H x H^perp and 0
    elsewhere, the distribution of |V_{1_H} 1_H|, and the t3ii ratio is
    t1's closed form.  On Z_12 every tau = multiplication by t maps H into
    itself."""
    grp = FiniteAbelianGroup([12], haar_weight=weight)
    f = _indicator(grp, (step,))
    h = np.arange(0, 12, step)
    mu = grp.measure(h.size)
    perp = np.array([all(x * xi % 12 == 0 for x in h) for xi in range(12)])
    expected = mu * np.outer(f.values.real, perp)
    for t in (0, 1, 2, 3, 5, 7):
        tau = GroupEndomorphism(grp, [[t]])
        w = np.abs(wigner_tau(f, f, tau).values)
        assert np.allclose(w, expected, rtol=1e-12, atol=1e-12 * mu), t
        for _, indices, closed_form in CASES[2:4]:
            assert _ratio("t3ii", indices, f, f, tau) == pytest.approx(
                closed_form(mu), rel=1e-12
            ), (t, indices)


def _t3(p, u, v, w, conjugate_side):
    pc = p / (p - 1)
    pu, pv = (pc, p) if conjugate_side else (p, pc)
    return (p / w) ** (1 / w) / ((pu / u) ** (1 / u) * (pv / v) ** (1 / v))


#: (theorem, transform, indices, closed form of the ratio, free of mu)
RIHACZEK_CASES = [
    ("t3iii", rihaczek, dict(p=3, u=1, v=1, w=1), _t3(3, 1, 1, 1, False)),
    ("t3iii", rihaczek, dict(p=4, u=1, v=2, w=2), _t3(4, 1, 2, 2, False)),
    ("t3iv", conjugate_rihaczek, dict(p=3, u=1, v=1, w=1), _t3(3, 1, 1, 1, True)),
    ("t3iv", conjugate_rihaczek, dict(p=4, u=1, v=2, w=2), _t3(4, 1, 2, 2, True)),
]


@pytest.mark.parametrize("weight", [0.5, 2.0])
@pytest.mark.parametrize("orders, steps", SUBGROUPS)
def test_rihaczek_of_subgroup_indicator_is_flat(orders, steps, weight) -> None:
    """R(f, g)(x, xi) = f(x) conj<x, xi> conj g^(xi), and its conjugate
    form is conj g(x) <x, xi> f^(xi).  For f = g = 1_H, g^ = w |H| 1_{H^perp}
    = mu(H) 1_{H^perp}, and H = prod step_k Z_{n_k} has H^perp =
    prod (n_k / step_k) Z_{n_k}.  So both moduli are mu(H) on H x H^perp,
    a set of measure 1, and 0 elsewhere: the distribution of |V_{1_H} 1_H|.
    Then ||R||_{p,w} = mu(H) (p/w)^{1/w}, and ||1_H||_{p,u} ||1_H||_{p',v}
    = (p/u)^{1/u} (p'/v)^{1/v} mu(H), so the t3iii ratio is
    (p/w)^{1/w} / ((p/u)^{1/u} (p'/v)^{1/v}) and t3iv swaps p and p'."""
    grp = FiniteAbelianGroup(orders, haar_weight=weight)
    f = _indicator(grp, steps)
    perp = _indicator(grp, [n // step for n, step in zip(orders, steps)])
    mu = grp.measure(math.prod(n // step for n, step in zip(orders, steps)))
    expected = mu * np.outer(f.values.real, perp.values.real)
    for theorem, transform, indices, closed_form in RIHACZEK_CASES:
        modulus = np.abs(transform(f, f).values)
        assert np.allclose(modulus, expected, rtol=1e-12, atol=1e-12 * mu), theorem
        assert _ratio(theorem, indices, f, f) == pytest.approx(
            closed_form, rel=1e-12
        ), (theorem, indices)


def test_non_subgroup_indicator_misses_closed_forms() -> None:
    # {0, 1} is not a subgroup of Z_7: |V_g f| is not flat on its support
    grp = FiniteAbelianGroup([7])
    values = np.zeros(7, dtype=np.complex128)
    values[[0, 1]] = 1.0
    f = GroupFunction(grp, values)
    mu = grp.measure(2)
    for theorem, indices, closed_form in (CASES[1], CASES[5]):
        ratio = _ratio(theorem, indices, f, f)
        assert abs(ratio / closed_form(mu) - 1) > 1e-3, (theorem, ratio)
    for theorem, _, indices, closed_form in RIHACZEK_CASES:
        ratio = _ratio(theorem, indices, f, f)
        assert abs(ratio / closed_form - 1) > 1e-3, (theorem, ratio)


#: (q, u, v) for the uncertainty chain: w from 1/w = clamp(1/u + 1/v - 1,
#: 0, 1/2), so w = 2 and w = inf both occur, and so do r = inf and r = 2
CHAIN_INDICES = [
    (4, 1, 1),
    (3, 1, 1),
    (6, 1, 1),
    (4, 2, 2),
    (4, 1, 2),
    (3, Fraction(3, 2), 3),
    (4, math.inf, math.inf),
]


def _chain_ratio(q, u, v) -> float:
    """1 / (2 (q/w)^{1/w} (s/r)^{1/r}), with (x/inf)^{1/inf} read as 1."""
    inv = lambda x: Fraction(0) if x == math.inf else 1 / Fraction(x)
    inv_w = min(max(inv(u) + inv(v) - 1, Fraction(0)), Fraction(1, 2))
    inv_r = Fraction(1, 2) - inv_w
    inv_s = Fraction(1, 2) - inv(q)
    q_w = float(q * inv_w) ** float(inv_w) if inv_w else 1.0
    s_r = float(inv_r / inv_s) ** float(inv_r) if inv_r else 1.0
    return 1 / (2 * q_w * s_r)


@pytest.mark.parametrize("weight", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("orders, steps", SUBGROUPS)
def test_uncertainty_chain_of_subgroup_indicator(orders, steps, weight) -> None:
    """With f = g = 1_H and Omega = H x H^perp, |V_g f| = mu(H) on Omega
    and 0 elsewhere, and Omega has measure 1.  So eps = mu(H)^2,
    ||V_g f||_{q,w} = mu(H) (q/w)^{1/w} and ||1_Omega||_{s,r} = (s/r)^{1/r},
    and the chain's two sides have the ratio
    sqrt(eps) / (2 ||V_g f||_{q,w} ||1_Omega||_{s,r})
    = 1 / (2 (q/w)^{1/w} (s/r)^{1/r}): 1/(2 sqrt 2) at q = 4, u = v = 1.
    Omega is built from H and H^perp, not read off |V_g f|."""
    grp = FiniteAbelianGroup(orders, haar_weight=weight)
    f = _indicator(grp, steps)
    perp = _indicator(grp, [n // step for n, step in zip(orders, steps)])
    omega = np.outer(f.values.real > 0, perp.values.real > 0)
    mu = grp.measure(math.prod(n // step for n, step in zip(orders, steps)))
    for q, u, v in CHAIN_INDICES:
        eps, lhs, rhs, _, holds = uncertainty_check(f, f, omega, q, u, v)
        assert eps == pytest.approx(mu**2, rel=1e-12), (q, u, v)
        assert holds and lhs / rhs == pytest.approx(_chain_ratio(q, u, v), rel=1e-12), (q, u, v)
