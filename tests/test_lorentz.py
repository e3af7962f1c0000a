"""Tests for rearrangements and Lorentz quasi-norms on weighted atoms."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    double_star_oracle,
    lorentz_norm_two_power,
    lorentz_norm_via_rearrangement,
    pieces_functional_two_power,
)
from tflab import (
    FiniteAbelianGroup,
    GroupFunction,
    MeasuredFunction,
    StepFunction,
    TFArray,
    distribution,
    embedding_check,
    embedding_constant,
    holder_check,
    lorentz_norm,
    lorentz_norm_via_distribution,
    power_integral,
    power_sup,
    rearrangement,
    recip,
    step_halfline_functional,
    tensor_product,
)
from tflab.lorentz import _lorentz_norm

finite_values = st.lists(
    st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=12
)


def from_list(values, weight=1.0) -> MeasuredFunction:
    return MeasuredFunction.from_values(values, weight=weight)


def level_set_measure(sf: StepFunction, alpha: float) -> float:
    """|{t : sf(t) > alpha}| for a non-increasing sf: its last break with a
    value above alpha, or 0."""
    return float(sf.breaks[sf.values > alpha].max(initial=0.0))


# -- MeasuredFunction / StepFunction invariants ---------------------------------


def test_measured_function_rejects_bad_weights() -> None:
    with pytest.raises(ValueError):
        MeasuredFunction([0], [0.0], [1.0])
    with pytest.raises(ValueError):
        MeasuredFunction([0], [-1.0], [1.0])


def test_total_measure_is_weight_sum() -> None:
    f = MeasuredFunction([0, 1, 2], [0.5, 1.5, 2.0], [1, 2, 3])
    assert f.total_measure == pytest.approx(4.0)


def test_step_function_rejects_unsorted_breaks() -> None:
    with pytest.raises(ValueError):
        StepFunction([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 1.0], [1.0, 1.0])


def test_step_function_monotone_flag_enforced() -> None:
    with pytest.raises(ValueError):
        StepFunction([1.0, 2.0], [1.0, 3.0], monotone=True)
    sf = StepFunction([1.0, 2.0], [3.0, 1.0], monotone=True)
    assert sf.sup == pytest.approx(3.0)


def test_step_function_json_roundtrip() -> None:
    sf = StepFunction([0.5, 2.0], [4.0, 1.0], monotone=True)
    again = StepFunction.from_json(sf.to_json(), monotone=True)
    assert np.array_equal(again.breaks, sf.breaks)
    assert np.array_equal(again.values, sf.values)


# -- distribution function ----------------------------------------------------


def test_distribution_above_sup_is_zero() -> None:
    f = from_list([1, -2, 3])
    assert distribution(f, 3.0) == 0.0
    assert distribution(f, 10.0) == 0.0


def test_distribution_enumeration_oracle() -> None:
    # 8 atoms of weight 1/4, exactly 3 values above the cut.
    values = [0.1, 0.2, 0.3, 0.4, 1.1, 1.2, 1.3, 0.05]
    f = from_list(values, weight=0.25)
    assert distribution(f, 1.0) == pytest.approx(0.75)


def test_distribution_matches_direct_count_on_grid() -> None:
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    weights = rng.uniform(0.1, 2.0, size=16)
    f = MeasuredFunction(range(16), weights, vals)
    for alpha in np.linspace(0, np.abs(vals).max() + 0.5, 40):
        expected = float(weights[np.abs(vals) > alpha].sum())
        assert distribution(f, float(alpha)) == pytest.approx(expected)


def test_distribution_rejects_negative_alpha() -> None:
    with pytest.raises(ValueError):
        distribution(from_list([1.0]), -0.5)


# -- decreasing rearrangement ---------------------------------------------------


def test_rearrangement_weighted_plateau() -> None:
    # Values (5, 5, 1) sit on intervals of length 1/2; equal neighbours merge.
    f = from_list([5.0, 1.0, 5.0], weight=0.5)
    sf = rearrangement(f)
    assert np.allclose(sf.breaks, [1.0, 1.5])
    assert np.allclose(sf.values, [5.0, 1.0])
    assert level_set_measure(sf, 4.0) == pytest.approx(1.0)
    assert level_set_measure(sf, 0.5) == pytest.approx(1.5)


def test_rearrangement_permutation_invariant() -> None:
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(10)
    f = from_list(list(vals))
    g = from_list(list(vals[rng.permutation(10)]))
    sf, sg = rearrangement(f), rearrangement(g)
    assert np.allclose(sf.breaks, sg.breaks)
    assert np.allclose(sf.values, sg.values)


def test_rearrangement_zero_function_is_empty() -> None:
    sf = rearrangement(from_list([0.0, 0.0]))
    assert level_set_measure(sf, 0.0) == 0.0
    assert sf.sup == 0.0


@settings(max_examples=80, deadline=None)
@given(finite_values, st.floats(min_value=0, max_value=25, allow_nan=False))
def test_equimeasurability_property(values, alpha) -> None:
    f = from_list(values, weight=0.375)
    sf = rearrangement(f)
    assert distribution(f, alpha) == pytest.approx(level_set_measure(sf, alpha), abs=1e-12)


def test_double_star_constant_plateau() -> None:
    # pins the f** oracle that the restricted weak type tests rely on
    sf = StepFunction([1.0], [3.0], monotone=True)
    for t in (0.25, 0.5, 1.0):
        assert double_star_oracle(sf, t) == pytest.approx(3.0)
    assert double_star_oracle(sf, 2.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        double_star_oracle(sf, 0.0)


def test_double_star_dominates_rearrangement() -> None:
    rng = np.random.default_rng(3)
    f = from_list(list(rng.uniform(0, 5, 9)), weight=0.7)
    sf = rearrangement(f)
    for t in np.linspace(0.1, 7, 25):
        left = float(sf.values[np.searchsorted(sf.breaks, t, side="left")]) if t < sf.breaks[-1] else 0.0
        assert double_star_oracle(sf, float(t)) >= left - 1e-12


# -- exact monomial integrals ---------------------------------------------------


def test_power_integral_closed_forms() -> None:
    assert power_integral(2.0, 1.0, 2.0) == pytest.approx((4 - 1) / 2)
    assert power_integral(0.0, 1.0, math.e) == pytest.approx(1.0)
    assert power_integral(-1.0, 1.0, math.inf) == pytest.approx(1.0)
    assert power_integral(1.0, 0.0, 1.0) == pytest.approx(1.0)
    assert power_integral(0.0, 0.0, 1.0) == math.inf
    assert power_integral(1.0, 0.0, math.inf) == math.inf
    with pytest.raises(ValueError):
        power_integral(1.0, 2.0, 1.0)


def test_power_sup_closed_forms() -> None:
    assert power_sup(0.5, 0.0, 4.0) == pytest.approx(2.0)
    assert power_sup(-0.5, 0.25, math.inf) == pytest.approx(2.0)
    assert power_sup(0.0, 0.0, math.inf) == 1.0
    assert power_sup(1.0, 0.0, math.inf) == math.inf
    assert power_sup(-1.0, 0.0, 1.0) == math.inf


def test_step_halfline_functional_single_piece() -> None:
    # (int_0^1 (t^{1/2})^2 dt/t)^{1/2} = 1 for the unit indicator.
    sf = StepFunction([1.0], [1.0], monotone=True)
    assert step_halfline_functional(sf, 0.5, 2) == pytest.approx(1.0)
    # sup form: sup t^{1/2} over (0,1) = 1.
    assert step_halfline_functional(sf, 0.5, math.inf) == pytest.approx(1.0)


# -- Lorentz norms ---------------------------------------------------------------


def test_indicator_norm_closed_form() -> None:
    # ||1_E||_{s,r} = (s/r)^{1/r} * m^{1/s} for finite r, m^{1/s} at r = inf.
    m, s, r = 1.75, 2.5, 1.5
    f = MeasuredFunction([0, 1], [1.0, 0.75], [1.0, 1.0])
    assert f.total_measure == pytest.approx(m)
    expected = (s / r) ** (1 / r) * m ** (1 / s)
    assert lorentz_norm(f, s, r) == pytest.approx(expected, rel=1e-12)
    assert lorentz_norm(f, s, math.inf) == pytest.approx(m ** (1 / s), rel=1e-12)


def test_lorentz_pp_equals_lebesgue() -> None:
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    weights = rng.uniform(0.2, 1.5, 12)
    f = MeasuredFunction(range(12), weights, vals)
    for p in (1, 2, 3.5):
        direct = float(np.sum(weights * np.abs(vals) ** p)) ** (1 / p)
        assert lorentz_norm(f, p, p) == pytest.approx(direct, rel=1e-12)


def test_lorentz_inf_inf_is_sup() -> None:
    f = from_list([1.0, -4.0, 2.0])
    assert lorentz_norm(f, math.inf, math.inf) == pytest.approx(4.0)


def test_lorentz_inf_finite_q_diverges() -> None:
    f = from_list([1.0])
    assert lorentz_norm(f, math.inf, 2) == math.inf
    assert lorentz_norm(rearrangement_zero(), math.inf, 2) == 0.0


def rearrangement_zero() -> MeasuredFunction:
    return from_list([0.0, 0.0])


def test_zero_function_norm_is_zero() -> None:
    f = rearrangement_zero()
    for p, q in ((2, 1), (3, math.inf), (math.inf, math.inf)):
        assert lorentz_norm(f, p, q) == 0.0


def test_oracle_agreement_seeded_grid() -> None:
    rng = np.random.default_rng(42)
    grid = [(1, 1), (2, 1), (2, 2), (3, 1.5), (2.5, math.inf), (4, 4), (1.5, 3)]
    for _ in range(60):
        n = int(rng.integers(2, 14))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        weights = rng.uniform(0.1, 2.0, n)
        f = MeasuredFunction(range(n), weights, vals)
        for p, q in grid:
            a = lorentz_norm(f, p, q)
            b = lorentz_norm_via_distribution(f, p, q)
            assert a == pytest.approx(b, rel=1e-9)


def test_via_distribution_rejects_infinite_p() -> None:
    with pytest.raises(ValueError):
        lorentz_norm_via_distribution(from_list([1.0]), math.inf, 2)


def test_haar_scaling_property() -> None:
    rng = np.random.default_rng(9)
    vals = list(rng.standard_normal(8))
    lam = 2.5
    for p, q in ((2, 1), (3, 3), (1.5, math.inf)):
        base = lorentz_norm(from_list(vals, weight=1.0), p, q)
        scaled = lorentz_norm(from_list(vals, weight=lam), p, q)
        assert scaled == pytest.approx(lam ** (1 / p) * base, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(finite_values, st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1.5), (2.5, math.inf)]))
def test_oracle_agreement_property(values, pq) -> None:
    f = from_list(values, weight=0.8)
    a = lorentz_norm(f, *pq)
    b = lorentz_norm_via_distribution(f, *pq)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


@st.composite
def wide_range_functions(draw) -> MeasuredFunction:
    """Ties, zeros (possibly all), unequal weights and shuffled ids, with
    magnitudes anywhere from 1e-150 to 1e150.

    Nonzero levels stay at least 1e-3: a level near 0 scaled by 1e-150
    reaches the subnormal range, where float64 cannot hold rel 1e-9."""
    n = draw(st.integers(1, 10))
    levels = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(1e-3, 10.0))
    mags = np.array(draw(st.lists(levels, min_size=n, max_size=n)))
    units = st.sampled_from([1, -1, 1j, -1j])
    phases = np.array(draw(st.lists(units, min_size=n, max_size=n)))
    weights = draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    scale = 10.0 ** draw(st.integers(-150, 150))
    return MeasuredFunction(ids, weights, scale * mags * phases)


@settings(max_examples=150, deadline=None)
@given(
    wide_range_functions(),
    st.floats(0.1, 20.0),
    st.sampled_from([Fraction(1, 2), 1, 2, 4, math.inf]),
    st.integers(-100, 100),
)
def test_oracle_agreement_and_homogeneity_wide_range(f, p, q, k) -> None:
    a = lorentz_norm(f, p, q)
    assert math.isfinite(a)
    assert a == pytest.approx(lorentz_norm_via_distribution(f, p, q), rel=1e-9, abs=0)
    c = 10.0**k
    scaled = lorentz_norm(MeasuredFunction(f.ids, f.weights, c * f.values), p, q)
    assert scaled == pytest.approx(c * a, rel=1e-9, abs=0)


@st.composite
def tied_functions(draw) -> MeasuredFunction:
    """Long runs of tied magnitudes over a few levels, zero atoms (possibly
    all of them, or a single atom), unequal weights and shuffled ids."""
    n = draw(st.integers(1, 40))
    levels = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    mags = np.array(draw(st.lists(st.sampled_from([0.0] + levels), min_size=n, max_size=n)))
    units = st.sampled_from([1, -1, 1j, -1j])
    phases = np.array(draw(st.lists(units, min_size=n, max_size=n)))
    weights = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    return MeasuredFunction(ids, weights, mags * phases)


@settings(max_examples=200, deadline=None)
@given(
    tied_functions(),
    st.one_of(
        st.floats(0.2, 12.0), st.sampled_from([Fraction(1, 2), 1, 2, 3, math.inf])
    ),
    st.one_of(
        st.floats(0.3, 8.0), st.sampled_from([Fraction(1, 2), 1, 2, 4, math.inf])
    ),
)
def test_direct_sum_matches_both_oracles(f, p, q) -> None:
    a = lorentz_norm(f, p, q)
    assert a == pytest.approx(lorentz_norm_via_rearrangement(f, p, q), rel=1e-12, abs=0)
    sup = float(np.abs(f.values).max())
    if p == math.inf:
        assert a == (sup if q == math.inf else math.inf if sup else 0.0)
    else:
        assert a == pytest.approx(lorentz_norm_via_distribution(f, p, q), rel=1e-12, abs=0)


@st.composite
def one_weight_functions(draw):
    """A GroupFunction on Z_n, or a TFArray on Z_m x Z_m^, so that every atom
    has the same weight: runs of tied magnitudes, zeros (possibly all of
    them) and one overall scale from 1e-150 to 1e150."""
    grp = FiniteAbelianGroup([draw(st.integers(1, 6))], draw(st.floats(0.1, 4.0)))
    tf = draw(st.booleans())
    n = grp.size**2 if tf else draw(st.integers(1, 30))
    if not tf:
        grp = FiniteAbelianGroup([n], grp.haar_weight)
    levels = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=4))
    mags = np.array(draw(st.lists(st.sampled_from([0.0] + levels), min_size=n, max_size=n)))
    units = st.sampled_from([1, -1, 1j, -1j])
    phases = np.array(draw(st.lists(units, min_size=n, max_size=n)))
    values = 10.0 ** draw(st.integers(-150, 150)) * mags * phases
    return TFArray(grp, values.reshape(grp.size, -1)) if tf else GroupFunction(grp, values)


_ONE_WEIGHT_EXAMPLES = (
    GroupFunction(FiniteAbelianGroup([5]), np.zeros(5)),
    GroupFunction(FiniteAbelianGroup([6], 0.5), [1e150, -1e150, 1e150j, 0, 3e149, 3e149]),
    TFArray(FiniteAbelianGroup([2], 2.0), [[1e-150, 0], [-1e-150, 2e-150j]]),
)


@settings(max_examples=200, deadline=None)
@given(
    one_weight_functions(),
    st.one_of(
        st.floats(0.2, 12.0), st.sampled_from([Fraction(1, 2), 1, 2, 3, math.inf])
    ),
    st.one_of(
        st.floats(0.3, 8.0), st.sampled_from([Fraction(1, 2), 1, 2, 4, math.inf])
    ),
)
@example(_ONE_WEIGHT_EXAMPLES[0], 2, 1)
@example(_ONE_WEIGHT_EXAMPLES[0], math.inf, math.inf)
@example(_ONE_WEIGHT_EXAMPLES[1], Fraction(1, 2), math.inf)
@example(_ONE_WEIGHT_EXAMPLES[1], math.inf, math.inf)
@example(_ONE_WEIGHT_EXAMPLES[1], math.inf, 2)
@example(_ONE_WEIGHT_EXAMPLES[2], 0.3, Fraction(1, 2))
@example(_ONE_WEIGHT_EXAMPLES[2], 4, math.inf)
def test_one_weight_route_matches_measured_route(h, p, q) -> None:
    # the sort of the magnitudes alone gives the bits of the atom-list route
    a = h.lorentz_norm(p, q)
    f = h.to_measured()
    assert a == lorentz_norm(f, p, q)
    sup = float(np.abs(f.values).max())
    if p == math.inf:
        assert a == (sup if q == math.inf else math.inf if sup else 0.0)
    else:
        assert a == pytest.approx(lorentz_norm_via_distribution(f, p, q), rel=1e-12, abs=0)


_TIES = np.array([3, -3, 3j, 1, 1, -1j, 1, 0.5, 0.5])
_GAUSSIAN = np.random.default_rng(23).standard_normal(40) * np.exp(
    2j * np.pi * np.arange(40) / 7
)
_TWO_POWER_INPUTS = (
    _GAUSSIAN,
    _TIES,
    np.array([0, 2, 0, 5, -5j, 0, 2, 0]),
    np.zeros(6),
    np.array([2j]),
    1e150 * _GAUSSIAN,
    1e-150 * _TIES,
)
# zero pieces between positive ones, and a first positive piece away from 0
_GAPPED_STEPS = (
    StepFunction([0.5, 1.0, 2.0, 3.0], [2.0, 0.0, 1.0, 0.5]),
    StepFunction([0.5, 1.5, 4.0], [0.0, 3.0, 3.0]),
)


@pytest.mark.parametrize("q", [Fraction(1, 2), 1, 2, 4, math.inf])
@pytest.mark.parametrize("p", [Fraction(1, 2), 1, Fraction(8, 3), 3, math.inf])
def test_norm_routes_match_two_power_form(p, q) -> None:
    # both _lorentz_norm routes raise 0 and the running sums to their power
    # once, in place; step_halfline_functional keeps both ends of each piece
    for values in _TWO_POWER_INPUTS:
        mags = np.abs(values)
        weights = np.random.default_rng(values.size).uniform(0.1, 2.0, values.size)
        for w in (0.37, weights):
            assert _lorentz_norm(mags.copy(), w, p, q) == lorentz_norm_two_power(mags, w, p, q)
        fstar = rearrangement(MeasuredFunction(np.arange(values.size), weights, values))
        for sf in (fstar,) + _GAPPED_STEPS:
            keep = sf.values > 0
            pieces = sf.lows[keep], sf.breaks[keep], sf.values[keep]
            before = sf.values.copy()
            for e in (recip(p), 0, Fraction(-1, 2), 2):
                got = step_halfline_functional(sf, e, q)
                assert got == pieces_functional_two_power(*pieces, e, q), (e, sf)
            assert np.array_equal(sf.values, before)


def test_lorentz_norm_rejects_nonpositive_exponents() -> None:
    for f in (from_list([1.0, 2.0]), rearrangement_zero()):
        for p, q in ((0, 1), (-2, 1), (2, 0), (2, -1), (math.inf, 0)):
            with pytest.raises(ValueError):
                lorentz_norm(f, p, q)


# -- Holder and embedding --------------------------------------------------------


def test_holder_random_pairs() -> None:
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        w = rng.uniform(0.2, 1.2, n)
        f = MeasuredFunction(range(n), w, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = MeasuredFunction(range(n), w, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs, rhs, ok = holder_check(f, g, 3, 2, 6, 4)
        assert ok and lhs <= rhs * (1 + 1e-9)


def test_holder_rejects_mismatched_weights() -> None:
    f = MeasuredFunction([0], [1.0], [1.0])
    g = MeasuredFunction([0], [2.0], [1.0])
    with pytest.raises(ValueError):
        holder_check(f, g, 2, 1, 2, 1)


def test_embedding_constant_value() -> None:
    # (q/p)^{1/q - 1/r} with (p, q, r) = (2, 2, 4).
    assert embedding_constant(2, 2, 4) == pytest.approx(1.0)
    assert embedding_constant(2, 1, 2) == pytest.approx((1 / 2) ** (1 / 1 - 1 / 2))


def test_embedding_check_random() -> None:
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        f = MeasuredFunction(
            range(n), rng.uniform(0.2, 1.5, n), rng.standard_normal(n)
        )
        lhs, rhs, ok = embedding_check(f, 2, 1, 4)
        assert ok and lhs <= rhs * (1 + 1e-9)


def test_embedding_requires_q_below_r() -> None:
    with pytest.raises(ValueError):
        embedding_check(from_list([1.0]), 2, 3, 2)


# -- tensor products --------------------------------------------------------------


def test_tensor_of_deltas_is_single_atom() -> None:
    d = MeasuredFunction([0, 1], [1.0, 1.0], [1.0, 0.0])
    t = tensor_product(d, d)
    nonzero = [v for v in t.values if abs(v) > 0]
    assert len(nonzero) == 1
    assert t.total_measure == pytest.approx(4.0)


def test_tensor_with_zero_is_zero() -> None:
    f = from_list([1.0, 2.0])
    z = from_list([0.0, 0.0])
    t = tensor_product(f, z)
    assert all(abs(v) == 0 for v in t.values)


def test_tensor_weight_is_product_measure() -> None:
    f = MeasuredFunction([0, 1], [0.5, 0.5], [1.0, 2.0])
    h = MeasuredFunction([0, 1, 2], [2.0, 2.0, 2.0], [1.0, 1.0, 3.0])
    t = tensor_product(f, h)
    assert t.total_measure == pytest.approx(f.total_measure * h.total_measure)
