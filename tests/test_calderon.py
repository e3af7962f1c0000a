"""Tests for multiplicative convolutions, Hardy/Young checks, and
Calderon-type bilinear operators on the half line."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tflab import (
    ETA_SEPARABLE,
    ETA_SQRT_MIN,
    EtaSet,
    FiniteAbelianGroup,
    MeasuredFunction,
    PiecewiseMonomial,
    StepFunction,
    calderon_apply,
    calderon_separable_value,
    calderon_t_functional,
    convolution_norm,
    halfline_lorentz_functional,
    hardy_check,
    lorentz_norm,
    rearrangement,
    sample_functions,
    young_check,
)
from tflab import calderon
from tflab.verify import SAMPLE_KINDS, majorization_check

from oracles import (
    adaptive_gauss_oracle,
    calderon_exact_oracle,
    hardy_lhs_mp,
    hardy_lhs_oracle,
    mult_convolution_oracle,
)


def random_step(rng: np.random.Generator, pieces: int = 4) -> StepFunction:
    breaks = np.sort(rng.uniform(0.05, 8.0, size=pieces))
    values = rng.uniform(0.0, 5.0, size=pieces)
    return StepFunction(breaks, values)


def random_monotone_step(rng: np.random.Generator, pieces: int = 4) -> StepFunction:
    breaks = np.sort(rng.uniform(0.05, 8.0, size=pieces))
    values = np.sort(rng.uniform(0.05, 5.0, size=pieces))[::-1]
    return StepFunction(breaks, values, monotone=True)


@st.composite
def step_functions(draw) -> StepFunction:
    """Non-monotone step functions with zero-valued pieces.

    Consecutive breakpoints are at least 5% apart: the corner sum takes
    differences of corner integrals, so a piece of relative width d costs
    about 4e-15/d of relative accuracy (pinned separately below).
    """
    n = draw(st.integers(1, 6))
    log_gaps = draw(st.lists(st.floats(0.05, 1.5), min_size=n, max_size=n))
    start = draw(st.floats(-3.0, 1.0))
    values = draw(st.lists(st.just(0.0) | st.floats(0.1, 5.0), min_size=n, max_size=n))
    return StepFunction(np.exp(start + np.cumsum(log_gaps)), values)


# -- EtaSet -----------------------------------------------------------------------


def test_eta_set_requires_triples() -> None:
    with pytest.raises(ValueError):
        EtaSet([])
    with pytest.raises(ValueError):
        EtaSet([("1/2", "1/2")])
    with pytest.raises(ValueError):
        EtaSet([("1/2", "1/2", "1/2"), ("1/2", "1/2", "1/2")])


def test_canonical_kernels() -> None:
    # sqrt-min: min(sqrt(rs/t), r, s); separable: sqrt(rs) min(1, 1/sqrt(t)).
    assert ETA_SQRT_MIN.kernel(4.0, 9.0, 1.0) == pytest.approx(4.0)
    assert ETA_SQRT_MIN.kernel(4.0, 9.0, 36.0) == pytest.approx(1.0)
    assert ETA_SEPARABLE.kernel(4.0, 9.0, 4.0) == pytest.approx(3.0)
    assert ETA_SEPARABLE.kernel(4.0, 9.0, 0.25) == pytest.approx(6.0)


# -- multiplicative convolution ------------------------------------------------------


# The convolution norm is checked against values of mult_convolution_oracle;
# these tests pin that oracle to closed forms.


def test_mult_convolution_log_tent() -> None:
    # 1_{[1,e)} * 1_{[1,e)} under dt/t is the tent in log x on [0, 2].
    f = StepFunction([1.0, math.e], [0.0, 1.0])
    for x in (1.2, 2.0, math.e, 4.0, math.e**2 * 0.99):
        lx = math.log(x)
        expected = max(0.0, min(lx, 1.0, 2.0 - lx)) if 0 <= lx <= 2 else 0.0
        assert mult_convolution_oracle(f, f, x) == pytest.approx(expected, abs=1e-12)


def test_mult_convolution_fubini_total_mass() -> None:
    f = StepFunction([1.0, math.e], [0.0, 1.0])
    # integral of (f*g) dt/t factorizes; both factors are 1 here.
    grid = np.exp(np.linspace(-0.5, 2.5, 4001))
    vals = [mult_convolution_oracle(f, f, x) for x in grid]
    total = np.trapezoid(vals, np.log(grid))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_convolution_with_zero_vanishes() -> None:
    f = StepFunction([1.0, 2.0], [1.0, 3.0])
    z = StepFunction([1.0], [0.0])
    assert convolution_norm(f, z, 2) == 0.0


def test_mult_convolution_zero_outside_support() -> None:
    f = StepFunction([0.5, 1.0, 2.0], [0.0, 0.7, 0.3])
    g = StepFunction([1.5, 3.0, 4.0], [0.0, 1.3, 0.0])
    for x in (0.5 * 1.5 * 0.999, 0.5 * 1.5, 0.1, 2.0 * 3.0, 7.0, 1e9):
        assert mult_convolution_oracle(f, g, x) == 0.0
    assert mult_convolution_oracle(f, g, 1.0) > 0


def mean_power(u0: float, u1: float, w: float) -> float:
    """Mean of u^w over a cell on which u runs affinely from u0 to u1 >= 0."""
    m, r = (u0 + u1) / 2, abs(u1 - u0) / (u0 + u1) if u0 + u1 else 0.0
    if r > 0.5:
        return (u1 ** (w + 1) - u0 ** (w + 1)) / ((w + 1) * (u1 - u0))
    # near-flat: u = m(1 + r s) with s uniform on [-1, 1], whose odd moments
    # vanish and even moments are 1/(k+1); the binomial series converges fast
    total, coef = 0.0, 1.0
    for k in range(64):
        if k % 2 == 0:
            total += coef * r**k / (k + 1)
        coef *= (w - k) / (k + 1)
    return m**w * total


def oracle_convolution_norm(f: StepFunction, g: StepFunction, w: float) -> float:
    """||f * g||_w built from oracle values at the products of breakpoints:
    f * g is continuous and affine in log x between consecutive products."""
    ends = np.unique(np.multiply.outer(f.breaks, g.breaks))
    h = [mult_convolution_oracle(f, g, float(x)) for x in ends]
    # below the first product, f * g is constant + slope * log x
    head = [mult_convolution_oracle(f, g, float(ends[0]) * c) for c in (0.5, 0.25)]
    if max(head) > 0 and not math.isinf(w):
        return math.inf
    if math.isinf(w):
        if abs(head[0] - head[1]) > 1e-9 * max(head):
            return math.inf
        return max(h + head)
    total = sum(
        math.log(b / a) * mean_power(ha, hb, w)
        for a, b, ha, hb in zip(ends, ends[1:], h, h[1:])
    )
    return total ** (1 / w)


CONVOLUTION_EXPONENTS = (1, 2, 3.5, math.inf)


def assert_norms_match(f: StepFunction, g: StepFunction, rtol: float) -> None:
    for w in CONVOLUTION_EXPONENTS:
        want = oracle_convolution_norm(f, g, w)
        got = convolution_norm(f, g, "7/2" if w == 3.5 else w)
        if math.isinf(want):
            assert got == math.inf
        else:
            assert got == pytest.approx(want, rel=rtol, abs=0)


@settings(max_examples=100, deadline=None)
@given(step_functions(), step_functions())
def test_convolution_norm_matches_oracle_cells(f, g) -> None:
    assert_norms_match(f, g, rtol=1e-12)


def test_convolution_norm_head_cell() -> None:
    # g(0+) = 0, so the head cell is flat: the sup is finite, but every
    # finite-w norm diverges.  Summed over the corner products, the weights
    # df_i dg_j of this pair leave 1.7e-16, not 0, as the head cell's slope.
    f = StepFunction([1.0, 2.0], [2.0, 1.0])
    g = StepFunction([1.5, 3.0, 4.0], [0.0, 0.1, 1.1])
    assert math.isfinite(convolution_norm(f, g, math.inf))
    assert math.isfinite(convolution_norm(g, f, math.inf))
    assert convolution_norm(f, g, 2) == math.inf
    assert_norms_match(f, g, rtol=1e-12)
    # with f(0+) g(0+) > 0 the convolution grows like -log x near 0
    assert convolution_norm(f, f, math.inf) == math.inf
    assert_norms_match(f, f, rtol=1e-12)


def test_convolution_error_grows_as_inverse_piece_width() -> None:
    g = StepFunction([0.5, 2.0, 3.0], [0.0, 2.0, 1.0])
    for d in (1e-2, 1e-4, 1e-6):
        f = StepFunction([1.3, 1.3 * (1 + d)], [0.0, 1.0])
        assert_norms_match(f, g, rtol=1e-13 / d)


# -- Young and Hardy ------------------------------------------------------------------


def test_young_constant_one_random_pairs() -> None:
    rng = np.random.default_rng(42)
    for _ in range(50):
        f, g = random_step(rng), random_step(rng)
        for u, v, w in ((1, 1, 1), (2, 2, math.inf), (1, 2, 2), (1.5, 3, math.inf)):
            lhs, rhs, ok = young_check(f, g, u, v, w)
            assert ok and lhs <= rhs * (1 + 1e-9)


def test_young_rejects_off_scaling_indices() -> None:
    f = StepFunction([1.0], [1.0])
    with pytest.raises(ValueError):
        young_check(f, f, 2, 2, 2)


def test_hardy_constant_random_suite() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        phi = random_step(rng)
        for delta, q in ((0.5, 1), (0.25, 2), (-0.5, 1.5), (0.75, math.inf)):
            res = hardy_check(phi, delta, q)
            assert res.holds


#: phi with a zero first piece (Phi starts at 1) and a zero interior piece;
#: then a small head and a unit spike after a long gap, so that Phi and Psi
#: span orders of magnitude and a sum of large terms of both signs cancels
HARDY_SHAPES = [
    StepFunction([1.0, 2.0, 3.5], [0.0, 1.0, 0.4]),
    StepFunction([0.3, 0.9, 2.0, 6.0], [2.5, 0.0, 1.0, 3.0]),
    StepFunction([1.0, 1000.0, 1001.0], [1e-3, 0.0, 1.0]),
]


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8, "3/2", math.inf])
@pytest.mark.parametrize("delta", [-0.5, 0.25, 0.75])
def test_hardy_lhs_matches_defining_integrals(delta, q) -> None:
    rng = np.random.default_rng(19)
    # random_step is positive on its first piece, (0, b_0]
    for phi in HARDY_SHAPES + [random_step(rng, n) for n in (1, 3, 5, 5)]:
        res = hardy_check(phi, delta, q)
        want = hardy_lhs_oracle(phi, delta, q)
        rel = 1e-6 if q == math.inf else 1e-8
        for got, exact in zip((res.lhs1, res.lhs2), want):
            if math.isinf(got) or math.isinf(exact):
                assert got == exact == math.inf, (phi, got, exact)
            else:
                assert got == pytest.approx(exact, rel=rel), (phi, got, exact)


@pytest.mark.parametrize("q", [2, "3/2"])
@pytest.mark.parametrize("delta", [0.9, 0.99])
def test_hardy_lhs_matches_defining_integrals_near_delta_one(delta, q) -> None:
    # the oracle's tail and head cuts are 80/(q(1 - delta)) long in log t
    phi = StepFunction([0.01, 0.5, 3.0, 40.0], [0.0, 2.0, 1.0, 3.0])
    res = hardy_check(phi, delta, q)
    for got, exact in zip((res.lhs1, res.lhs2), hardy_lhs_oracle(phi, delta, q)):
        assert got == pytest.approx(exact, rel=1e-8), (got, exact)


@pytest.mark.parametrize("q", [2, 4, 6, 8])
@pytest.mark.parametrize("delta", [0.25, 0.75])
def test_hardy_lhs_matches_mpmath_reference(delta, q) -> None:
    # a small head, a long gap and a unit spike: Phi and Psi span orders of
    # magnitude, and the integrands peak far from where they start
    for phi in (
        StepFunction([1.0, 1000.0, 1001.0], [1e-3, 0.0, 1.0]),
        StepFunction([0.5, 100.0, 100.5], [1e-4, 0.0, 1.0]),
    ):
        res = hardy_check(phi, delta, q)
        for got, exact in zip((res.lhs1, res.lhs2), hardy_lhs_mp(phi, delta, q)):
            assert got == pytest.approx(exact, rel=1e-11), (phi, got, exact)


def test_hardy_zero_function() -> None:
    z = StepFunction([1.0], [0.0])
    res = hardy_check(z, 0.5, 2)
    assert res.lhs1 == 0.0 and res.lhs2 == 0.0 and res.holds


def test_hardy_rejects_bad_delta_or_q() -> None:
    f = StepFunction([1.0], [1.0])
    with pytest.raises(ValueError):
        hardy_check(f, 1.0, 2)
    with pytest.raises(ValueError):
        hardy_check(f, 0.5, 0.5)


# -- Calderon operator: pointwise values ----------------------------------------------


def test_sqrt_min_unit_indicators_value_two() -> None:
    # S(1_{[0,1)}, 1_{[0,1)})(1) splits at the switching lines into pieces
    # summing to 2: derived by direct log-plane integration.
    one = StepFunction([1.0], [1.0], monotone=True)
    assert calderon_apply(ETA_SQRT_MIN, one, one, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_sqrt_min_unit_indicators_riemann_oracle() -> None:
    # Independent check of the same value by 2-d Riemann summation in logs.
    m = 600
    edges = np.linspace(-12.0, 0.0, m + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    dx = edges[1] - edges[0]
    lr, ls = np.meshgrid(mids, mids, indexing="ij")
    kernel = np.exp(np.minimum((lr + ls) / 2, np.minimum(lr, ls)))
    total = float(kernel.sum()) * dx * dx
    assert calderon_apply(ETA_SQRT_MIN, StepFunction([1.0], [1.0]), StepFunction([1.0], [1.0]), 1.0) == pytest.approx(
        total, rel=5e-3
    )


def test_calderon_symmetry() -> None:
    rng = np.random.default_rng(3)
    for _ in range(20):
        f, g = random_monotone_step(rng), random_monotone_step(rng)
        for t in (0.25, 1.0, 7.5):
            assert calderon_apply(ETA_SQRT_MIN, f, g, t) == pytest.approx(
                calderon_apply(ETA_SQRT_MIN, g, f, t), rel=1e-10
            )


def test_calderon_monotone_in_t() -> None:
    rng = np.random.default_rng(4)
    f, g = random_monotone_step(rng), random_monotone_step(rng)
    ts = np.geomspace(0.01, 100, 25)
    vals = [calderon_apply(ETA_SQRT_MIN, f, g, float(t)) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_calderon_separable_identity() -> None:
    rng = np.random.default_rng(5)
    for _ in range(20):
        f, g = random_monotone_step(rng), random_monotone_step(rng)
        for t in (0.3, 1.0, 4.0):
            assert calderon_apply(ETA_SEPARABLE, f, g, t) == pytest.approx(
                calderon_separable_value(f, g, t), rel=1e-9
            )


def test_calderon_quadrature_matches_exact() -> None:
    rng = np.random.default_rng(6)
    for _ in range(12):
        f, g = random_monotone_step(rng), random_monotone_step(rng)
        for t in (0.5, 2.0):
            a = calderon_apply(ETA_SQRT_MIN, f, g, t, method="exact")
            b = calderon_apply(ETA_SQRT_MIN, f, g, t, method="quadrature")
            assert b == pytest.approx(a, rel=1e-6)


#: min(r, sqrt(s)): a_k + b_k differs between the branches, so no band form
ETA_R_SQRT_S = EtaSet([(1, 0, 0), (0, "1/2", 0)])


def r_sqrt_s_indicators(b: float, c: float) -> float:
    """S(1_(0,b], 1_(0,c]) for min(r, sqrt(s)), integrated by hand in logs."""
    if c <= b * b:
        return 2 * math.sqrt(c) * (2 + math.log(b / math.sqrt(c)))
    return 4 * b + b * math.log(c / b**2)


def test_quadrature_on_kernel_without_band_form() -> None:
    assert not ETA_R_SQRT_S.is_band_decomposable
    for b, c in ((1.0, 2.0), (2.0, 1.0), (3.0, 0.5), (0.5, 0.2)):
        f, g = StepFunction([b], [1.0]), StepFunction([c], [1.0])
        for t in (0.5, 3.0):
            got = calderon_apply(ETA_R_SQRT_S, f, g, t)
            assert got == pytest.approx(r_sqrt_s_indicators(b, c), rel=1e-8)
    # bilinear in the jumps: f* = sum_i df_i 1_(0, b_i]
    f = StepFunction([0.5, 1.0, 3.0], [4.0, 2.0, 1.0], monotone=True)
    g = StepFunction([0.2, 0.7, 2.5], [3.0, 1.5, 0.5], monotone=True)
    want = sum(
        df * dg * r_sqrt_s_indicators(b, c)
        for b, df in zip(f.breaks, f.jumps)
        for c, dg in zip(g.breaks, g.jumps)
    )
    np.testing.assert_allclose(
        calderon_apply(ETA_R_SQRT_S, f, g, np.array([0.5, 3.0])), want, rtol=1e-8
    )
    with pytest.raises(ValueError, match="band-decomposable"):
        calderon_apply(ETA_R_SQRT_S, f, g, 1.0, method="exact")


def test_calderon_rejects_bad_method_and_t() -> None:
    one = StepFunction([1.0], [1.0])
    with pytest.raises(ValueError):
        calderon_apply(ETA_SQRT_MIN, one, one, 0.0)
    with pytest.raises(ValueError):
        calderon_apply(ETA_SQRT_MIN, one, one, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        calderon_apply(ETA_SQRT_MIN, one, one, np.ones((2, 2)))
    with pytest.raises(ValueError):
        calderon_apply(ETA_SQRT_MIN, one, one, 1.0, method="magic")


# -- Calderon operator: the corner form against the rectangle oracle -------------------

#: Band-decomposable kernels: the canonical pair, two custom sets, and three
#: that do not decay as r or s -> 0 (a_k = 0 or b_k = 0 on an outer branch).
BAND_KERNELS = [
    ETA_SQRT_MIN,
    ETA_SEPARABLE,
    EtaSet([("1/3", "2/3", "1/4"), ("2/3", "1/3", "1/2"), (1, 0, "1/3")]),
    EtaSet([(1, 0, "1/2"), ("1/2", "1/2", 0), (0, 1, 1)]),
    EtaSet([(0, 0, 0)]),
    EtaSet([(1, 0, 0)]),
    EtaSet([(0, 1, "1/2"), (0, 1, 0)]),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(BAND_KERNELS),
    step_functions(),
    step_functions(),
    st.lists(st.just(0.0) | st.floats(-8.0, 8.0), min_size=1, max_size=4),
)
def test_corner_form_matches_rectangle_oracle(eta, f, g, log_ts) -> None:
    ts = np.exp(log_ts)
    got = calderon_apply(eta, f, g, ts)
    want = np.array([calderon_exact_oracle(eta, f, g, float(t)) for t in ts])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)
    assert got.tolist() == [calderon_apply(eta, f, g, float(t)) for t in ts]


def test_corner_form_divergent_kernel_cases() -> None:
    # kernel 1: S = (int f* dr/r)(int g* ds/s), finite only when both vanish near 0
    flat = EtaSet([(0, 0, 0)])
    f = StepFunction([1.0, 2.0], [0.0, 1.0])
    one = StepFunction([1.0], [1.0])
    assert calderon_apply(flat, f, f, 1.0) == pytest.approx(math.log(2) ** 2, rel=1e-14)
    assert calderon_exact_oracle(flat, f, f, 1.0) == pytest.approx(math.log(2) ** 2, rel=1e-14)
    # f vanishes near 0 but `one` does not, and neither kernel (1, or r)
    # decays as s -> 0
    for eta in (flat, EtaSet([(1, 0, 0)])):
        assert calderon_apply(eta, f, one, 2.0) == math.inf
        assert calderon_exact_oracle(eta, f, one, 2.0) == math.inf
    zero = StepFunction([1.0], [0.0])
    assert calderon_apply(flat, one, zero, 2.0) == 0.0


def test_corner_form_error_grows_as_inverse_piece_width() -> None:
    # the bound in the _calderon_corners docstring: 1e-14/delta for one
    # piece of relative width delta, 1e-14/delta^2 when f* and g* both
    # have one (measured: at most 2.5e-15/delta and 4.6e-15/delta^2)
    g = StepFunction([0.5, 2.0, 3.0], [2.0, 0.0, 1.0])
    ts = np.geomspace(0.01, 100.0, 9)
    for d in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
        for x, v in ((0.05, 1.0), (1.3, 1.0), (20.0, 2.5)):
            f = StepFunction([x, x * (1 + d)], [0.0, v])
            for eta in (ETA_SQRT_MIN, ETA_SEPARABLE):
                for other, rel in ((g, 1e-14 / d), (f, 1e-14 / d**2)):
                    want = [calderon_exact_oracle(eta, f, other, float(t)) for t in ts]
                    got = calderon_apply(eta, f, other, ts)
                    np.testing.assert_allclose(got, want, rtol=rel, atol=0)


def test_calderon_apply_array_matches_scalar_calls() -> None:
    # the 100 values of t fit in one pass of the evaluator, a scalar t is a
    # pass of its own
    rng = np.random.default_rng(10)
    f, g = random_step(rng, 7), random_monotone_step(rng, 5)
    ts = np.geomspace(1e-3, 1e3, 100)
    for eta in (ETA_SQRT_MIN, ETA_SEPARABLE):
        got = calderon_apply(eta, f, g, ts)
        assert got.shape == ts.shape
        assert got.tolist() == [calderon_apply(eta, f, g, float(t)) for t in ts]
    assert calderon_apply(ETA_SQRT_MIN, f, g, np.array([])).shape == (0,)


def corner_values_at_each_budget(monkeypatch, compute) -> list:
    """compute() with the evaluator taking one t per pass, its default cell
    budget, and every t in one pass."""
    runs = []
    for cells in (1, calderon._CORNER_CELLS, 2**30):
        monkeypatch.setattr(calderon, "_CORNER_CELLS", cells)
        runs.append(compute())
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("orders", [[6], [12]])
@pytest.mark.parametrize("kind", SAMPLE_KINDS)
def test_corner_form_same_bits_at_any_block_size(monkeypatch, orders, kind) -> None:
    # every cell is computed elementwise and every sum runs over one t's
    # own axes, so how the t values are split into passes changes no bit
    f, g = sample_functions(kind, FiniteAbelianGroup(orders), 4)
    fstar, gstar = (rearrangement(h.to_measured()) for h in (f, g))
    ts = np.geomspace(1e-4, 1e4, 97)

    def compute() -> list:
        return [
            *calderon_apply(ETA_SQRT_MIN, fstar, gstar, ts).tolist(),
            *calderon_apply(ETA_SEPARABLE, fstar, gstar, ts).tolist(),
            calderon_t_functional(fstar, gstar, 4, 2),
            calderon_t_functional(fstar, gstar, 3, math.inf),
            majorization_check(f, g),
        ]

    first, *others = corner_values_at_each_budget(monkeypatch, compute)
    assert all(other == first for other in others)


def test_corner_form_same_bits_at_any_block_size_edge_cases(monkeypatch) -> None:
    # S = inf where f*(0+) > 0 under a kernel that does not decay as r -> 0
    # or s -> 0, two of them with every a_k = b_k = 0 (m = 0), and the
    # rearrangement of the zero function, which has no pieces
    f = StepFunction([1.0, 2.0], [0.0, 1.0])
    one = StepFunction([1.0], [1.0], monotone=True)
    zero = rearrangement(MeasuredFunction.from_values([0.0, 0.0]))
    assert len(zero) == 0
    kernels = (
        EtaSet([(0, 0, 0)]),
        EtaSet([(0, 0, 0), (0, 0, "1/2")]),
        EtaSet([(1, 0, 0)]),
        ETA_SQRT_MIN,
        ETA_SEPARABLE,
    )
    ts = np.geomspace(1e-3, 1e3, 41)

    def compute() -> list:
        out = []
        for eta in kernels:
            for fstar, gstar in ((f, one), (one, f), (zero, one), (f, f)):
                out += calderon_apply(eta, fstar, gstar, ts).tolist()
        out.append(calderon_t_functional(zero, one, 4, 2))
        return out

    first, *others = corner_values_at_each_budget(monkeypatch, compute)
    assert all(other == first for other in others)
    assert math.inf in first and 0.0 in first


def test_corner_form_memory_bounded_by_cell_budget() -> None:
    # 64 pieces each on Z_64: a pass of 32 t would make each temporary of
    # the evaluator 32 * 3 * 64 * 64 floats (3 MiB); the budget allows one t
    f, g = sample_functions("gaussian-random", FiniteAbelianGroup([64]), 2)
    fstar, gstar = (rearrangement(h.to_measured()) for h in (f, g))
    assert len(fstar) == len(gstar) == 64
    ts = np.geomspace(1e-3, 1e3, 200)
    calderon_apply(ETA_SQRT_MIN, fstar, gstar, ts)
    tracemalloc.start()
    try:
        calderon_apply(ETA_SQRT_MIN, fstar, gstar, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak / 2**20


# -- the adaptive integrator ----------------------------------------------------------


def recorded_integrals(monkeypatch, compute) -> list:
    """Run compute() and return (fn, lo, hi, rtol, result) for each call it
    makes to the adaptive integrator."""
    seen = []
    integrate = calderon._adaptive_gauss

    def record(fn, lo, hi, rtol=1e-9):
        result = integrate(fn, lo, hi, rtol)
        seen.append((fn, np.asarray(lo), np.asarray(hi), rtol, result))
        return result

    monkeypatch.setattr(calderon, "_adaptive_gauss", record)
    compute()
    monkeypatch.undo()
    return seen


def test_adaptive_gauss_matches_depth_first_oracle(monkeypatch) -> None:
    # every interval handed to the breadth-first integrator, by every caller,
    # against the recursion run on it alone with the same integrand: the
    # same partition, summed in the same order, so the same bits
    one = StepFunction([1.0], [1.0], monotone=True)
    rng = np.random.default_rng(12)
    f, g = random_monotone_step(rng, 4), random_monotone_step(rng, 3)
    # Phi(t) = t - 1 vanishes at the left end of the piece (1, 2]: at
    # q = 3/2 the integrand is not smooth there and the bisection reaches
    # the depth cap; integer q takes the same route
    rises = StepFunction([1.0, 2.0, 3.5], [0.0, 1.0, 0.4])
    cases = {
        "hardy": lambda: [
            hardy_check(phi, delta, q)
            for phi in (rises, random_step(rng, 5), f)
            for delta in (-0.5, 0.25)
            for q in ("3/2", 2)
        ],
        "quadrature": lambda: calderon_apply(ETA_SQRT_MIN, f, g, 2.0, method="quadrature"),
        "t-functional": lambda: [calderon_t_functional(f, g, 4, 2), calderon_t_functional(one, one, 3, 1)],
    }
    for name, compute in cases.items():
        seen = recorded_integrals(monkeypatch, compute)
        assert seen, name
        for fn, lo, hi, rtol, result in seen:
            assert result.shape == lo.shape
            for i in range(lo.size):
                row = lambda x: fn(x[None, :], np.array([i]))[0]
                want = adaptive_gauss_oracle(row, float(lo[i]), float(hi[i]), rtol)
                assert result[i] == want, name


def test_adaptive_gauss_on_closed_forms() -> None:
    lo, hi = np.array([0.0, 1.0, -2.0, 0.5]), np.array([1.0, 3.0, 2.0, 0.5])
    got = calderon._adaptive_gauss(lambda x, which: np.exp(x) * (which[:, None] + 1), lo, hi)
    want = (np.exp(hi) - np.exp(lo)) * np.arange(1, 5)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    assert calderon._adaptive_gauss(lambda x, which: x, np.array([]), np.array([])).shape == (0,)
    # an integrand that never settles stops at the cap on live subintervals
    nan = calderon._adaptive_gauss(lambda x, which: x * np.nan, lo[:1], hi[:1])
    assert np.isnan(nan).all()
    zero = calderon._adaptive_gauss(lambda x, which: np.sin(x), np.array([0.0]), np.array([2 * np.pi]), rtol=1e-30)
    assert abs(zero[0]) < 1e-12


# -- half-line Lorentz functionals ------------------------------------------------------


def test_monomial_functional_closed_form() -> None:
    # || min(1, t^{-1/2}) ||_{q,1} = q + 2q/(q-2) = q^2/(q-2); equals 9 at q = 3.
    h = PiecewiseMonomial.bounded_inverse_sqrt()
    assert halfline_lorentz_functional(h, 3, 1) == pytest.approx(9.0, rel=1e-9)
    assert halfline_lorentz_functional(h, 4, 1) == pytest.approx(8.0, rel=1e-9)


def test_monomial_functional_sup_form() -> None:
    # sup_t t^{1/4} min(1, t^{-1/2}) = 1, attained at t = 1.
    h = PiecewiseMonomial.bounded_inverse_sqrt()
    assert halfline_lorentz_functional(h, 4, math.inf) == pytest.approx(1.0, rel=1e-9)


def test_step_functional_matches_lorentz_norm() -> None:
    # For a decreasing step function, the functional is the Lorentz norm of
    # any measured function with that rearrangement.
    f = MeasuredFunction.from_values([3.0, 1.0, 2.0], weight=0.5)
    sf = rearrangement(f)
    for q, w in ((2, 1), (3, 3), (2.5, math.inf)):
        assert halfline_lorentz_functional(sf, q, w) == pytest.approx(
            lorentz_norm(f, q, w), rel=1e-12
        )


def test_functional_rejects_callable() -> None:
    with pytest.raises(TypeError, match="StepFunction or a PiecewiseMonomial"):
        halfline_lorentz_functional(lambda t: min(1.0, t**-0.5), 3, 1)


# -- the t-functional ---------------------------------------------------------------


def quadrature_t_functional(fstar, gstar, q, w, lo=1e-6, hi=1e7, n=6000) -> float:
    """Independent oracle: log-grid trapezoid over a wide window plus
    analytic power pieces outside it (S is constant below lo and exactly
    proportional to t^{-1/2} above hi)."""
    lam = np.linspace(math.log(lo), math.log(hi), n)
    svals = calderon_apply(ETA_SQRT_MIN, fstar, gstar, np.exp(lam))
    integrand = np.exp(lam * w / q) * svals**w
    body = float(np.trapezoid(integrand, lam))
    head = svals[0] ** w * lo ** (w / q) * q / w
    c = svals[-1] * math.sqrt(hi)
    gamma = w / q - w / 2
    tail = c**w * math.exp(gamma * math.log(hi)) / (-gamma)
    return (head + body + tail) ** (1 / w)


def test_t_functional_matches_quadrature_oracle() -> None:
    rng = np.random.default_rng(8)
    for _ in range(3):
        f, g = random_monotone_step(rng, 3), random_monotone_step(rng, 3)
        for q, w in ((4, 1), (3, 2)):
            got = calderon_t_functional(f, g, q, w)
            want = quadrature_t_functional(f, g, q, w)
            assert got == pytest.approx(want, rel=1e-4)


def brute_sup(fstar: StepFunction, gstar: StepFunction, q: float) -> float:
    """max of t^{1/q} S(t) on a log grid, then on 10^5 points within 1% of
    the grid's argmax."""
    ts = np.geomspace(1e-4, 1e6, 4000)
    top = ts[np.argmax(ts ** (1 / q) * calderon_apply(ETA_SQRT_MIN, fstar, gstar, ts))]
    ts = np.linspace(0.99 * top, 1.01 * top, 10**5)
    return float(np.max(ts ** (1 / q) * calderon_apply(ETA_SQRT_MIN, fstar, gstar, ts)))


def test_t_functional_sup_form_unit_indicators() -> None:
    # sup_t t^{1/4} S(1,1)(t): S(t) = 2 - sqrt(t) + ... piecewise; the value
    # at q = 4, w = inf is pinned by the exact sup bracket.
    one = StepFunction([1.0], [1.0], monotone=True)
    got = calderon_t_functional(one, one, 4, math.inf)
    ts = np.geomspace(1e-4, 1e6, 4000)
    brute = float(np.max(ts**0.25 * calderon_apply(ETA_SQRT_MIN, one, one, ts)))
    assert got >= brute - 1e-12
    assert got == pytest.approx(brute_sup(one, one, 4), rel=2e-6)


@pytest.mark.parametrize("kind", SAMPLE_KINDS)
def test_t_functional_sup_form_sample_kinds(kind) -> None:
    f, g = sample_functions(kind, FiniteAbelianGroup([6]), 3)
    fstar, gstar = rearrangement(f.to_measured()), rearrangement(g.to_measured())
    got = calderon_t_functional(fstar, gstar, 4, math.inf)
    assert got == pytest.approx(brute_sup(fstar, gstar, 4), rel=2e-6)


@pytest.mark.parametrize("w, most", [(math.inf, 40), (2, 4)])
def test_t_functional_evaluator_calls(monkeypatch, w, most) -> None:
    # one call for S(1) and the tail candidates, then one per refinement level
    calls = []
    corners = calderon._calderon_corners
    monkeypatch.setattr(
        calderon, "_calderon_corners", lambda *args: calls.append(1) or corners(*args)
    )
    one = StepFunction([1.0], [1.0], monotone=True)
    assert calderon_t_functional(one, one, 4, w) > 0
    assert len(calls) <= most


def test_t_functional_separable_closed_form() -> None:
    # For the separable kernel the functional factorizes through the
    # sqrt-moments and the monomial functional.
    one = StepFunction([1.0], [1.0], monotone=True)
    # sqrt-moment of 1_{[0,1)} is 2, so S(t) = 4 min(1, t^{-1/2});
    # || 4 min(1,sqrt(1/t)) ||_{3,1} = 4 * 9.
    got = calderon_t_functional(one, one, 3, 1, eta=ETA_SEPARABLE)
    assert got == pytest.approx(36.0, rel=1e-9)


def test_t_functional_rejects_unknown_eta() -> None:
    one = StepFunction([1.0], [1.0], monotone=True)
    other = EtaSet([("1/3", "1/3", "1/3")])
    with pytest.raises(ValueError):
        calderon_t_functional(one, one, 4, 1, eta=other)


def test_t_functional_rejects_q_at_most_two() -> None:
    one = StepFunction([1.0], [1.0], monotone=True)
    with pytest.raises(ValueError):
        calderon_t_functional(one, one, 2, 1)
