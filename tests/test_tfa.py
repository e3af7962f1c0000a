"""Tests for Fourier transforms, STFT, Wigner distributions, and Weyl operators."""

from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from tflab import (
    FiniteAbelianGroup,
    GroupEndomorphism,
    GroupFunction,
    a_tau,
    conjugate_rihaczek,
    fourier,
    fourier_fft,
    hausdorff_young_check,
    rihaczek,
    stft,
    stft_dilate,
    stft_lebesgue_bound_check,
    tf_pairing,
    tf_shift,
    weyl_apply,
    weyl_operator,
    wigner_factorization_check,
    wigner_tau,
)

from oracles import (
    stft_table_gather,
    stft_via_inner_products,
    weyl_operator_pointmass,
    weyl_operator_table_gather,
    wigner_tau_table_gather,
)


def random_function(group: FiniteAbelianGroup, seed: int) -> GroupFunction:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size)
    return GroupFunction(group, vals)


# -- Fourier transform -----------------------------------------------------------


def test_fourier_double_sum_oracle() -> None:
    g = FiniteAbelianGroup([8])
    f = random_function(g, 1)
    fhat = fourier(f)
    for xi in range(8):
        expected = g.haar_weight * sum(
            f.values[x] * cmath.exp(-2j * math.pi * x * xi / 8) for x in range(8)
        )
        assert fhat.values[xi] == pytest.approx(expected, abs=1e-12)


def test_fourier_fft_agrees_with_direct() -> None:
    for orders in ([8], [4, 6], [3, 2, 2]):
        g = FiniteAbelianGroup(orders)
        f = random_function(g, 2)
        a, b = fourier(f), fourier_fft(f)
        assert np.max(np.abs(a.values - b.values)) < 1e-12
    # the per-axis FFT loop is exactly what np.fft.fftn computes
    for orders in ([6], [5, 5], [2, 3, 2]):
        g = FiniteAbelianGroup(orders)
        f = random_function(g, 3)
        want = np.fft.fftn(f.values.reshape(g.orders)).reshape(-1)
        assert np.array_equal(fourier_fft(f).values, want)


def test_parseval_identity() -> None:
    g = FiniteAbelianGroup([8])
    f, h = random_function(g, 3), random_function(g, 4)
    lhs = fourier(f).inner(fourier(h))
    assert lhs == pytest.approx(f.inner(h), rel=1e-10)


def test_plancherel_with_scaled_haar_weight() -> None:
    g = FiniteAbelianGroup([6], haar_weight=2.5)
    f = random_function(g, 5)
    assert fourier(f).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


def test_fourier_of_delta_is_flat() -> None:
    g = FiniteAbelianGroup([7])
    fhat = fourier(GroupFunction.delta(g))
    assert np.allclose(fhat.values, g.haar_weight)


# -- time-frequency shifts ---------------------------------------------------------


def test_tf_shift_of_delta() -> None:
    for orders, at, x, xi in (([5], 0, 2, 3), ([4, 6], (1, 2), (2, 5), (3, 1))):
        g = FiniteAbelianGroup(orders)
        shifted = tf_shift(GroupFunction.delta(g, at), x, xi)
        # delta_at moves to at + x and picks up the phase <at + x, xi>
        target = g.index(np.add(g.coords(g.index(at)), g.coords(g.index(x))))
        for y in range(g.size):
            expected = g.character(y, xi) if y == target else 0.0
            assert shifted.values[y] == pytest.approx(expected, abs=1e-12)


def test_tf_shift_is_isometry() -> None:
    g = FiniteAbelianGroup([4, 3])
    f = random_function(g, 6)
    shifted = tf_shift(f, (1, 2), (3, 1))
    assert shifted.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


# -- STFT ---------------------------------------------------------------------------


def test_stft_triple_sum_oracle() -> None:
    g = FiniteAbelianGroup([4, 3])
    f, win = random_function(g, 7), random_function(g, 8)
    v = stft(f, win)
    for x in range(g.size):
        for xi in range(g.size):
            expected = g.haar_weight * sum(
                f.values[y]
                * np.conj(win.values[g.sub_index[y, x]])
                * np.conj(g.character_table[y, xi])
                for y in range(g.size)
            )
            assert v.values[x, xi] == pytest.approx(expected, abs=1e-10)


def test_stft_matches_inner_product_oracle() -> None:
    for orders, weight in (([4, 3], 1.0), ([2, 3, 2], 2.5)):
        g = FiniteAbelianGroup(orders, haar_weight=weight)
        f, win = random_function(g, 9), random_function(g, 10)
        a, b = stft(f, win), stft_via_inner_products(f, win)
        assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_stft_isometry() -> None:
    g = FiniteAbelianGroup([12])
    f, win = random_function(g, 11), random_function(g, 12)
    assert stft(f, win).l2_norm() == pytest.approx(
        f.l2_norm() * win.l2_norm(), rel=1e-9
    )


def test_stft_pointwise_bound() -> None:
    g = FiniteAbelianGroup([9])
    f, win = random_function(g, 13), random_function(g, 14)
    bound = f.l2_norm() * win.l2_norm()
    assert np.max(np.abs(stft(f, win).values)) <= bound * (1 + 1e-12)


def test_stft_sesquilinear() -> None:
    g = FiniteAbelianGroup([6])
    f1, f2, win = random_function(g, 15), random_function(g, 16), random_function(g, 17)
    a = 2.0 - 1.0j
    lhs = stft(GroupFunction(g, a * f1.values + f2.values), win)
    rhs = a * stft(f1, win).values + stft(f2, win).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12
    lhs_w = stft(f1, GroupFunction(g, a * win.values))
    assert np.max(np.abs(lhs_w.values - np.conj(a) * stft(f1, win).values)) < 1e-12


def test_stft_lebesgue_bounds_constant_one() -> None:
    g = FiniteAbelianGroup([8])
    f, win = random_function(g, 18), random_function(g, 19)
    for r in (1, 2, 4, math.inf):
        holds, ratio = stft_lebesgue_bound_check(f, win, r, math.inf)
        assert holds and ratio <= 1 + 1e-12


def test_stft_lebesgue_bound_rejects_bad_indices() -> None:
    g = FiniteAbelianGroup([4])
    f = random_function(g, 20)
    with pytest.raises(ValueError):
        stft_lebesgue_bound_check(f, f, 2, 1.5)
    with pytest.raises(ValueError):
        stft_lebesgue_bound_check(f, f, 8, 4)


def test_stft_norms_invariant_under_tf_shift_of_both() -> None:
    g = FiniteAbelianGroup([8])
    f, win = random_function(g, 21), random_function(g, 22)
    base = stft(f, win)
    shifted = stft(tf_shift(f, 3, 5), tf_shift(win, 3, 5))
    for p, q in ((2, 2), (4, 1), (3, math.inf), (math.inf, math.inf)):
        assert shifted.lorentz_norm(p, q) == pytest.approx(
            base.lorentz_norm(p, q), rel=1e-12
        )


# -- Wigner distributions --------------------------------------------------------


def test_wigner_triple_loop_oracle() -> None:
    for orders, weight, mat in (([5], 1.0, [[2]]), ([4, 6], 0.5, [[1, 2], [0, 1]])):
        g = FiniteAbelianGroup(orders, haar_weight=weight)
        tau = GroupEndomorphism(g, mat)
        f, h = random_function(g, 23), random_function(g, 24)
        w = wigner_tau(f, h, tau)
        ys = g.elements
        tau_ys = ys @ tau.matrix.T  # coordinates of tau y, reduced by g.index
        for x, xc in enumerate(ys):
            for xi in range(g.size):
                expected = g.haar_weight * sum(
                    f.values[g.index(xc + ty)]
                    * np.conj(h.values[g.index(xc - (y - ty))])
                    * np.conj(g.character_table[iy, xi])
                    for iy, (y, ty) in enumerate(zip(ys, tau_ys))
                )
                assert w.values[x, xi] == pytest.approx(expected, abs=1e-10)


def test_wigner_at_zero_is_rihaczek() -> None:
    g = FiniteAbelianGroup([6])
    zero = GroupEndomorphism(g, [[0]])
    f, h = random_function(g, 25), random_function(g, 26)
    a = wigner_tau(f, h, zero)
    b = rihaczek(f, h)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_wigner_at_identity_is_conjugate_rihaczek() -> None:
    g = FiniteAbelianGroup([6])
    ident = GroupEndomorphism.identity(g)
    f, h = random_function(g, 27), random_function(g, 28)
    a = wigner_tau(f, h, ident)
    b = conjugate_rihaczek(f, h)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_wigner_l2_norm_product() -> None:
    # For tau with tau and I - tau automorphisms, W_tau is a multiple of an
    # L2 isometry in each slot; on Z_5, tau = 2 gives ||W|| = ||f|| ||g||.
    g = FiniteAbelianGroup([5])
    tau = GroupEndomorphism(g, [[2]])
    f, h = random_function(g, 29), random_function(g, 30)
    assert wigner_tau(f, h, tau).l2_norm() == pytest.approx(
        f.l2_norm() * h.l2_norm(), rel=1e-9
    )


# -- dilations and factorization ----------------------------------------------------


def test_a_tau_constant_fixed_point() -> None:
    g = FiniteAbelianGroup([5])
    tau = GroupEndomorphism(g, [[3]])
    c = GroupFunction.constant(g, 2.0 - 1.0j)
    out = a_tau(c, tau)
    assert np.allclose(out.values, c.values)


def test_a_tau_is_norm_preserving_relabeling() -> None:
    g = FiniteAbelianGroup([5])
    tau = GroupEndomorphism(g, [[3]])  # I - tau^{-1} = 1 - 2 = -1, a bijection
    f = random_function(g, 31)
    out = a_tau(f, tau)
    assert sorted(np.abs(out.values)) == pytest.approx(sorted(np.abs(f.values)))
    assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


def test_a_tau_rejects_non_invertible_pieces() -> None:
    g = FiniteAbelianGroup([4])
    with pytest.raises(ValueError):
        a_tau(GroupFunction.delta(g), GroupEndomorphism(g, [[2]]))


def test_stft_dilate_permutes_cells() -> None:
    g = FiniteAbelianGroup([7])
    tau = GroupEndomorphism(g, [[3]])
    f, win = random_function(g, 32), random_function(g, 33)
    v = stft(f, win)
    d = stft_dilate(v, tau)
    one_minus_inv = (GroupEndomorphism.identity(g) - tau).inverse
    x_perm = one_minus_inv.permutation
    xi_perm = tau.inverse.dual().permutation
    for x in range(7):
        for xi in range(7):
            assert d.values[x, xi] == v.values[x_perm[x], xi_perm[xi]]


def test_stft_dilate_preserves_lorentz_norms() -> None:
    g = FiniteAbelianGroup([7])
    tau = GroupEndomorphism(g, [[3]])
    f, win = random_function(g, 34), random_function(g, 35)
    v = stft(f, win)
    d = stft_dilate(v, tau)
    for p, q in ((2, 1), (4, math.inf)):
        assert d.lorentz_norm(p, q) == pytest.approx(v.lorentz_norm(p, q), rel=1e-12)


def test_wigner_stft_factorization() -> None:
    for orders, mat in (([5], [[2]]), ([9], [[2]])):
        g = FiniteAbelianGroup(orders)
        tau = GroupEndomorphism(g, mat)
        f, h = random_function(g, 36), random_function(g, 37)
        assert wigner_factorization_check(f, h, tau) < 1e-9


# -- Weyl operators -------------------------------------------------------------------


def test_weyl_operator_zero_symbol() -> None:
    g = FiniteAbelianGroup([5])
    tau = GroupEndomorphism(g, [[2]])
    phi = stft(GroupFunction.delta(g), GroupFunction.delta(g))
    zero = type(phi)(g, np.zeros_like(phi.values))
    k = weyl_operator(zero, tau)
    assert np.max(np.abs(k)) == 0.0


def test_weyl_operator_matches_pointmass_assembly() -> None:
    cases = (
        ([4, 2], 1.0, [[1, 0], [0, 1]]),
        ([2, 3, 2], 0.5, [[1, 0, 1], [0, 2, 0], [1, 0, 0]]),
    )
    for orders, weight, mat in cases:
        g = FiniteAbelianGroup(orders, haar_weight=weight)
        tau = GroupEndomorphism(g, mat)
        rng = np.random.default_rng(38)
        phi = stft(
            GroupFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)),
            GroupFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)),
        )
        a = weyl_operator(phi, tau)
        b = weyl_operator_pointmass(phi, tau)
        assert np.max(np.abs(a - b)) < 1e-10


#: (orders, haar weight, a diagonal tau, a non-diagonal tau)
TRANSLATE_CASES = [
    ([1], 1.0, [[1]], [[0]]),
    ([2], 0.5, [[1]], [[0]]),
    ([7], 2.0, [[3]], [[0]]),
    ([4, 6], 1.0, [[3, 0], [0, 5]], [[1, 2], [0, 1]]),
    ([2, 3, 5], 0.5, [[1, 0, 0], [0, 2, 0], [0, 0, 3]], [[1, 2, 2], [3, 2, 3], [5, 5, 4]]),
    ([16, 16], 1.0, [[3, 0], [0, 3]], [[1, 2], [0, 1]]),
    ([4, 8, 8], 2.0, [[3, 0, 0], [0, 3, 0], [0, 0, 5]], [[1, 1, 0], [0, 1, 1], [2, 0, 1]]),
]


@pytest.mark.parametrize("orders, weight, diagonal, mixed", TRANSLATE_CASES)
def test_transforms_equal_table_gathers(orders, weight, diagonal, mixed) -> None:
    g = FiniteAbelianGroup(orders, haar_weight=weight)
    f, h = random_function(g, 44), random_function(g, 45)
    v = stft(f, h)
    assert np.array_equal(v.values, stft_table_gather(f, h).values)
    for mat in (diagonal, mixed):
        tau = GroupEndomorphism(g, mat)
        w = wigner_tau(f, h, tau).values
        assert np.array_equal(w, wigner_tau_table_gather(f, h, tau).values), mat
        assert np.array_equal(weyl_operator(v, tau), weyl_operator_table_gather(v, tau)), mat


def test_transforms_leave_character_table_unbuilt() -> None:
    # nor any other |G| x |G| table: the transforms and norms read none
    g = FiniteAbelianGroup([4, 6])
    tau = GroupEndomorphism(g, [[1, 2], [0, 1]])
    f, h = random_function(g, 42), random_function(g, 43)
    v = stft(f, h)
    weyl_operator(v, tau)
    wigner_tau(f, h, tau)
    tf_shift(f, (1, 5), (3, 2))
    v.lorentz_norm(4, 2)
    f.lorentz_norm(3, 1)
    for table in ("add_index", "neg_index", "sub_index", "character_table"):
        assert table not in g.__dict__, table


@pytest.mark.parametrize("orders, mat", [
    ([12], [[5]]),
    ([4, 6], [[1, 2], [0, 1]]),
    ([2, 4, 4], [[1, 1, 0], [2, 1, 1], [0, 1, 3]]),
])
def test_transforms_leave_their_inputs_unwritten(orders, mat) -> None:
    # the transforms run in place in buffers they allocate; with the inputs
    # read-only, a stray write into one raises here
    g = FiniteAbelianGroup(orders, haar_weight=0.5)
    tau = GroupEndomorphism(g, mat)
    f, h = random_function(g, 46), random_function(g, 47)
    phi = stft(f, h)
    for values in (f.values, h.values, phi.values):
        values.setflags(write=False)
    fourier_fft(f)
    stft(f, h)
    wigner_tau(f, h, tau)
    k = weyl_operator(phi, tau)
    k.setflags(write=False)
    weyl_apply(k, f)


@pytest.mark.parametrize("name, bound", [
    ("stft", 1.1), ("wigner_tau", 1.5), ("weyl_operator", 2.6)
])
@pytest.mark.parametrize("orders", [[512], [8, 8, 8], [16, 32]])
def test_transforms_allocate_one_result_buffer(orders, name, bound) -> None:
    # peak traced memory of one warm call, over the result's nbytes: stft
    # works in its one translate copy, wigner_tau adds blocks of gather index
    # and conj g, and weyl_operator a |G| x |G| int64 gather index
    g = FiniteAbelianGroup(orders)
    tau = GroupEndomorphism(g, np.diag([3] * g.rank))
    f, h = random_function(g, 48), random_function(g, 49)
    phi = stft(f, h)
    call = {
        "stft": lambda: stft(f, h),
        "wigner_tau": lambda: wigner_tau(f, h, tau),
        "weyl_operator": lambda: weyl_operator(phi, tau),
    }[name]
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * phi.values.nbytes, peak / phi.values.nbytes


@pytest.mark.parametrize("q", [4, math.inf])
@pytest.mark.parametrize("orders", [[16, 16], [256]])
def test_lorentz_norm_allocates_three_magnitude_buffers(orders, q) -> None:
    # peak traced memory of one warm one-weight norm, over the nbytes of
    # |values|: the magnitudes (sorted and scaled in place), 0 and the running
    # weight sums (raised to their power in place) and, for finite q, the pieces
    g = FiniteAbelianGroup(orders)
    phi = stft(random_function(g, 50), random_function(g, 51))
    phi.lorentz_norm(3, q)
    tracemalloc.start()
    try:
        phi.lorentz_norm(3, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mag_bytes = np.abs(phi.values).nbytes
    assert peak <= 3.1 * mag_bytes, peak / mag_bytes


def test_weyl_duality_random_triples() -> None:
    g = FiniteAbelianGroup([6])
    rng = np.random.default_rng(39)
    for mat in ([[0]], [[1]], [[5]]):
        tau = GroupEndomorphism(g, mat)
        for _ in range(5):
            phi_vals = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            phi = stft(GroupFunction.delta(g), GroupFunction.delta(g))
            phi = type(phi)(g, phi_vals)
            f, h = random_function(g, int(rng.integers(10**6))), random_function(
                g, int(rng.integers(10**6))
            )
            k = weyl_operator(phi, tau)
            lhs = weyl_apply(k, f).inner(h)
            rhs = tf_pairing(phi, wigner_tau(f, h, tau))
            assert lhs == pytest.approx(rhs, rel=1e-9)


# -- Hausdorff-Young -------------------------------------------------------------------


def test_hausdorff_young_finite_ratios() -> None:
    g = FiniteAbelianGroup([8])
    f = random_function(g, 40)
    for q in (1, 1.5, math.inf):
        lhs, rhs, ratio = hausdorff_young_check(f, 1.5, q)
        assert math.isfinite(ratio) and lhs == pytest.approx(ratio * rhs, rel=1e-12)


def test_hausdorff_young_rejects_p_out_of_range() -> None:
    g = FiniteAbelianGroup([4])
    f = random_function(g, 41)
    for p in (1, 2, 2.5):
        with pytest.raises(ValueError):
            hausdorff_young_check(f, p, 2)
