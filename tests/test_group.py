"""Tests for finite abelian groups, characters, and endomorphisms."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import add_index_oracle, sub_index_oracle
from tflab import (
    FiniteAbelianGroup,
    GroupEndomorphism,
    parse_group,
)

small_orders = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3)


def image(m: GroupEndomorphism, x) -> tuple:
    """The coordinates of M x, read through the endomorphism's permutation."""
    return m.group.coords(int(m.permutation[m.group.index(x)]))


def test_group_order_and_measure() -> None:
    g = FiniteAbelianGroup([4, 6])
    assert g.size == 24
    assert g.measure(g.size) == pytest.approx(24.0)
    assert g.measure(1) == pytest.approx(1.0)


def test_group_rejects_bad_orders() -> None:
    with pytest.raises(ValueError):
        FiniteAbelianGroup([])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([0, 3])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([4], haar_weight=0.0)


def test_parse_group_spec_string() -> None:
    g = parse_group("12x5")
    assert g.orders == (12, 5)
    assert g.size == 60
    with pytest.raises(ValueError):
        parse_group("")
    with pytest.raises(ValueError):
        parse_group("4xx2")


def test_dual_weight_matches_plancherel_normalization() -> None:
    g = FiniteAbelianGroup([6], haar_weight=3.0)
    assert g.dual_weight == pytest.approx(1.0 / (3.0 * 6))
    dual = g.dual
    assert dual.orders == g.orders
    assert dual.haar_weight == pytest.approx(g.dual_weight)


def test_index_coords_roundtrip_c_order() -> None:
    g = FiniteAbelianGroup([3, 4])
    # C-order: last coordinate varies fastest, matching np.fft conventions.
    assert g.coords(0) == (0, 0)
    assert g.coords(1) == (0, 1)
    assert g.coords(4) == (1, 0)
    for i in range(g.size):
        assert g.index(g.coords(i)) == i


def test_element_arithmetic_reduces_mod_orders() -> None:
    g = FiniteAbelianGroup([4, 3])
    i = g.index((3, 2))
    j = g.index((2, 2))
    assert g.coords(g.add_index[i, j]) == (1, 1)
    assert g.coords(g.sub_index[i, j]) == (1, 0)
    assert g.coords(g.neg_index[i]) == (1, 1)


@pytest.mark.parametrize(
    "orders", [[1], [2], [7], [4, 6], [2, 3, 5], [16, 16], [4, 8, 8], [3, 1, 2]]
)
def test_index_tables_equal_coordinate_formula(orders) -> None:
    g = FiniteAbelianGroup(orders)
    for table, oracle in ((g.add_index, add_index_oracle), (g.sub_index, sub_index_oracle)):
        expected = oracle(g)
        assert table.dtype == expected.dtype and table.flags.c_contiguous
        assert table.tobytes() == expected.tobytes()
        assert not table.flags.writeable


def test_character_identity_is_one() -> None:
    g = FiniteAbelianGroup([5, 7])
    for xi in range(g.size):
        assert g.character(g.identity, xi) == pytest.approx(1.0)


def test_character_primitive_fourth_root() -> None:
    g = FiniteAbelianGroup([4])
    assert g.character(1, 1) == pytest.approx(1j)
    assert g.character(2, 1) == pytest.approx(-1.0)


def test_character_closed_form() -> None:
    g = FiniteAbelianGroup([3, 5])
    for x in range(g.size):
        for xi in range(g.size):
            xc, xic = g.coords(x), g.coords(xi)
            expected = cmath.exp(
                2j * math.pi * (xc[0] * xic[0] / 3 + xc[1] * xic[1] / 5)
            )
            assert g.character(x, xi) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("orders", [[12], [4, 6]])
def test_character_reads_the_table_without_building_it(orders) -> None:
    g = FiniteAbelianGroup(orders, haar_weight=0.5)
    values = [[g.character(x, xi) for xi in range(g.size)] for x in range(g.size)]
    assert "character_table" not in g.__dict__
    assert np.array_equal(np.array(values), g.character_table)


def test_bicharacter_law_exhaustive() -> None:
    g = FiniteAbelianGroup([3, 2])
    n = g.size
    for x in range(n):
        for y in range(n):
            for xi in range(n):
                lhs = g.character(g.add_index[x, y], xi)
                rhs = g.character(x, xi) * g.character(y, xi)
                assert abs(lhs - rhs) < 1e-12
    # Multiplicativity in the dual slot.
    for x in range(n):
        for xi in range(n):
            for zeta in range(n):
                lhs = g.character(x, g.add_index[xi, zeta])
                rhs = g.character(x, xi) * g.character(x, zeta)
                assert abs(lhs - rhs) < 1e-12


def test_character_unit_modulus_order_64() -> None:
    g = FiniteAbelianGroup([8, 8])
    table = g.character_table
    assert np.max(np.abs(np.abs(table) - 1.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(small_orders, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_character_multiplicative_property(orders, a, b, c) -> None:
    g = FiniteAbelianGroup(orders)
    x, y, xi = a % g.size, b % g.size, c % g.size
    lhs = g.character(g.add_index[x, y], xi)
    rhs = g.character(x, xi) * g.character(y, xi)
    assert abs(lhs - rhs) < 1e-12


def test_endomorphism_identity_fixes_everything() -> None:
    g = FiniteAbelianGroup([4, 2])
    m = GroupEndomorphism.identity(g)
    for i in range(g.size):
        assert image(m, g.coords(i)) == g.coords(i)


def test_complement_is_identity_minus_tau_built_once() -> None:
    g = FiniteAbelianGroup([4, 6])
    tau = GroupEndomorphism(g, [[1, 2], [3, 1]])
    ident = GroupEndomorphism.identity(g)
    assert np.array_equal(tau.complement.permutation, (ident - tau).permutation)
    assert tau.complement is tau.complement


def test_endomorphism_cyclic_doubling() -> None:
    g = FiniteAbelianGroup([5])
    m = GroupEndomorphism(g, [[2]])
    assert image(m, (3,)) == (1,)


def test_endomorphism_mixed_orders_modular_arithmetic() -> None:
    # n_2 | M_21 * n_1 (2 divides 2*4) makes the off-diagonal entry legal.
    g = FiniteAbelianGroup([4, 2])
    m = GroupEndomorphism(g, [[1, 0], [2, 1]])
    assert image(m, (1, 1)) == (1, (1 + 2 * 1) % 2)
    for i in range(g.size):
        x = g.coords(i)
        expected = ((x[0]) % 4, (2 * x[0] + x[1]) % 2)
        assert image(m, x) == expected


def test_endomorphism_rejects_ill_defined_matrix() -> None:
    # 1 maps to (0,1) in Z_4 x Z_2 only if 4 | M_12 * 2; M_12 = 1 fails.
    g = FiniteAbelianGroup([4, 2])
    with pytest.raises(ValueError):
        GroupEndomorphism(g, [[1, 1], [0, 1]])


def test_certify_automorphism_cyclic() -> None:
    g = FiniteAbelianGroup([5])
    m = GroupEndomorphism(g, [[2]])
    assert m.is_automorphism
    assert np.array_equal(m.inverse.matrix, [[3]])


def test_certify_rejects_non_injective() -> None:
    g = FiniteAbelianGroup([4])
    m = GroupEndomorphism(g, [[2]])
    assert not m.is_automorphism
    with pytest.raises(ValueError):
        m.inverse


def test_certified_family_on_z9() -> None:
    g = FiniteAbelianGroup([9])
    m = GroupEndomorphism(g, [[2]])
    assert m.is_automorphism and np.array_equal(m.inverse.matrix, [[5]])
    one_minus = GroupEndomorphism(g, [[-1]])
    assert one_minus.is_automorphism and image(one_minus, (1,)) == (8,)
    one_minus_inv = GroupEndomorphism(g, [[1 - 5]])
    assert one_minus_inv.is_automorphism and image(one_minus_inv, (1,)) == (5,)


def test_automorphism_is_bijection_brute_force() -> None:
    g = FiniteAbelianGroup([4, 6])
    m = GroupEndomorphism(g, [[1, 0], [0, 5]])
    assert m.is_automorphism
    images = {image(m, g.coords(i)) for i in range(g.size)}
    assert len(images) == g.size


def test_inverse_composes_to_identity() -> None:
    g = FiniteAbelianGroup([9])
    m = GroupEndomorphism(g, [[2]])
    inv = m.inverse
    for i in range(g.size):
        x = g.coords(i)
        assert image(inv, image(m, x)) == x
        assert image(m, image(inv, x)) == x


def test_modulus_is_one_for_automorphisms() -> None:
    # mu(G) / mu(M G) = 1: an automorphism's image has every element
    for spec, mat in (("7", [[3]]), ("5x5", [[2, 0], [0, 3]]), ("9", [[2]])):
        g = parse_group(spec)
        m = GroupEndomorphism(g, mat)
        assert m.is_automorphism
        assert g.measure(g.size) / g.measure(np.unique(m.permutation).size) == 1.0


def test_modulus_rejects_non_automorphism() -> None:
    # a non-injective endomorphism has no inverse, so no modulus
    g = FiniteAbelianGroup([4])
    m = GroupEndomorphism(g, [[2]])
    assert np.unique(m.permutation).size < g.size
    with pytest.raises(ValueError):
        m.inverse


def test_change_of_variables_preserves_sums() -> None:
    g = FiniteAbelianGroup([7])
    m = GroupEndomorphism(g, [[3]])
    rng = np.random.default_rng(0)
    f = rng.standard_normal(7)
    direct = sum(f[g.index(image(m, g.coords(i)))] for i in range(7))
    assert direct == pytest.approx(float(np.sum(f)))


def test_dual_automorphism_identity_and_cyclic() -> None:
    g = FiniteAbelianGroup([5])
    ident = GroupEndomorphism.identity(g)
    assert np.array_equal(ident.dual().matrix, ident.matrix)
    m = GroupEndomorphism(g, [[2]])
    assert np.array_equal(m.dual().matrix, [[2]])


def test_dual_automorphism_defining_pairing() -> None:
    g = FiniteAbelianGroup([4, 2])
    m = GroupEndomorphism(g, [[1, 0], [2, 1]])
    assert m.is_automorphism
    mstar = m.dual()
    for x in range(g.size):
        for xi in range(g.size):
            lhs = g.character(image(m, g.coords(x)), g.coords(xi))
            rhs = g.character(g.coords(x), image(mstar, g.coords(xi)))
            assert abs(lhs - rhs) < 1e-12


def test_dual_automorphism_contravariant() -> None:
    g = FiniteAbelianGroup([5, 5])
    m = GroupEndomorphism(g, [[2, 0], [0, 3]])
    n = GroupEndomorphism(g, [[1, 1], [0, 1]])
    # the composite x -> m(n(x)), entries reduced mod 5
    lhs = GroupEndomorphism(g, (m.matrix @ n.matrix) % 5).dual()
    rhs = (n.dual().matrix @ m.dual().matrix) % 5
    assert np.array_equal(lhs.matrix, rhs)


def test_permutation_matches_matrix_image() -> None:
    g = FiniteAbelianGroup([9])
    m = GroupEndomorphism(g, [[2]])
    perm = m.permutation
    for i in range(g.size):
        mx = (m.matrix @ np.array(g.coords(i))) % np.array(g.orders)
        assert perm[i] == g.index(tuple(int(c) for c in mx))


@settings(max_examples=40, deadline=None)
@given(small_orders, st.integers(0, 10**6), st.integers(0, 10**6))
def test_add_sub_inverse_property(orders, a, b) -> None:
    g = FiniteAbelianGroup(orders)
    x, y = a % g.size, b % g.size
    assert g.sub_index[g.add_index[x, y], y] == x
    assert g.add_index[x, g.neg_index[x]] == 0
