"""Finite abelian groups, their duals, characters, and automorphisms.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k} carrying a
uniform Haar weight (every atom has the same measure).  Elements are stored
either as coordinate tuples or as flat indices in C order (last coordinate
varies fastest), which matches the layout of ``np.fft.fftn``.

The dual group has the same cyclic orders; its Haar weight is pinned to
``1/(haar_weight * |G|)`` so the Plancherel identity is exact rather than
holding up to a constant.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "FiniteAbelianGroup",
    "GroupEndomorphism",
    "parse_group",
]

ElementLike = Union[int, Sequence[int]]


class FiniteAbelianGroup:
    """Z_{n_1} x ... x Z_{n_k} with a uniform atom weight."""

    def __init__(self, orders: Iterable[int], haar_weight: float = 1.0):
        orders = tuple(int(n) for n in orders)
        if len(orders) == 0:
            raise ValueError("orders must contain at least one factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        if not haar_weight > 0:
            raise ValueError(f"haar_weight must be positive, got {haar_weight}")
        self.orders: Tuple[int, ...] = orders
        self.haar_weight = float(haar_weight)
        self.rank = len(orders)
        self.size = math.prod(orders)

    def __repr__(self) -> str:
        spec = "x".join(str(n) for n in self.orders)
        return f"FiniteAbelianGroup({spec!r}, haar_weight={self.haar_weight!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteAbelianGroup)
            and self.orders == other.orders
            and self.haar_weight == other.haar_weight
        )

    def __hash__(self) -> int:
        return hash((self.orders, self.haar_weight))

    # -- element indexing -------------------------------------------------

    @cached_property
    def elements(self) -> np.ndarray:
        """All coordinate vectors, shape (|G|, k), row i = coords of index i."""
        grids = np.indices(self.orders).reshape(self.rank, self.size)
        out = grids.T.astype(np.int64)
        out.setflags(write=False)
        return out

    def index(self, x: ElementLike) -> int:
        """Flat index of an element given as coords (reduced mod n) or index."""
        if isinstance(x, (int, np.integer)):
            i = int(x)
            if not 0 <= i < self.size:
                raise ValueError(f"element index {i} outside [0, {self.size})")
            return i
        coords = tuple(int(c) for c in x)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coords, got {len(coords)}")
        reduced = tuple(c % n for c, n in zip(coords, self.orders))
        return int(np.ravel_multi_index(reduced, self.orders))

    def coords(self, i: int) -> Tuple[int, ...]:
        """Coordinate tuple of the element with flat index i."""
        return tuple(int(c) for c in self.elements[self.index(i)])

    @property
    def identity(self) -> Tuple[int, ...]:
        return (0,) * self.rank

    # -- dual group and measures ------------------------------------------

    @property
    def dual_weight(self) -> float:
        # pinned so that Plancherel holds with constant exactly 1
        return 1.0 / (self.haar_weight * self.size)

    @cached_property
    def dual(self) -> "FiniteAbelianGroup":
        """The dual group: same orders, Plancherel-normalized weight."""
        return FiniteAbelianGroup(self.orders, haar_weight=self.dual_weight)

    def measure(self, n_atoms: int) -> float:
        return self.haar_weight * n_atoms

    # -- translates and cached arithmetic tables ----------------------------

    def _doubled(self, v: np.ndarray) -> np.ndarray:
        """v, given in flat order, as a fresh array doubled along every axis.

        Entry c + n_m along axis m repeats entry c, so v(x + u) sits at
        coordinates x + u and v(x - u) at x - u + (n_1, ..., n_k), with no
        reduction mod the orders: translates are read by strides or by flat
        offsets into this array.
        """
        ext = v.reshape(self.orders)
        for axis in range(self.rank):
            ext = np.concatenate((ext, ext), axis=axis)
        return ext

    def _translates(self, v: np.ndarray, sign: int = 1) -> np.ndarray:
        """The (|G|, |G|) array of v(sign * x + u) at [x, u], sign = 1 or -1.

        v(x + u) is a view of ``_doubled(v)`` with equal strides on x and u,
        and v(u - x) one with the x strides negated.  The view is copied
        out: no index table is read or built.
        """
        ext = self._doubled(v)
        steps = ext.strides
        offset = 0 if sign == 1 else sum(n * s for n, s in zip(self.orders, steps))
        view = np.ndarray(
            self.orders * 2,
            ext.dtype,
            ext,
            offset,
            tuple(sign * s for s in steps) + steps,
        )
        return np.ascontiguousarray(view).reshape(self.size, self.size)

    @cached_property
    def add_index(self) -> np.ndarray:
        """Table a[i, j] = index(x_i + x_j), shape (|G|, |G|).

        Kept for callers outside the library; no transform reads it.
        """
        out = self._translates(np.arange(self.size, dtype=np.int64))
        out.setflags(write=False)
        return out

    @cached_property
    def neg_index(self) -> np.ndarray:
        """Table n[i] = index(-x_i)."""
        neg = (-self.elements) % np.array(self.orders)
        out = np.ravel_multi_index(
            tuple(neg[:, m] for m in range(self.rank)), self.orders
        ).astype(np.int64)
        out.setflags(write=False)
        return out

    @cached_property
    def sub_index(self) -> np.ndarray:
        """Table s[i, j] = index(x_i - x_j), i.e. n(x_j - x_i) with n =
        ``neg_index``.  Kept for callers outside the library; no transform
        reads it."""
        out = self._translates(self.neg_index, -1)
        out.setflags(write=False)
        return out

    # -- characters ---------------------------------------------------------

    @cached_property
    def character_table(self) -> np.ndarray:
        """chi[i, j] = <x_i, xi_j> = exp(2*pi*i * sum_m x_m*xi_m/n_m).

        The phase is accumulated as an exact integer multiple of 1/lcm(orders)
        before exponentiating, so the table is accurate to machine rounding.
        """
        chi = self.characters(self.elements.T)
        chi.setflags(write=False)
        return chi

    def characters(self, xi: np.ndarray) -> np.ndarray:
        """<x_i, xi> for every element x_i, with xi given by its coordinates.

        A (k,) vector gives one column of ``character_table`` and a (k, n)
        array gives n columns, with the same integer phases, so a column is
        available without building the table.
        """
        lcm = math.lcm(*self.orders)
        scale = np.array([lcm // n for n in self.orders], dtype=np.int64)
        num = (self.elements * scale) @ xi % lcm
        return np.exp(2j * np.pi * (num / lcm))

    def character(self, x: ElementLike, xi: ElementLike) -> complex:
        """The value of the character xi at x, read from one column of
        ``character_table`` without building the table."""
        return complex(self.characters(self.elements[self.index(xi)])[self.index(x)])


def parse_group(spec: str, haar_weight: float = 1.0) -> FiniteAbelianGroup:
    """Build a group from a spec string like ``"12"`` or ``"4x6"``."""
    try:
        orders = [int(part) for part in spec.lower().split("x")]
    except ValueError as exc:
        raise ValueError(f"cannot parse group spec {spec!r}") from exc
    return FiniteAbelianGroup(orders, haar_weight=haar_weight)


class GroupEndomorphism:
    """A homomorphism x -> Mx given by a k x k integer matrix.

    Well-definedness requires n_i | M_ij * n_j for every entry, which is
    checked at construction.  Automorphism status is certified by a
    brute-force bijectivity check over all elements; the inverse matrix is
    reconstructed from the preimages of the standard generators and
    re-verified against the element permutation.
    """

    def __init__(self, group: FiniteAbelianGroup, matrix: Iterable[Iterable[int]]):
        self.group = group
        m = np.array([[int(v) for v in row] for row in matrix], dtype=np.int64)
        k = group.rank
        if m.shape != (k, k):
            raise ValueError(f"matrix must be {k}x{k}, got shape {m.shape}")
        n = group.orders
        for i in range(k):
            for j in range(k):
                if (m[i, j] * n[j]) % n[i] != 0:
                    raise ValueError(
                        f"entry M[{i}][{j}]={m[i, j]} breaks well-definedness: "
                        f"{n[i]} does not divide {m[i, j]}*{n[j]}"
                    )
        m.setflags(write=False)
        self.matrix = m

    def __repr__(self) -> str:
        return f"GroupEndomorphism({self.group!r}, {self.matrix.tolist()!r})"

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "GroupEndomorphism":
        return cls(group, np.eye(group.rank, dtype=np.int64))

    @cached_property
    def permutation(self) -> np.ndarray:
        """indices[i] = index(M x_i) for every element, shape (|G|,)."""
        g = self.group
        img = (g.elements @ self.matrix.T) % np.array(g.orders)
        out = np.ravel_multi_index(
            tuple(img[:, m] for m in range(g.rank)), g.orders
        ).astype(np.int64)
        out.setflags(write=False)
        return out

    def __sub__(self, other: "GroupEndomorphism") -> "GroupEndomorphism":
        if other.group.orders != self.group.orders:
            raise ValueError("cannot subtract endomorphisms of different groups")
        return GroupEndomorphism(self.group, self.matrix - other.matrix)

    @cached_property
    def complement(self) -> "GroupEndomorphism":
        """I - self, built once: the Wigner, Weyl and dilation transforms
        read its permutation, inverse and automorphism status on every call."""
        return GroupEndomorphism.identity(self.group) - self

    @cached_property
    def _certificate(self) -> Tuple[bool, Optional["GroupEndomorphism"]]:
        g = self.group
        perm = self.permutation
        if np.unique(perm).size != g.size:
            return False, None
        invperm = np.empty(g.size, dtype=np.int64)
        invperm[perm] = np.arange(g.size)
        # column j of the inverse matrix = coords of the preimage of e_j
        cols = []
        for j in range(g.rank):
            e_j = [0] * g.rank
            e_j[j] = 1
            cols.append(g.elements[invperm[g.index(e_j)]])
        inv = GroupEndomorphism(g, np.column_stack(cols))
        if not np.array_equal(inv.permutation[perm], np.arange(g.size)):
            raise AssertionError("extracted inverse fails to undo the permutation")
        return True, inv

    @property
    def is_automorphism(self) -> bool:
        return self._certificate[0]

    @property
    def inverse(self) -> "GroupEndomorphism":
        ok, inv = self._certificate
        if not ok:
            raise ValueError("endomorphism is not an automorphism")
        return inv

    def dual(self) -> "GroupEndomorphism":
        """The dual map M* on the dual group, with <Mx, xi> = <x, M* xi>.

        Entries are M*[j][i] = M[i][j] * n_j / n_i; well-definedness of M
        makes every entry an integer.
        """
        g = self.group
        n = g.orders
        k = g.rank
        star = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                num = self.matrix[i, j] * n[j]
                star[j, i] = (num // n[i]) % n[j]
        return GroupEndomorphism(g.dual, star)

