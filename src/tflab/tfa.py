"""Fourier transform, STFT, tau-Wigner transforms, and tau-Weyl operators.

Every character sum sum_x h(x) conj<x, xi> runs through one engine,
``_dft_rows``: it reshapes each row to the group's cyclic orders and takes
one FFT per axis, so a transform of |G| rows costs O(|G|^2 log |G|) and
needs no dense character table (the table is read only for pointwise
phases in the Rihaczek closed forms and ``wigner_factorization_check``).
Each transform allocates one |G| x |G| complex array, the one it returns,
and every later step (conjugation, products, the FFTs, the Haar scale)
runs in place in it: ``stft`` copies the translates g(y - x) out of a
strided view (``FiniteAbelianGroup._translates``) and works in that copy,
and ``wigner_tau`` fills its result a block of rows at a time by flat
offsets into f and conj g doubled along every axis
(``FiniteAbelianGroup._doubled``).  No transform reads the |G| x |G| index
tables.  ``weyl_operator`` also gathers its result through one flat index
array of |G| x |G| int64.  Haar weights are written out at each caller so
that measure-scaling tests exercise real code paths.  ``fourier`` keeps the
literal character sum as the reference route; the independent oracles
(inner products, point-mass assembly, table gathers) live in the tests.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .exponents import ExponentLike, conjugate, is_inf, parse_exponent
from .groups import ElementLike, FiniteAbelianGroup, GroupEndomorphism
from .lorentz import MeasuredFunction, _lorentz_norm

__all__ = [
    "GroupFunction",
    "TFArray",
    "fourier",
    "fourier_fft",
    "tf_shift",
    "stft",
    "stft_lebesgue_bound_check",
    "wigner_tau",
    "rihaczek",
    "conjugate_rihaczek",
    "a_tau",
    "stft_dilate",
    "wigner_factorization_check",
    "tf_pairing",
    "weyl_operator",
    "weyl_apply",
    "hausdorff_young_check",
]


class GroupFunction:
    """A dense complex function on a finite abelian group."""

    def __init__(self, group: FiniteAbelianGroup, values: Sequence[complex]):
        self.group = group
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (group.size,):
            raise ValueError(
                f"expected {group.size} values for {group!r}, "
                f"got shape {self.values.shape}"
            )

    @classmethod
    def delta(
        cls, group: FiniteAbelianGroup, at: ElementLike = 0
    ) -> "GroupFunction":
        values = np.zeros(group.size, dtype=np.complex128)
        values[group.index(at)] = 1.0
        return cls(group, values)

    @classmethod
    def constant(cls, group: FiniteAbelianGroup, c: complex = 1.0) -> "GroupFunction":
        return cls(group, np.full(group.size, c, dtype=np.complex128))

    def __repr__(self) -> str:
        return f"GroupFunction({self.group!r})"

    def __call__(self, x: ElementLike) -> complex:
        return complex(self.values[self.group.index(x)])

    def inner(self, other: "GroupFunction") -> complex:
        """<f, g> = haar_weight * sum f(x) conj(g(x))."""
        self._check_group(other)
        return complex(
            self.group.haar_weight * np.vdot(other.values, self.values)
        )

    def l2_norm(self) -> float:
        return math.sqrt(
            self.group.haar_weight * float(np.sum(np.abs(self.values) ** 2))
        )

    def lebesgue_norm(self, p: ExponentLike) -> float:
        p = parse_exponent(p)
        mags = np.abs(self.values)
        if is_inf(p):
            return float(mags.max()) if mags.size else 0.0
        pf = float(p)
        if pf <= 0:
            raise ValueError(f"exponent p must be positive, got {p}")
        return float(
            (self.group.haar_weight * np.sum(mags**pf)) ** (1.0 / pf)
        )

    def lorentz_norm(self, p: ExponentLike, q: ExponentLike) -> float:
        return _lorentz_norm(np.abs(self.values), self.group.haar_weight, p, q)

    def to_measured(self) -> MeasuredFunction:
        g = self.group
        domain = "x".join(str(n) for n in g.orders)
        return MeasuredFunction(
            np.arange(g.size), np.full(g.size, g.haar_weight), self.values, domain
        )

    def _check_group(self, other: "GroupFunction") -> None:
        if self.group != other.group:
            raise ValueError("functions live on different groups")


class TFArray:
    """A complex function on G x G^, stored x-major as a (|G|, |G|) array.

    Every atom of the product carries weight haar_weight(G) * haar_weight(G^),
    which equals 1/|G| at any measure scale by the Plancherel normalization.
    """

    def __init__(self, group: FiniteAbelianGroup, values: np.ndarray):
        self.group = group
        self.values = np.asarray(values, dtype=np.complex128)
        if self.values.shape != (group.size, group.size):
            raise ValueError(
                f"expected shape {(group.size, group.size)}, "
                f"got {self.values.shape}"
            )

    @property
    def atom_weight(self) -> float:
        return self.group.haar_weight * self.group.dual_weight

    def __repr__(self) -> str:
        return f"TFArray({self.group!r})"

    def l2_norm(self) -> float:
        return math.sqrt(self.atom_weight * float(np.sum(np.abs(self.values) ** 2)))

    def lebesgue_norm(self, q: ExponentLike) -> float:
        q = parse_exponent(q)
        mags = np.abs(self.values)
        if is_inf(q):
            return float(mags.max())
        qf = float(q)
        if qf <= 0:
            raise ValueError(f"exponent q must be positive, got {q}")
        return float((self.atom_weight * np.sum(mags**qf)) ** (1.0 / qf))

    def lorentz_norm(self, p: ExponentLike, q: ExponentLike) -> float:
        return _lorentz_norm(np.abs(self.values).ravel(), self.atom_weight, p, q)

    def to_measured(self) -> MeasuredFunction:
        g = self.group
        n = g.size * g.size
        spec = "x".join(str(m) for m in g.orders)
        return MeasuredFunction(
            np.arange(n),
            np.full(n, self.atom_weight),
            self.values.ravel(),
            f"{spec}*dual",
        )


# -- Fourier ---------------------------------------------------------------


def _dft_rows(grp: FiniteAbelianGroup, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows @ conj(character_table) over the trailing axis, written into out.

    One ``np.fft.fft`` per cyclic factor, last axis first: the loop
    ``np.fft.fftn`` runs, without its per-call argument handling.  The first
    FFT reads rows and writes out, the others run in out, so out may be rows
    itself when the caller owns it; it must be C-contiguous.
    """
    lead = rows.shape[:-1]
    src = rows.reshape(lead + grp.orders)
    dst = out.reshape(src.shape)
    for axis in range(len(lead) + grp.rank - 1, len(lead) - 1, -1):
        np.fft.fft(src, axis=axis, out=dst)
        src = dst
    return dst.reshape(rows.shape)


def fourier(f: GroupFunction) -> GroupFunction:
    """f^(xi) = haar_weight * sum_x f(x) conj<x, xi>, on the dual group.

    The literal character sum against the dense table: the reference route
    that ``fourier_fft``, the library's transform, is checked against.
    """
    g = f.group
    out = g.haar_weight * (f.values @ np.conj(g.character_table))
    return GroupFunction(g.dual, out)


def fourier_fft(f: GroupFunction) -> GroupFunction:
    """f^ by the per-factor FFT; agrees with ``fourier`` within 1e-12."""
    g = f.group
    out = _dft_rows(g, f.values, np.empty(g.size, dtype=np.complex128))
    return GroupFunction(g.dual, np.multiply(g.haar_weight, out, out=out))


def tf_shift(f: GroupFunction, x: ElementLike, xi: ElementLike) -> GroupFunction:
    """pi(x, xi) f = M_xi T_x f, i.e. y -> <y, xi> f(y - x)."""
    g = f.group
    shift = g.elements[g.index(x)]
    translated = np.roll(f.values.reshape(g.orders), shift, axis=tuple(range(g.rank)))
    return GroupFunction(g, g.characters(g.elements[g.index(xi)]) * translated.reshape(-1))


# -- STFT --------------------------------------------------------------------


def stft(f: GroupFunction, g: GroupFunction) -> TFArray:
    """V_g f(x, xi) = <f, pi(x, xi) g>, evaluated as [f * conj(T_x g)]^(xi)."""
    f._check_group(g)
    grp = f.group
    # H[x, y] = f(y) * conj g(y - x)
    h = grp._translates(g.values, -1)
    np.conj(h, out=h)
    np.multiply(f.values, h, out=h)
    _dft_rows(grp, h, h)
    return TFArray(grp, np.multiply(grp.haar_weight, h, out=h))


def stft_lebesgue_bound_check(
    f: GroupFunction,
    g: GroupFunction,
    p: ExponentLike,
    q: ExponentLike,
) -> Tuple[bool, float]:
    """||V_g f||_{L^q(G x G^)} <= ||f||_{p'} ||g||_p with constant 1.

    Requires q in [2, inf] and p in [q', q].  Returns (holds, lhs/rhs ratio);
    the ratio is 0 when both sides vanish.
    """
    p = parse_exponent(p)
    q = parse_exponent(q)
    if not is_inf(q) and q < 2:
        raise ValueError(f"q must lie in [2, inf], got {q}")
    qc = conjugate(q)
    below_q = is_inf(q) or (not is_inf(p) and p <= q)
    if not (below_q and qc <= p):
        raise ValueError(f"p must lie in [q', q] = [{qc}, {q}], got {p}")
    lhs = stft(f, g).lebesgue_norm(q)
    rhs = f.lebesgue_norm(conjugate(p)) * g.lebesgue_norm(p)
    if rhs == 0:
        return (lhs == 0, 0.0)
    ratio = lhs / rhs
    return (ratio <= 1 + 1e-12, ratio)


# -- tau-Wigner ---------------------------------------------------------------

#: entries per row block of the ``wigner_tau`` gather: its index and conj g
#: blocks (1.5 MiB together) stay in cache and small beside a large result
_GATHER_BLOCK = 1 << 16


def wigner_tau(
    f: GroupFunction, g: GroupFunction, tau: GroupEndomorphism
) -> TFArray:
    """W_tau(f,g)(x,xi) = w * sum_y f(x + tau y) conj g(x - (I-tau) y) conj<y,xi>."""
    f._check_group(g)
    grp = f.group
    if tau.group.orders != grp.orders:
        raise ValueError("endomorphism acts on a different group")
    # A[x, y] = f(x + tau y) * conj g(x - (I - tau) y), gathered a block of
    # rows at a time by flat offsets into f and conj g doubled on every axis:
    # x + u sits at at[x] + at[u], and x - u at at[x] + corner - at[u]
    fd = grp._doubled(f.values)
    gd = grp._doubled(g.values)
    np.conj(gd, out=gd)
    steps = np.array(fd.strides) // fd.itemsize
    at = grp.elements @ steps
    f_cols = at[tau.permutation]
    g_cols = np.array(grp.orders) @ steps - at[tau.complement.permutation]
    n = grp.size
    out = np.empty((n, n), dtype=np.complex128)
    step = max(1, _GATHER_BLOCK // n)
    idx = np.empty((min(step, n), n), dtype=np.int64)
    conj_g = np.empty(idx.shape, dtype=np.complex128)
    # every offset is in range; mode "clip" lets take write straight into
    # out, where the default mode would buffer it
    for lo in range(0, n, step):
        rows = out[lo : lo + step]
        m = rows.shape[0]
        np.add(at[lo : lo + m, None], f_cols, out=idx[:m])
        np.take(fd, idx[:m], out=rows, mode="clip")
        np.add(at[lo : lo + m, None], g_cols, out=idx[:m])
        np.take(gd, idx[:m], out=conj_g[:m], mode="clip")
        np.multiply(rows, conj_g[:m], out=rows)
    _dft_rows(grp, out, out)
    return TFArray(grp, np.multiply(grp.haar_weight, out, out=out))


def rihaczek(f: GroupFunction, g: GroupFunction) -> TFArray:
    """Closed form of W_tau at tau = 0: f(x) conj<x, xi> conj g^(xi)."""
    f._check_group(g)
    grp = f.group
    ghat = fourier_fft(g).values
    values = (
        f.values[:, None] * np.conj(grp.character_table) * np.conj(ghat)[None, :]
    )
    return TFArray(grp, values)


def conjugate_rihaczek(f: GroupFunction, g: GroupFunction) -> TFArray:
    """Closed form of W_tau at tau = I: conj g(x) <x, xi> f^(xi)."""
    f._check_group(g)
    grp = f.group
    fhat = fourier_fft(f).values
    values = (
        np.conj(g.values)[:, None] * grp.character_table * fhat[None, :]
    )
    return TFArray(grp, values)


# -- dilations and the Wigner-STFT factorization ------------------------------


def a_tau(g: GroupFunction, tau: GroupEndomorphism) -> GroupFunction:
    """A_tau g = g o (I - tau^{-1}); needs tau and I - tau^{-1} invertible."""
    grp = g.group
    if tau.group.orders != grp.orders:
        raise ValueError("endomorphism acts on a different group")
    if not tau.is_automorphism:
        raise ValueError("a_tau requires tau to be an automorphism")
    comp = tau.inverse.complement
    if not comp.is_automorphism:
        raise ValueError("a_tau requires I - tau^{-1} to be an automorphism")
    return GroupFunction(grp, g.values[comp.permutation])


def stft_dilate(vgf: TFArray, tau: GroupEndomorphism) -> TFArray:
    """Relabel V(x, xi) -> V((I-tau)^{-1} x, (tau^{-1})* xi).

    A bijective change of coordinates on G x G^; every rearrangement-based
    quantity is preserved exactly.
    """
    grp = vgf.group
    if tau.group.orders != grp.orders:
        raise ValueError("endomorphism acts on a different group")
    if not tau.is_automorphism:
        raise ValueError("stft_dilate requires tau to be an automorphism")
    one_minus = tau.complement
    if not one_minus.is_automorphism:
        raise ValueError("stft_dilate requires I - tau to be an automorphism")
    x_perm = one_minus.inverse.permutation
    xi_perm = tau.inverse.dual().permutation
    return TFArray(grp, vgf.values[np.ix_(x_perm, xi_perm)])


def wigner_factorization_check(
    f: GroupFunction, g: GroupFunction, tau: GroupEndomorphism
) -> float:
    """Max |W_tau(f,g) - Delta^{-1} <x,(tau^{-1})* xi> V^tau_{A_tau g} f|.

    Requires tau, I - tau, and I - tau^{-1} to all be automorphisms.  Both
    sides are evaluated independently on every (x, xi).  The modulus Delta
    of an automorphism of a finite group is 1, so no factor is applied.
    """
    grp = f.group
    lhs = wigner_tau(f, g, tau).values
    dilated = stft_dilate(stft(f, a_tau(g, tau)), tau)
    inv_dual_perm = tau.inverse.dual().permutation
    phase = grp.character_table[:, inv_dual_perm]  # [x, xi] -> <x, (tau^{-1})* xi>
    rhs = phase * dilated.values
    return float(np.max(np.abs(lhs - rhs)))


# -- tau-Weyl operators --------------------------------------------------------


def tf_pairing(phi: TFArray, psi: TFArray) -> complex:
    """The bilinear pairing <phi, psi> = sum of atom_weight * phi * psi.

    The Weyl duality below needs the second factor unconjugated: pairing the
    symbol sesquilinearly against W_tau(f, g) would be antilinear in f while
    <K f, g> is linear in f, so no operator could satisfy it.
    """
    if phi.group != psi.group:
        raise ValueError("arrays live on different groups")
    return complex(phi.atom_weight * np.sum(phi.values * psi.values))


def weyl_operator(phi: TFArray, tau: GroupEndomorphism) -> np.ndarray:
    """Matrix K of the operator defined by <K f, g>_{L^2} = <phi, W_tau(f, g)>.

    The right-hand pairing is the bilinear one (tf_pairing).  Applying the
    identity to point masses f = delta_b, g = delta_a gives the closed form
    K[a, b] = (1/|G|) * sum_xi phi(b - tau(b-a), xi) conj<b-a, xi>,
    assembled here from one FFT per row of phi and one flat gather.  Since
    b - tau(b - a) = tau a + (I - tau) b, both indices are read off
    translates of the element indices.
    """
    grp = phi.group
    if tau.group.orders != grp.orders:
        raise ValueError("endomorphism acts on a different group")
    n = grp.size
    # S[x, d] = sum_xi phi(x, xi) conj<d, xi>
    s = _dft_rows(grp, phi.values, np.empty((n, n), dtype=np.complex128))
    ids = np.arange(n, dtype=np.int64)
    # flat index x * n + d of (x, d) = (tau a + (I - tau) b, b - a) in S
    flat = np.take(grp._translates(ids), tau.permutation, axis=0)
    flat = np.take(flat, tau.complement.permutation, axis=1)
    flat *= n
    flat += grp._translates(ids, -1)
    k = np.take(s, flat)
    return np.divide(k, n, out=k)


def weyl_apply(k: np.ndarray, f: GroupFunction) -> GroupFunction:
    return GroupFunction(f.group, k @ f.values)


# -- Hausdorff-Young on Lorentz spaces ----------------------------------------


def hausdorff_young_check(
    f: GroupFunction, p: ExponentLike, q: ExponentLike
) -> Tuple[float, float, float]:
    """||f^||_{L^{p',q}(G^)} vs ||f||_{L^{p,q}(G)} for p in (1, 2).

    The constant is not pinned by theory at this generality; returns
    (lhs, rhs, lhs/rhs) so harnesses can record it empirically.
    """
    p = parse_exponent(p)
    if is_inf(p) or not 1 < p < 2:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    lhs = fourier_fft(f).lorentz_norm(conjugate(p), q)
    rhs = f.lorentz_norm(p, q)
    ratio = lhs / rhs if rhs else (0.0 if lhs == 0 else math.inf)
    return lhs, rhs, ratio
