"""Brute-force oracles that the library's transforms are checked against.

Each evaluates its quantity entry by entry from its defining pairing,
not from the closed form the library assembles it with.
"""

from __future__ import annotations

import numpy as np

from tflab import (
    GroupEndomorphism,
    GroupFunction,
    TFArray,
    tf_pairing,
    tf_shift,
    wigner_tau,
)


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
