"""
Bilinear half-line kernels and their Lorentz-type functionals
=============================================================

Interpolation-style bounds reduce to exact integrals of step functions
against kernels on (0, infinity).  This script evaluates the canonical
kernel min(sqrt(rs/t), r, s) exactly, cross-checks a separable variant
against its closed-form factorization, checks the quadrature on a kernel
without a band decomposition against its hand-integrated value, and
traces how the associated t-functional decays like t^{-1/2}.
"""

from __future__ import annotations

import math

from tflab import (
    ETA_SEPARABLE,
    ETA_SQRT_MIN,
    EtaSet,
    PiecewiseMonomial,
    StepFunction,
    calderon_apply,
    calderon_separable_value,
    calderon_t_functional,
    halfline_lorentz_functional,
    hardy_check,
    young_check,
)

# -- the unit indicator pair: exact value 2 at t = 1 -------------------------------------

one = StepFunction([1.0], [1.0], monotone=True)
for t in (0.25, 1.0, 4.0, 100.0):
    val = calderon_apply(ETA_SQRT_MIN, one, one, t)
    print(f"S(1,1)({t:7.2f}) = {val:.10f}   t^(1/2)*value = {math.sqrt(t) * val:.6f}")

# the separable kernel factorizes into sqrt-moments, one per argument
f = StepFunction([0.5, 2.0], [3.0, 1.0], monotone=True)
g = StepFunction([1.0, 4.0], [2.0, 0.5], monotone=True)
exact = calderon_apply(ETA_SEPARABLE, f, g, 2.0)
split = calderon_separable_value(f, g, 2.0)
print(f"separable kernel: exact {exact:.10f}, factorized {split:.10f}")

# quadrature covers kernels without a closed decomposition: min(r, sqrt(s))
# on 1_(0,B] x 1_(0,C] integrates by hand to 2 sqrt(C) (2 + log(B / sqrt(C)))
# when C <= B^2
r_sqrt_s = EtaSet([(1, 0, 0), (0, "1/2", 0)])
B, C = 2.0, 1.0
quad = calderon_apply(r_sqrt_s, StepFunction([B], [1.0]), StepFunction([C], [1.0]), 2.0)
closed = 2 * math.sqrt(C) * (2 + math.log(B / math.sqrt(C)))
print(f"min(r, sqrt(s)): quadrature {quad:.10f}, closed form {closed:.10f}")

# -- Hardy and Young inequalities on the half line ----------------------------------------

phi = StepFunction([0.3, 1.0, 5.0], [4.0, 2.0, 0.5])
res = hardy_check(phi, 0.5, 2)
print(f"Hardy forms with constant {res.constant}: holds = {res.holds}")

# Young needs supports away from 0, where the group measure du/u piles up
f0 = StepFunction([0.5, 2.0, 4.0], [0.0, 3.0, 1.0])
g0 = StepFunction([1.0, 3.0, 9.0], [0.0, 2.0, 0.5])
lhs, rhs, ok = young_check(f0, g0, 1.5, 3, math.inf)
print(f"multiplicative Young: {lhs:.6f} <= {rhs:.6f} ({ok})")

# -- the t-functional and a sharp Lorentz evaluation --------------------------------------

# ||min(1, t^{-1/2})||_{q,1} over (0, inf) equals q^2/(q-2)
h = PiecewiseMonomial.bounded_inverse_sqrt()
for q in (3, 4, 6):
    val = halfline_lorentz_functional(h, q, 1)
    print(f"q = {q}: functional = {val:.10f}, q^2/(q-2) = {q * q / (q - 2):.10f}")

# integrating S(f, g) in t with Lorentz weights gives the full bilinear functional
total = calderon_t_functional(f, g, q=4, w=1)
print(f"t-functional of (f, g) at (q, w) = (4, 1): {total:.8f}")
