"""Extended exponent arithmetic: exact rationals plus infinity.

Lorentz and Lebesgue exponents are kept as :class:`fractions.Fraction`
values (with ``math.inf`` for the endpoint cases) until the moment a
norm is actually evaluated, so index relations such as 1/u + 1/v = 1 + 1/w
can be checked exactly rather than within floating-point slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = [
    "Exponent",
    "ExponentLike",
    "parse_exponent",
    "is_inf",
    "recip",
    "conjugate",
    "format_exponent",
]

#: A finite exponent is a Fraction; the infinite endpoint is ``math.inf``.
Exponent = Union[Fraction, float]

#: Anything parse_exponent accepts.
ExponentLike = Union[Fraction, float, int, str]


def parse_exponent(text: Union[str, int, float, Fraction]) -> Exponent:
    """Parse ``"3/2"``, ``"2"``, ``"inf"`` (or a number) into an Exponent."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (int,)):
        return Fraction(text)
    if isinstance(text, float):
        if math.isinf(text):
            return math.inf
        return Fraction(text).limit_denominator(10**9)
    s = str(text).strip().lower()
    if s in {"inf", "infinity", "oo"}:
        return math.inf
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse exponent {text!r}") from exc


def is_inf(x: Exponent) -> bool:
    return isinstance(x, float) and math.isinf(x)


def recip(x: Exponent) -> Exponent:
    """1/x on [0, inf], with 1/inf = 0 and 1/0 = inf."""
    if is_inf(x):
        return Fraction(0)
    if x == 0:
        return math.inf
    return 1 / Fraction(x)


def conjugate(x: Exponent) -> Exponent:
    """The conjugate exponent x' with 1/x + 1/x' = 1; requires x >= 1."""
    if is_inf(x):
        return Fraction(1)
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"conjugate exponent requires x >= 1, got {x}")
    if x == 1:
        return math.inf
    return x / (x - 1)


def format_exponent(x: Exponent) -> str:
    """Render an exponent the way the CLI accepts it back."""
    if is_inf(x):
        return "inf"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
