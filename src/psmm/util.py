"""Serialization of exact numbers and infinity to and from JSON."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


def num_to_json(x):
    if x is None:
        return None
    if x == math.inf:
        return "inf"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else str(x)
    return x


def num_from_json(x):
    if x is None:
        return None
    if x == "inf":
        return math.inf
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad numeric literal {x!r}") from e
    if isinstance(x, (int,)):
        return Fraction(x)
    return float(x)

