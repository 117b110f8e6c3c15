"""Serialization of exact numbers and infinity to and from JSON, and the
JSON-integer check the input parsers share."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


def json_int(value, what: str) -> int:
    """A JSON integer (not a bool, float or string), else InputError."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def num_to_json(x):
    if x is None:
        return None
    if isinstance(x, Fraction):  # before the inf test: never inf, and slow to compare
        return str(x.numerator) if x.denominator == 1 else str(x)
    if x == math.inf:
        return "inf"
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

