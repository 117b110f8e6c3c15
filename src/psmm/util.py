"""Serialization of exact numbers and infinity to and from JSON, and the
JSON integer and coefficient readers the input parsers share."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


def json_int(value, what: str) -> int:
    """A JSON integer (not a bool, float or string), else InputError."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def json_coeff(value, where) -> Fraction:
    """An exact coefficient, else InputError naming `where`, the term that
    holds it: a Fraction as it is, a JSON integer or "p/q" string read
    exactly, a finite float read by its decimal repr (0.1 is 1/10)."""
    if isinstance(value, Fraction):
        return value
    if type(value) is float and math.isfinite(value):
        value = repr(value)
    if type(value) is int or isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"bad coefficient in {where!r}: expected an integer, a 'p/q' "
                     "string or a finite number")


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

