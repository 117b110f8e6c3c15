"""Serialization of exact numbers and infinity to and from JSON, and the
JSON integer and coefficient readers the input parsers share.

Every exact-number string an input holds passes `bounded_literal`
before a `Fraction` is built from it: "1e100000000" would take seconds
and hundreds of MiB to build, and a number past 4300 digits cannot be
written back out (CPython's int-to-string limit)."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


# The most digits an exact-number string may hold, and the largest
# decimal exponent it may give, either sign.  Every finite float's repr
# (17 digits, exponents -324..308) stays within it.
EXACT_DIGITS_CAP = 1000


def bounded_literal(s: str) -> str:
    """s, unless it holds more than EXACT_DIGITS_CAP digits before any
    exponent or a decimal exponent beyond +-EXACT_DIGITS_CAP: then
    InputError.  Only the bound is checked; `Fraction` rejects the
    malformed strings that pass it."""
    if len(s) <= EXACT_DIGITS_CAP and "e" not in s and "E" not in s:
        return s
    mantissa, _, exp = s.replace("E", "e").partition("e")
    exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    if (sum(c.isdigit() for c in mantissa) > EXACT_DIGITS_CAP
            or len(exp) > len(str(EXACT_DIGITS_CAP))
            or (exp.isdecimal() and int(exp) > EXACT_DIGITS_CAP)):
        shown = s if len(s) <= 40 else s[:37] + "..."
        raise InputError(f"exact number {shown!r} has more than {EXACT_DIGITS_CAP} "
                         f"digits or an exponent beyond +-{EXACT_DIGITS_CAP}")
    return s


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
    if isinstance(value, str):
        value = bounded_literal(value)
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
            return Fraction(bounded_literal(x))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad numeric literal {x!r}") from e
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, bool):
        raise InputError(f"bad numeric literal {x!r}")
    return float(x)

