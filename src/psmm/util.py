"""Serialization of exact numbers and infinity to and from JSON, and the
JSON integer, number and coefficient readers the input parsers share.

Every exact number an input holds enters through `json_number`: a JSON
integer or an exact-number string becomes a `Fraction`, a float stays a
float for its field to judge, and anything else, booleans included,
raises InputError.  An exact-number string passes `bounded_literal`
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


def json_number(x, what: str):
    """An exact number or a float, else InputError "bad <what> <x>": a
    Fraction as it is, a JSON integer or an exact-number string ("3",
    "-1/3", "2.5e3") as a Fraction, a float as it is.  Each caller
    decides what a float means in its field."""
    if isinstance(x, str):
        try:
            return Fraction(bounded_literal(x))
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(x, (Fraction, float)):
        return x
    elif type(x) is int:
        return Fraction(x)
    raise InputError(f"bad {what} {x!r}")


def json_coeff(value, where) -> Fraction:
    """An exact coefficient (`json_number`), else InputError naming
    `where`, the term that holds it; a finite float is read by its
    decimal repr (0.1 is 1/10)."""
    x = json_number(value, f"coefficient in {where!r}:")
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputError(f"bad coefficient in {where!r}: {x!r} is not finite")
        x = Fraction(repr(x))
    return x


def num_to_json(x):
    if x is None:
        return None
    if isinstance(x, Fraction):  # before the inf test: never inf, and slow to compare
        return str(x.numerator) if x.denominator == 1 else str(x)
    if x == math.inf:
        return "inf"
    return x
