"""Exception types shared across the package."""


class PsmmError(Exception):
    """Base class for all package errors."""


class InputError(PsmmError):
    """Malformed or invalid input data (file schema, validation failure)."""


class DimensionMismatch(PsmmError):
    """Linear-algebra operands with incompatible shapes."""


class CapExceeded(PsmmError):
    """A resource cap (simplex count, GH size, model generators, monomial
    basis size) was exceeded."""


class TruncationError(PsmmError):
    """Requested degree lies beyond the materialized truncation."""


class LiftError(PsmmError):
    """A lifting system for a representative was infeasible within the
    truncation; indicates a too-small truncation or an invariant breach."""
