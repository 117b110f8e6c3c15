"""Exact linear algebra over the rationals.

Everything downstream (cohomology, monomial differentials, quotient
bases) funnels through this module.  All arithmetic is exact, and
floating point is forbidden here because quasi-isomorphism and
minimality checks are rank statements.  Values that leave the module
are `fractions.Fraction`.

Matrices come in two forms.  `RatMatrix` is the dense container of
graded linear maps, dumps and barcodes; `rank`, `kernel_basis` and
`quotient_basis` take one.  A differential is a list of sparse columns,
{row: value} dicts as `SullivanAlgebra.d_columns` and
`coboundary_columns` give them, with a row count; `solve` takes such
columns (or dense ones) and the row count directly, and `combine` sums
multiples of them.

One engine eliminates: `ColumnReducer`, a sparse incremental column
reducer that works on integer columns (each input column scaled by the
lcm of its denominators, fraction-free steps, pivots divided by their
content) and converts to `Fraction` only at its answers.
`cohomology.StageCohomology` runs it over the coboundary matrices of
Vietoris-Rips stages and the differentials of Sullivan algebras, and
`rank`, `solve`, `kernel_basis` and `quotient_basis` feed it their
columns left to right.  Their answers are the dense Gauss-Jordan ones:
a column is a pivot column iff it is independent of the columns before
it, so `solve` sets free variables to zero and each kernel vector is
e_c minus the coefficients of column c over the pivot columns before
it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RatMatrix:
    """Immutable dense matrix of rationals in lowest terms."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative dimensions")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("data shape does not match (rows, cols)")
        self.rows = rows
        self.cols = cols
        self._data = tuple(tuple(_frac(x) for x in row) for row in data)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return RatMatrix(rows, cols, data)

    @staticmethod
    def from_columns(cols: Sequence[Sequence], rows: Optional[int] = None) -> "RatMatrix":
        if not cols:
            return RatMatrix(rows or 0, 0, [[] for _ in range(rows or 0)])
        n = len(cols[0])
        data = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
        return RatMatrix(n, len(cols), data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- access -------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._data[i][j]

    def column(self, j: int) -> list:
        return [self._data[i][j] for i in range(self.rows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def tolist(self) -> list:
        return [list(r) for r in self._data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    # -- arithmetic ---------------------------------------------------

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            ri = self._data[i]
            for k in range(self.cols):
                a = ri[k]
                if a == 0:
                    continue
                rk = other._data[k]
                oi = out[i]
                for j in range(other.cols):
                    if rk[j] != 0:
                        oi[j] += a * rk[j]
        return RatMatrix(self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> list:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.cols}")
        v = [_frac(x) for x in vec]
        return [sum((a * b for a, b in zip(row, v) if a != 0), Fraction(0)) for row in self._data]


def to_dense(col: dict, n: int) -> list:
    """Dense length-n vector of a sparse {index: value} column."""
    out = [Fraction(0)] * n
    for i, v in col.items():
        out[i] = v
    return out


def to_sparse(vec: Sequence) -> dict:
    """Sparse {index: value} column of the nonzero entries of a vector."""
    return {i: v for i, v in enumerate(vec) if v}


def combine(terms) -> dict:
    """Sparse column sum of c·col over (c, col) pairs of a coefficient and
    a sparse column, with no zero entries."""
    out: dict = {}
    for c, col in terms:
        for i, v in col.items():
            nv = out.get(i, Fraction(0)) + c * v
            if nv == 0:
                out.pop(i, None)
            else:
                out[i] = nv
    return out


def _reducer(columns: Sequence, nrows: int, record: bool = False) -> "ColumnReducer":
    """A reducer holding `columns`, added left to right."""
    red = ColumnReducer(nrows, record=record)
    for c in columns:
        red.add(c)
    return red


def rank(m: RatMatrix) -> int:
    return _reducer(m.columns(), m.rows).rank


def solve(columns: Sequence, nrows: int, b: Sequence) -> Optional[list]:
    """Particular solution x of sum_j x[j]·columns[j] = b, or None when b
    is outside their span.  Each column is a sparse {row: value} dict or
    a dense sequence; rows index 0..nrows-1, and b is dense.

    Deterministic: free variables are set to zero, so reruns agree
    bit for bit.
    """
    if len(b) != nrows:
        raise DimensionMismatch(f"rhs length {len(b)} != {nrows}")
    x = _reducer(columns, nrows, record=True).solve(b)
    return None if x is None else to_dense(x, len(columns))


def kernel_basis(a: RatMatrix) -> RatMatrix:
    """Columns spanning the null space; count = cols - rank."""
    combos = _reducer(a.columns(), a.rows, record=True).kernel_combos
    return RatMatrix.from_columns([to_dense(c, a.cols) for c in combos], rows=a.cols)


def quotient_basis(ambient_dim: int, subspace: RatMatrix, vectors: RatMatrix) -> list:
    """Indices of `vectors` columns forming a basis of span(vectors)
    modulo span(subspace).

    Greedy: a column is kept iff it enlarges the span of subspace plus
    the columns kept so far.
    """
    if subspace.cols and subspace.rows != ambient_dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    if vectors.cols and vectors.rows != ambient_dim:
        raise DimensionMismatch("vectors ambient dimension mismatch")
    red = ColumnReducer(ambient_dim)
    for j in range(subspace.cols):
        red.add(subspace.column(j))
    kept = []
    for j in range(vectors.cols):
        if red.add(vectors.column(j)):
            kept.append(j)
    return kept


# ---------------------------------------------------------------------------
# Sparse incremental eliminator
# ---------------------------------------------------------------------------


def _divided(combo: dict, den: int) -> dict:
    """{k: Fraction(v, den)} of an integer combination, in its order."""
    if den == 1:
        return {k: Fraction(v) for k, v in combo.items()}
    if den == -1:
        return {k: Fraction(-v) for k, v in combo.items()}
    return {k: Fraction(v, den) for k, v in combo.items()}


class ColumnReducer:
    """Incremental exact column elimination over the rationals, in
    integer arithmetic.

    Each column is reduced against the stored echelon columns by its
    lowest nonzero row, and `rank` counts the stored ones.  Inside the
    reducer every column is a sparse dict {row: int}: an input column
    (entries int, `Fraction` or a string `Fraction` accepts) is scaled
    by the lcm of its entries' denominators, and a reduction step
    cross-multiplies, c <- (p[low]/g)*c - (c[low]/g)*p with g the gcd of
    the two leading entries, so no step divides.  A stored pivot column
    is divided by its content, the gcd of its entries (and of its
    combination's), with the sign that makes its leading entry
    positive.  Scaling a column by a nonzero integer changes neither its
    lowest row nor its span, so the pivots, the pivot rows and the
    kernel columns are those of elimination over `Fraction`.

    With `record=True` the reducer also tracks the integer combination
    of input columns producing each reduced column; a column's scale
    enters as the starting coefficient of its own index.  The answers
    are converted to `Fraction` once, at the boundary: a column that
    reduces to zero leaves its combination in `kernel_combos`,
    normalised so the column's own coefficient is 1, and `solve`
    divides its combination by the solved column's scale and the
    product of the multipliers its steps applied.  Both are the
    `Fraction`-elimination values exactly.

    `last_low` is the pivot row of the column the last `add` stored, or
    None when that column was dependent; `add` itself answers only
    whether it stored one.

    `skip()` reserves the next column index for a column known to
    reduce to zero without reducing it, so the indices in later
    combinations still count it.  `from_pivots` starts from the reduced
    columns of another reducer with empty combinations: `solve` then
    works modulo their span.
    """

    def __init__(self, nrows: int, record: bool = False):
        self.nrows = nrows
        self.record = record
        self._pivots: dict[int, dict[int, int]] = {}
        self._combos: dict[int, dict[int, int]] = {}
        self._ncols = 0
        self._last_low: Optional[int] = None
        self.rank = 0
        self.kernel_combos: list[dict[int, Fraction]] = []

    @staticmethod
    def from_pivots(nrows: int, pivots: Mapping) -> "ColumnReducer":
        """Record-mode reducer holding another reducer's `pivots` as
        pivots with empty combinations.  The columns are shared, not
        copied; no reducer modifies a stored column."""
        red = ColumnReducer(nrows, record=True)
        red._pivots = dict(pivots)
        red._combos = {low: {} for low in pivots}
        red.rank = len(pivots)
        return red

    @property
    def pivots(self) -> Mapping:
        """Read-only view of the reduced integer columns, keyed by
        lowest row."""
        return MappingProxyType(self._pivots)

    @property
    def last_low(self) -> Optional[int]:
        """Pivot row of the column the last `add` stored; None when that
        column was dependent, or before any `add`."""
        return self._last_low

    def skip(self) -> int:
        """Reserve the next column index without reducing a column."""
        self._ncols += 1
        return self._ncols - 1

    @staticmethod
    def _scaled(col) -> tuple:
        """(integer column, scale): the nonzero entries of `col`, a dict
        or a dense sequence, times the lcm of their denominators."""
        items = col.items() if isinstance(col, dict) else enumerate(col)
        c = {}
        exact = True
        for i, v in items:
            t = type(v)
            if t is not int:
                exact = False
                if t is not Fraction:
                    v = _frac(v)
            if v:
                c[i] = v
        if exact:
            return c, 1
        scale = lcm(*[v.denominator for v in c.values() if type(v) is not int])
        if scale == 1:
            return {i: v if type(v) is int else v.numerator for i, v in c.items()}, 1
        return {i: v * scale if type(v) is int else v.numerator * (scale // v.denominator)
                for i, v in c.items()}, scale

    def _reduce(self, c: dict, combo: Optional[dict]):
        """Reduce c (and its combination) against the stored pivots.
        Returns (c, combo, low, mult): low is c's new pivot row, or None
        when c reduced to zero, and mult the product of the factors c
        was multiplied by."""
        mult = 1
        while c:
            low = max(c)
            p = self._pivots.get(low)
            if p is None:
                return c, combo, low, mult
            a, b = p[low], c[low]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if a != 1:
                mult *= a
                c = {r: v * a for r, v in c.items()}
                if combo is not None:
                    combo = {k: v * a for k, v in combo.items()}
            for r, v in p.items():
                nv = c.get(r, 0) - b * v
                if nv:
                    c[r] = nv
                else:
                    del c[r]
            if combo is not None:
                for k, v in self._combos[low].items():
                    nv = combo.get(k, 0) - b * v
                    if nv:
                        combo[k] = nv
                    else:
                        del combo[k]
        return c, combo, None, mult

    def add(self, col) -> bool:
        """Add one column; True iff it was independent of those stored."""
        c, scale = self._scaled(col)
        for r in c:
            if r >= self.nrows:
                raise DimensionMismatch(f"row index {r} out of range {self.nrows}")
        j = self._ncols
        self._ncols += 1
        combo = {j: scale} if self.record else None
        c, combo, low, _ = self._reduce(c, combo)
        self._last_low = low
        if low is None:
            if self.record:
                self.kernel_combos.append(_divided(combo, combo[j]))
            return False
        content = gcd(*c.values(), *(combo.values() if self.record else ()))
        if c[low] < 0:
            content = -content
        if content != 1:
            c = {r: v // content for r, v in c.items()}
            if self.record:
                combo = {k: v // content for k, v in combo.items()}
        self._pivots[low] = c
        self.rank += 1
        if self.record:
            self._combos[low] = combo
        return True

    def solve(self, col) -> Optional[dict]:
        """Coefficients {column_index: coeff} expressing col over the
        independent stored columns, or None if outside their span.
        Requires record=True."""
        if not self.record:
            raise ValueError("solve requires record=True")
        c, scale = self._scaled(col)
        c, combo, low, mult = self._reduce(c, {})
        if low is not None:
            return None
        return _divided(combo, -mult * scale)
