"""Exact linear algebra over the rationals.

Everything downstream (cohomology, monomial differentials, quotient
bases) funnels through this module.  All arithmetic is exact, and
floating point is forbidden here because quasi-isomorphism and
minimality checks are rank statements.  Values that leave the module
are `fractions.Fraction`.

A linear map is sparse columns.  `RatMatrix` holds the maps of graded
linear maps, morphisms, dumps and barcodes as canonical sparse columns
(sorted, no zeros) and applies them over the nonzero entries of a
vector; `rank`, `kernel_basis` and `quotient_basis` take one.

A vector is a sparse {index: Fraction} dict with no zero entries, from
input parsing to the dump writer.  A differential is a list of such
columns, as `SullivanAlgebra.d_columns` and `coboundary_columns` give
them, with a row count; `solve` takes such columns, the row count and a
sparse right-hand side, and `combine` sums multiples of them.  The dump
writer and reader go between the sparse columns and a dump's dense rows
directly; `RatMatrix.from_rows` and `tolist` are the dense forms of a
matrix for callers that build or read one by rows.

One engine eliminates: `ColumnReducer`, a sparse incremental column
reducer that works on integer columns (each input column scaled by the
lcm of its denominators, fraction-free steps, pivots divided by their
content) and converts to `Fraction` only at its answers.  A column of
int entries all +-1 whose lowest row holds no pivot yet is stored
straight away (negated when that entry is -1), with no scaling,
reduction or gcd: over Q it is the exact form of an apparent pair
(Bauer, Ripser, 2021), and most Rips coboundary columns are one.
`cohomology.StageCohomology` runs it over the
coboundary matrices of Vietoris-Rips stages and the differentials of
Sullivan algebras, and `rank`, `solve`, `kernel_basis` and
`quotient_basis` feed it their columns left to right.  Their answers
are the dense Gauss-Jordan ones: a column is a pivot column iff it is
independent of the columns before it, so `solve` sets free variables to
zero and each kernel vector is e_c minus the coefficients of column c
over the pivot columns before it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatch


_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _canonical(col: Mapping, rows: int) -> tuple:
    """Sorted (row, Fraction) pairs of the nonzero entries of a sparse
    {row: value} column over `rows` rows."""
    items = sorted(col.items())
    if items and (items[0][0] < 0 or items[-1][0] >= rows):
        raise DimensionMismatch(f"row index out of range {rows}")
    return tuple((i, v) for i, v in ((i, _frac(x)) for i, x in items) if v)


def _add_scaled(out: dict, c, items):
    """out += c·v over (index, v) pairs, in place, dropping zeros."""
    for i, v in items:
        old = out.get(i)
        nv = c * v if old is None else old + c * v
        if nv:
            out[i] = nv
        else:
            out.pop(i, None)


class RatMatrix:
    """Immutable matrix of rationals, stored as canonical sparse columns:
    per column a tuple of (row, Fraction) pairs sorted by row, with no
    zero entries, so equal matrices have equal columns and hashes."""

    __slots__ = ("rows", "cols", "_cols")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("data shape does not match (rows, cols)")
        self._set(rows, tuple(_canonical({i: data[i][j] for i in range(rows)}, rows)
                              for j in range(cols)))

    def _set(self, rows: int, columns: tuple) -> "RatMatrix":
        if rows < 0:
            raise DimensionMismatch("negative dimensions")
        self.rows, self.cols, self._cols = rows, len(columns), columns
        return self

    @staticmethod
    def _of(rows: int, columns: tuple) -> "RatMatrix":
        """The matrix of already canonical columns."""
        return RatMatrix.__new__(RatMatrix)._set(rows, columns)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return RatMatrix(rows, cols, data)

    @staticmethod
    def from_columns(cols: Sequence[Mapping], rows: int) -> "RatMatrix":
        """Matrix of `rows` rows with sparse {row: value} columns."""
        return RatMatrix._of(rows, tuple(_canonical(c, rows) for c in cols))

    @staticmethod
    @lru_cache(maxsize=64)
    def zeros(rows: int, cols: int) -> "RatMatrix":
        """The zero matrix of a shape, one shared instance per recent
        shape: a matrix is immutable, and absent degrees of graded maps
        ask for the same few shapes over and over."""
        if cols < 0:
            raise DimensionMismatch("negative dimensions")
        return RatMatrix._of(rows, ((),) * cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix._of(n, tuple(((i, _ONE),) for i in range(n)))

    # -- access -------------------------------------------------------

    def sparse_columns(self) -> list:
        """The columns as {row: Fraction} dicts sorted by row, no zeros."""
        return [dict(col) for col in self._cols]

    def tolist(self) -> list:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, v in col:
                out[i][j] = v
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self._cols == other._cols
        )

    def __hash__(self):
        return hash((self.rows, self._cols))

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self._cols)

    def is_identity(self) -> bool:
        """Square with column j the unit vector e_j, for every j."""
        return self.rows == self.cols and all(
            col == ((j, _ONE),) for j, col in enumerate(self._cols))

    # -- arithmetic ---------------------------------------------------

    def _image(self, items) -> dict:
        out: dict = {}
        for j, c in items:
            _add_scaled(out, c, self._cols[j])
        return out

    def apply_sparse(self, vec: Mapping) -> dict:
        """Image of a sparse {column: value} vector as a {row: Fraction}
        dict with no zeros: the sum of c·column j over its entries."""
        return self._image(vec.items())

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        return RatMatrix._of(self.rows, tuple(tuple(sorted(self._image(col).items()))
                                              for col in other._cols))


def combine(terms) -> dict:
    """Sparse column sum of c·col over (c, col) pairs of a coefficient and
    a sparse column, with no zero entries."""
    out: dict = {}
    for c, col in terms:
        _add_scaled(out, c, col.items())
    return out


def _reducer(columns: Sequence, nrows: int, record: bool = False) -> "ColumnReducer":
    """A reducer holding `columns`, added left to right."""
    red = ColumnReducer(nrows, record=record)
    for c in columns:
        red.add(c)
    return red


def rank(m: RatMatrix) -> int:
    return _reducer(m.sparse_columns(), m.rows).rank


def solve(columns: Sequence[Mapping], nrows: int, b: Mapping) -> Optional[dict]:
    """Particular solution x of sum_j x[j]·columns[j] = b, or None when b
    is outside their span.  The columns and b are sparse {row: value}
    dicts over rows 0..nrows-1; x is a sparse {column: Fraction} dict.

    Deterministic: free variables are set to zero, so reruns agree
    bit for bit.
    """
    if any(not 0 <= r < nrows for r in b):
        raise DimensionMismatch(f"rhs row index out of range {nrows}")
    return _reducer(columns, nrows, record=True).solve(b)


def kernel_basis(a: RatMatrix) -> RatMatrix:
    """Columns spanning the null space; count = cols - rank."""
    combos = _reducer(a.sparse_columns(), a.rows, record=True).kernel_combos
    return RatMatrix.from_columns(combos, rows=a.cols)


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
    for col in subspace.sparse_columns():
        red.add(col)
    return [j for j, col in enumerate(vectors.sparse_columns()) if red.add(col)]


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
    reducer every column is a sparse dict {row: int}: an input column, a
    sparse dict with entries int, `Fraction` or a string `Fraction`
    accepts, is scaled by the lcm of its entries' denominators, and a
    reduction step cross-multiplies, c <- (p[low]/g)*c - (c[low]/g)*p
    with g the gcd of the two leading entries, so no step divides.  A stored pivot column
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

    `add` stores a column whose entries are all `int` +-1 (not `bool`
    or `Fraction`), whose lowest row is below `nrows` and holds no pivot,
    straight away: a copy, negated when its lowest entry is -1, with the
    combination {its index: +-1} in record mode.  That is the state the
    general path leaves, since such a column has scale 1, no reduction
    step and content 1.  Every other column takes the general path.

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
    def _scaled(col: Mapping) -> tuple:
        """(integer column, scale): the nonzero entries of the sparse
        column `col` times the lcm of their denominators."""
        c = {}
        exact = True
        for i, v in col.items():
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

    def add(self, col: Mapping) -> bool:
        """Add one column; True iff it was independent of those stored."""
        if col:
            low = max(col)
            if low < self.nrows and low not in self._pivots:
                for v in col.values():
                    if type(v) is not int or (v != 1 and v != -1):
                        break
                else:
                    # a +-1 column on a free row: stored as the general
                    # path stores it (content 1, leading entry +1)
                    sign = col[low]
                    self._pivots[low] = (dict(col) if sign == 1
                                         else {r: -v for r, v in col.items()})
                    if self.record:
                        self._combos[low] = {self._ncols: sign}
                    self._ncols += 1
                    self.rank += 1
                    self._last_low = low
                    return True
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

    def solve(self, col: Mapping) -> Optional[dict]:
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
