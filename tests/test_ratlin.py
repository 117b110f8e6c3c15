from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense, sparse
from oracles import (
    FractionColumnReducer,
    dense_apply,
    dense_kernel,
    dense_matmul,
    dense_rref,
    dense_solve,
)
from psmm.errors import DimensionMismatch
from psmm.ratlin import (
    ColumnReducer,
    RatMatrix,
    kernel_basis,
    quotient_basis,
    rank,
    solve,
)


def M(rows):
    return RatMatrix.from_rows(rows)


def dense_columns(m):
    return [dense(col, m.rows) for col in m.sparse_columns()]


def dense_image(a, vec):
    """a times a dense vector, as a dense list."""
    return dense(a.apply_sparse(sparse([Fraction(x) for x in vec])), a.rows)


def solve_dense(a, b):
    """`solve` on a's columns and the dense right-hand side b, with the
    answer as a dense list (or None)."""
    x = solve(a.sparse_columns(), a.rows, sparse(b))
    return None if x is None else dense(x, a.cols)


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def small_matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    data = [[draw(small_entries) for _ in range(c)] for _ in range(r)]
    return RatMatrix(r, c, data)


class TestRref:
    # the dense Gauss-Jordan reference that the engine is checked against
    def test_identity(self):
        reduced, pivots = dense_rref(RatMatrix.identity(2).tolist())
        assert reduced == RatMatrix.identity(2).tolist()
        assert pivots == (0, 1)

    def test_rank_one(self):
        reduced, pivots = dense_rref([[1, 2], [2, 4]])
        assert reduced == [[1, 2], [0, 0]]
        assert pivots == (0,)

    def test_zero(self):
        reduced, pivots = dense_rref(RatMatrix.zeros(3, 3).tolist())
        assert reduced == RatMatrix.zeros(3, 3).tolist()
        assert pivots == ()

    @given(small_matrices())
    def test_idempotent(self, m):
        once, pivots = dense_rref(m.tolist(), m.cols)
        assert dense_rref(once, m.cols) == (once, pivots)

    @given(small_matrices(), st.integers(0, 10 ** 6))
    def test_unique_under_row_permutation(self, m, seed):
        import random as _random
        rows = list(m.tolist())
        _random.Random(seed).shuffle(rows)
        assert dense_rref(rows, m.cols) == dense_rref(m.tolist(), m.cols)

    def test_fraction_normalization(self):
        m = M([["2/4", 1]])
        assert m.tolist()[0][0] == Fraction(1, 2)


class TestSolve:
    def test_identity_case(self):
        b = [Fraction(3), Fraction(-7)]
        assert solve_dense(RatMatrix.identity(2), b) == b

    def test_underdetermined(self):
        x = solve_dense(M([[1, 1]]), [3])
        assert x is not None
        assert x[0] + x[1] == 3

    def test_inconsistent(self):
        assert solve_dense(M([[1], [0]]), [0, 1]) is None

    def test_dimension_mismatch(self):
        # a right-hand side with an entry past the last row
        with pytest.raises(DimensionMismatch):
            solve(M([[1, 1]]).sparse_columns(), 1, sparse([1, 2]))

    @given(small_matrices(), st.data())
    def test_solve_matches_dense(self, a, data):
        # vector for vector the dense answer (free variables zero), and
        # None exactly when the right-hand side is outside the image
        if data.draw(st.booleans()):
            b = [data.draw(small_entries) for _ in range(a.rows)]
        else:
            b = dense_image(a, [data.draw(small_entries) for _ in range(a.cols)])
        assert solve_dense(a, b) == dense_solve(a.tolist(), a.cols, b)

    @given(small_matrices(), st.data())
    def test_sparse_columns_match_dense(self, a, data):
        # columns and right-hand sides that list every row, zeros
        # included, are the same system as their nonzero entries alone
        if data.draw(st.booleans()):
            b = [data.draw(small_entries) for _ in range(a.rows)]
        else:
            b = dense_image(a, [data.draw(small_entries) for _ in range(a.cols)])
        full = [dict(enumerate(col)) for col in dense_columns(a)]
        assert solve(full, a.rows, dict(enumerate(b))) == \
            solve(a.sparse_columns(), a.rows, sparse(b))

    @given(small_matrices(max_dim=4), st.data())
    @settings(max_examples=60)
    def test_exact_residual(self, a, data):
        # rhs constructed inside the image so a solution must exist
        coeffs = [data.draw(small_entries) for _ in range(a.cols)]
        b = a.apply_sparse(sparse(coeffs))
        x = solve(a.sparse_columns(), a.rows, b)
        assert x is not None
        assert a.apply_sparse(x) == b


class TestKernel:
    def test_identity_empty(self):
        k = kernel_basis(RatMatrix.identity(3))
        assert k.cols == 0

    def test_line(self):
        k = kernel_basis(M([[1, 2]]))
        assert k.cols == 1
        v = dense_columns(k)[0]
        assert v[0] * 1 + v[1] * 2 == 0
        assert v != [0, 0]

    def test_zero_map(self):
        k = kernel_basis(RatMatrix.zeros(1, 3))
        assert k.cols == 3

    @given(small_matrices())
    def test_rank_nullity(self, a):
        assert rank(a) + kernel_basis(a).cols == a.cols

    @given(small_matrices(), st.data())
    def test_answers_are_fractions(self, a, data):
        k = kernel_basis(a)
        assert all(type(v) is Fraction for col in dense_columns(k) for v in col)
        b = a.apply_sparse(sparse([data.draw(small_entries) for _ in range(a.cols)]))
        x = solve(a.sparse_columns(), a.rows, b)
        assert all(type(v) is Fraction for v in x.values())

    @given(small_matrices())
    def test_kernel_annihilated(self, a):
        k = kernel_basis(a)
        for col in k.sparse_columns():
            assert a.apply_sparse(col) == {}


class TestQuotientBasis:
    def test_empty_subspace(self):
        idx = quotient_basis(3, RatMatrix.zeros(3, 0), RatMatrix.identity(3))
        assert idx == [0, 1, 2]

    def test_kills_subspace_vector(self):
        e1 = RatMatrix.from_columns([{0: 1}], rows=2)
        vecs = RatMatrix.identity(2)
        assert quotient_basis(2, e1, vecs) == [1]

    def test_full_subspace(self):
        assert quotient_basis(2, RatMatrix.identity(2), RatMatrix.identity(2)) == []

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            quotient_basis(2, RatMatrix.identity(3), RatMatrix.identity(2))


class TestSparseEngine:
    @given(small_matrices())
    def test_sparse_rank_matches_dense(self, a):
        cols = [dict(enumerate(col)) for col in dense_columns(a)]
        for record in (False, True):
            red = ColumnReducer(a.rows, record=record)
            for c in cols:
                red.add(c)
            assert red.rank == len(dense_rref(a.tolist(), a.cols)[1])
        assert rank(a) == red.rank

    @given(small_matrices())
    def test_sparse_kernel_matches_dense(self, a):
        # vector for vector and in order, the dense RREF kernel: the
        # cohomology engine's representatives rest on this identity
        red = ColumnReducer(a.rows, record=True)
        for c in a.sparse_columns():
            red.add(c)
        assert [dense(c, a.cols) for c in red.kernel_combos] == \
            dense_kernel(a.tolist(), a.cols) == dense_columns(kernel_basis(a))

    def test_solve_coefficients(self):
        red = ColumnReducer(2, record=True)
        red.add({0: 1})
        red.add({0: 1, 1: 1})
        sol = red.solve({0: 3, 1: 2})
        # 3*e0 + 2*e1 = 1*(1,0) + 2*(1,1)
        assert sol == {0: Fraction(1), 1: Fraction(2)}
        assert red.solve({}) == {}

    def test_seeded_pivots_and_skip(self):
        image = ColumnReducer(3)
        image.add({0: 1, 1: 1})
        red = ColumnReducer.from_pivots(3, image.pivots)
        assert red.rank == 1
        assert red.skip() == 0
        red.add({2: 1})
        # solved modulo the seeded span: only the added column, index 1, counts
        assert red.solve({0: 2, 1: 2, 2: 5}) == {1: Fraction(5)}
        assert red.solve({0: 1}) is None
        assert image.rank == 1 and len(image.pivots) == 1

    def test_solve_outside_span(self):
        red = ColumnReducer(2, record=True)
        red.add({0: 1})
        assert red.solve({1: 1}) is None

    def test_last_low_is_the_stored_pivot_row(self):
        red = ColumnReducer(3)
        assert red.last_low is None
        added = red.add({0: 1})
        assert added is True and red.last_low == 0
        assert red.add({0: 2, 2: 1}) is True and red.last_low == 2
        # reduces against the pivot at row 2 and lands on row 1
        assert red.add({1: 3, 2: 1}) is True and red.last_low == 1
        assert red.add({0: 5, 1: 3, 2: 2}) is False and red.last_low is None
        assert sorted(red.pivots) == [0, 1, 2]

    def test_zero_string_entry_dropped(self):
        # "0" is converted before zeros are dropped, so it never becomes a
        # zero leading entry of a stored pivot
        red = ColumnReducer(2, record=True)
        assert red.add({0: 1, 1: "0"})
        assert red.add({0: 0, 1: 1})
        assert red.rank == 2 and sorted(red.pivots) == [0, 1]
        assert red.solve({0: "1/2", 1: "0"}) == {0: Fraction(1, 2)}


# int, Fraction (denominators up to 10**6), string and zero entries
engine_entries = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from([0, Fraction(0), "0", "-0/3"]),
)


@st.composite
def engine_column(draw, nrows):
    """A column over `nrows` rows: a dict listing every row, or some."""
    if draw(st.booleans()):
        return dict(enumerate(draw(engine_entries) for _ in range(nrows)))
    rows = draw(st.lists(st.integers(0, nrows - 1), max_size=nrows, unique=True)) \
        if nrows else []
    return {r: draw(engine_entries) for r in rows}


def _dense(col, nrows):
    return dense({i: Fraction(v) for i, v in col.items()}, nrows)


def _all_fractions(combos):
    return all(type(v) is Fraction for c in combos for v in c.values())


class TestAgainstFractionEngine:
    """The integer engine answers exactly what the former `Fraction`
    engine answers: same ranks, pivot rows, kernel combinations and
    solutions, every value a `Fraction`."""

    @staticmethod
    def _solve_both(red, ref, col):
        got, want = red.solve(col), ref.solve(col)
        assert got == want
        if got is not None:
            assert _all_fractions([got])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_answers(self, data):
        nrows = data.draw(st.integers(0, 6))
        record = data.draw(st.booleans())
        red, ref = ColumnReducer(nrows, record=record), FractionColumnReducer(nrows, record)
        added = []
        for _ in range(data.draw(st.integers(0, 9))):
            if data.draw(st.integers(0, 5)) == 0:
                assert red.skip() == ref.skip()
                continue
            col = data.draw(engine_column(nrows))
            assert red.add(col) == ref.add(col)
            added.append(_dense(col, nrows))
        assert red.rank == ref.rank
        assert list(red.pivots) == list(ref.pivots)
        assert red.kernel_combos == ref.kernel_combos
        assert _all_fractions(red.kernel_combos)

        # solve over the stored columns, then modulo their span through
        # from_pivots with more columns on top
        def probes():
            yield data.draw(engine_column(nrows))
            if added:
                coeffs = [data.draw(st.integers(-3, 3)) for _ in added]
                yield {i: sum((c * v[i] for c, v in zip(coeffs, added)), Fraction(0))
                       for i in range(nrows)}
        if record:
            for col in probes():
                self._solve_both(red, ref, col)
        red2 = ColumnReducer.from_pivots(nrows, red.pivots)
        ref2 = FractionColumnReducer.from_pivots(nrows, ref.pivots)
        assert red2.rank == ref2.rank
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.booleans()):
                assert red2.skip() == ref2.skip()
            col = data.draw(engine_column(nrows))
            assert red2.add(col) == ref2.add(col)
            added.append(_dense(col, nrows))
        assert list(red2.pivots) == list(ref2.pivots)
        assert red2.kernel_combos == ref2.kernel_combos
        for col in probes():
            self._solve_both(red2, ref2, col)


@st.composite
def unit_column(draw, nrows):
    """A nonempty column of int entries +-1 over `nrows` rows."""
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=1, max_size=nrows, unique=True))
    return {r: draw(st.sampled_from([1, -1])) for r in rows}


class TestUnitColumnFastPath:
    """`add` stores a +-1 int column whose lowest row holds no pivot
    without reducing it; fed as `Fraction` copies, the same columns take
    the general path, and both reducers end in the same state."""

    @staticmethod
    def _same_state(red, ref):
        assert red.rank == ref.rank
        assert red.last_low == ref.last_low
        assert list(red.pivots) == list(ref.pivots)
        assert [list(p.items()) for p in red.pivots.values()] == \
            [list(p.items()) for p in ref.pivots.values()]
        assert red.kernel_combos == ref.kernel_combos

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_state_as_fraction_copies(self, data):
        nrows = data.draw(st.integers(1, 6))
        record = data.draw(st.booleans())
        red, ref = ColumnReducer(nrows, record=record), ColumnReducer(nrows, record=record)
        cols = []
        for _ in range(data.draw(st.integers(0, 10))):
            kind = data.draw(st.integers(0, 3))
            if kind == 0:
                col = data.draw(engine_column(nrows))
            elif kind == 1:
                col = {r: data.draw(st.sampled_from([True, False, 1, -1]))
                       for r in data.draw(st.lists(st.integers(0, nrows - 1), unique=True))}
            else:
                col = data.draw(unit_column(nrows))
            copy = {r: Fraction(v) for r, v in col.items()}
            assert red.add(col) == ref.add(copy)
            self._same_state(red, ref)
            cols.append(copy)
        if record:
            probes = [data.draw(unit_column(nrows)), data.draw(engine_column(nrows))]
            if cols:
                coeffs = [data.draw(st.integers(-3, 3)) for _ in cols]
                probes.append({i: sum((c * v.get(i, 0) for c, v in zip(coeffs, cols)),
                                      Fraction(0)) for i in range(nrows)})
            for b in probes:
                assert red.solve(b) == ref.solve({r: Fraction(v) for r, v in b.items()})

    def test_stored_pivot_is_a_copy(self):
        for record in (False, True):
            red = ColumnReducer(3, record=record)
            col, neg = {0: 1, 2: 1}, {0: 1, 1: -1}
            assert red.add(col) and red.add(neg)
            col[2] = 7
            neg.clear()
            assert dict(red.pivots) == {2: {0: 1, 2: 1}, 1: {0: -1, 1: 1}}
            assert red.rank == 2 and red.last_low == 1
            if record:
                assert red.solve({1: 1, 2: 1}) == {0: Fraction(1), 1: Fraction(-1)}
                assert red.solve({0: 1, 1: 1}) is None

    def test_unit_column_past_the_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            ColumnReducer(2).add({0: 1, 2: -1})


def test_zero_matrix_shared_per_shape():
    assert RatMatrix.zeros(2, 3) is RatMatrix.zeros(2, 3)
    assert RatMatrix.zeros(2, 3) == RatMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert RatMatrix.zeros(3, 2).rows == 3 and RatMatrix.zeros(3, 2).cols == 2


class TestFromColumns:
    def test_longer_column_rejected(self):
        # the second column reaches past the one row
        with pytest.raises(DimensionMismatch):
            RatMatrix.from_columns([{0: 1}, {0: 2, 1: 3}], rows=1)

    def test_negative_row_rejected(self):
        with pytest.raises(DimensionMismatch):
            RatMatrix.from_columns([{0: 1, 1: 2}, {-1: 3}], rows=2)

    def test_row_count_must_match(self):
        # the row count bounds the entries, and rows past them are zero
        with pytest.raises(DimensionMismatch):
            RatMatrix.from_columns([{0: 1, 1: 2}], rows=1)
        assert RatMatrix.from_columns([{0: 1, 1: 2}], rows=3) == M([[1], [2], [0]])

    def test_sparse_columns_need_rows_in_range(self):
        with pytest.raises(TypeError):
            RatMatrix.from_columns([{0: 1}])  # the row count is required
        with pytest.raises(DimensionMismatch):
            RatMatrix.from_columns([{2: 1}], rows=2)
        assert RatMatrix.from_columns([{1: 1}, {}], rows=2) == M([[0, 0], [1, 0]])

    def test_no_columns(self):
        assert RatMatrix.from_columns([], rows=0) == RatMatrix.zeros(0, 0)
        assert RatMatrix.from_columns([], rows=3) == RatMatrix.zeros(3, 0)


@st.composite
def dense_rows(draw, nrows, ncols):
    return [[draw(engine_entries) for _ in range(ncols)] for _ in range(nrows)]


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _builds(rows, nrows, ncols, data):
    """The matrix of `rows` built every way the class allows: explicit
    zero entries stay in, and sparse columns may list them."""
    cols = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    some = [{i: v for i, v in enumerate(col) if Fraction(v) or data.draw(st.booleans())}
            for col in cols]
    out = [RatMatrix(nrows, ncols, rows),
           RatMatrix.from_columns([dict(enumerate(col)) for col in cols], rows=nrows),
           RatMatrix.from_columns(some, rows=nrows)]
    if nrows:
        out.append(RatMatrix.from_rows(rows))
    return out


class TestSparseStoreAgainstDense:
    """The sparse-column store answers what the former dense rows did,
    and equal entries give equal, equally hashed matrices however the
    matrix was built."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_dense_oracle(self, data):
        r, c, s = (data.draw(st.integers(0, 5)) for _ in range(3))
        rows = data.draw(dense_rows(r, c))
        want = _fractions(rows)
        builds = _builds(rows, r, c, data)
        m = builds[0]
        for other in builds[1:]:
            assert other == m and hash(other) == hash(m)
        assert m.rows == r and m.cols == c
        assert m.tolist() == want
        assert all(type(x) is Fraction for row in m.tolist() for x in row)
        assert dense_columns(m) == [[row[j] for row in want] for j in range(c)]
        assert m.sparse_columns() == [sparse(col) for col in dense_columns(m)]
        assert m.is_zero() == all(x == 0 for row in want for x in row)

        vec = [data.draw(engine_entries) for _ in range(c)]
        image = m.apply_sparse({j: Fraction(v) for j, v in enumerate(vec) if Fraction(v)})
        assert dense(image, r) == dense_apply(want, vec)
        assert all(type(x) is Fraction and x for x in image.values())

        other_rows = data.draw(dense_rows(c, s))
        prod = m.matmul(RatMatrix(c, s, other_rows))
        assert (prod.rows, prod.cols) == (r, s)
        assert prod.tolist() == dense_matmul(want, _fractions(other_rows), s)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_iff_same_entries(self, data):
        shapes = [(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))) for _ in range(2)]
        small = st.sampled_from([0, 1, "0", Fraction(2, 4), "1/2"])
        a, b = ([[data.draw(small) for _ in range(nc)] for _ in range(nr)] for nr, nc in shapes)
        same = shapes[0] == shapes[1] and _fractions(a) == _fractions(b)
        ma, mb = RatMatrix(*shapes[0], a), RatMatrix(*shapes[1], b)
        assert (ma == mb) == same
        if same:
            assert hash(ma) == hash(mb)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_zeros_and_identity(self, r, c):
        assert RatMatrix.zeros(r, c) == RatMatrix(r, c, [["0"] * c for _ in range(r)])
        assert RatMatrix.zeros(r, c).is_zero()
        ident = RatMatrix(r, r, [[1 if i == j else "-0/3" for j in range(r)] for i in range(r)])
        assert RatMatrix.identity(r) == ident and hash(RatMatrix.identity(r)) == hash(ident)
