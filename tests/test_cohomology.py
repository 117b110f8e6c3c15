import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import cohomology_ring, dense, is_canonical_exact, sparse
from psmm.cohomology import (
    CohomologyRing,
    StageCohomology,
    _h0_columns,
    _verify_multiplicative,
    coboundary_columns,
    cup_product,
    induced_ring_map,
)
from psmm.config import Config
from psmm.errors import InputError
from psmm.gvec import GradedLinearMap
from psmm.metric import (
    build_filtration,
    complex_from_simplices,
    metric_from_matrix,
    metric_from_points,
)
from psmm.pipeline import persistent_model
from psmm.ratlin import ColumnReducer, RatMatrix
from test_cdga import random_sullivan


def hollow_triangle():
    return complex_from_simplices(3, [[0, 1], [1, 2], [0, 2]])


def solid_triangle():
    return complex_from_simplices(3, [[0, 1, 2]])


def octahedron():
    antipodal = {frozenset((0, 3)), frozenset((1, 4)), frozenset((2, 5))}
    tris = [t for t in itertools.combinations(range(6), 3)
            if not any(frozenset(p) <= set(t) for p in antipodal)]
    return complex_from_simplices(6, tris)


def torus7(perm=None):
    """Minimal 7-vertex torus triangulation."""
    tris = []
    for i in range(7):
        tris.append([i % 7, (i + 1) % 7, (i + 3) % 7])
        tris.append([i % 7, (i + 2) % 7, (i + 3) % 7])
    if perm:
        tris = [[perm[v] for v in t] for t in tris]
    return complex_from_simplices(7, tris)


def coboundaries(cx, max_deg):
    """Dense coboundary matrices delta^0 .. delta^max_deg, from the
    oracle's rows."""
    return [RatMatrix(len(rows), len(cx.dim_simplices(p)), rows)
            for p, rows in enumerate(oracles.coboundaries(cx, max_deg))]


def cohomology_basis(cx, deg):
    """Representative cocycles of H^deg as sparse dicts."""
    return StageCohomology.of_complex(cx).h_reps(deg)


def random_exact_space(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(1, 9), 4)
            rows[i][j] = rows[j][i] = v
    return metric_from_matrix(rows)


class TestCoboundaries:
    def test_hollow_triangle_rank(self):
        d = coboundaries(hollow_triangle(), 1)
        from psmm.ratlin import rank
        assert d[0].rows == 3 and d[0].cols == 3
        assert rank(d[0]) == 2

    def test_single_vertex(self):
        d = coboundaries(complex_from_simplices(1, []), 2)
        assert all(m.is_zero() for m in d)

    def test_solid_triangle_delta1(self):
        d = coboundaries(solid_triangle(), 2)
        from psmm.ratlin import rank
        assert rank(d[1]) == 1

    def test_delta_squared_zero(self):
        rng = random.Random(5)
        m = random_exact_space(rng, 5)
        f = build_filtration(m, max_dim=3)
        for st_ in f.stages:
            d = coboundaries(st_, 2)
            assert d[1].matmul(d[0]).is_zero()
            assert d[2].matmul(d[1]).is_zero()


class TestCohomologyBasis:
    def test_hollow_triangle(self):
        eng = StageCohomology.of_complex(hollow_triangle())
        assert eng.h_dim(0) == 1
        assert eng.h_dim(1) == 1
        assert len(cohomology_basis(hollow_triangle(), 1)) == 1

    def test_solid_triangle(self):
        eng = StageCohomology.of_complex(solid_triangle())
        assert eng.h_dim(1) == 0

    def test_octahedron_sphere(self):
        eng = StageCohomology.of_complex(octahedron())
        assert [eng.h_dim(k) for k in range(3)] == [1, 0, 1]

    def test_betti_match_oracle_on_random_stages(self):
        rng = random.Random(17)
        for _ in range(4):
            m = random_exact_space(rng, 5)
            f = build_filtration(m, max_dim=3)
            for s, cx in enumerate(f.stages):
                eng = StageCohomology.of_complex(cx)
                expected = oracles.complex_betti(cx, 2)
                got = {k: eng.h_dim(k) for k in range(3)}
                assert got == expected
                assert got == oracles.betti_numbers(f, s, 2)


def check_engine_against_oracle(eng, columns, degrees, rng):
    """The engine's reps, dimensions and class coordinates against the
    former greedy kernel-mod-image algorithm, degree by degree in the
    given order (the engine's answers must not depend on it)."""
    for k in degrees:
        cols_k, nup = columns(k)
        below = columns(k - 1)[0] if k > 0 else []
        reps = oracles.greedy_cohomology_reps(cols_k, nup, below)
        assert eng.h_reps(k) == reps
        assert eng.h_dim(k) == len(reps)
        # class_of(sum c_i rep_i + d b) = c
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in reps]
        cochain = {}
        terms = list(zip(coeffs, reps))
        terms += [(Fraction(rng.randint(-2, 2)), col) for col in below]
        for c, vec in terms:
            for i, v in vec.items():
                cochain[i] = cochain.get(i, Fraction(0)) + c * v
        coords = eng.class_of(k, cochain)
        assert dense(coords, eng.h_dim(k)) == coeffs
        assert list(coords) == sorted(coords) and all(coords.values())
        assert all(is_canonical_exact(v) for rep in eng.h_reps(k) for v in rep.values())
        assert all(is_canonical_exact(v) for v in coords.values())


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 8))
    faces = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5),
                          max_size=6))
    return complex_from_simplices(n, faces)


class TestEngineAgainstGreedyOracle:
    @given(small_complexes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_complexes(self, cx, data):
        eng = StageCohomology.of_complex(cx)
        top = max(d for d, group in cx.simplices.items() if group)
        degrees = data.draw(st.permutations(range(top + 1)))
        check_engine_against_oracle(eng, lambda k: coboundary_columns(cx, k), degrees,
                                    random.Random(data.draw(st.integers(0, 10 ** 6))))

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cone_rips_stages(self, n, max_dim, data):
        """Full Rips stages at or past the enclosing radius, the ones a
        cut filtration replaces by the star, give the oracle's reps,
        dimensions and coordinates by plain elimination."""
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        m = random_exact_space(rng, n)
        f = build_filtration(m, max_dim)
        bounds = [0, *f.critical_values]
        cones = [cx for bound, cx in zip(bounds, f.stages) if bound >= m.enclosing_radius()]
        assert cones and cones[-1] is f.stages[-1]
        for cx in cones:
            eng = StageCohomology.of_complex(cx)
            degrees = data.draw(st.permutations(range(max_dim + 1)))
            check_engine_against_oracle(eng, lambda k: coboundary_columns(cx, k), degrees, rng)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_random_sullivan_algebras(self, seed):
        rng = random.Random(seed)
        alg = random_sullivan(rng)
        eng = StageCohomology.of_cdga(alg, alg.trunc - 1)
        degrees = list(range(alg.trunc))
        rng.shuffle(degrees)
        check_engine_against_oracle(eng, alg.d_columns, degrees, rng)

    def test_each_column_added_once(self, monkeypatch):
        """Every column of every d^k reaches a reducer at most once, and
        the cleared ones (rank d^{k-1} of them) never."""
        cx = torus7()
        fetched = {}

        def columns(k):
            assert k not in fetched, f"d^{k} fetched twice"
            fetched[k] = coboundary_columns(cx, k)
            return fetched[k]

        # a complex's columns reach the reducer through the batch entry;
        # `add` is counted too, so a column sent both ways shows twice
        added = []
        real_add, real_add_fresh = ColumnReducer.add, ColumnReducer.add_fresh
        monkeypatch.setattr(ColumnReducer, "add",
                            lambda red, col: added.append(id(col)) or real_add(red, col))

        def add_fresh(red, cols, skip=()):
            added.extend(id(c) for j, c in enumerate(cols) if j not in skip)
            return real_add_fresh(red, cols, skip)
        monkeypatch.setattr(ColumnReducer, "add_fresh", add_fresh)
        monkeypatch.setattr(StageCohomology, "of_complex", staticmethod(
            lambda c: StageCohomology(lambda k: len(c.dim_simplices(k)), columns, cx=c)))
        ring = CohomologyRing.from_complex(cx, 2)
        eng = ring.engine
        for k in range(3):
            reps = eng.h_reps(k)
            for i, rep in enumerate(reps):
                assert dense(eng.class_of(k, rep), eng.h_dim(k)) == \
                    [int(i == j) for j in range(len(reps))]
        assert sorted(fetched) == [0, 1, 2]
        assert ring.dim(1) == 2 and ring.mul_basis(1, 0, 1, 1)
        for k, (cols, _) in fetched.items():
            ids = {id(c) for c in cols}
            hits = [i for i in added if i in ids]
            assert len(hits) == len(set(hits))
            assert len(hits) == len(cols) - eng.rank_delta(k - 1)


@st.composite
def multi_component_complexes(draw):
    """Disjoint unions of 2-4 small blocks, each a hollow polygon (a
    degree-1 class) or random faces, on shuffled vertices so that the
    components interleave in the vertex order."""
    faces, n = [], 0
    for _ in range(draw(st.integers(2, 4))):
        m = draw(st.integers(1, 5))
        if m >= 3 and draw(st.booleans()):
            block = [[v, (v + 1) % m] for v in range(m)]
        else:
            block = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=4),
                                  max_size=4))
        faces += [[n + v for v in f] for f in block]
        n += m
    perm = draw(st.permutations(range(n)))
    return complex_from_simplices(n, [[perm[v] for v in f] for f in faces])


class TestDegreeZeroProducts:
    @given(multi_component_complexes())
    @settings(max_examples=80, deadline=None)
    def test_labels_match_cup_route(self, cx):
        """Every product of basis classes of a complex-backed ring, the
        degree-0 ones read off the labels, its unit, and the degree-0
        products of its unital core equal the cup route's; the ring
        stores only products of positive degrees."""
        max_deg = 3
        ring = CohomologyRing.from_complex(cx, max_deg)
        eng = ring.engine
        reps = {k: eng.h_reps(k) for k in range(max_deg + 1) if eng.h_reps(k)}
        structure, unit = oracles.cup_route_ring(cx, reps, eng.class_of, max_deg)
        keys = {(p, i, q, j) for p in range(max_deg + 1) for q in range(max_deg + 1 - p)
                for i in range(ring.dim(p)) for j in range(ring.dim(q))}
        assert keys == set(structure)
        for key, val in structure.items():
            got = ring.mul_basis(*key)
            assert got == val and all(is_canonical_exact(v) for v in got.values())
        assert all(p and q and structure[(p, i, q, j)] == val
                   for (p, i, q, j), val in ring.structure.items())
        assert dense(ring.unit_coords(), ring.dim(0)) == unit
        assert all(is_canonical_exact(v) for v in ring.unit_coords().values())
        core = ring.unital_core()
        # the core's H^0 is spanned by the constant 1, so the class of a
        # degree-0 cocycle there is its value at any vertex
        one = {0: [{v: Fraction(1) for v in range(cx.n_vertices)}]}
        core_structure, core_unit = oracles.cup_route_ring(
            cx, {**reps, **one}, lambda k, c: eng.class_of(k, c) if k else {0: c[0]},
            max_deg)
        for (p, i, q, j), val in core_structure.items():
            if p == 0 or q == 0:
                assert core.mul_basis(p, i, q, j) == val
        assert dense(core.unit_coords(), 1) == core_unit == [1]

    def test_invariant_breach(self):
        cx = complex_from_simplices(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
        eng = StageCohomology.of_complex(cx)
        eng._reps[0] = [{v: 2 * c for v, c in rep.items()} for rep in eng.h_reps(0)]
        with pytest.raises(InputError, match="invariant breach"):
            CohomologyRing(1, eng).dim(0)
        eng = StageCohomology.of_complex(cx)
        a, b = eng.h_reps(1)
        eng._reps[1] = [{**a, **b}, b]
        ring = CohomologyRing(1, eng)
        ring.dim(0)
        with pytest.raises(InputError, match="invariant breach"):
            ring.dim(1)


def corrupted_columns(cols, rng):
    """A copy of an induced map's sparse columns with one entry set to a
    random value, or two columns of one degree swapped."""
    cols = [[dict(c) for c in block] for block in cols]
    k = rng.choice([k for k, block in enumerate(cols) if block])
    block = cols[k]
    if len(block) > 1 and rng.random() < 0.25:
        a, b = rng.sample(range(len(block)), 2)
        block[a], block[b] = block[b], block[a]
        return cols
    rows = {t for c in block for t in c} | {rng.randint(0, 3)}
    col, t = rng.choice(block), rng.choice(sorted(rows))
    col[t] = rng.choice([0, 1, 1, 2, -1, Fraction(1, 2)])
    return cols


def linear_map(cols, ring_small, ring_big, hi):
    """The graded map with the given sparse columns (None if a row index
    lies outside the small ring's degree)."""
    mats = {}
    for k, block in enumerate(cols):
        ns = ring_small.dim(k)
        if any(t >= ns for c in block for t in c):
            return None
        if block:
            mats[k] = RatMatrix.from_columns(block, rows=ns)
    return GradedLinearMap(ring_big.space(hi), ring_small.space(hi), mats)


def multiplicative(f, ring_small, ring_big, hi) -> bool:
    try:
        _verify_multiplicative(f, ring_small, ring_big, hi)
    except InputError:
        return False
    return True


def map_columns(f, hi):
    return [f.matrix(k).sparse_columns() for k in range(hi + 1)]


def h0_route(small_ring, big_ring):
    """(columns, None) of the H^0 block by the restriction route, or
    (None, the InputError it raised)."""
    try:
        return oracles.restriction_route_columns(
            small_ring.engine.cx, big_ring.engine.cx, big_ring.basis[0],
            small_ring.engine.class_of, 0), None
    except InputError as e:
        return None, e


def two_triangles():
    return complex_from_simplices(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])


class TestDegreeZeroInducedMaps:
    @given(multi_component_complexes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_labels_match_restriction_route(self, cx, data):
        """For a random subcomplex on the same vertices, the H^0 block
        read off the labels equals the restriction route's, and so does
        the map on pairs the route refuses: the subcomplex as the big
        stage, or with extra vertices the big stage lacks.  The
        degree-0 multiplicativity check agrees with the bilinear loop
        on the true map and on corrupted copies of it."""
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        n, hi = cx.n_vertices, 2
        faces = [s for d, group in cx.simplices.items() if d for s in group
                 if rng.random() < 0.6]
        sub = complex_from_simplices(n, faces)
        big, small = (CohomologyRing.from_complex(c, hi) for c in (cx, sub))
        f = induced_ring_map(small, big, hi)
        assert f.matrix(0).sparse_columns() == h0_route(small, big)[0]
        cols = map_columns(f, hi)
        assert oracles.bilinear_multiplicative(cols, small, big, hi)
        for _ in range(8):
            g = linear_map(corrupted_columns(cols, rng), small, big, hi)
            if g is not None:
                assert multiplicative(g, small, big, hi) == \
                    oracles.bilinear_multiplicative(map_columns(g, hi), small, big, hi)
        extra = rng.randint(1, 3)
        ties = [[n + e, rng.randrange(n + e)] for e in range(extra) if rng.random() < 0.5]
        odd_pairs = [(big, small),
                     (CohomologyRing.from_complex(complex_from_simplices(
                         n + extra, faces + ties), hi), big)]
        for s_ring, b_ring in odd_pairs:
            want, error = h0_route(s_ring, b_ring)
            if error is None:
                assert _h0_columns(s_ring, b_ring) == want
            else:
                with pytest.raises(InputError):
                    _h0_columns(s_ring, b_ring)

    @pytest.mark.parametrize("case", ["entry of 2", "under two components",
                                      "degree 1 on another component"])
    def test_corrupted_map_raises(self, case):
        """Each corruption of the identity on two disjoint hollow
        triangles fails the induced-map check and the bilinear loop."""
        ring = CohomologyRing.from_complex(two_triangles(), 2)
        cols = map_columns(induced_ring_map(ring, ring, 2), 2)
        assert ring.dim(0) == ring.dim(1) == 2
        if case == "entry of 2":
            cols[0][0] = {0: Fraction(2)}
        elif case == "under two components":
            cols[0][1] = {0: Fraction(1), 1: Fraction(1)}
        else:
            cols[1] = cols[1][::-1]
        f = linear_map(cols, ring, ring, 2)
        assert not oracles.bilinear_multiplicative(cols, ring, ring, 2)
        with pytest.raises(InputError, match="not multiplicative"):
            _verify_multiplicative(f, ring, ring, 2)

    @pytest.mark.parametrize("small_faces, big_faces", [
        ((3, [[0, 1]]), (3, [[1, 2]])),               # {0, 1} split in the big stage
        ((4, [[0, 3]]), (3, [[0, 1], [1, 2]])),       # vertex 3 missing from it
    ])
    def test_split_small_component_raises(self, small_faces, big_faces):
        small, big = (CohomologyRing.from_complex(complex_from_simplices(*faces), 1)
                      for faces in (small_faces, big_faces))
        assert h0_route(small, big)[1] is not None
        with pytest.raises(InputError):
            induced_ring_map(small, big)


class TestCupProduct:
    def test_unit_acts_as_identity(self):
        cx = torus7()
        one = {v: Fraction(1) for v in range(7)}
        b = cohomology_basis(cx, 1)[0]
        assert cup_product(cx, one, 0, b, 1) == b

    def test_torus_h1_pairing_generates_h2(self):
        ring = cohomology_ring(torus7(), 2)
        assert ring.dim(1) == 2 and ring.dim(2) == 1
        prod = ring.mul_basis(1, 0, 1, 1)
        assert prod and list(prod.values())[0] != 0

    def test_product_beyond_dimension_is_zero(self):
        cx = hollow_triangle()
        a = cohomology_basis(cx, 1)[0]
        assert cup_product(cx, a, 1, a, 1) == {}

    def test_leibniz(self):
        cx = torus7()
        rng = random.Random(3)
        n0, n1, n2 = 7, len(cx.dim_simplices(1)), len(cx.dim_simplices(2))
        a = sparse([Fraction(rng.randint(-2, 2)) for _ in range(n0)])
        b = sparse([Fraction(rng.randint(-2, 2)) for _ in range(n1)])
        d = coboundaries(cx, 2)
        lhs = dense(d[1].apply_sparse(cup_product(cx, a, 0, b, 1)), n2)
        da_b = dense(cup_product(cx, d[0].apply_sparse(a), 1, b, 1), n2)
        a_db = dense(cup_product(cx, a, 0, d[1].apply_sparse(b), 2), n2)
        rhs = [x + y for x, y in zip(da_b, a_db)]  # deg(a) = 0, sign +1
        assert lhs == rhs

    def test_leibniz_odd_degree(self):
        cx = octahedron()
        rng = random.Random(9)
        n1, n3 = len(cx.dim_simplices(1)), len(cx.dim_simplices(3))
        a = sparse([Fraction(rng.randint(-2, 2)) for _ in range(n1)])
        b = sparse([Fraction(rng.randint(-2, 2)) for _ in range(n1)])
        d = coboundaries(cx, 3)
        lhs = dense(d[2].apply_sparse(cup_product(cx, a, 1, b, 1)), n3)
        da_b = dense(cup_product(cx, d[1].apply_sparse(a), 2, b, 1), n3)
        a_db = dense(cup_product(cx, a, 1, d[1].apply_sparse(b), 2), n3)
        rhs = [x - y for x, y in zip(da_b, a_db)]  # (-1)^1
        assert lhs == rhs


class TestAnswerTypes:
    def test_structure_and_unit_are_canonical(self):
        # reps and class coordinates are checked in
        # check_engine_against_oracle; the ring stores class_of's answers
        # and, for a degree-0 factor, the component rules' 1
        ring = cohomology_ring(torus7(), 2)
        assert ring.structure and all(is_canonical_exact(v) for val in ring.structure.values()
                                      for v in val.values())
        assert all(is_canonical_exact(v) for v in ring.unit_coords().values())


class TestCohomologyRing:
    def test_hollow_triangle_ring(self):
        ring = cohomology_ring(hollow_triangle(), 2)
        assert ring.dim(0) == 1 and ring.dim(1) == 1 and ring.dim(2) == 0
        assert ring.mul_basis(1, 0, 1, 0) == {}  # odd square

    def test_octahedron_ring(self):
        ring = cohomology_ring(octahedron(), 4)
        assert ring.dim(2) == 1
        assert ring.mul_basis(2, 0, 2, 0) == {}  # lands in empty degree 4

    def test_torus_ring_vertex_order_invariance(self):
        base = cohomology_ring(torus7(), 2)
        perm = [3, 6, 0, 5, 1, 4, 2]
        other = cohomology_ring(torus7(perm), 2)
        for k in range(3):
            assert base.dim(k) == other.dim(k)
        for ring in (base, other):
            assert ring.mul_basis(1, 0, 1, 1) != {}

    def test_unit_coords(self):
        ring = cohomology_ring(torus7(), 2)
        u = ring.unit_coords()
        assert len(u) == 1 and u[0] != 0

    def test_abstract_ring_axioms_checked(self):
        with pytest.raises(InputError):
            # product violating graded commutativity in odd degrees
            CohomologyRing.from_data(
                2,
                {0: ["one"], 1: ["x", "y"], 2: ["z"]},
                {(1, 0, 1, 1): {0: 1}, (1, 1, 1, 0): {0: 1}},
            )

    def test_abstract_ring_unit_entries(self):
        # an abstract ring stores its unit products, and a one-sided
        # change to one of them breaks graded commutativity
        ring = CohomologyRing.from_data(1, {0: ["one"], 1: ["x"]}, {})
        assert ring.structure[(0, 0, 1, 0)] == ring.structure[(1, 0, 0, 0)] == {0: 1}
        with pytest.raises(InputError, match="commutativity"):
            CohomologyRing.from_data(1, {0: ["one"], 1: ["x"]}, {(0, 0, 1, 0): {0: 2}})

    def test_abstract_ring_associativity_checked(self):
        # Q[a]/(a^4), |a| = 2, on the scaled basis a, u = a^2/2, w = a^3/6:
        # both bracketings of a.a.a carry coefficients other than 1
        labels = {0: ["one"], 2: ["a"], 4: ["u"], 6: ["w"]}
        ring = CohomologyRing.from_data(6, labels, {
            (2, 0, 2, 0): {0: 2}, (2, 0, 4, 0): {0: 3}, (4, 0, 2, 0): {0: 3}})
        assert ring.mul_basis(2, 0, 4, 0) == {0: Fraction(3)}
        with pytest.raises(InputError, match="associativity"):
            # a second degree-2 class c with a.c = 0 but u.c = w:
            # (a.a).c = 2w while a.(a.c) = 0
            CohomologyRing.from_data(6, {0: ["one"], 2: ["a", "c"], 4: ["u"], 6: ["w"]}, {
                (2, 0, 2, 0): {0: 2}, (4, 0, 2, 1): {0: 1}, (2, 1, 4, 0): {0: 1}})

    def test_unital_core_collapses_components(self):
        m = metric_from_matrix([[0, 1], [1, 0]])
        f = build_filtration(m, max_dim=1)
        ring = cohomology_ring(f.stages[0], 1)
        assert ring.dim(0) == 2
        core = ring.unital_core()
        assert core.dim(0) == 1
        assert core.mul_basis(0, 0, 0, 0) == {0: Fraction(1)}

    def test_core_key_sees_cup_products(self):
        # S^1 v S^1 v S^2 has the torus's Betti numbers 1, 2, 1, but its
        # degree-1 classes multiply to zero
        sphere = itertools.combinations([0, 5, 6, 7], 3)
        wedge = complex_from_simplices(
            8, [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4], *sphere])

        def core(cx):
            return CohomologyRing.from_complex(cx, 3).unital_core()

        torus, other = core(torus7()), core(wedge)
        assert [other.dim(k) for k in range(3)] == [torus.dim(k) for k in range(3)] == [1, 2, 1]
        assert torus.core_key(2) != other.core_key(2)
        assert torus.core_key(2) == core(torus7()).core_key(2)

    def test_core_key_leaves_top_degree_unmaterialized(self):
        n = 13
        rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
                for i in range(n)]
        last = build_filtration(metric_from_matrix(rows), max_dim=5).stages[-1]
        core = CohomologyRing.from_complex(last, 5).unital_core()
        core.core_key(4)
        assert 5 not in core.basis

    def test_star_ring_leaves_top_degree_unmaterialized(self, monkeypatch):
        # circle-13 at degree 4 of max_dim 5: the star stands in for the
        # last stage, whose truncation at dimension 5 gives it an H^5 the
        # star lacks; the model must never ask the star's ring for it
        n = 13
        rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
                for i in range(n)]
        built = []
        from_complex = CohomologyRing.from_complex

        def record(cx, max_deg):
            built.append(from_complex(cx, max_deg))
            return built[-1]

        monkeypatch.setattr(CohomologyRing, "from_complex", staticmethod(record))
        psm = persistent_model(metric_from_matrix(rows), Config(max_degree=4))
        star = built[-1]  # one ring per distinct stage, the star's last
        assert star.engine.cx == complex_from_simplices(n, [(0, v) for v in range(1, n)])
        assert psm.h_spaces[-1].dims == ((0, 1),)
        assert star.max_deg == 5 and 5 not in star.basis


    def test_production_ring_checks_top_degree_products(self, monkeypatch):
        # a 4-cycle and an octahedron far apart: at scale 1 the stage has
        # H^1 = Q from the cycle and H^2 = Q from the octahedron, so at
        # max degree 1 its ring's top degree 2 holds the product a.a
        n = 10
        rows = [[Fraction(0 if i == j else 10) for j in range(n)] for i in range(n)]
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j] = rows[j][i] = Fraction(2 if j - i == 2 else 1)
        for i in range(4, n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(2 if j - i == 3 else 1)  # antipodes
        m = metric_from_matrix(rows)
        ring = CohomologyRing.from_complex(build_filtration(m, max_dim=2).stages[1], 2)
        assert [ring.dim(k) for k in range(3)] == [2, 1, 1]
        class_of = StageCohomology.class_of

        def skewed(eng, k, cochain):
            # a.a = b, which graded commutativity forbids for |a| = 1
            return {0: Fraction(1)} if eng.cx is not None and k == 2 else \
                class_of(eng, k, cochain)

        monkeypatch.setattr(StageCohomology, "class_of", skewed)
        with pytest.raises(InputError, match="graded commutativity fails at"):
            persistent_model(m, Config(max_degree=1))


class TestInducedMaps:
    def test_identity_inclusion(self):
        ring = cohomology_ring(torus7(), 2)
        f = induced_ring_map(ring, ring)
        for k in range(3):
            from psmm.ratlin import RatMatrix
            assert f.matrix(k) == RatMatrix.identity(ring.dim(k))

    def test_square_collapse(self):
        sq = metric_from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
        f = build_filtration(sq, max_dim=2)
        r1 = cohomology_ring(f.stages[1], 2)
        r2 = cohomology_ring(f.stages[2], 2)
        assert r1.dim(1) == 1 and r2.dim(1) == 0
        g = induced_ring_map(r1, r2)
        assert g.matrix(1).cols == 0 and g.matrix(1).rows == 1

    def test_circle_consecutive_iso(self):
        import math
        n = 12
        rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
                for i in range(n)]
        m = metric_from_matrix(rows)
        f = build_filtration(m, max_dim=2)
        rings = [cohomology_ring(cx, 2) for cx in f.stages[:4]]
        for k in range(1, 3):
            if rings[k].dim(1) == 1 and rings[k + 1].dim(1) == 1:
                g = induced_ring_map(rings[k], rings[k + 1])
                assert g.matrix(1).tolist()[0][0] != 0

    def test_functoriality_composite(self):
        rng = random.Random(23)
        m = random_exact_space(rng, 5)
        f = build_filtration(m, max_dim=3)
        rings = [cohomology_ring(cx, 2) for cx in f.stages]
        for i in range(len(rings) - 2):
            f10 = induced_ring_map(rings[i], rings[i + 1])
            f21 = induced_ring_map(rings[i + 1], rings[i + 2])
            f20 = induced_ring_map(rings[i], rings[i + 2])
            assert f10.compose_after(f21).equals(f20)
