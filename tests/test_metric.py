import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import validate_complex
from oracles import complex_betti, find_cone_apex, gh_bisection, gh_exhaustive
from psmm.errors import CapExceeded, InputError
from psmm.metric import (
    build_filtration,
    complex_from_simplices,
    gh_bruteforce,
    load_metric,
    metric_from_matrix,
    metric_from_points,
    rips_simplices,
)


def square_space():
    return metric_from_points([[0, 0], [1, 0], [1, 1], [0, 1]])


def circle_space(n=20):
    rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
            for i in range(n)]
    return metric_from_matrix(rows)


def random_space(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(1, 9), 4)
            rows[i][j] = rows[j][i] = v
    return metric_from_matrix(rows)


class TestLoadMetric:
    def test_distance_matrix(self):
        m = load_metric({"distance_matrix": [[0, 1], [1, 0]]})
        assert m.n == 2 and m.d(0, 1) == 1 and m.exact

    def test_points_unit_square(self):
        m = load_metric({"points": [[0, 0], [1, 0], [1, 1], [0, 1]]})
        vals = m.positive_distances()
        assert vals == [1.0, math.sqrt(2)]
        assert not m.exact

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            load_metric({"distance_matrix": [[0, 1], [2, 0]]})

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InputError):
            metric_from_matrix([[1]])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            metric_from_matrix([[0, -1], [-1, 0]])

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="NaN or infinite"):
                metric_from_matrix([[0, bad], [bad, 0]])
            with pytest.raises(InputError, match="NaN or infinite"):
                metric_from_points([[0, 0], [1, bad], [2, 0]])
        with pytest.raises(InputError, match="overflows"):
            metric_from_points([[-1e308, 0], [1e308, 0]])

    def test_rational_strings_normalized(self):
        m = metric_from_matrix([[0, "2/4"], ["2/4", 0]])
        assert m.d(0, 1) == Fraction(1, 2) and m.exact


class TestFiltration:
    def test_two_point(self):
        m = load_metric({"distance_matrix": [[0, 1], [1, 0]]})
        f = build_filtration(m, max_dim=1)
        assert f.critical_values == (1,)
        assert f.stages[0].dim_simplices(0) == ((0,), (1,))
        assert f.stages[0].dim_simplices(1) == ()
        assert f.stages[1].dim_simplices(1) == ((0, 1),)

    def test_unit_square(self):
        f = build_filtration(square_space(), max_dim=2)
        assert len(f.critical_values) == 2
        assert f.critical_values[0] == 1.0
        assert f.critical_values[1] == math.sqrt(2)
        s1 = f.stages[1]
        assert len(s1.dim_simplices(1)) == 4  # the 4-cycle
        assert s1.dim_simplices(2) == ()  # every triangle has a sqrt(2) side
        s2 = f.stages[2]
        assert len(s2.dim_simplices(1)) == 6
        assert len(s2.dim_simplices(2)) == 4

    def test_circle20_grid(self):
        f = build_filtration(circle_space(20), max_dim=1)
        assert len(f.critical_values) == 10
        for k, d in enumerate(f.critical_values, start=1):
            assert abs(d - k * math.pi / 10) < 1e-12

    def test_nesting_and_closure(self):
        import random
        rng = random.Random(7)
        m = random_space(rng, 5)
        f = build_filtration(m, max_dim=3)
        for k in range(f.num_stages):
            validate_complex(f.stages[k])
            if k + 1 < f.num_stages:
                late = {s for g in f.stages[k + 1].simplices.values() for s in g}
                for g in f.stages[k].simplices.values():
                    for s in g:
                        assert s in late

    def test_diameters_match_membership(self):
        import random
        rng = random.Random(3)
        m = random_space(rng, 5)
        f = build_filtration(m, max_dim=3)
        for k in range(1, f.num_stages):
            bound = f.critical_values[k - 1]
            for d, group in f.stages[k].simplices.items():
                for s in group:
                    diam = max((m.d(i, j) for i, j in itertools.combinations(s, 2)),
                               default=Fraction(0))
                    assert diam <= bound

    def test_scaling_invariance(self):
        import random
        rng = random.Random(11)
        m = random_space(rng, 5)
        f = build_filtration(m, max_dim=2)
        f2 = build_filtration(m.scaled(Fraction(3)), max_dim=2)
        assert tuple(3 * d for d in f.critical_values) == f2.critical_values
        for a, b in zip(f.stages, f2.stages):
            assert a.simplices == b.simplices

    def test_simplex_cap(self):
        with pytest.raises(CapExceeded):
            build_filtration(circle_space(20), max_dim=4, simplex_cap=100)

    def test_rips_simplices_lexicographic_with_diameters(self):
        import random
        m = random_space(random.Random(5), 5)
        simplices = rips_simplices(m, 3)
        assert sorted(simplices) == [0, 1, 2, 3]
        keys = m.keys[0]
        for d, group in simplices.items():
            assert [s for s, _ in group] == list(itertools.combinations(range(5), d + 1))
            for s, diam in group:
                # the diameter as a key: an int on the scale of the quarters
                assert diam == max((keys[i][j] for i, j in itertools.combinations(s, 2)),
                                   default=0)
                assert type(diam) is int
                assert m.value(diam) == max((m.d(i, j) for i, j in itertools.combinations(s, 2)),
                                            default=Fraction(0))

    def test_rips_simplices_cap_is_the_final_count(self):
        import random
        # 6 points through dimension 2: 6 + 15 + 20 simplices
        m = random_space(random.Random(1), 6)
        assert sum(map(len, rips_simplices(m, 2, simplex_cap=41).values())) == 41
        with pytest.raises(CapExceeded):
            rips_simplices(m, 2, simplex_cap=40)
        with pytest.raises(InputError):
            rips_simplices(m, -1)
        # the vertices alone are never capped
        assert len(rips_simplices(m, 0, simplex_cap=0)[0]) == 6

    def test_bounded_cap_is_still_the_final_count(self):
        import random
        # a bound that keeps only the vertices still counts all 41 simplices
        m = random_space(random.Random(1), 6)
        assert sum(map(len, rips_simplices(m, 2, max_diameter=Fraction(0)).values())) == 6
        with pytest.raises(CapExceeded):
            rips_simplices(m, 2, simplex_cap=40, max_diameter=Fraction(0))
        with pytest.raises(CapExceeded):
            build_filtration(m, 2, simplex_cap=40, max_degree=1)

    def test_enclosing_radius(self):
        m = metric_from_matrix([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        assert m.enclosing_radius() == 2
        assert metric_from_matrix([[0]]).enclosing_radius() == 0


class TestConeDetection:
    def test_full_simplex_is_cone(self):
        m = load_metric({"distance_matrix": [[0, 1], [1, 0]]})
        f = build_filtration(m, max_dim=1)
        assert find_cone_apex(f.stages[1]) == (0, True)

    def test_hollow_triangle_is_truncated_cone_only(self):
        # 1-skeleton of a cone; vanishing below the top dimension is vacuous here
        k = complex_from_simplices(3, [[0, 1], [1, 2], [0, 2]])
        assert find_cone_apex(k) == (0, False)

    def test_cycle_not_cone(self):
        k = complex_from_simplices(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert find_cone_apex(k) is None

    def test_circle20_final_stage_cone(self):
        f = build_filtration(circle_space(20), max_dim=2)
        apex = find_cone_apex(f.stages[-1])
        assert apex is not None and apex[1] is False  # capped at dim 2
        assert find_cone_apex(f.stages[5]) is None
        cut = build_filtration(circle_space(20), max_dim=2, max_degree=1)
        assert cut.stages[5] == f.stages[5]
        assert cut.stages[-1] == star(20)


def star(n):
    """The complex a filtration cut below max_dim puts at and past the
    enclosing radius: vertex 0 joined to every other vertex."""
    return complex_from_simplices(n, [(0, v) for v in range(1, n)])


@st.composite
def rips_spaces(draw):
    """1-7 points: an exact matrix with ties and zero distances, or float
    planar points."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(draw(st.integers(0, 4)), 2)
        return metric_from_matrix(rows)
    coord = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    return metric_from_points([[draw(coord), draw(coord)] for _ in range(n)])


@given(rips_spaces(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_bounded_rips_simplices_filter_the_full_list(m, max_dim, data):
    """The diameter bound, a key, keeps exactly the simplices the full
    list has within it, in the same order, at a tie, a zero or a gap."""
    bound = data.draw(st.sampled_from([0, *m.positive_keys()]))
    if data.draw(st.booleans()):
        bound = bound + Fraction(1, 4)  # between grid keys
    full = rips_simplices(m, max_dim)
    assert rips_simplices(m, max_dim, max_diameter=bound) == {
        d: [sv for sv in group if sv[1] <= bound] for d, group in full.items()}


class TestConeMark:
    """The enclosing radius marks the Rips stages that are cones, and a
    filtration cut for degrees below max_dim puts one shared star there,
    which has the same cohomology below max_dim."""

    @given(rips_spaces(), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_mark_matches_apex_search(self, m, max_dim):
        """A full stage has an apex exactly when it lies at or past the
        radius (with edges, or on one point), and then it is acyclic
        below max_dim."""
        f = build_filtration(m, max_dim)
        radius = m.enclosing_radius()
        for bound, cx in zip([m.d(0, 0), *f.critical_values], f.stages):
            cone = bound >= radius and (max_dim >= 1 or m.n == 1)
            assert (find_cone_apex(cx) is not None) == cone
            if cone:
                betti = complex_betti(cx, max(max_dim - 1, 0))
                assert betti == {k: int(k == 0) for k in betti}

    def test_no_mark_without_edges(self):
        # at max_dim 0 no degree lies below max_dim, so nothing is cut
        m = metric_from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        full = build_filtration(m, 0)
        assert not any(find_cone_apex(cx) for cx in full.stages)
        assert build_filtration(m, 0, max_degree=0).stages == full.stages
        full = build_filtration(m, 1)
        assert [find_cone_apex(cx) is not None for cx in full.stages] == [False, True, True]
        cut = build_filtration(m, 1, max_degree=0)
        assert cut.stages[0] == full.stages[0]
        assert cut.stages[1] is cut.stages[2] and cut.stages[1] == star(3)

    def test_one_point_marked_at_stage_zero(self):
        m = metric_from_matrix([[0]])
        for max_dim in (0, 2):
            f = build_filtration(m, max_dim)
            assert [find_cone_apex(cx) for cx in f.stages] == [(0, True)]
        assert build_filtration(m, 2, max_degree=1).stages == (star(1),)

    def test_coincident_points(self):
        # all points coincide: the one stage is a full simplex
        m = metric_from_matrix([[0] * 3] * 3)
        assert find_cone_apex(build_filtration(m, 2).stages[0]) == (0, True)
        assert build_filtration(m, 2, max_degree=1).stages == (star(3),)
        # two coincide, the third is apart: stage 0 is not a cone
        m = metric_from_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        full = build_filtration(m, 2)
        assert [find_cone_apex(cx) is not None for cx in full.stages] == [False, True]
        assert build_filtration(m, 2, max_degree=1).stages == (full.stages[0], star(3))

    @given(rips_spaces(), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_cut_for_lower_degrees(self, m, max_dim, max_degree):
        """Cut for degrees below max_dim, the stages before the radius
        are the full ones, and every stage from it on is one star with
        the full stage's Betti numbers below max_dim; otherwise nothing
        changes."""
        full = build_filtration(m, max_dim)
        cut = build_filtration(m, max_dim, max_degree=max_degree)
        assert cut.critical_values == full.critical_values
        if max_degree >= max_dim:
            assert cut.stages == full.stages
            return
        radius = m.enclosing_radius()
        bounds = [m.d(0, 0), *full.critical_values]
        cones = [k for k, bound in enumerate(bounds) if bound >= radius]
        assert cones and cones[-1] == len(bounds) - 1
        assert cut.stages[:cones[0]] == full.stages[:cones[0]]
        shared = cut.stages[cones[0]]
        assert shared == star(m.n) and all(cut.stages[k] is shared for k in cones)
        for k in cones:
            assert complex_betti(shared, max_dim - 1) == complex_betti(full.stages[k],
                                                                       max_dim - 1)


@st.composite
def gh_spaces(draw, n):
    """A space of n points from exact or float entries, coincident points
    and triangle-breaking matrices included."""
    if draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6]))
    else:
        entry = st.one_of(st.integers(0, 12).map(lambda k: k / 4), st.floats(0, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return metric_from_matrix(rows)


def assert_same_value_and_type(got, want):
    assert got == want and type(got) is type(want), (got, want)


class TestKeys:
    """The key matrix is derived data: built on first use and kept, it
    never shows in equality, hashing, copies or pickles."""

    def spaces(self):
        exact = metric_from_matrix([[0, "1/2", "2/3"], ["1/2", 0, 5], ["2/3", 5, 0]])
        return exact, square_space()

    def test_exact_keys_on_one_integer_scale(self):
        m = self.spaces()[0]
        assert m.keys == (((0, 3, 4), (3, 0, 30), (4, 30, 0)), 6)
        assert all(type(k) is int for row in m.keys[0] for k in row)
        assert m.positive_keys() == [3, 4, 30]
        assert m.positive_distances() == [Fraction(1, 2), Fraction(2, 3), Fraction(5)]
        assert m.radius_key() == 4 and m.enclosing_radius() == Fraction(2, 3)
        assert all(type(v) is Fraction for v in m.positive_distances())

    def test_float_keys_are_the_matrix(self):
        m = self.spaces()[1]
        assert m.keys == (m.dist, None) and m.value(m.radius_key()) == math.sqrt(2)

    def test_keys_do_not_show(self):
        for m in self.spaces():
            fresh = metric_from_matrix(m.dist) if m.exact else square_space()
            blob = pickle.dumps(fresh)
            m.keys
            assert "keys" in vars(m) and "keys" not in vars(fresh)
            assert m == fresh and hash(m) == hash(fresh)
            assert pickle.dumps(m) == blob
            for twin in (pickle.loads(blob), copy.copy(m), copy.deepcopy(m)):
                assert twin == m and "keys" not in vars(twin)
                assert twin.keys == m.keys

    def test_scaled_gets_fresh_keys(self):
        m = self.spaces()[0]
        m.keys
        for lam, want in ((Fraction(3, 7), 14), (2, 3)):
            s = m.scaled(lam)
            assert "keys" not in vars(s) and s.keys[1] == want
            assert all(s.value(k) == v for row, krow in zip(s.dist, s.keys[0])
                       for v, k in zip(row, krow))
        assert m.scaled(0.5).keys == (m.scaled(0.5).dist, None)


class TestGromovHausdorff:
    def test_self_distance_zero(self):
        m = square_space()
        assert gh_bruteforce(m, m) == 0

    def test_point_vs_pair(self):
        one = metric_from_matrix([[0]])
        two = metric_from_matrix([[0, 1], [1, 0]])
        assert gh_bruteforce(one, two) == Fraction(1, 2)

    def test_square_vs_scaled_matches_exhaustive(self):
        x = square_space()
        y = metric_from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        got = gh_bruteforce(x, y)
        assert got == gh_exhaustive(x.dist, y.dist)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection(self, data):
        x = data.draw(gh_spaces(data.draw(st.integers(1, 5))))
        y = data.draw(gh_spaces(data.draw(st.integers(1, 5))))
        assert_same_value_and_type(gh_bruteforce(x, y), gh_bisection(x.dist, y.dist))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_bisection_thin(self, data):
        """1 x n and 2 x n, either way round, up to the default cap of 30."""
        k = data.draw(st.integers(1, 2))
        x = data.draw(gh_spaces(k))
        y = data.draw(gh_spaces(data.draw(st.integers(1, 30 // k))))
        if data.draw(st.booleans()):
            x, y = y, x
        assert_same_value_and_type(gh_bruteforce(x, y), gh_bisection(x.dist, y.dist))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_small_matches_exhaustive(self, data):
        x = data.draw(gh_spaces(data.draw(st.integers(1, 3))))
        y = data.draw(gh_spaces(data.draw(st.integers(1, 3))))
        want = gh_exhaustive(x.dist, y.dist)
        assert gh_bisection(x.dist, y.dist) == want
        assert gh_bruteforce(x, y) == want

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unequal_key_scales(self, data):
        """Sevenths against quarters: the keys are brought to one scale
        only for the search, and the result matches in value and type."""
        def space(q):
            n = data.draw(st.integers(1, 4))
            entry = st.builds(Fraction, st.integers(0, 30), st.just(q))
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = data.draw(entry)
            return metric_from_matrix(rows)

        x, y = space(7), space(4)
        assume(x.keys[1] != y.keys[1])
        keys = x.keys, y.keys
        assert_same_value_and_type(gh_bruteforce(x, y), gh_bisection(x.dist, y.dist))
        assert (x.keys, y.keys) == keys  # the rescaled copies are the search's own

    def test_cap(self):
        m = circle_space(8)
        with pytest.raises(CapExceeded):
            gh_bruteforce(m, m, cap=30)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_triangle(self, data):
        import random
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        spaces = [random_space(rng, rng.randint(2, 4)) for _ in range(3)]
        a, b, c = spaces
        dab, dba = gh_bruteforce(a, b), gh_bruteforce(b, a)
        assert dab == dba
        dac, dbc = gh_bruteforce(a, c), gh_bruteforce(b, c)
        assert dac <= dab + dbc
