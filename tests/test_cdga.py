import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cdga_cohomology,
    check_homotopy_necessary,
    dense,
    gen_offset,
    linear_part,
    make_sullivan,
    monomial_label,
    poly_mul,
    sparse,
)
from psmm.cdga import CDGAMorphism, count_monomials, linear_part_map
from psmm.cohomology import CohomologyRing
from psmm.errors import CapExceeded, InputError
from psmm.ratlin import RatMatrix, combine


def sphere2_model(trunc=8):
    """Generators a(2), b(3) with d(b) = a^2."""
    return make_sullivan([("a", 2), ("b", 3)], {"b": [(1, ["a", "a"])]}, trunc)


def remark_pair(trunc=8):
    """Generators a2(2), b3(3) with d(a2) = b3: valid but not minimal."""
    return make_sullivan([("a2", 2), ("b3", 3)], {"a2": [(1, ["b3"])]}, trunc)


def free_algebra(gens, trunc=8):
    return make_sullivan(gens, {}, trunc)


def random_sullivan(rng, max_gens=5, trunc=8):
    """Random valid Sullivan algebra: each differential is a random
    cocycle in the subalgebra of earlier generators."""
    n = rng.randint(1, max_gens)
    gens = [(f"g{i}", rng.randint(1, 4)) for i in range(n)]
    gens.sort(key=lambda nd: (nd[1], nd[0]))
    diff = {}
    for i in range(n):
        name, d = gens[i]
        if d + 1 > trunc - 1 or i == 0:
            continue
        partial = make_sullivan(gens[:i], diff, trunc)
        from psmm.ratlin import kernel_basis
        ker = kernel_basis(d_matrix(partial, d + 1))
        if ker.cols == 0 or rng.random() < 0.3:
            continue
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(ker.cols)]
        kcols = [dense(col, ker.rows) for col in ker.sparse_columns()]
        vec = [sum(kcols[c][r] * coeffs[c] for c in range(ker.cols))
               for r in range(ker.rows)]
        poly = {partial.monomials(d + 1)[i]: c for i, c in enumerate(vec) if c}
        if poly:
            diff[name] = [(c, list(m_names(partial, m))) for m, c in poly.items()]
    return make_sullivan(gens, diff, trunc)


def m_names(alg, mono):
    return tuple(alg.names[g] for g in mono)


def d_matrix(alg, k):
    """Matrix of d: degree k -> k+1 of a finite CDGA, built from its
    sparse columns; a zero differential gets dim(k+1) zero rows."""
    return RatMatrix.from_columns(alg.d_columns(k)[0], rows=alg.dim(k + 1))


def chain_map_failures(phi):
    """Dense reference for CDGAMorphism.verify_chain_map: the degrees
    k < max_checkable() where matrix(k+1)·d_src(k) != d_tgt(k)·matrix(k)."""
    return [k for k in range(phi.max_checkable())
            if phi.matrix(k + 1).matmul(d_matrix(phi.source, k))
            != d_matrix(phi.target, k).matmul(phi.matrix(k))]


def underlying_ring(alg, max_deg):
    """The graded algebra of `alg` through max_deg as a cohomology ring:
    its monomials as basis classes, its products, zero differential."""
    labels = {k: [monomial_label(alg, m) for m in alg.monomials(k)] for k in range(max_deg + 1)}
    structure = {(p, i, q, j): alg.mul_basis(p, i, q, j)
                 for p in range(max_deg + 1) for q in range(max_deg + 1 - p)
                 for i in range(alg.dim(p)) for j in range(alg.dim(q))}
    return CohomologyRing.from_data(max_deg, labels, structure)


class TestConstruction:
    def test_sphere_model_valid(self):
        alg = sphere2_model()
        assert alg.names == ("a", "b")
        assert alg.is_minimal()

    def test_remark_pair_not_minimal(self):
        alg = remark_pair()
        assert not alg.is_minimal()

    def test_degree_violation(self):
        with pytest.raises(InputError):
            make_sullivan([("a", 2)], {"a": [(1, ["a"])]}, 6)

    def test_odd_square_rejected_in_input(self):
        with pytest.raises(InputError):
            make_sullivan([("x", 1), ("z", 1)], {"z": [(1, ["x", "x"])]}, 6)

    def test_d_squared_checked(self):
        # d(w) = x*y, d(x) = 0, d(y) = x*x would need even x; build a
        # genuine d^2 != 0 case: d(c) = e, d(e) != 0 incompatible
        with pytest.raises(InputError):
            make_sullivan(
                [("c", 2), ("e", 3), ("f", 4)],
                {"c": [(1, ["e"])], "e": [(1, ["f"])]},
                8,
            )

    def test_degree_zero_generator_rejected(self):
        with pytest.raises(InputError):
            make_sullivan([("t", 0)], {}, 4)


class TestMonomialBasis:
    def test_sphere_deg4(self):
        alg = sphere2_model()
        assert [monomial_label(alg, m) for m in alg.monomials(4)] == ["a^2"]

    def test_sphere_deg5(self):
        alg = sphere2_model()
        assert [monomial_label(alg, m) for m in alg.monomials(5)] == ["a*b"]

    def test_degree_zero_is_unit(self):
        alg = sphere2_model()
        assert alg.monomials(0) == [()]
        assert monomial_label(alg, ()) == "1"

    def test_odd_squares_absent(self):
        alg = free_algebra([("x", 1), ("y", 1)], trunc=4)
        labels = [monomial_label(alg, m) for m in alg.monomials(2)]
        assert labels == ["x*y"]

    @given(st.lists(st.integers(1, 5), max_size=8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_basis(self, degrees, deg):
        alg = free_algebra([(f"g{i}", d) for i, d in enumerate(degrees)], trunc=max(deg, 1))
        assert count_monomials(alg.degrees, deg) == len(alg.monomials(deg))

    def test_basis_past_cap_raises_before_enumerating(self):
        # C(128, 4) = 10,668,000 degree-4 monomials on 128 odd generators
        alg = free_algebra([(f"x{i:03d}", 1) for i in range(128)], trunc=4)
        assert count_monomials(alg.degrees, 4) == 10_668_000
        with pytest.raises(CapExceeded, match="monomial basis"):
            alg.monomials(4)
        assert 4 not in alg._monomials


def koszul_oracle(degrees, seq):
    """(sorted(seq), (-1)^(inversions among its odd entries)), or None
    when an odd index repeats."""
    odd = [g for g in seq if degrees[g] % 2]
    if len(set(odd)) < len(odd):
        return None
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return tuple(sorted(seq)), (-1) ** inversions


class TestKoszulSign:
    """`sort_monomial` is the one sign rule; the oracle counts odd
    inversions directly instead of sorting."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_mul_monomials_against_inversion_count(self, data):
        degrees = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
        alg = free_algebra([(f"g{i}", d) for i, d in enumerate(degrees)])
        index = st.integers(0, len(degrees) - 1)

        def canonical(seq):
            m = sorted(seq)
            return tuple(g for i, g in enumerate(m)
                         if not (alg.degrees[g] % 2 and i and m[i - 1] == g))

        for _ in range(5):
            m1 = canonical(data.draw(st.lists(index, max_size=5)))
            m2 = canonical(data.draw(st.lists(index, max_size=5)))
            assert alg.mul_monomials(m1, m2) == koszul_oracle(alg.degrees, m1 + m2)
            seq = data.draw(st.lists(index, max_size=7))
            assert alg.sort_monomial(seq) == koszul_oracle(alg.degrees, seq)


class TestCohomology:
    def test_sphere_model(self):
        space, reps = cdga_cohomology(sphere2_model(), 6)
        assert space.dim(0) == 1 and space.dim(2) == 1
        for k in (1, 3, 4, 5, 6):
            assert space.dim(k) == 0

    def test_formal_product_k2_k3(self):
        alg = free_algebra([("c", 2), ("d", 3)])
        space, reps = cdga_cohomology(alg, 6)
        assert space.dim(4) == 1  # [c^2] survives
        assert space.dim(5) == 1  # [c*d]

    def test_remark_pair_h2_zero(self):
        space, _ = cdga_cohomology(remark_pair(), 6)
        assert space.dim(2) == 0


class TestLinearPart:
    def test_sphere_minimal_q_zero(self):
        space, qmats = linear_part(sphere2_model())
        assert space.dim(2) == 1 and space.dim(3) == 1
        assert qmats == {}

    def test_remark_pair_q_nonzero(self):
        space, qmats = linear_part(remark_pair())
        assert qmats[2].tolist()[0][0] == 1

    def test_zero_differential(self):
        space, qmats = linear_part(free_algebra([("u", 3)]))
        assert space.dim(3) == 1 and qmats == {}

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_minimality_two_routes_agree(self, seed):
        alg = random_sullivan(random.Random(seed))
        _, qmats = linear_part(alg)
        assert alg.is_minimal() == (qmats == {})


class TestMorphisms:
    def test_identity_linear_part(self):
        alg = sphere2_model()
        # images: a -> a (basis deg 2 = [a]), b -> b (deg 3 basis = [b])
        phi = CDGAMorphism(alg, alg, [alg.poly_to_vec({(0,): Fraction(1)}, 2),
                                      alg.poly_to_vec({(1,): Fraction(1)}, 3)])
        q = linear_part_map(phi)
        assert q.matrix(2) == RatMatrix.identity(1)
        assert q.matrix(3) == RatMatrix.identity(1)

    def test_sphere_to_formal(self):
        src = sphere2_model()
        tgt = free_algebra([("c", 2), ("d", 3)])
        # a -> c, b -> 0 is NOT a chain map (d(b)=a^2 -> c^2 != 0)
        with pytest.raises(InputError):
            CDGAMorphism(src, tgt, [tgt.poly_to_vec({(0,): Fraction(1)}, 2), {}])
        # a -> 0, b -> 0 is one; its linear part vanishes
        phi = CDGAMorphism(src, tgt, [{}, {}])
        q = linear_part_map(phi)
        assert q.matrix(2).is_zero() and q.matrix(3).is_zero()

    def test_formal_to_sphere_diag_like(self):
        # c -> a, d -> 0 is a chain map; its linear part is diag-like
        src = free_algebra([("c", 2), ("d", 3)])
        tgt = sphere2_model()
        phi = CDGAMorphism(src, tgt, [tgt.poly_to_vec({(0,): Fraction(1)}, 2), {}])
        q = linear_part_map(phi)
        assert q.matrix(2) == RatMatrix.identity(1)
        assert q.matrix(3).is_zero()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_q_functorial_on_composites(self, seed):
        rng = random.Random(seed)
        dims = [rng.randint(0, 2) for _ in range(2)]
        v = free_algebra([(f"v{i}", rng.choice([1, 2, 3])) for i in range(rng.randint(1, 3))])
        w = free_algebra([(f"w{i}", rng.choice([1, 2, 3])) for i in range(rng.randint(1, 3))])
        u = free_algebra([(f"u{i}", rng.choice([1, 2, 3])) for i in range(rng.randint(1, 3))])

        def random_linear_morphism(a, b):
            images = []
            for i in range(len(a.generators)):
                d = a.degrees[i]
                vec = [Fraction(rng.randint(-2, 2)) if len(m) == 1 else Fraction(0)
                       for m in b.monomials(d)]
                images.append(sparse(vec))
            return CDGAMorphism(a, b, images)

        f = random_linear_morphism(v, w)
        g = random_linear_morphism(w, u)
        comp = g.compose_after(f)
        assert linear_part_map(comp).equals(
            linear_part_map(g).compose_after(linear_part_map(f)))


class TestSparseChainMapCheck:
    """verify_chain_map (sparse columns) against the dense reference."""

    @staticmethod
    def _assert_agrees(src, tgt, images):
        images = [sparse(vec) for vec in images]  # dense here, to perturb
        failures = chain_map_failures(CDGAMorphism(src, tgt, images, check=False))
        if failures:
            with pytest.raises(InputError, match=f"with d at degree {failures[0]}$"):
                CDGAMorphism(src, tgt, images, check=True)
        else:
            CDGAMorphism(src, tgt, images, check=True)
        return failures

    @staticmethod
    def _perturbed(rng, images):
        slots = [(g, t) for g, vec in enumerate(images) for t in range(len(vec))]
        if not slots:
            return None
        g, t = rng.choice(slots)
        out = [list(vec) for vec in images]
        out[g][t] += rng.choice([-2, -1, 1, 2])
        return out

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, seed):
        rng = random.Random(seed)
        src = random_sullivan(rng, max_gens=4, trunc=6)
        identity = [dense(src.poly_to_vec({(g,): Fraction(1)}, d), src.dim(d))
                    for g, d in enumerate(src.degrees)]
        other = random_sullivan(rng, max_gens=4, trunc=6)
        ring = underlying_ring(src, 4)
        cases = [
            (src, identity),
            (other, [[0] * other.dim(d) for d in src.degrees]),
            (ring, identity),
            (ring, [[0] * ring.dim(d) for d in src.degrees]),
        ]
        for n, (tgt, images) in enumerate(cases):
            failures = self._assert_agrees(src, tgt, images)
            if n != 2:
                assert failures == []  # identity and zero maps are chain maps
            changed = self._perturbed(rng, images)
            if changed is not None:
                self._assert_agrees(src, tgt, changed)

    def test_identity_into_ring_fails_where_d_is_nonzero(self):
        # d(b) = a^2 is nonzero in degree 4, which the ring sends to zero
        alg = sphere2_model(trunc=6)
        identity = [dense(alg.poly_to_vec({(0,): Fraction(1)}, 2), alg.dim(2)),
                    dense(alg.poly_to_vec({(1,): Fraction(1)}, 3), alg.dim(3))]
        ring = underlying_ring(alg, 4)
        assert self._assert_agrees(alg, ring, identity) == [3]


class TestHomotopyNecessary:
    def test_equal_maps_pass(self):
        alg = sphere2_model()
        mk = lambda: CDGAMorphism(alg, alg, [alg.poly_to_vec({(0,): Fraction(1)}, 2),
                                             alg.poly_to_vec({(1,): Fraction(1)}, 3)])
        rep = check_homotopy_necessary(mk(), mk(), max_deg=5)
        assert rep["h_equal"] and rep["q_equal"]
        assert rep["h1_source_zero"]
        assert rep["necessary_conditions_met"]

    def test_identity_vs_zero_fails(self):
        alg = sphere2_model()
        ident = CDGAMorphism(alg, alg, [alg.poly_to_vec({(0,): Fraction(1)}, 2),
                                        alg.poly_to_vec({(1,): Fraction(1)}, 3)])
        zero = CDGAMorphism(alg, alg, [{}, {}])
        rep = check_homotopy_necessary(ident, zero, max_deg=5)
        assert not rep["h_equal"]  # H^2 differs
        assert not rep["necessary_conditions_met"]


class TestAlgebraProperties:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_graded_commutativity(self, seed):
        rng = random.Random(seed)
        alg = random_sullivan(rng)
        for _ in range(10):
            d1 = rng.randint(0, 4)
            d2 = rng.randint(0, 4)
            m1s, m2s = alg.monomials(d1), alg.monomials(d2)
            if not m1s or not m2s:
                continue
            m1, m2 = rng.choice(m1s), rng.choice(m2s)
            p = poly_mul(alg, {m1: Fraction(1)}, {m2: Fraction(1)})
            q = poly_mul(alg, {m2: Fraction(1)}, {m1: Fraction(1)})
            sign = -1 if (d1 % 2 and d2 % 2) else 1
            assert p == {m: sign * c for m, c in q.items()}

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_leibniz(self, seed):
        rng = random.Random(seed)
        alg = random_sullivan(rng)
        for _ in range(6):
            d1 = rng.randint(1, 3)
            d2 = rng.randint(1, 3)
            m1s, m2s = alg.monomials(d1), alg.monomials(d2)
            if not m1s or not m2s:
                continue
            m1, m2 = rng.choice(m1s), rng.choice(m2s)
            p1, p2 = {m1: Fraction(1)}, {m2: Fraction(1)}
            lhs = alg.d_poly(poly_mul(alg, p1, p2))
            rhs = combine([
                (1, poly_mul(alg, alg.d_poly(p1), p2)),
                ((-1) ** d1, poly_mul(alg, p1, alg.d_poly(p2))),
            ])
            assert lhs == rhs

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_d_squared_all_degrees(self, seed):
        alg = random_sullivan(random.Random(seed))
        for k in range(1, alg.trunc - 1):
            lhs = d_matrix(alg, k + 1).matmul(d_matrix(alg, k))
            assert lhs.is_zero()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_q_wedge_naturality_square(self, seed):
        """eta_W o f = Q(wedge f) o eta_V: with generator bases as the
        canonical identification, Q(wedge f) equals f itself."""
        rng = random.Random(seed)
        v = free_algebra([(f"v{i}", rng.choice([1, 2, 3]))
                          for i in range(rng.randint(1, 3))], trunc=7)
        w = free_algebra([(f"w{i}", rng.choice([1, 2, 3]))
                          for i in range(rng.randint(1, 3))], trunc=7)
        images = []
        fmats = {}
        for i in range(len(v.generators)):
            d = v.degrees[i]
            vec = [Fraction(0)] * w.dim(d)
            wgens = [j for j, m in enumerate(w.monomials(d)) if len(m) == 1]
            for j in wgens:
                vec[j] = Fraction(rng.randint(-2, 2))
            images.append(vec)
        phi = CDGAMorphism(v, w, [sparse(vec) for vec in images])
        q = linear_part_map(phi)
        # f as a map of generator spaces, read off the chosen images
        for i in range(len(v.generators)):
            d, pos = gen_offset(v, i)
            col = dense(q.matrix(d).sparse_columns()[pos], q.matrix(d).rows)
            expect = []
            for j, m in enumerate(w.monomials(d)):
                if len(m) == 1:
                    expect.append(images[i][j])
            assert col == expect
