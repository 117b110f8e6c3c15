import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from interleaving import direct_sum, interleaving_check, interval_module
from psmm.errors import DimensionMismatch, InputError
from psmm.gvec import GradedLinearMap, GradedVectorSpace
from psmm.persistence import (INF, Barcode, PersistentGVec, _CostTable, _max_matching,
                               bottleneck)
from psmm.ratlin import RatMatrix

GRID2 = (Fraction(1), Fraction(2))


def near_tie(rng, lo, hi):
    """k * 0.1 for a k in lo..hi, as a float, sometimes nudged by an ulp
    or so: the differences of such numbers round to either side of a
    tenth."""
    return rng.randint(lo, hi) * 0.1 + rng.choice((0.0, 0.0, 1e-16, -1e-16, 2e-16, 5.5e-17))


def module_from_dims(grid, dims, mats, deg=0):
    spaces = [GradedVectorSpace.from_dims({deg: d} if d else {}) for d in dims]
    maps = []
    for k in range(len(dims) - 1):
        m = RatMatrix.from_rows(mats[k]) if dims[k + 1] and dims[k] else \
            RatMatrix.zeros(dims[k + 1], dims[k])
        maps.append(GradedLinearMap(spaces[k], spaces[k + 1],
                                    {deg: m} if not m.is_zero() else {}))
    return PersistentGVec(grid, spaces, maps)


def random_interval_sum(rng, grid, deg=0, max_bars=4):
    stops = [0] + list(grid) + [INF]
    mods = []
    for _ in range(rng.randint(1, max_bars)):
        i = rng.randint(0, len(stops) - 2)
        j = rng.randint(i + 1, len(stops) - 1)
        mods.append(interval_module((stops[i], stops[j]), grid, deg))
    return direct_sum(mods), sorted((m.barcode().expanded(deg) or [(0, 0)])[0]
                                    for m in mods)


class TestIntervalModule:
    def test_full_interval(self):
        p = interval_module((0, INF), GRID2, deg=1)
        assert [s.dim(1) for s in p.spaces] == [1, 1, 1]
        assert p.barcode().degree(1) == ((0, INF, 1),)

    def test_middle_interval(self):
        p = interval_module((Fraction(1), Fraction(2)), GRID2, deg=0)
        assert [s.dim(0) for s in p.spaces] == [0, 1, 0]
        assert p.barcode().degree(0) == ((Fraction(1), Fraction(2), 1),)

    def test_direct_sum_dims(self):
        a = interval_module((0, Fraction(1)), GRID2, deg=0)
        b = interval_module((Fraction(1), INF), GRID2, deg=0)
        s = direct_sum([a, b])
        assert [sp.dim(0) for sp in s.spaces] == [1, 1, 1]
        assert s.maps[0].matrix(0).is_zero()
        assert s.barcode().degree(0) == ((0, Fraction(1), 1), (Fraction(1), INF, 1))

    def test_malformed_interval(self):
        with pytest.raises(InputError):
            interval_module((Fraction(2), Fraction(1)), GRID2, 0)
        with pytest.raises(InputError):
            interval_module((Fraction(1, 3), INF), GRID2, 0)


class TestBarcode:
    @pytest.mark.parametrize("source, target", [
        ({0: 1}, {0: 2}),  # a matrix of the wrong shape
        ({0: 1, 1: 1}, {0: 1}),  # the right matrix, between other spaces
    ])
    def test_map_between_other_spaces_rejected(self, source, target):
        spaces = [GradedVectorSpace.from_dims({0: 1})] * 2
        f = GradedLinearMap(GradedVectorSpace.from_dims(source),
                            GradedVectorSpace.from_dims(target))
        with pytest.raises(DimensionMismatch, match="map 0 does not run"):
            PersistentGVec((Fraction(1),), spaces, [f])
        with pytest.raises(DimensionMismatch, match="map 0 does not run"):
            PersistentGVec.from_contravariant((Fraction(1),), spaces, [f])

    def test_two_bars_zero_map(self):
        p = module_from_dims((Fraction(1),), [1, 1], [[[0]]])
        assert p.barcode().degree(0) == ((0, Fraction(1), 1), (Fraction(1), INF, 1))

    def test_pointwise_dimension_consistency(self):
        rng = random.Random(42)
        for _ in range(20):
            grid = tuple(Fraction(k + 1) for k in range(rng.randint(1, 4)))
            p, _ = random_interval_sum(rng, grid)
            bc = p.barcode()
            stops = [0] + list(grid) + [INF]
            for k, sp in enumerate(p.spaces):
                covering = sum(
                    m for (b, e, m) in bc.degree(0)
                    if b <= stops[k] and stops[k + 1] <= e
                )
                assert covering == sp.dim(0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_sums(self, seed):
        rng = random.Random(seed)
        grid = tuple(Fraction(k + 1) for k in range(rng.randint(1, 4)))
        stops = [0] + list(grid) + [INF]
        expected = {}
        mods = []
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, len(stops) - 2)
            j = rng.randint(i + 1, len(stops) - 1)
            key = (stops[i], stops[j])
            expected[key] = expected.get(key, 0) + 1
            mods.append(interval_module(key, grid, 0))
        s = direct_sum(mods)
        got = {(b, e): m for (b, e, m) in s.barcode().degree(0)}
        assert got == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_rank_function_oracle(self, data):
        # random modules in up to 3 degrees, dimensions up to 4: the
        # elder-rule bars equal inclusion-exclusion over the rank function
        n = data.draw(st.integers(1, 5), label="stages")
        if data.draw(st.booleans(), label="float grid"):
            grid = tuple(0.5 * (k + 1) for k in range(n - 1))
        else:
            grid = tuple(Fraction(k + 1, 3) for k in range(n - 1))
        contravariant = data.draw(st.booleans(), label="contravariant")
        degrees = data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=3),
                            label="degrees")
        entries = st.integers(-1, 1)
        dims = {d: [data.draw(st.integers(0, 4)) for _ in range(n)] for d in degrees}
        raw = {}
        for d in degrees:
            mats = []
            for k in range(n - 1):
                src, tgt = (k + 1, k) if contravariant else (k, k + 1)
                mats.append([[data.draw(entries) for _ in range(dims[d][src])]
                             for _ in range(dims[d][tgt])])
            raw[d] = (dims[d], mats)
        spaces = [GradedVectorSpace.from_dims({d: dims[d][k] for d in degrees})
                  for k in range(n)]
        maps = []
        for k in range(n - 1):
            src, tgt = (k + 1, k) if contravariant else (k, k + 1)
            maps.append(GradedLinearMap(spaces[src], spaces[tgt], {
                d: RatMatrix(dims[d][tgt], dims[d][src], raw[d][1][k])
                for d in degrees}))
        if contravariant:
            p = PersistentGVec.from_contravariant(grid, spaces, maps)
        else:
            p = PersistentGVec(grid, spaces, maps)
        assert p.barcode().bars == oracles.rank_function_barcode(grid, raw, contravariant)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_identity_runs_match_rank_function_oracle(self, data):
        # runs of identity maps between equal dims, which the sweep carries
        # across without reducing, between random maps that may end bars
        n = data.draw(st.integers(2, 7), label="stages")
        grid = tuple(Fraction(k + 1, 3) for k in range(n - 1))
        contravariant = data.draw(st.booleans(), label="contravariant")
        identity = [data.draw(st.booleans(), label=f"map {k} is the identity")
                    for k in range(n - 1)]
        dims = [data.draw(st.integers(0, 3))]
        for k in range(n - 1):
            dims.append(dims[k] if identity[k] else data.draw(st.integers(0, 3)))
        mats = []
        for k in range(n - 1):
            src, tgt = (k + 1, k) if contravariant else (k, k + 1)
            mats.append([[int(i == j) if identity[k] else data.draw(st.integers(-1, 1))
                          for j in range(dims[src])] for i in range(dims[tgt])])
        spaces = [GradedVectorSpace.from_dims({0: d}) for d in dims]
        maps = []
        for k in range(n - 1):
            src, tgt = (k + 1, k) if contravariant else (k, k + 1)
            maps.append(GradedLinearMap(spaces[src], spaces[tgt], {
                0: RatMatrix(dims[tgt], dims[src], mats[k])}))
        if contravariant:
            p = PersistentGVec.from_contravariant(grid, spaces, maps)
        else:
            p = PersistentGVec(grid, spaces, maps)
        assert p.barcode().bars == oracles.rank_function_barcode(
            grid, {0: (dims, mats)}, contravariant)

    def test_death_after_identity_run(self):
        # e0 born at stage 0, e1 at stage 1, two identities, then both map
        # to one vector: the younger bar dies on leaving the run, and its
        # carried vectors take the older bar's into account
        grid = tuple(Fraction(k + 1) for k in range(4))
        eye = [[1, 0], [0, 1]]
        p = module_from_dims(grid, [1, 2, 2, 2, 1], [[[1], [0]], eye, eye, [[1, 1]]])
        assert p.barcode().degree(0) == ((0, INF, 1), (Fraction(1), Fraction(4), 1))
        bars = p.decompose(0)
        assert [bar["vecs"] for bar in bars if bar["birth"] == 1] == [
            {k: {0: -1, 1: 1} for k in (1, 2, 3)}]

    def test_contravariant_reporting(self):
        # two-point-space H^0 pattern: dims 2 at stage 0, 1 at stage 1,
        # contravariant restriction map is injective transpose-like
        s0 = GradedVectorSpace.from_dims({0: 2})
        s1 = GradedVectorSpace.from_dims({0: 1})
        f = GradedLinearMap(s1, s0, {0: RatMatrix.from_rows([[1], [1]])})
        p = PersistentGVec.from_contravariant((Fraction(1),), [s0, s1], [f])
        bars = p.barcode().degree(0)
        assert bars == ((0, Fraction(1), 1), (0, INF, 1))


class TestBottleneck:
    def test_identical(self):
        b = Barcode.from_dict({1: [(0, Fraction(1), 1)]})
        assert bottleneck(b, b).sup == 0

    def test_single_pair_shift(self):
        b1 = Barcode.from_dict({0: [(0, 1.0, 1)]})
        b2 = Barcode.from_dict({0: [(0, 1.2, 1)]})
        r = bottleneck(b1, b2)
        assert abs(r.degree(0) - 0.2) < 1e-12

    def test_unmatched_infinite_bar(self):
        b1 = Barcode.from_dict({4: [(0, INF, 1)]})
        b2 = Barcode()
        assert bottleneck(b1, b2).sup == INF

    def test_multiplicity_mismatch_uses_diagonal(self):
        b1 = Barcode.from_dict({0: [(0, Fraction(4), 2)]})
        b2 = Barcode.from_dict({0: [(0, Fraction(4), 1)]})
        assert bottleneck(b1, b2).sup == Fraction(2)

    def test_equal_costs_of_two_types_resolve_in_row_order(self):
        # both bars of b1 are matched at cost 1/2, to a bar with Fraction
        # ends or to one with float ends: the first pair in row order names
        # the distance, as in the reference
        b1 = Barcode.from_dict({0: [(Fraction(0), Fraction(2), 2)]})
        ends = [(Fraction(1, 2), Fraction(2)), (0.5, 2.0)]
        for order in (ends, ends[::-1]):
            b2 = Barcode.from_dict({0: [(b, e, 1) for b, e in order]})
            got = bottleneck(b1, b2).degree(0)
            want = oracles.bottleneck_reference(b1.expanded(0), b2.expanded(0))
            assert got == want == Fraction(1, 2) and type(got) is type(want)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_against_exhaustive_matching_oracle(self, seed):
        import itertools

        def naive_bottleneck(bars1, bars2):
            from oracles import _half_length, _pair_cost
            best = None
            n, m = len(bars1), len(bars2)
            for k in range(min(n, m) + 1):
                for left in itertools.permutations(range(n), k):
                    for right in itertools.permutations(range(m), k):
                        cost = 0
                        for i, j in zip(left, right):
                            cost = max(cost, _pair_cost(bars1[i], bars2[j]))
                        for i in set(range(n)) - set(left):
                            cost = max(cost, _half_length(bars1[i]))
                        for j in set(range(m)) - set(right):
                            cost = max(cost, _half_length(bars2[j]))
                        if best is None or cost < best:
                            best = cost
            return 0 if best is None else best

        rng = random.Random(seed)

        def random_bars():
            out = []
            for _ in range(rng.randint(0, 3)):
                b = Fraction(rng.randint(0, 5), 2)
                e = b + Fraction(rng.randint(1, 5), 2) if rng.random() < 0.8 else INF
                out.append((b, e))
            return out

        bars1, bars2 = random_bars(), random_bars()
        mine = bottleneck(Barcode.from_dict({0: [(b, e, 1) for b, e in bars1]}),
                          Barcode.from_dict({0: [(b, e, 1) for b, e in bars2]}))
        assert mine.degree(0) == naive_bottleneck(bars1, bars2)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_pseudometric(self, seed):
        rng = random.Random(seed)

        def random_barcode():
            bars = []
            for _ in range(rng.randint(0, 3)):
                b = Fraction(rng.randint(0, 6), 2)
                e = b + Fraction(rng.randint(1, 6), 2)
                bars.append((b, e if rng.random() < 0.8 else INF, 1))
            return Barcode.from_dict({0: bars}) if bars else Barcode()

        x, y, z = random_barcode(), random_barcode(), random_barcode()
        dxy = bottleneck(x, y).sup
        assert dxy == bottleneck(y, x).sup
        assert bottleneck(x, x).sup == 0
        dxz, dzy = bottleneck(x, z).sup, bottleneck(z, y).sup
        assert dxy <= dxz + dzy

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_value_and_type(self, seed):
        # The distance is one of the candidate cost objects, so equal
        # costs of different types (Fraction(1, 2) and 0.5) must resolve
        # to the reference's choice; all-rational, all-float and mixed
        # barcodes take different arithmetic.  Up to 60 bars a side in
        # degree 0, with equal essential counts or counts one apart.
        # Two shapes besides the grid: float near ties, whose computed
        # differences round either side of the costs the windows are cut
        # at, and degree-0 Rips barcodes (births all 0, one essential bar).
        rng = random.Random(seed)
        shape = rng.choice(("grid", "grid", "near ties", "degree 0"))

        def endpoint(kind, x):
            if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
                return float(x)
            return x if x.denominator != 1 or rng.random() < 0.5 else int(x)

        def random_bar(kind, deg):
            if shape == "near ties":
                b = near_tie(rng, 0, 40)
                return b, b + near_tie(rng, 1, 24)
            b = Fraction(0) if shape == "degree 0" and deg == 0 else \
                Fraction(rng.randint(0, 40), 4)
            e = b + Fraction(rng.randint(1, 24), rng.choice((2, 4, 8)))
            return endpoint(kind, b), endpoint(kind, e)

        def random_bars(kind, deg, essential, size):
            bars = [(random_bar(kind, deg)[0], INF, 1) for _ in range(essential)]
            count = essential
            while count < size:
                mult = min(rng.choice((1, 1, 1, 2, 3)), size - count)
                bars.append(random_bar(kind, deg) + (mult,))
                count += mult
            return bars

        def random_barcode(essentials, sizes):
            kind = rng.choice(("rational", "float", "mixed"))
            return Barcode.from_dict({d: random_bars(kind, d, essentials[d], sizes[d])
                                      for d in essentials})

        essentials = {0: 1 if shape == "degree 0" else rng.randint(0, 3), 1: rng.randint(0, 2)}
        a = random_barcode(essentials, {0: rng.randint(0, 60), 1: rng.randint(0, 8)})
        if rng.random() < 0.3:
            d = rng.choice((0, 1))
            essentials[d] = max(essentials[d] + rng.choice((-1, 1)), 0)
        b = random_barcode(essentials, {0: rng.randint(0, 60), 1: rng.randint(0, 8)})
        got = bottleneck(a, b).per_degree
        assert set(got) == set(a.degrees()) | set(b.degrees())
        for d, value in got.items():
            want = oracles.bottleneck_reference(a.expanded(d), b.expanded(d))
            assert value == want and type(value) is type(want), (d, value, want)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_max_matching_against_brute_force(self, seed):
        rng = random.Random(seed)
        size = rng.randint(0, 12)
        p = rng.random()
        adj = [[v for v in range(size) if rng.random() < p] for _ in range(size)]

        @functools.lru_cache(maxsize=None)
        def best(u, used):
            if u == size:
                return 0
            return max([best(u + 1, used)] + [1 + best(u + 1, used | 1 << v)
                                               for v in adj[u] if not used >> v & 1])

        # from an empty matching, and from a random valid partial one
        start = [-1] * size
        edges = [(u, v) for u in range(size) for v in adj[u]]
        rng.shuffle(edges)
        for u, v in edges[:rng.randint(0, len(edges))]:
            if start[v] == -1 and u not in start:
                start[v] = u
        given_start = list(start)
        for run in ((adj, size), (adj, size, start)):
            matched, match_r = _max_matching(*run)
            pairs = [(u, v) for v, u in enumerate(match_r) if u != -1]
            assert all(v in adj[u] for u, v in pairs)
            assert len({u for u, _ in pairs}) == len(pairs) == matched
            assert matched == best(0, 0)
        assert start == given_start

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_cost_table_cap(self, seed):
        # The cap matching (finite bars to the diagonal, essential bars
        # paired in birth order) is perfect in the graph at the cap, the
        # cap is its dearest edge's cost, and no edge there costs more;
        # the floor is a cost of that graph, and at the cost below it no
        # matching is perfect.  With essential counts apart there is no
        # cap and nothing is cut.
        rng = random.Random(seed)
        kind = rng.choice((Fraction, float))

        def random_bars(essential):
            bars = [(kind(rng.randint(0, 20)) / 4, INF) for _ in range(essential)]
            for _ in range(rng.randint(0, 12)):
                b = kind(rng.randint(0, 20)) / 4
                bars.append((b, b + kind(rng.randint(1, 16)) / 4))
            return bars

        essential = rng.randint(0, 3)
        bars1 = random_bars(essential)
        bars2 = random_bars(essential if rng.random() < 0.8 else essential + 1)
        if not bars1 and not bars2:
            return
        table = _CostTable(bars1, bars2)
        if essential != sum(1 for _, e in bars2 if e == INF):
            assert table.cap_cost == INF and table.cap_matching is None
            return
        births1 = sorted(b for b, e in bars1 if e == INF)
        births2 = sorted(b for b, e in bars2 if e == INF)
        cap = max([(e - b) / 2 for b, e in bars1 + bars2 if e != INF]
                  + [abs(x - y) for x, y in zip(births1, births2)], default=0)
        table.widen(table.cap_cost)
        costs = sorted({0, *(c for row in table.costs for c in row)})
        assert costs[-1] == table.cap_cost
        assert table.own_number(table.cap_cost) == cap
        assert all(table.own_number(c) <= cap for c in costs)
        nbrs, match_r = table.nbrs, table.cap_matching
        assert sorted(match_r) == list(range(table.size))
        assert all(v in nbrs[u] for v, u in enumerate(match_r))
        assert max(table.costs[u][nbrs[u].index(v)] for v, u in enumerate(match_r)) \
            == table.cap_cost
        assert _max_matching(nbrs, table.size)[0] == table.size
        assert table.floor_cost in costs
        below = [c for c in costs if c < table.floor_cost]
        if below:
            table.widen(below[-1])
            assert _max_matching(table.nbrs, table.size)[0] < table.size

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_cost_table_keeps_the_edges_within_its_bound(self, seed):
        # The windows find every pair of cost at most the bound and no
        # other, each edge with its cost, at the bound and at every
        # distinct cost below it, on rational, float and mixed bars, on
        # float near ties (where a window cut at the rounded x - bound,
        # x + bound misses pairs) and with every birth or every death
        # equal (one axis all ties).  The floor is the dearest of the
        # bars' cheapest edges.
        rng = random.Random(seed)
        kind = rng.choice(("rational", "float", "mixed", "near ties"))
        shape = rng.choice(("free", "births equal", "deaths equal"))

        def number(k):
            if kind == "near ties":
                return near_tie(rng, k, k)
            if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
                return k / 4
            return Fraction(k, 4)

        def random_bars(essential):
            birth = rng.randint(0, 10)
            first, last = number(birth), number(rng.randint(31, 40))
            bars = [(number(rng.randint(0, 30)), INF) for _ in range(essential)]
            for _ in range(rng.randint(0, 14)):
                if shape == "births equal":
                    bars.append((first, number(birth + rng.randint(1, 20))))
                elif shape == "deaths equal":
                    bars.append((number(rng.randint(0, 30)), last))
                else:
                    b = rng.randint(0, 30)
                    bars.append((number(b), number(b + rng.randint(1, 20))))
            return bars

        essential = rng.randint(0, 2)
        bars1 = random_bars(essential)
        bars2 = random_bars(essential if rng.random() < 0.8 else essential + 1)
        bars, n, m = bars1 + bars2, len(bars1), len(bars2)
        if not bars:
            return
        cost = {(i, j): oracles._pair_cost(bars1[i], bars2[j]) for i in range(n) for j in range(m)}
        half = [oracles._half_length(b) for b in bars]
        finite = [c for c in list(cost.values()) + half if c != INF]
        bound = rng.choice(finite + [0, INF, number(rng.randint(0, 12))])
        table = _CostTable(bars1, bars2)

        def scaled(x):
            return x if table.scale is None or x == INF else Fraction(x) * table.scale

        def edges():
            # the graph's edges, each checked against its cost, as
            # (pairs of bars, bars that meet the diagonal)
            nbrs = table.nbrs
            for u, (row, row_costs) in enumerate(zip(nbrs, table.costs)):
                for v, c in zip(row, row_costs):
                    if u < n:
                        want = cost[u, v] if v < m else half[u]
                    else:
                        want = half[u] if v < m else cost[v - m, u - n]
                    assert c == scaled(want), (u, v, c, want)
            pairs = {(i, v) for i in range(n) for v in nbrs[i] if v < m}
            assert pairs == {(v - m, j) for j in range(m) for v in nbrs[n + j] if v >= m}
            halves = {i for i in range(n) if m + i in nbrs[i]}
            return pairs, halves | {n + j for j in range(m) if j in nbrs[n + j]}

        def within(delta):
            return ({p for p, c in cost.items() if c != INF and c <= delta},
                    {t for t, h in enumerate(half) if h != INF and h <= delta})

        table.widen(bound if table.scale is None or bound == INF
                    else math.floor(Fraction(bound) * table.scale))
        assert edges() == within(bound)
        keys = sorted({0, *(c for row in table.costs for c in row)})
        values = [table.own_number(c) for c in keys]
        assert values == sorted({0} | {c for c in finite if c <= bound})
        floor = max(min([half[t]] + [cost[t, j] for j in range(m)]) for t in range(n)) \
            if n else 0
        floor = max([floor] + [min([half[n + j]] + [cost[i, j] for i in range(n)])
                               for j in range(m)])
        if floor <= bound and floor != INF:
            assert table.floor_cost in keys and table.own_number(table.floor_cost) == floor
        else:
            assert all(c < table.floor_cost for c in keys)
        for key, delta in zip(keys, values):
            table.widen(key)
            assert edges() == within(delta)

    @pytest.mark.parametrize("case", range(4))
    def test_large_matches_bisection_over_the_cap_table(self, case):
        # Barcodes of 300 to 500 bars, too many for the reference: the
        # search's answer is the least distinct cost of the graph at the
        # cap at which the graph has a perfect matching, found by plain
        # bisection from empty matchings, as the same number of the same
        # type.
        rng = random.Random(case)
        size = rng.randint(300, 500)
        kind = (Fraction, float)[case % 2]
        if case < 2:
            # a degree-0 barcode against its perturbation
            deaths = [rng.randint(20, 400) for _ in range(size - 1)]
            bars1 = [(kind(0), INF)] + [(kind(0), kind(k) / 40) for k in deaths]
            bars2 = [(kind(0), INF)] + [(kind(0), kind(k + rng.randint(-8, 8)) / 40)
                                        for k in deaths]
        else:
            # two unrelated barcodes, one with float ends and one with rational ones
            def random_bars(kind):
                out = []
                for _ in range(size):
                    b = kind(rng.randint(0, 200)) / 40
                    out.append((b, b + kind(rng.randint(1, 400)) / 40))
                return out
            bars1, bars2 = random_bars(kind), random_bars((float, Fraction)[case % 2])
        table = _CostTable(bars1, bars2)
        table.widen(table.cap_cost)
        keys = sorted({0, *(c for row in table.costs for c in row)})
        lo, hi = 0, len(keys) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            table.widen(keys[mid])
            if _max_matching(table.nbrs, table.size)[0] == table.size:
                hi = mid
            else:
                lo = mid + 1
        table.widen(keys[lo])
        want = table.own_number(keys[lo])
        got = bottleneck(Barcode.from_dict({0: [(b, e, 1) for b, e in bars1]}),
                         Barcode.from_dict({0: [(b, e, 1) for b, e in bars2]})).degree(0)
        assert got == want and type(got) is type(want), (got, want)

    @staticmethod
    def widened(monkeypatch):
        """The bounds every `_CostTable.widen` is given from here on, each
        as the bars' own number (unscaled)."""
        bounds = []
        widen = _CostTable.widen

        def recorded(table, bound):
            bounds.append(bound if table.scale is None else Fraction(bound, table.scale))
            widen(table, bound)
        monkeypatch.setattr(_CostTable, "widen", recorded)
        return bounds

    @pytest.mark.parametrize("bars1, bars2", [
        # essential bars and one pair of cost 1/2, the floor
        ([(Fraction(0), INF), (Fraction(0), Fraction(7, 2))],
         [(Fraction(0), INF), (Fraction(0), Fraction(4))]),
        # float bars
        ([(0.5, 2.0), (1.0, 4.0)], [(0.5, 2.25), (1.0, 4.0)]),
        # a half-length 1/2 and a pair cost 0.5: the pair comes first
        ([(Fraction(0), Fraction(1))], [(0.0, 1.5)]),
        # equal barcodes: the floor is 0
        ([(Fraction(0), Fraction(1))], [(Fraction(0), Fraction(1))]),
    ])
    def test_floor_probe_ranks_no_edge(self, monkeypatch, bars1, bars2):
        # When the probe at the floor succeeds the floor is the answer,
        # read off the graph at the floor: the table's one `widen`, and
        # no list of costs to bisect.
        bounds = self.widened(monkeypatch)
        b1 = Barcode.from_dict({0: [(b, e, 1) for b, e in bars1]})
        b2 = Barcode.from_dict({0: [(b, e, 1) for b, e in bars2]})
        got = bottleneck(b1, b2).degree(0)
        want = oracles.bottleneck_reference(b1.expanded(0), b2.expanded(0))
        assert got == want and type(got) is type(want), (got, want)
        assert bounds == [got]

    @pytest.mark.parametrize("kind", (Fraction, float))
    def test_bisection_widens_per_probe(self, monkeypatch, kind):
        # Both bars of bars1 are nearest to the one bar of bars2, so the
        # floor probe (1/2) fails; the bounds double to 4, fail, and stop
        # at the cap 21/4, and the bisection of the costs between finds 5:
        # (0, 10) to the diagonal, (0, 21/2) to (0, 10).  Each probe
        # widens the one graph to its bound.
        bounds = self.widened(monkeypatch)
        b1 = Barcode.from_dict({0: [(kind(0), kind(10), 1), (kind(0), kind(21) / 2, 1)]})
        b2 = Barcode.from_dict({0: [(kind(0), kind(10), 1)]})
        got = bottleneck(b1, b2).degree(0)
        want = oracles.bottleneck_reference(b1.expanded(0), b2.expanded(0))
        assert got == want == 5 and type(got) is type(want) is kind, (got, want)
        assert bounds == [Fraction(1, 2), 1, 2, 4, Fraction(21, 4), 5]

    @pytest.mark.parametrize("kind", (Fraction, float))
    def test_last_probe_fails_widens_to_the_answer(self, monkeypatch, kind):
        # The floor 2 fails and the cap 13/4 succeeds; the bisection of
        # the costs 9/4, 5/2 and 13/4 succeeds at 5/2, a pair cost, and
        # fails last at 9/4, a half-length.  The answer lies above that
        # last graph, so the search widens to it again before reading it.
        bounds = self.widened(monkeypatch)
        b1 = Barcode.from_dict({0: [(kind(0), INF, 1), (kind(0), kind(13) / 2, 2)]})
        b2 = Barcode.from_dict({0: [(kind(0), INF, 1), (kind(0), kind(4), 1),
                                    (kind(0), kind(9) / 2, 1)]})
        got = bottleneck(b1, b2).degree(0)
        want = oracles.bottleneck_reference(b1.expanded(0), b2.expanded(0))
        assert got == want == Fraction(5, 2) and type(got) is type(want) is kind, (got, want)
        assert bounds == [2, Fraction(13, 4), Fraction(5, 2), Fraction(9, 4), Fraction(5, 2)]

    def test_long_augmenting_path(self):
        # the last vertex's augmenting path runs through all n vertices,
        # deeper than the interpreter's recursion limit
        n = 3000
        adj = [[u + 1, u] for u in range(n - 1)] + [[n - 1]]
        matched, match_r = _max_matching(adj, n)
        assert matched == n
        assert match_r == list(range(n))


class TestInterleavingOracle:
    def test_equal_modules_at_zero(self):
        p = interval_module((0, Fraction(1)), GRID2, 0)
        assert interleaving_check(p, p, 0)

    def test_example_shift(self):
        grid = (Fraction(1), Fraction(6, 5))
        p = interval_module((0, Fraction(1)), grid, 0)
        q = interval_module((0, Fraction(6, 5)), grid, 0)
        assert interleaving_check(p, q, Fraction(1, 5))
        assert not interleaving_check(p, q, Fraction(1, 10))

    def test_grid_mismatch(self):
        p = interval_module((0, Fraction(1)), (Fraction(1),), 0)
        q = interval_module((0, Fraction(1)), GRID2, 0)
        with pytest.raises(InputError):
            interleaving_check(p, q, 0)

    def test_equal_barcodes_interleave_at_zero(self):
        rng = random.Random(5)
        grid = tuple(Fraction(k + 1) for k in range(3))
        p, _ = random_interval_sum(rng, grid)
        # a permuted direct sum of the same intervals
        bars = p.barcode().degree(0)
        mods = []
        for (b, e, m) in bars:
            mods.extend([interval_module((b, e), grid, 0)] * m)
        rng.shuffle(mods)
        q = direct_sum(mods)
        assert interleaving_check(p, q, 0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_oracle_matches_bottleneck(self, seed):
        rng = random.Random(seed)
        grid = tuple(Fraction(k + 1) for k in range(rng.randint(1, 4)))
        p, _ = random_interval_sum(rng, grid)
        q, _ = random_interval_sum(rng, grid)
        d = bottleneck(p.barcode(), q.barcode()).sup
        if d == INF:
            assert not interleaving_check(p, q, Fraction(100))
            return
        assert interleaving_check(p, q, d)
        candidates = sorted({x for x in [d - Fraction(1, 4), d / 2] if 0 <= x < d})
        for smaller in candidates:
            assert not interleaving_check(p, q, smaller)

    def test_graded_modules_checked_per_degree(self):
        grid = (Fraction(1), Fraction(2))
        p = direct_sum([interval_module((0, Fraction(2)), grid, 0)])
        p2 = direct_sum([interval_module((0, Fraction(2)), grid, 0),
                         interval_module((Fraction(1), INF), grid, 3)])
        # identical in degree 0 but q has an extra degree-3 feature
        d = bottleneck(p.barcode(), p2.barcode())
        assert d.per_degree[0] == 0 and d.per_degree[3] == INF
        assert not interleaving_check(p, p2, Fraction(5))

    def test_functor_stability_shadow(self):
        # explicitly interleaved pair: shifted interval modules
        grid = tuple(Fraction(k) for k in range(1, 5))
        p = interval_module((Fraction(1), Fraction(3)), grid, 0)
        q = interval_module((Fraction(2), Fraction(4)), grid, 0)
        assert interleaving_check(p, q, Fraction(1))
        assert bottleneck(p.barcode(), q.barcode()).sup <= Fraction(1)
