import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import unshared_persistent_cdga_model, unshared_persistent_model
from test_golden import PERSISTENT
from psmm import pipeline
from psmm.cdga import CDGAMorphism
from psmm.config import Config
from psmm.errors import CapExceeded, InputError
from psmm.metric import build_filtration, metric_from_matrix, metric_from_points
from psmm.persistence import INF
from psmm.pipeline import (
    bounds_report,
    h_barcode,
    persistent_cdga_from_json,
    persistent_model,
    persistent_model_from_cdgas,
    psm_to_json,
    v_barcode,
)


def circle_space(n):
    rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
            for i in range(n)]
    return metric_from_matrix(rows)


def two_point_space():
    return metric_from_matrix([[0, 1], [1, 0]])


def square_space(scale=1.0):
    return metric_from_points([[0, 0], [scale, 0], [scale, scale], [0, scale]])


def random_exact_space(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(1, 9), 4)
            rows[i][j] = rows[j][i] = v
    return metric_from_matrix(rows)


S2_CDGA = {
    "grid": [],
    "stages": [{
        "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
        "differential": {"b": [{"coeff": 1, "monomial": ["a", "a"]}]},
        "truncation": 8,
    }],
    "maps": [],
}

KZ2_KZ3_CDGA = {
    "grid": [],
    "stages": [{
        "generators": [{"name": "c", "degree": 2}, {"name": "d", "degree": 3}],
        "differential": {},
        "truncation": 8,
    }],
    "maps": [],
}

S2_IDENTITY_CDGA = {
    "grid": [1],
    "stages": [S2_CDGA["stages"][0], S2_CDGA["stages"][0]],
    "maps": [{"images": {
        "a": [{"coeff": 1, "monomial": ["a"]}],
        "b": [{"coeff": 1, "monomial": ["b"]}],
    }}],
}

S2_ZERO_MAP_CDGA = {
    "grid": [1],
    "stages": [S2_CDGA["stages"][0], S2_CDGA["stages"][0]],
    "maps": [{"images": {"a": [], "b": []}}],
}

CIRCLE_CDGA = {"grid": [], "maps": [], "stages": [
    {"generators": [{"name": "x", "degree": 1}], "truncation": 3}]}


class TestPersistentModel:
    def test_two_point_space(self):
        psm = persistent_model(two_point_space(), Config(max_degree=2, max_dim=2))
        assert psm.num_stages == 2
        for mm in psm.models:
            assert mm.model.generators == ()
        hb = h_barcode(psm)
        assert hb.degree(0) == ((0, Fraction(1), 1), (0, INF, 1))
        assert v_barcode(psm).bars == ()

    def test_unit_square(self):
        psm = persistent_model(square_space(), Config(max_degree=2, max_dim=3))
        assert [d for _, d in psm.models[1].model.generators] == [1]
        assert psm.models[2].model.generators == ()
        hb = h_barcode(psm)
        (b, e, m), = hb.degree(1)
        assert (b, m) == (1.0, 1) and abs(e - math.sqrt(2)) < 1e-12
        vb = v_barcode(psm)
        assert vb.degree(1) == hb.degree(1)

    def test_circle12_h1_against_reduction_oracle(self):
        m = circle_space(12)
        cfg = Config(max_degree=2, max_dim=3)
        psm = persistent_model(m, cfg)
        hb = h_barcode(psm)
        filt = build_filtration(m, cfg.max_dim, cfg.simplex_cap)
        oracle = oracles.parameter_bars(filt, 2)
        got = [(b, None if e == INF else e) for (b, e, mult) in hb.degree(1)
               for _ in range(mult)]
        assert got == oracle.get(1, [])
        # degree 0 as well
        got0 = [(b, None if e == INF else e) for (b, e, mult) in hb.degree(0)
                for _ in range(mult)]
        assert sorted(got0, key=str) == sorted(oracle.get(0, []), key=str)

    def test_circle8_degree1_and_degree3_bars(self):
        psm = persistent_model(circle_space(8), Config(max_degree=4))
        hb, vb = h_barcode(psm), v_barcode(psm)
        (b1, e1, m1), = vb.degree(1)
        assert vb.degree(1) == hb.degree(1)
        # the cycle appears with the first edges, at arc length pi/4
        assert m1 == 1 and abs(b1 - math.pi / 4) < 1e-12
        assert abs(e1 - 3 * math.pi / 4) < 1e-12
        (b3, e3, m3), = vb.degree(3)
        assert m3 == 1
        assert abs(b3 - 3 * math.pi / 4) < 1e-12 and abs(e3 - math.pi) < 1e-12
        assert hb.degree(3) == vb.degree(3)

    def test_hurewicz_range_consistency(self):
        psm = persistent_model(circle_space(8), Config(max_degree=4))
        for k, mm in enumerate(psm.models):
            ring_dims = {d: psm.h_spaces[k].dim(d) for d in range(psm.max_degree + 1)}
            if ring_dims.get(1):
                continue
            first = next((d for d in range(1, psm.max_degree + 1) if ring_dims[d]), None)
            if first is None:
                assert mm.model.generators == ()
                continue
            vdims = {d: mm.model.generator_space().dim(d)
                     for d in range(psm.max_degree + 1)}
            for d in range(1, min(2 * first - 1, psm.max_degree + 1)):
                assert vdims.get(d, 0) == ring_dims[d]

    def test_scale_equivariance(self):
        rng = random.Random(31)
        m = random_exact_space(rng, 5)
        cfg = Config(max_degree=2, max_dim=3)
        lam = Fraction(2)
        b1 = h_barcode(persistent_model(m, cfg))
        b2 = h_barcode(persistent_model(m.scaled(lam), cfg))
        for d in set(b1.degrees()) | set(b2.degrees()):
            scaled = tuple((b * lam, e * lam if e != INF else INF, mult)
                           for (b, e, mult) in b1.degree(d))
            assert scaled == b2.degree(d)
        v1 = v_barcode(persistent_model(m, cfg))
        v2 = v_barcode(persistent_model(m.scaled(lam), cfg))
        for d in set(v1.degrees()) | set(v2.degrees()):
            scaled = tuple((b * lam, e * lam if e != INF else INF, mult)
                           for (b, e, mult) in v1.degree(d))
            assert scaled == v2.degree(d)

    def test_weak_equivalence_shadow_relabel(self):
        pts = [[0, 0], [1, 0], [1, 1], [0, 1]]
        perm = [2, 0, 3, 1]
        a = metric_from_points(pts)
        b = metric_from_points([pts[i] for i in perm])
        cfg = Config(max_degree=2, max_dim=3)
        assert v_barcode(persistent_model(a, cfg)).bars == \
            v_barcode(persistent_model(b, cfg)).bars

    def test_nonconvergence_flagged(self):
        # two squares sharing one vertex: wedge of circles at stage 1
        pts = {
            0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1),
            4: (-1, 0), 5: (-1, -1), 6: (0, -1),
        }
        edges1 = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edges2 = [(0, 4), (4, 5), (5, 6), (6, 0)]
        n = 7
        big = 4
        rows = [[Fraction(0)] * n for _ in range(n)]
        adj = {frozenset(e) for e in edges1 + edges2}
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(1) if frozenset((i, j)) in adj \
                    else Fraction(big)
        m = metric_from_matrix(rows)
        psm = persistent_model(m, Config(max_degree=2, max_dim=3, deg1_cap=2))
        assert psm.nonconverged_stages == [1]
        assert any("did not converge" in c for c in psm.caveats())


class TestSphereSample:
    def octahedron_space(self):
        # three antipodal pairs: distance 2 across, 1 otherwise
        pairs = {frozenset((0, 3)), frozenset((1, 4)), frozenset((2, 5))}
        rows = [[0 if i == j else (2 if frozenset((i, j)) in pairs else 1)
                 for j in range(6)] for i in range(6)]
        return metric_from_matrix(rows)

    def test_s2_stage_model_and_bars(self):
        psm = persistent_model(self.octahedron_space(), Config(max_degree=4))
        assert psm.grid == (Fraction(1), Fraction(2))
        # stage 1 is the octahedron boundary, a 2-sphere
        mm = psm.models[1]
        assert [d for _, d in mm.model.generators] == [2, 3]
        (_, poly), = [(i, p) for i, p in mm.model.diff.items() if p]
        assert all(len(mono) == 2 for mono in poly)  # d(b) is quadratic
        vb, hb = v_barcode(psm), h_barcode(psm)
        assert vb.degree(2) == ((Fraction(1), Fraction(2), 1),)
        assert vb.degree(3) == ((Fraction(1), Fraction(2), 1),)
        assert hb.degree(2) == ((Fraction(1), Fraction(2), 1),)
        assert hb.degree(3) == ()
        assert not psm.h1_stages

    def test_octahedron_vs_scaled_bracket(self):
        x = self.octahedron_space()
        rep = bounds_report(x, x.scaled(Fraction(2)),
                            Config(max_degree=2, max_dim=3, gh_cap=36))
        assert rep.gh2 is not None
        assert all(v["holds"] for v in rep.verdicts)


class TestDegenerateInputs:
    def test_single_point(self):
        psm = persistent_model(metric_from_matrix([[0]]), Config(max_degree=2, max_dim=2))
        assert psm.grid == ()
        hb = h_barcode(psm)
        assert hb.degree(0) == ((Fraction(0), INF, 1),)
        assert v_barcode(psm).bars == ()

    def test_duplicate_points_merge_at_stage_zero(self):
        m = metric_from_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        psm = persistent_model(m, Config(max_degree=1, max_dim=2))
        hb = h_barcode(psm)
        # the coincident pair is one component from the start
        assert hb.degree(0) == ((Fraction(0), Fraction(1), 1), (Fraction(0), INF, 1))


def typed_bars(bc):
    """The bars with each endpoint's type, so that equal values of
    different types (Fraction(0) and 0.0) compare unequal."""
    return [(d, [(b, type(b), e, type(e), m) for b, e, m in bars]) for d, bars in bc.bars]


def oracle_bars(m, cfg):
    """H bars of the dense boundary-reduction oracle, per degree."""
    filt = build_filtration(m, cfg.max_dim, cfg.simplex_cap)
    return {deg: sorted((b, INF if e is None else e) for b, e in bars)
            for deg, bars in oracles.parameter_bars(filt, cfg.max_degree).items() if bars}


def expanded_bars(bc):
    return {deg: sorted(bc.expanded(deg)) for deg in bc.degrees()}


class TestMetricHBarcode:
    """h_barcode(MetricSpace), one reduction over the Rips simplices,
    against the ring-map barcode of the persistent model and against the
    dense reduction oracle."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_ring_path(self, data):
        # A stage with H^1 of rank 2 or more, a wedge of circles, needs five
        # points, or four when no triangle is filled (max_dim < 2).  Its
        # degree-1 model can grow past any memory bound in persistent_model,
        # so those spaces are compared in degree 0 only.
        n = data.draw(st.integers(1, 5), label="points")
        max_dim = data.draw(st.integers(0, 5), label="max_dim")
        wedges = n == 5 or (n == 4 and max_dim < 2)
        deg = data.draw(st.integers(0, 0 if wedges else min(4, max_dim + 1)),
                        label="max_degree")
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(data.draw(st.integers(0, 9)), 4)
        m = metric_from_matrix(rows)
        cfg = Config(max_degree=deg, max_dim=max_dim)
        direct = h_barcode(m, cfg)
        assert typed_bars(direct) == typed_bars(h_barcode(persistent_model(m, cfg)))

    def test_float_points_match_reduction_oracle(self):
        rng = random.Random(3)
        for trial in range(12):
            n = rng.randint(3, 9)
            m = metric_from_points([[rng.random(), rng.random()] for _ in range(n)])
            cfg = Config(max_degree=2, max_dim=3) if trial % 2 else \
                Config(max_degree=1, max_dim=1)
            hb = h_barcode(m, cfg)
            assert expanded_bars(hb) == oracle_bars(m, cfg)
            assert all(type(x) is float for d in hb.degrees() for bar in hb.degree(d)
                       for x in bar[:2])

    def test_one_point(self):
        cfg = Config(max_degree=2, max_dim=3)
        for m in (metric_from_matrix([[0]]), metric_from_points([[0.5, -1.0]])):
            hb = h_barcode(m, cfg)
            assert typed_bars(hb) == [(0, [(Fraction(0), Fraction, INF, float, 1)])]
            assert typed_bars(hb) == typed_bars(h_barcode(persistent_model(m, cfg)))

    def test_coincident_points(self):
        cfg = Config(max_degree=1, max_dim=2)
        exact = metric_from_matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert h_barcode(exact, cfg).degree(0) == ((0, Fraction(1), 1), (0, INF, 1))
        planar = metric_from_points([[0, 0], [0, 0], [1, 0]])
        assert typed_bars(h_barcode(planar, cfg)) == \
            [(0, [(0.0, float, 1.0, float, 1), (0.0, float, INF, float, 1)])]
        only = metric_from_points([[2, 2], [2, 2]])
        assert typed_bars(h_barcode(only, cfg)) == [(0, [(Fraction(0), Fraction, INF, float, 1)])]
        for m in (exact, planar, only):
            assert typed_bars(h_barcode(m, cfg)) == \
                typed_bars(h_barcode(persistent_model(m, cfg)))

    def test_top_degree_not_cut(self):
        # four points on a line: the enclosing radius is 2, and the graph's
        # third cycle is born at 3, after it; with max_dim == max_degree the
        # top degree's classes are cokernel classes and never die
        # (the ring path is no reference here: its stages are wedges of
        # circles, whose degree-1 models grow without bound)
        m = metric_from_matrix([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        cfg = Config(max_degree=1, max_dim=1)
        hb = h_barcode(m, cfg)
        assert hb.degree(1) == ((2, INF, 2), (3, INF, 1))
        assert expanded_bars(hb) == oracle_bars(m, cfg)
        # one dimension more fills every cycle, and the cut applies
        assert h_barcode(m, Config(max_degree=1, max_dim=2)).degree(1) == ()

    def test_max_degree_above_max_dim(self):
        m = metric_from_matrix([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        cfg = Config(max_degree=3, max_dim=2)
        hb = h_barcode(m, cfg)
        assert hb.degrees() == [0, 2]
        assert expanded_bars(hb) == oracle_bars(m, cfg)
        assert typed_bars(hb) == typed_bars(h_barcode(persistent_model(m, cfg)))

    def test_max_degree_zero(self):
        m = circle_space(8)
        cfg = Config(max_degree=0, max_dim=3)
        hb = h_barcode(m, cfg)
        assert hb.degrees() == [0]
        assert expanded_bars(hb) == oracle_bars(m, cfg)
        assert typed_bars(hb) == typed_bars(h_barcode(persistent_model(m, cfg)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_keys_match_brute_force_rips(self, data):
        """On exact spaces whose entries mix the denominators 1, 2, 3, 5
        and 7, with numerators up to 10**12, the grid and the bars equal
        those of a Rips filtration enumerated with `Fraction` diameters,
        in value and type: `Fraction` endpoints and zero births, float
        INF deaths."""
        n = data.draw(st.integers(1, 6))
        numerator = st.one_of(st.integers(0, 4), st.integers(0, 10 ** 12))
        entry = st.builds(Fraction, numerator, st.sampled_from([1, 2, 3, 5, 7]))
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(entry)
        max_dim = data.draw(st.integers(0, 3))
        max_degree = data.draw(st.integers(0, max_dim))
        m = metric_from_matrix(rows)
        filt = oracles.rips_filtration(rows, max_dim)

        def typed(values):
            return [(v, type(v)) for v in values]

        assert typed(build_filtration(m, max_dim, max_degree=max_degree).critical_values) \
            == typed(filt.critical_values)
        assert all(type(v) is Fraction for v in filt.critical_values)
        want = {deg: [typed(bar) for bar in sorted(
                    (Fraction(0) if b == 0 else b, INF if e is None else e) for b, e in bars)]
                for deg, bars in oracles.parameter_bars(filt, max_degree).items()}
        hb = h_barcode(m, Config(max_degree=max_degree, max_dim=max_dim))
        assert {deg: [typed(bar) for bar in hb.expanded(deg)] for deg in hb.degrees()} == want

    def test_invalid_input_fails_before_any_reduction(self, monkeypatch):
        def no_reduction(*args):
            raise AssertionError("reduction reached")
        monkeypatch.setattr(pipeline, "cohomology_barcode", no_reduction)
        with pytest.raises(InputError):
            h_barcode(square_space(), Config(max_degree=0, max_dim=-1))
        with pytest.raises(CapExceeded):
            h_barcode(circle_space(12), Config(max_degree=2, max_dim=3, simplex_cap=100))


class TestRandomEndToEnd:
    def test_h_barcode_matches_oracle_and_models_build(self):
        rng = random.Random(99)
        cfg = Config(max_degree=2, max_dim=3)
        for _ in range(8):
            m = random_exact_space(rng, rng.randint(3, 5))
            psm = persistent_model(m, cfg)  # functoriality checks run inside
            hb = h_barcode(psm)
            filt = build_filtration(m, cfg.max_dim, cfg.simplex_cap)
            oracle = oracles.parameter_bars(filt, 2)
            for deg in range(3):
                got = sorted(
                    [(b, None if e == INF else e) for (b, e, mult) in hb.degree(deg)
                     for _ in range(mult)], key=str)
                assert got == sorted(oracle.get(deg, []), key=str)
            # Hurewicz-range agreement at simply-connected stages
            for k, mm in enumerate(psm.models):
                dims = {d: psm.h_spaces[k].dim(d) for d in range(3)}
                if dims.get(1):
                    continue
                first = next((d for d in (1, 2) if dims[d]), None)
                if first:
                    v = mm.model.generator_space()
                    for d in range(1, min(2 * first - 1, 3)):
                        assert v.dim(d) == dims[d]


class TestRelabelling:
    """A metric space and a copy with its points relabelled have equal H
    and V barcodes, in value and in type, or fail on the same cap: the
    labels only order the simplices and bases."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_barcodes_unchanged(self, data):
        n = data.draw(st.integers(4, 7), label="points")
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(st.integers(1, 9))
        for k in range(n):  # shortest paths: an integer metric
            for i in range(n):
                for j in range(n):
                    rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
        perm = data.draw(st.permutations(range(n)), label="relabelling")
        relabelled = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        cfg = Config(max_degree=2)

        def outcome(matrix):
            try:
                psm = persistent_model(metric_from_matrix(matrix), cfg)
            except CapExceeded as e:
                return f"CapExceeded: {e}"
            return typed_bars(h_barcode(psm)), typed_bars(v_barcode(psm))

        assert outcome(rows) == outcome(relabelled)


class TestDegradedRepresentatives:
    def test_zero_fallback_between_truncated_wedge_models(self):
        from psmm.cohomology import CohomologyRing
        from psmm.gvec import GradedLinearMap
        from psmm.minmodel import minimal_model, sullivan_representative
        from psmm.pipeline import _representative_or_degrade
        from psmm.errors import LiftError
        from psmm.ratlin import RatMatrix

        ring = CohomologyRing.from_data(4, {0: ["one"], 1: ["x", "y"]}, {})
        deep = minimal_model(ring, max_deg=2, deg1_cap=1)
        shallow = minimal_model(ring, max_deg=2, deg1_cap=0)
        assert not deep.deg1_converged and not shallow.deg1_converged
        ident = GradedLinearMap(ring.space(4), ring.space(4), {
            0: RatMatrix.identity(1), 1: RatMatrix.identity(2)})
        # the deeper model has a killer generator whose differential is
        # not exact in the shallower one: no lift exists
        with pytest.raises(LiftError):
            sullivan_representative(ident, deep, shallow, 2)
        degraded = []
        rep = _representative_or_degrade(ident, deep, shallow, 2, 0, degraded)
        assert degraded == [0]
        assert all(all(c == 0 for c in img.values()) for img in rep.images)


class TestFunctorialityCheck:
    """Every representative doubled on generators: rep(g) o rep(f)
    scales a composite's linear part by 4, its direct representative
    by 2, so the span check must fail on both input forms."""

    @pytest.fixture
    def doubled_lifts(self, monkeypatch):
        lift = pipeline.sullivan_representative

        def doubled(f, mm_src, mm_tgt, max_degree):
            rep = lift(f, mm_src, mm_tgt, max_degree)
            return CDGAMorphism(rep.source, rep.target,
                                [{i: 2 * c for i, c in img.items()} for img in rep.images],
                                check=False)
        monkeypatch.setattr(pipeline, "sullivan_representative", doubled)

    def test_metric_input(self, doubled_lifts):
        # stages 1-3 of the 13-point circle are circles with identity maps
        with pytest.raises(InputError, match="Q-functoriality fails across stages 1..3"):
            persistent_model(circle_space(13), Config(max_degree=2, max_dim=3))

    def test_persistent_cdga_input(self, doubled_lifts):
        with pytest.raises(InputError, match="Q-functoriality fails across stages 0..2"):
            persistent_model_from_cdgas(persistent_cdga_from_json(PERSISTENT, min_trunc=4),
                                        Config(max_degree=2))


def graph_space(n, far, pairs):
    """Exact space with the distances of `pairs` ({(i, j): d}) and `far`
    between every other two points."""
    rows = [[Fraction(0 if i == j else far) for j in range(n)] for i in range(n)]
    for (i, j), d in pairs.items():
        rows[i][j] = rows[j][i] = Fraction(d)
    return metric_from_matrix(rows)


def noisy_annulus(rng, n=8):
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n + rng.uniform(-0.1, 0.1)
        radius = rng.uniform(0.85, 1.15)
        pts.append([radius * math.cos(angle), radius * math.sin(angle)])
    return metric_from_points(pts)


class TestSharedModels:
    """Stages with equal core data share one model and pairs share
    representatives; the dump must equal the one built with nothing
    shared, byte for byte."""

    @staticmethod
    def assert_same_dump(m, cfg):
        def outcome(build):
            try:
                return json.dumps(psm_to_json(build(m, cfg)), sort_keys=True, indent=2)
            except CapExceeded as e:
                return f"CapExceeded: {e}"
        assert outcome(persistent_model) == outcome(unshared_persistent_model)

    # Tied exact distances make wedges of circles, whose degree-1 models
    # grow without bound at the default cap (ROADMAP item 2); caps 0-2
    # keep them small and also reach non-converged stages.  A model can
    # still pass the generator cap, and then both builds must fail alike.
    # max_dim runs from max_degree - 1 to max_degree + 2, so both the
    # filtration cut past the enclosing radius (max_degree < max_dim) and
    # the full stages are compared with the unshared build, which always
    # keeps the full stages.  With max_dim = 1 the stages are graphs,
    # wedges of circles whose models outgrow 1 GiB at cap 2 and 7 points,
    # or at cap 1 and 5 points in degree 2, so those draws take cap 0 and
    # at most 6 points.
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 7), max_degree=st.integers(1, 3),
           deg1_cap=st.integers(0, 2), exact=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_spaces_match_unshared(self, seed, n, max_degree, deg1_cap, exact, data):
        max_dim = data.draw(st.integers(max(0, max_degree - 1), max_degree + 2))
        if max_dim == 1:
            n, deg1_cap = min(n, 6), 0
        rng = random.Random(seed)
        m = (random_exact_space(rng, n) if exact
             else metric_from_points([[rng.random(), rng.random()] for _ in range(n)]))
        self.assert_same_dump(m, Config(max_degree=max_degree, max_dim=max_dim,
                                        deg1_cap=deg1_cap))

    # max_dim from max_degree on: at max_dim 1 every 8-point annulus has
    # graph stages, and the default degree-1 cap exhausts memory there
    @given(seed=st.integers(0, 10**6), max_dim=st.integers(2, 4))
    @settings(max_examples=4, deadline=None)
    def test_noisy_annuli_match_unshared(self, seed, max_dim):
        self.assert_same_dump(noisy_annulus(random.Random(seed)),
                              Config(max_degree=2, max_dim=max_dim))

    def test_equal_dims_with_other_products_match_unshared(self):
        # At 1 two 4-cycles and an octahedron (S^1 v S^1 v S^2 in the
        # core), at 2 a 4x4 grid torus with diagonals while the cycles
        # fill and the octahedron is coned off: the same Betti numbers
        # 1, 2, 1 and H^3 = 0, but only the torus has a nonzero cup
        # product.
        pairs = {}
        for a in range(4):
            for b in range(4):
                for da, db in ((1, 0), (0, 1), (1, 1)):
                    pairs[4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4] = 2
        for base in (16, 20):
            pairs.update({(base + k, base + (k + 1) % 4): 1 for k in range(4)})
            pairs.update({(base, base + 2): 2, (base + 1, base + 3): 2})
        for i in range(24, 30):
            pairs[i, 30] = 2
            pairs.update({(i, j): 1 for j in range(i + 1, 30) if j - i != 3})
        m = graph_space(31, 3, pairs)
        # a low degree-1 cap keeps the wedge's non-nilpotent model small
        cfg = Config(max_degree=2, deg1_cap=1)
        psm = persistent_model(m, cfg)
        assert [s.dims for s in psm.h_spaces[1:3]] == [((0, 20), (1, 2), (2, 1)),
                                                       ((0, 4), (1, 2), (2, 1))]
        assert psm.models[1] is not psm.models[2]
        self.assert_same_dump(m, cfg)

    def test_equal_models_with_other_maps_match_unshared(self):
        # square A is a circle over [1, 2), square B over [2, 4) and two
        # far points join at 3: stages 1, 2 and 3 share the model of the
        # circle, but the map from stage 2 to 1 is zero and the one from
        # 3 to 2 is not
        pairs = {(8, 9): 3}
        for base, edge, diagonal in ((0, 1, 2), (4, 2, 4)):
            pairs.update({(base + k, base + (k + 1) % 4): edge for k in range(4)})
            pairs.update({(base, base + 2): diagonal, (base + 1, base + 3): diagonal})
        m = graph_space(10, 10, pairs)
        cfg = Config(max_degree=2)
        psm = persistent_model(m, cfg)
        assert psm.models[1] is psm.models[2] is psm.models[3]
        assert psm.h_maps[1].matrix(1).is_zero() and not psm.h_maps[2].matrix(1).is_zero()
        self.assert_same_dump(m, cfg)

    def test_equal_cores_share_one_model(self):
        psm = persistent_model(circle_space(13), Config(max_degree=4))
        assert len(psm.models) == 7 and len({id(mm) for mm in psm.models}) == 3

    @pytest.mark.parametrize("max_dim", [1, 2])
    def test_degree_zero_reads_no_h1(self, max_dim):
        # At max_dim 1 the triangle's last stage is truncated to a hollow
        # triangle with H^1 = Q, and the unit square's stage 1, below the
        # radius sqrt(2), is a 4-cycle at any max_dim; degree 1 is not
        # reported at degree 0.
        for m in (metric_from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
                  metric_from_points([[0, 0], [1, 0], [1, 1], [0, 1]])):
            cfg = Config(max_degree=0, max_dim=max_dim)
            psm = persistent_model(m, cfg)
            assert psm.h1_stages == [] and psm.caveats() == []
            self.assert_same_dump(m, cfg)
        assert persistent_model(m, Config(max_degree=1, max_dim=2)).h1_stages == [1]


class TestCdgaMode:
    def test_strictness_separation(self):
        x = persistent_cdga_from_json(S2_CDGA)
        y = persistent_cdga_from_json(KZ2_KZ3_CDGA)
        rep = bounds_report(x, y, Config(max_degree=4), with_gh=False)
        assert rep.dB_V.sup == 0
        assert rep.dB_H.per_degree[4] == INF
        assert rep.dB_H.sup == INF

    def test_constant_s2_barcodes(self):
        psm = persistent_model_from_cdgas(
            persistent_cdga_from_json(S2_CDGA), Config(max_degree=4))
        vb = v_barcode(psm)
        assert vb.degree(2) == ((0, INF, 1),)
        assert vb.degree(3) == ((0, INF, 1),)
        hb = h_barcode(psm)
        assert hb.degree(2) == ((0, INF, 1),)
        assert hb.degree(4) == ()

    def test_two_stage_identity_maps(self):
        psm = persistent_model_from_cdgas(
            persistent_cdga_from_json(S2_IDENTITY_CDGA), Config(max_degree=4))
        vb = v_barcode(psm)
        assert vb.degree(2) == ((Fraction(0), INF, 1),)
        assert vb.degree(3) == ((Fraction(0), INF, 1),)
        hb = h_barcode(psm)
        assert hb.degree(2) == ((Fraction(0), INF, 1),)

    def test_two_stage_zero_map_splits_bars(self):
        psm = persistent_model_from_cdgas(
            persistent_cdga_from_json(S2_ZERO_MAP_CDGA), Config(max_degree=4))
        vb = v_barcode(psm)
        assert vb.degree(2) == ((Fraction(0), Fraction(1), 1), (Fraction(1), INF, 1))
        hb = h_barcode(psm)
        assert hb.degree(2) == ((Fraction(0), Fraction(1), 1), (Fraction(1), INF, 1))

    def test_h1_stages_only_from_degree_one(self):
        pc = persistent_cdga_from_json(CIRCLE_CDGA)
        assert persistent_model_from_cdgas(pc, Config(max_degree=1)).h1_stages == [0]
        assert persistent_model_from_cdgas(pc, Config(max_degree=0)).h1_stages == []

    # The shared, span-checked build must write the dump of the build
    # with nothing shared and nothing checked, byte for byte; the stages
    # are read as `psmm model` reads them.
    @pytest.mark.parametrize("spec, max_degree", [
        (PERSISTENT, 2), (PERSISTENT, 3), (PERSISTENT, 4), (S2_CDGA, 4), (KZ2_KZ3_CDGA, 4),
        (S2_IDENTITY_CDGA, 4), (S2_ZERO_MAP_CDGA, 4), (CIRCLE_CDGA, 1)])
    def test_matches_unshared_unchecked(self, spec, max_degree):
        pc = persistent_cdga_from_json(spec, min_trunc=max_degree + 2)
        cfg = Config(max_degree=max_degree)

        def dump(build):
            return json.dumps(psm_to_json(build(pc, cfg)), sort_keys=True, indent=2)
        assert dump(persistent_model_from_cdgas) == dump(unshared_persistent_cdga_model)

    def test_equal_stages_share_one_model(self, monkeypatch):
        # four equal S^2 stages, two written differently: the generators
        # in another order, an explicit zero differential
        stage = S2_CDGA["stages"][0]
        reordered = {**stage, "generators": stage["generators"][::-1]}
        zero_diff = {**stage, "differential": {**stage["differential"], "a": []}}
        spec = {"grid": [1, 2, 3], "stages": [stage, reordered, zero_diff, stage],
                "maps": S2_IDENTITY_CDGA["maps"] * 3}
        pc = persistent_cdga_from_json(spec, min_trunc=6)
        cfg = Config(max_degree=4)
        calls = []
        build = pipeline.minimal_model
        monkeypatch.setattr(pipeline, "minimal_model",
                            lambda *args: calls.append(args) or build(*args))
        psm = persistent_model_from_cdgas(pc, cfg)
        assert len(calls) == 1 and len({id(mm) for mm in psm.models}) == 1

        def dump(built):
            return json.dumps(psm_to_json(built), sort_keys=True, indent=2)
        assert dump(psm) == dump(unshared_persistent_cdga_model(pc, cfg))

    def test_bad_grid_rejected(self):
        with pytest.raises(InputError):
            persistent_cdga_from_json({"grid": [2, 1], "stages": [{}, {}, {}]})

    def test_stage_count_mismatch(self):
        with pytest.raises(InputError):
            persistent_cdga_from_json({"grid": [1], "stages": [S2_CDGA["stages"][0]]})


class TestBoundsReport:
    def test_identical_inputs(self):
        m = square_space()
        rep = bounds_report(m, m, Config(max_degree=2, max_dim=3))
        assert rep.dB_H.sup == 0 and rep.dB_V.sup == 0
        assert rep.gh2 == 0
        assert all(v["holds"] for v in rep.verdicts)

    def test_square_vs_scaled(self):
        rep = bounds_report(square_space(), square_space(2.0),
                            Config(max_degree=2, max_dim=3))
        assert rep.gh2 is not None and rep.gh2 > 0
        assert all(v["holds"] for v in rep.verdicts)
        lower, upper = rep.bracket()
        assert lower <= upper

    def test_gh_cap_omits_quietly(self):
        rep = bounds_report(circle_space(8), circle_space(8),
                            Config(max_degree=1, max_dim=2, gh_cap=30))
        assert rep.gh2 is None
        assert any("gh2 omitted" in c for c in rep.caveats)
        assert all(v["holds"] is None for v in rep.verdicts)

    def test_random_small_spaces_inequality(self):
        rng = random.Random(1234)
        cfg = Config(max_degree=2, max_dim=3)
        for _ in range(5):
            x = random_exact_space(rng, rng.randint(2, 4))
            y = random_exact_space(rng, rng.randint(2, 4))
            rep = bounds_report(x, y, cfg)
            assert rep.gh2 is not None
            assert rep.dB_H.sup <= rep.gh2

    def test_report_json_roundtrippable(self):
        import json
        rep = bounds_report(square_space(), square_space(2.0),
                            Config(max_degree=2, max_dim=3))
        blob = json.dumps(rep.to_json(), sort_keys=True)
        assert "dB_H" in blob and "ho_cdga_bracket" in blob
        assert rep.table()
