import json
from fractions import Fraction

import pytest

from helpers import cohomology_ring, make_sullivan
from psmm.cdga import linear_part_map
from psmm.cohomology import CohomologyRing, StageCohomology
from psmm import minmodel
from psmm.cli import main as cli_main
from psmm.errors import CapExceeded, InputError
from psmm.gvec import GradedLinearMap
from psmm.minmodel import (
    MinimalModel,
    minimal_model,
    sullivan_representative,
    verify_quasi_iso,
)
from psmm.ratlin import RatMatrix


def sphere2_ring(max_deg=7):
    """H*(S^2): one class in degree 2 squaring to zero."""
    return CohomologyRing.from_data(max_deg, {0: ["one"], 2: ["g"]}, {})


def sphere3_ring(max_deg=7):
    return CohomologyRing.from_data(max_deg, {0: ["one"], 3: ["u"]}, {})


def wedge_circles_ring(max_deg=4):
    """H*(S^1 v S^1): two degree-1 classes, all products zero."""
    return CohomologyRing.from_data(max_deg, {0: ["one"], 1: ["x", "y"]}, {})


def torus_ring(max_deg=4):
    from test_cohomology import torus7
    return cohomology_ring(torus7(), max_deg).unital_core()


class TestMinimalModel:
    def test_sphere2(self):
        mm = minimal_model(sphere2_ring(), max_deg=6)
        assert [d for _, d in mm.model.generators] == [2, 3]
        assert mm.model.is_minimal()
        a, b = 0, 1
        assert mm.model.diff.get(b) == {(a, a): Fraction(1)}
        assert mm.verified_degree == 6
        assert mm.deg1_converged

    def test_sphere3(self):
        mm = minimal_model(sphere3_ring(), max_deg=6)
        assert [d for _, d in mm.model.generators] == [3]
        assert mm.model.diff == {} or all(not p for p in mm.model.diff.values())
        assert mm.verified_degree == 6

    def test_torus_v1_only(self):
        mm = minimal_model(torus_ring(), max_deg=3)
        assert [d for _, d in mm.model.generators] == [1, 1]
        assert mm.deg1_converged
        assert mm.verified_degree == 3

    def test_wedge_circles_never_converges(self):
        mm = minimal_model(wedge_circles_ring(), max_deg=2, deg1_cap=2)
        assert not mm.deg1_converged
        # the truncated V^1 leaves surviving H^2 kernel, and the report
        # says so instead of claiming an isomorphism
        assert mm.verified_degree < 2
        mm3 = minimal_model(wedge_circles_ring(), max_deg=2, deg1_cap=3)
        assert not mm3.deg1_converged

    def test_remark_pair_model_is_trivial(self):
        alg = make_sullivan([("a2", 2), ("b3", 3)], {"a2": [(1, ["b3"])]}, 8)
        mm = minimal_model(alg, max_deg=6)
        assert mm.model.generators == ()
        assert mm.verified_degree == 6

    def test_trivial_input(self):
        ring = CohomologyRing.from_data(5, {0: ["one"]}, {})
        mm = minimal_model(ring, max_deg=4)
        assert mm.model.generators == ()
        assert all(row["dim_model"] == row["dim_input"] == row["rank"] == 0
                   for row in mm.report["per_degree"] if row["degree"] > 0)

    def test_disconnected_rejected(self):
        ring = CohomologyRing.from_data(3, {0: ["one"], 1: []}, {})
        # fabricate a two-component H^0: from_data refuses non-unit H^0,
        # so go through a genuine disconnected complex instead
        from psmm.metric import build_filtration, metric_from_matrix
        f = build_filtration(metric_from_matrix([[0, 1], [1, 0]]), max_dim=1)
        full = cohomology_ring(f.stages[0], 2)
        with pytest.raises(InputError):
            minimal_model(full, max_deg=1)

    def test_formal_cd_product_model(self):
        alg = make_sullivan([("c", 2), ("d", 3)], {}, 8)
        mm = minimal_model(alg, max_deg=6)
        assert [d for _, d in mm.model.generators] == [2, 3]
        assert mm.model.is_minimal()
        assert all(not p for p in mm.model.diff.values())
        assert mm.verified_degree == 6

    def test_input_basis_permutation_same_generator_counts(self):
        base = minimal_model(torus_ring(), max_deg=3)
        permuted_ring = CohomologyRing.from_data(
            4, {0: ["one"], 1: ["b", "a"], 2: ["t"]},
            {(1, 0, 1, 1): {0: -1}, (1, 1, 1, 0): {0: 1}},
        )
        other = minimal_model(permuted_ring, max_deg=3)
        counts = lambda mm: sorted(d for _, d in mm.model.generators)
        assert counts(base) == counts(other)


class TestGeneratorCap:
    """The wedge of two circles adds x, y, then z with d z = xy, then
    two more degree-1 generators: a cap of 3 is passed on the fourth."""

    def test_minimal_model_raises(self, monkeypatch):
        monkeypatch.setattr(minmodel, "GEN_CAP", 3)
        with pytest.raises(CapExceeded, match="generator cap 3"):
            minimal_model(wedge_circles_ring(), max_deg=2)

    def test_cli_exit_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(minmodel, "GEN_CAP", 3)
        ring = {"max_degree": 3, "products": [],
                "classes": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}]}
        path = tmp_path / "wedge-ring.json"
        path.write_text(json.dumps({"cohomology_ring": ring}))
        assert cli_main(["minimal-model", "--input", str(path), "--max-degree", "2"]) == 3
        assert capsys.readouterr().err.startswith("error: generator cap 3")


class TestOneAlgebraPerGeneratorSet:
    """The builder makes one Sullivan algebra per generator count, at
    the final truncation, and checks the final rho alone."""

    def test_one_algebra_per_generator_count(self, monkeypatch):
        built, checked = [], []
        real_alg, real_check = minmodel.SullivanAlgebra, minmodel.CDGAMorphism.verify_chain_map

        def counting_alg(gens, diff, trunc):
            built.append((len(gens), trunc))
            return real_alg(gens, diff, trunc)

        monkeypatch.setattr(minmodel, "SullivanAlgebra", counting_alg)
        monkeypatch.setattr(minmodel.CDGAMorphism, "verify_chain_map",
                            lambda rho: checked.append(rho) or real_check(rho))
        mm = minimal_model(sphere3_ring(), max_deg=4)
        assert built == [(0, 6), (1, 6)]  # the empty model, then u in degree 3
        assert checked == [mm.rho]
        assert mm.verified_degree == 4

    def test_rho_broken_after_construction_raises(self, monkeypatch):
        # Lambda(a, b), d b = a^2, is its own model: v3 with d v3 = v2^2
        # and rho(v3) = b.  Sending v3 to 0 instead breaks d rho = rho d
        # in degree 3, which no pass of the construction reads.
        s2 = make_sullivan([("a", 2), ("b", 3)], {"b": [(1, ["a", "a"])]}, 8)
        assert [d for _, d in minimal_model(s2, max_deg=4).model.generators] == [2, 3]
        real_build = minmodel._Builder.build

        def broken_build(builder):
            alg, rho, h_model = real_build(builder)
            for i, d in enumerate(alg.degrees):
                if d == 3:
                    rho.images[i] = {}
            rho._mono_image.clear()
            return alg, rho, h_model

        monkeypatch.setattr(minmodel._Builder, "build", broken_build)
        with pytest.raises(InputError, match="does not commute with d at degree 3"):
            minimal_model(s2, max_deg=4)

    @pytest.mark.parametrize("max_degree, code, message", [
        ("1", 4, "warning: degree-1 construction did not converge"),
        ("2", 3, "error: degree-4 monomial basis of 10334625 exceeds cap 1048576"),
    ])
    def test_wedge_ring_exits(self, tmp_path, capsys, max_degree, code, message):
        ring = {"max_degree": 3, "products": [],
                "classes": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}]}
        path = tmp_path / "wedge-ring.json"
        path.write_text(json.dumps({"cohomology_ring": ring}))
        assert cli_main(["minimal-model", "--input", str(path), "--max-degree", max_degree,
                         "-o", str(tmp_path / "out.json")]) == code
        assert capsys.readouterr().err.strip() == message


class TestVerifyQuasiIso:
    def test_mutation_detected(self):
        mm = minimal_model(sphere2_ring(), max_deg=6)
        broken_alg = make_sullivan([("a", 2)], {}, 8)
        from psmm.cdga import CDGAMorphism
        rho = CDGAMorphism(broken_alg, mm.input, [{0: Fraction(1)}])
        broken = MinimalModel(
            broken_alg, rho, mm.input, -1, True, {},
            mm.h_input, StageCohomology.of_cdga(broken_alg, 7),
        )
        rep = verify_quasi_iso(broken, 6)
        row4 = rep["per_degree"][4]
        assert row4["dim_model"] == 1 and row4["dim_input"] == 0
        assert rep["verified_degree"] == 3


def identity_map(ring, max_deg):
    space = ring.space(max_deg)
    return GradedLinearMap.identity(space)


class TestSullivanRepresentative:
    def test_identity_on_sphere2(self):
        ring = sphere2_ring()
        mm = minimal_model(ring, max_deg=6)
        phi = sullivan_representative(identity_map(ring, 7), mm, mm, 6)
        q = linear_part_map(phi)
        assert q.matrix(2) == RatMatrix.identity(1)
        assert q.matrix(3) == RatMatrix.identity(1)

    def test_zero_map_collapses_generators(self):
        ring_a = sphere3_ring()
        ring_b = sphere2_ring()
        mma = minimal_model(ring_a, max_deg=6)
        mmb = minimal_model(ring_b, max_deg=6)
        zero = GradedLinearMap(ring_a.space(7), ring_b.space(7),
                               {0: RatMatrix.identity(1)})
        phi = sullivan_representative(zero, mma, mmb, 6)
        q = linear_part_map(phi)
        assert q.matrix(3).is_zero()

    def test_functoriality_h_and_q_levels(self):
        ring = torus_ring()
        mm = minimal_model(ring, max_deg=3)
        ident = identity_map(ring, 4)
        phi1 = sullivan_representative(ident, mm, mm, 3)
        phi2 = sullivan_representative(ident, mm, mm, 3)
        comp = phi1.compose_after(phi2)
        direct = sullivan_representative(ident, mm, mm, 3)
        assert linear_part_map(comp).equals(linear_part_map(direct))

    def test_sign_flip_automorphism(self):
        ring = sphere2_ring()
        mm = minimal_model(ring, max_deg=6)
        neg = GradedLinearMap(ring.space(7), ring.space(7), {
            0: RatMatrix.identity(1),
            2: RatMatrix.from_rows([[-1]]),
        })
        phi = sullivan_representative(neg, mm, mm, 6)
        q = linear_part_map(phi)
        assert q.matrix(2) == RatMatrix.from_rows([[-1]])
        # d(b) = a^2 forces the degree-3 image to carry the square of -1
        assert q.matrix(3) == RatMatrix.identity(1)

    def test_torus_shear_automorphism(self):
        # x -> x, y -> x + y on H^1 has determinant 1 on H^2 and is
        # multiplicative; its representative must carry the same shear
        ring = CohomologyRing.from_data(
            4, {0: ["one"], 1: ["x", "y"], 2: ["t"]},
            {(1, 0, 1, 1): {0: 1}, (1, 1, 1, 0): {0: -1}},
        )
        mm = minimal_model(ring, max_deg=3)
        shear = GradedLinearMap(ring.space(4), ring.space(4), {
            0: RatMatrix.identity(1),
            1: RatMatrix.from_rows([[1, 1], [0, 1]]),
            2: RatMatrix.identity(1),
        })
        phi = sullivan_representative(shear, mm, mm, 3)
        q = linear_part_map(phi)
        assert q.matrix(1) == RatMatrix.from_rows([[1, 1], [0, 1]])

    def test_reruns_identical_and_homotopy_necessary(self):
        from helpers import check_homotopy_necessary
        ring = sphere2_ring()
        mm = minimal_model(ring, max_deg=6)
        ident = identity_map(ring, 7)
        phi1 = sullivan_representative(ident, mm, mm, 6)
        phi2 = sullivan_representative(ident, mm, mm, 6)
        assert phi1.images == phi2.images  # deterministic pivoting
        rep = check_homotopy_necessary(phi1, phi2, max_deg=5)
        assert rep["necessary_conditions_met"]


class TestCircleStageRepresentatives:
    def _circle_psm(self):
        import math
        from psmm.config import Config
        from psmm.metric import metric_from_matrix
        from psmm.pipeline import persistent_model
        n = 8
        rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2)
                 for j in range(n)] for i in range(n)]
        return persistent_model(metric_from_matrix(rows), Config(max_degree=4))

    def test_consecutive_circle_stages_unit_sign(self):
        psm = self._circle_psm()
        # stages 1 and 2 are both circle-like; the degree-1 linear part
        # must be +1 or -1
        q = linear_part_map(psm.reps[1])
        m = q.matrix(1)
        assert m.rows == m.cols == 1 and m.tolist()[0][0] in (1, -1)

    def test_transition_sends_generators_to_zero(self):
        psm = self._circle_psm()
        # stage 3 is 3-sphere-like, stage 2 circle-like: the covering map
        # is zero in positive degrees, so the linear part vanishes
        q = linear_part_map(psm.reps[2])
        for deg in (1, 2, 3, 4):
            assert q.matrix(deg).is_zero()
