"""Acceptance suite: every criterion pinned at its stated tolerance,
one pass/fail line per criterion on stdout.

Criterion 2's degree-1 birth clause is stated at the resolution of the
n-point circle sample C_n rather than of the ideal circle S^1. The ideal
birth is 0, but the Rips stability theorem (Chazal, de Silva and Oudot,
"Persistence stability for geometric complexes", 2014) only promises
|birth - 0| <= 2 d_GH(C_n, S^1) <= 2 d_H = 2 pi / n, and under the open
Rips convention every stage r <= 2 pi / n is n isolated points. Adamaszek
and Adams ("The Vietoris-Rips complexes of a circle", 2017) give the
exact homotopy types: for n = 20 the degree-1 bar is (pi/10, 7 pi/10],
followed by degree 3 on (7 pi/10, 8 pi/10] and three degree-4 bars on
(8 pi/10, 9 pi/10]. So the clause pins the birth to the sample's first
critical value 2 pi / n, which no tolerance of 0.15 around 0 admits at
n = 20; a birth one stage earlier or later fails it. The death and
degree-3 clauses keep their ideal-circle tolerances.  At n = 42 the
first critical value 2 pi / 42 ~ 0.1496 lies within 0.15 of 0, so a
second run there (max_degree 1, its own 10-s budget) checks the literal
"degree-1 birth within 0.15 of 0" clause.
"""

import json
import math
import random
import time
from fractions import Fraction

from helpers import cohomology_ring, dense, gen_offset, make_sullivan, poly_mul, sparse
from interleaving import direct_sum, interleaving_check, interval_module
from psmm.cdga import linear_part_map, CDGAMorphism
from psmm.cli import main as cli_main
from psmm.cohomology import StageCohomology
from psmm.config import Config
from psmm.metric import gh_bruteforce, metric_from_matrix
from psmm.minmodel import minimal_model
from psmm.persistence import INF, bottleneck
from psmm.pipeline import (
    bounds_report,
    h_barcode,
    persistent_cdga_from_json,
    persistent_model,
    v_barcode,
)
from psmm.ratlin import combine


def report(num, name, checks, elapsed=None, budget=None):
    ok = all(flag for _, flag in checks)
    if budget is not None:
        checks = checks + [(f"elapsed {elapsed:.2f}s < {budget}s", elapsed < budget)]
        ok = ok and elapsed < budget
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(f"{label}={'ok' if flag else 'VIOLATED'}"
                       for label, flag in checks)
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def circle_space(n):
    rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
            for i in range(n)]
    return metric_from_matrix(rows)


def test_criterion_1_sphere_model_regression(tmp_path, capsys):
    ring_file = tmp_path / "s2_ring.json"
    ring_file.write_text(json.dumps({
        "cohomology_ring": {
            "max_degree": 7,
            "classes": [{"name": "g", "degree": 2}],
            "products": [{"left": "g", "right": "g", "result": []}],
        }
    }))
    out = tmp_path / "model.json"
    t0 = time.time()
    code = cli_main(["minimal-model", "--input", str(ring_file),
                     "--max-degree", "6", "-o", str(out)])
    elapsed = time.time() - t0
    dump = json.loads(out.read_text())
    degs = sorted(g["degree"] for g in dump["model"]["generators"])
    names = {g["degree"]: g["name"] for g in dump["model"]["generators"]}
    diff = dump["model"]["differential"]
    b_name, a_name = names.get(3), names.get(2)
    db = diff.get(b_name, [])
    db_is_a_squared = (len(db) == 1 and db[0]["coeff"] == "1"
                       and db[0]["monomial"] == [a_name, a_name])
    with capsys.disabled():
        report(1, "sphere model regression", [
            ("exit code 0", code == 0),
            ("generators in degrees {2,3}", degs == [2, 3]),
            ("d(b) = a^2", db_is_a_squared),
            ("minimal", dump["is_minimal"]),
            ("H(rho) iso through 6", dump["verification"]["verified_degree"] == 6),
        ], elapsed, 1.0)


def test_criterion_2_circle_pipeline(capsys):
    n = 20
    t0 = time.time()
    psm = persistent_model(circle_space(n), Config(max_degree=4))
    vb, hb = v_barcode(psm), h_barcode(psm)
    elapsed = time.time() - t0
    v1, h1 = vb.degree(1), hb.degree(1)
    target = 2 * math.pi / 3
    coincide = v1 == h1 and len(v1) == 1
    birth, death = (v1[0][0], v1[0][1]) if v1 else (INF, INF)
    v3 = vb.degree(3)
    d3_birth_ok = any(abs(b - target) <= 0.2 for (b, e, m) in v3)
    # at n = 42 the first critical value 2pi/42 ~ 0.1496 meets the ideal
    # circle's tolerance itself
    t42 = time.time()
    psm42 = persistent_model(circle_space(42), Config(max_degree=1))
    v42, h42 = v_barcode(psm42).degree(1), h_barcode(psm42).degree(1)
    elapsed42 = time.time() - t42
    birth42 = v42[0][0] if v42 else INF
    with capsys.disabled():
        report(2, "circle pipeline", [
            ("degree-1 V and H bars coincide exactly", coincide),
            ("degree-1 birth at the first critical value 2pi/n: the ideal birth 0, "
             "up to the 2*d_H(C_n, S^1) = 2pi/n that stability allows",
             math.isclose(birth, 2 * math.pi / n)),
            ("degree-1 death within 0.15 of 2pi/3", abs(death - target) <= 0.15),
            ("degree-3 V bar born within 0.2 of 2pi/3", d3_birth_ok),
            ("n = 42, max_degree 1: degree-1 V and H bars coincide exactly",
             v42 == h42 and len(v42) == 1),
            ("n = 42: degree-1 birth within 0.15 of 0", abs(birth42 - 0) <= 0.15),
            (f"n = 42: elapsed {elapsed42:.2f}s < 10s", elapsed42 < 10.0),
        ], elapsed, 120.0)


def test_criterion_3_strictness_separation(capsys):
    s2 = {
        "grid": [], "maps": [],
        "stages": [{
            "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
            "differential": {"b": [{"coeff": 1, "monomial": ["a", "a"]}]},
            "truncation": 8,
        }],
    }
    kz = {
        "grid": [], "maps": [],
        "stages": [{
            "generators": [{"name": "c", "degree": 2}, {"name": "d", "degree": 3}],
            "differential": {},
            "truncation": 8,
        }],
    }
    t0 = time.time()
    rep = bounds_report(persistent_cdga_from_json(s2), persistent_cdga_from_json(kz),
                        Config(max_degree=4), with_gh=False)
    elapsed = time.time() - t0
    with capsys.disabled():
        report(3, "strictness separation", [
            ("dB_V = 0 exactly", rep.dB_V.sup == 0),
            ("dB_H = inf", rep.dB_H.sup == INF),
            ("separation sits in degree 4", rep.dB_H.per_degree.get(4) == INF),
        ], elapsed, 1.0)


def test_criterion_4_non_minimal_example(capsys):
    alg = make_sullivan([("a2", 2), ("b3", 3)], {"a2": [(1, ["b3"])]}, 8)
    h = StageCohomology.of_cdga(alg, 6)
    mm = minimal_model(alg, max_deg=6)
    with capsys.disabled():
        report(4, "non-minimal example", [
            ("is_minimal false", not alg.is_minimal()),
            ("H^2 = 0", h.h_dim(2) == 0),
            ("model is Q through degree 6",
             mm.model.generators == () and mm.verified_degree == 6),
        ])


def test_criterion_5_stability_audit(capsys):
    rng = random.Random(20260810)
    cfg = Config(max_degree=2, max_dim=3)

    def rspace():
        n = rng.randint(2, 5)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.randint(1, 9), 4)
                rows[i][j] = rows[j][i] = v
        return metric_from_matrix(rows)

    t0 = time.time()
    violations = 0
    for _ in range(200):
        x, y = rspace(), rspace()
        db = bottleneck(h_barcode(x, cfg), h_barcode(y, cfg))
        gh2 = 2 * gh_bruteforce(x, y)
        lhs = max((v for k, v in db.per_degree.items() if k <= 2), default=0)
        if not lhs <= gh2:
            violations += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(5, "stability audit, 200 random pairs", [
            ("zero violations of dB_H <= 2*d_GH", violations == 0),
        ], elapsed, 600.0)


def test_criterion_6_decomposition_oracle(capsys):
    rng = random.Random(77)
    t0 = time.time()
    violations = 0
    for _ in range(100):
        npts = rng.randint(1, 5)
        grid = tuple(Fraction(k + 1) for k in range(npts))
        stops = [0] + list(grid) + [INF]

        def random_module():
            mods = []
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(0, len(stops) - 2)
                j = rng.randint(i + 1, len(stops) - 1)
                mods.append(interval_module((stops[i], stops[j]), grid, 0))
            return direct_sum(mods)

        p, q = random_module(), random_module()
        d = bottleneck(p.barcode(), q.barcode()).sup
        if d == INF:
            if interleaving_check(p, q, Fraction(1000)):
                violations += 1
            continue
        if not interleaving_check(p, q, d):
            violations += 1
            continue
        # largest candidate value strictly below the bottleneck must fail
        cands = {Fraction(0)}
        for (b1, e1) in p.barcode().expanded(0):
            for (b2, e2) in q.barcode().expanded(0):
                if e1 != INF and e2 != INF:
                    cands.add(max(abs(b1 - b2), abs(e1 - e2)))
        for (b, e) in p.barcode().expanded(0) + q.barcode().expanded(0):
            if e != INF:
                cands.add((e - b) / 2)
        below = [c for c in cands if c < d]
        if below and interleaving_check(p, q, max(below)):
            violations += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(6, "decomposition oracle vs bottleneck", [
            ("zero violations over 100 modules", violations == 0),
        ], elapsed, 600.0)


def test_criterion_7_algebra_property_suite(capsys):
    from test_cdga import random_sullivan
    rng = random.Random(4242)
    t0 = time.time()
    pair_budget = 1000
    algebras = [random_sullivan(rng) for _ in range(20)]
    violations = 0
    pairs_done = 0
    ai = 0
    while pairs_done < pair_budget:
        alg = algebras[ai % len(algebras)]
        ai += 1
        for _ in range(pair_budget // 20):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            m1s, m2s = alg.monomials(d1), alg.monomials(d2)
            if not m1s or not m2s:
                continue
            m1, m2 = rng.choice(m1s), rng.choice(m2s)
            p1, p2 = {m1: Fraction(1)}, {m2: Fraction(1)}
            prod = poly_mul(alg, p1, p2)
            flip = poly_mul(alg, p2, p1)
            sign = -1 if (d1 % 2 and d2 % 2) else 1
            if prod != {m: sign * c for m, c in flip.items()}:
                violations += 1
            lhs = alg.d_poly(prod)
            rhs = combine([(1, poly_mul(alg, alg.d_poly(p1), p2)),
                           ((-1) ** d1, poly_mul(alg, p1, alg.d_poly(p2)))])
            if lhs != rhs:
                violations += 1
            if alg.d_poly(alg.d_poly(p1)):
                violations += 1
            pairs_done += 1
        if ai > 200:
            break

    # Q-functoriality and the naturality square on random morphisms
    def free(tag):
        return make_sullivan(
            [(f"{tag}{i}", rng.choice([1, 2, 3])) for i in range(rng.randint(1, 3))],
            {}, 7)

    def linear_morphism(a, b):
        images = []
        for i in range(len(a.generators)):
            d = a.degrees[i]
            vec = [Fraction(rng.randint(-2, 2)) if len(m) == 1 else Fraction(0)
                   for m in b.monomials(d)]
            images.append(sparse(vec))
        return CDGAMorphism(a, b, images)

    for _ in range(25):
        u, v, w = free("u"), free("v"), free("w")
        f = linear_morphism(u, v)
        g = linear_morphism(v, w)
        comp = g.compose_after(f)
        if not linear_part_map(comp).equals(
                linear_part_map(g).compose_after(linear_part_map(f))):
            violations += 1
        # naturality: Q(wedge f) acts on generator slots exactly as f
        q = linear_part_map(f)
        for i in range(len(u.generators)):
            d, pos = gen_offset(u, i)
            col = dense(q.matrix(d).sparse_columns()[pos], q.matrix(d).rows)
            image = dense(f.images[i], v.dim(d))
            expect = [image[j] for j, m in enumerate(v.monomials(d)) if len(m) == 1]
            if col != expect:
                violations += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(7, "algebra property suite", [
            (f"zero violations over {pairs_done} monomial pairs, 20 algebras",
             violations == 0 and pairs_done >= 1000),
        ], elapsed, 600.0)


def test_criterion_8_torus_ring(capsys):
    from test_cohomology import torus7
    t0 = time.time()
    ring = cohomology_ring(torus7(), 4)
    prod = ring.mul_basis(1, 0, 1, 1)
    mm = minimal_model(ring.unital_core(), max_deg=3)
    degrees = [d for _, d in mm.model.generators]
    elapsed = time.time() - t0
    with capsys.disabled():
        report(8, "torus ring and model", [
            ("H^1 dim 2", ring.dim(1) == 2),
            ("H^2 dim 1", ring.dim(2) == 1),
            ("cup product of H^1 generators nonzero", bool(prod)),
            ("V^1 dim 2, nothing above", degrees == [1, 1]),
            ("degree-1 construction converged", mm.deg1_converged),
        ], elapsed, 600.0)
