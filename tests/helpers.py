"""Test-only API built on psmm: the canonical exact value check, the
dense/sparse vector pair (psmm itself takes sparse {index: exact}
dicts), whole-algebra linear parts and cohomology, polynomial
products, monomial labels, generator offsets, a necessary test for
homotopic morphisms, the simplicial-complex closure check, one-line
constructors, and a
persistent model of a metric space and one of a persistent CDGA, each
built with no sharing between stages.  The package
itself never needs them, so they live beside the tests.
"""

import itertools
from fractions import Fraction
from typing import Optional

from psmm.cdga import (
    CDGAMorphism,
    SullivanAlgebra,
    induced_cohomology_map,
    linear_part_map,
)
from psmm.cohomology import CohomologyRing, StageCohomology, induced_ring_map
from psmm.config import Config
from psmm.errors import InputError, LiftError
from psmm.gvec import GradedLinearMap, GradedVectorSpace
from psmm.metric import MetricSpace, SimplicialComplex, build_filtration
from psmm.minmodel import minimal_model, sullivan_representative
from psmm.pipeline import PersistentCDGA, PersistentSullivanModel
from psmm.ratlin import RatMatrix


def is_canonical_exact(v) -> bool:
    """v is a canonical exact rational, the value type of psmm's linear
    algebra: an int (not a bool) when integral, a `Fraction` only when
    its denominator is greater than 1.  Floats, bools and `Fraction(k, 1)`
    are not."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def sparse(vec) -> dict:
    """The {index: Fraction} dict of the nonzero entries of a dense
    vector, the vector format psmm takes."""
    return {i: Fraction(v) for i, v in enumerate(vec) if v}


def dense(col: dict, n: int) -> list:
    """The dense length-n list of a sparse {index: value} vector, with
    0 where it has no entry."""
    out = [0] * n
    for i, v in col.items():
        out[i] = v
    return out


def make_sullivan(generators, differential, truncation_degree) -> SullivanAlgebra:
    return SullivanAlgebra(generators, differential, truncation_degree)


def cohomology_ring(cx: SimplicialComplex, max_deg: int) -> CohomologyRing:
    return CohomologyRing.from_complex(cx, max_deg)


def poly_mul(alg: SullivanAlgebra, p: dict, q: dict) -> dict:
    """Product of two polynomials of `alg`, with the Koszul signs of
    its monomial multiplication."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            r = alg.mul_monomials(m1, m2)
            if r is None:
                continue
            m, s = r
            nc = out.get(m, Fraction(0)) + s * c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
    return out


def monomial_label(alg: SullivanAlgebra, m: tuple) -> str:
    """A monomial as a product of generator names with powers, such as
    "a^2*b"; "1" for the empty monomial."""
    if not m:
        return "1"
    parts = []
    for g, grp in itertools.groupby(m):
        k = len(list(grp))
        parts.append(alg.names[g] if k == 1 else f"{alg.names[g]}^{k}")
    return "*".join(parts)


def gen_offset(alg: SullivanAlgebra, i: int) -> tuple:
    """(degree, position) of generator i within its degree block."""
    d = alg.degrees[i]
    pos = sum(1 for j in range(i) if alg.degrees[j] == d)
    return d, pos


def linear_part(alg: SullivanAlgebra):
    """(V, Q(d)): the generator space and the word-length-1 component of
    the differential as matrices V^k -> V^{k+1}."""
    space = alg.generator_space()
    by_deg: dict[int, list] = {}
    for i, (_, d) in enumerate(alg.generators):
        by_deg.setdefault(d, []).append(i)
    qmats: dict[int, RatMatrix] = {}
    for d, idxs in by_deg.items():
        tgt = by_deg.get(d + 1, [])
        cols = []
        for i in idxs:
            col = [Fraction(0)] * len(tgt)
            for m, c in alg.diff.get(i, {}).items():
                if len(m) == 1:
                    col[tgt.index(m[0])] = c
            cols.append(sparse(col))
        m = RatMatrix.from_columns(cols, rows=len(tgt))
        if not m.is_zero():
            qmats[d] = m
    return space, qmats


def cdga_cohomology(alg: SullivanAlgebra, max_deg: int):
    """Graded vector space of H^* with representative polynomials."""
    h = StageCohomology.of_cdga(alg, max_deg)
    dims = {k: h.h_dim(k) for k in range(max_deg + 1)}
    reps = {
        k: [{alg.monomials(k)[i]: c for i, c in sorted(r.items())} for r in h.h_reps(k)]
        for k in range(max_deg + 1) if dims[k]
    }
    return GradedVectorSpace.from_dims(dims), reps


def check_homotopy_necessary(phi0: CDGAMorphism, phi1: CDGAMorphism,
                             max_deg: Optional[int] = None) -> dict:
    """Necessary conditions for phi0 ~ phi1: equal maps on cohomology,
    and equal linear parts (the latter is only a valid necessary
    condition when H^1(source) = 0).  Neither is claimed sufficient.
    """
    if phi0.source is not phi1.source or phi0.target is not phi1.target:
        raise InputError("morphisms must share source and target")
    hi = min(phi0.max_checkable(), phi1.max_checkable()) - 1 if max_deg is None else max_deg
    h_src = StageCohomology.of_cdga(phi0.source, hi)
    h_tgt = StageCohomology.of_cdga(phi0.target, hi)
    h0 = induced_cohomology_map(phi0, h_src, h_tgt, hi)
    h1 = induced_cohomology_map(phi1, h_src, h_tgt, hi)
    h_equal = h0.equals(h1)
    q_equal = None
    if isinstance(phi0.target, SullivanAlgebra):
        q_equal = linear_part_map(phi0).equals(linear_part_map(phi1))
    return {
        "h_equal": h_equal,
        "q_equal": q_equal,
        "h1_source_zero": h_src.h_dim(1) == 0,
        "necessary_conditions_met": h_equal and (q_equal is not False),
    }


def validate_complex(cx):
    """InputError unless every simplex of `cx` is a strictly increasing
    tuple of its dimension's length, with all its faces and every vertex
    present."""
    seen = {s for group in cx.simplices.values() for s in group}
    for d, group in cx.simplices.items():
        for s in group:
            if len(s) != d + 1 or list(s) != sorted(set(s)):
                raise InputError(f"bad simplex {s} in dimension {d}")
            if d > 0:
                for face in itertools.combinations(s, d):
                    if face not in seen:
                        raise InputError(f"missing face {face} of {s}")
    for v in range(cx.n_vertices):
        if (v,) not in seen:
            raise InputError(f"missing vertex ({v},)")


def unshared_persistent_model(m: MetricSpace, cfg: Config) -> PersistentSullivanModel:
    """`pipeline.persistent_model` with nothing shared between stages:
    one minimal model per stage, one lift per pair (a zero
    representative where no lift exists between truncated degree-1
    models) and the Q- and H-functoriality check on every span."""
    deg = cfg.max_degree
    filt = build_filtration(m, cfg.max_dim, cfg.simplex_cap)
    rings = [CohomologyRing.from_complex(cx, deg + 1) for cx in filt.stages]
    cores = [r.unital_core() for r in rings]
    models = [minimal_model(core, deg, cfg.deg1_cap) for core in cores]
    ring_maps = [induced_ring_map(small, big, deg) for small, big in zip(rings, rings[1:])]
    core_maps = []
    for k, f in enumerate(ring_maps):
        mats = {0: RatMatrix.identity(1)}
        mats.update({d: f.matrix(d) for d in range(1, deg + 1) if not f.matrix(d).is_zero()})
        core_maps.append(GradedLinearMap(cores[k + 1].space(deg), cores[k].space(deg), mats))
    degraded, reps = [], []
    for k, f in enumerate(core_maps):
        src, tgt = models[k + 1], models[k]
        try:
            reps.append(sullivan_representative(f, src, tgt, deg))
        except LiftError:
            if src.deg1_converged and tgt.deg1_converged:
                raise
            degraded.append(k)
            reps.append(CDGAMorphism(src.model, tgt.model, [{} for _ in src.model.degrees]))
    nonconverged = [k for k, mm in enumerate(models) if not mm.deg1_converged]
    for k in range(len(core_maps) - 1):
        if {k, k + 1, k + 2} & set(nonconverged) or {k, k + 1} & set(degraded):
            continue
        direct = sullivan_representative(core_maps[k].compose_after(core_maps[k + 1]),
                                         models[k + 2], models[k], deg)
        chained = reps[k].compose_after(reps[k + 1])
        if not linear_part_map(direct).equals(linear_part_map(chained)):
            raise InputError(f"Q-functoriality fails across stages {k}..{k + 2}")
        h_src, h_tgt = models[k + 2].h_model, models[k].h_model
        if not induced_cohomology_map(direct, h_src, h_tgt, deg).equals(
                induced_cohomology_map(chained, h_src, h_tgt, deg)):
            raise InputError(f"H-functoriality fails across stages {k}..{k + 2}")
    return PersistentSullivanModel(
        grid=filt.critical_values,
        models=models,
        reps=reps,
        h_spaces=[r.space(deg) for r in rings],
        h_maps=ring_maps,
        max_degree=deg,
        degraded_pairs=degraded,
        source="metric",
    )


def unshared_persistent_cdga_model(pc: PersistentCDGA, cfg: Config) -> PersistentSullivanModel:
    """`pipeline.persistent_model_from_cdgas` with nothing shared and no
    functoriality check: one minimal model per stage and one lift per
    structure map (a zero representative where no lift exists between
    truncated degree-1 models)."""
    deg = cfg.max_degree
    models = [minimal_model(alg, deg, cfg.deg1_cap) for alg in pc.stages]
    degraded, reps = [], []
    for k, f in enumerate(pc.maps):
        src, tgt = models[k + 1], models[k]
        try:
            reps.append(sullivan_representative(f, src, tgt, deg))
        except LiftError:
            if src.deg1_converged and tgt.deg1_converged:
                raise
            degraded.append(k)
            reps.append(CDGAMorphism(src.model, tgt.model, [{} for _ in src.model.degrees]))
    return PersistentSullivanModel(
        grid=pc.grid,
        models=models,
        reps=reps,
        h_spaces=[GradedVectorSpace.from_dims({k: mm.h_input.h_dim(k) for k in range(deg + 1)})
                  for mm in models],
        h_maps=[induced_cohomology_map(f, models[k + 1].h_input, models[k].h_input, deg)
                for k, f in enumerate(pc.maps)],
        max_degree=deg,
        degraded_pairs=degraded,
        source="cdga",
    )
