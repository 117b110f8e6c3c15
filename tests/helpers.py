"""Test-only API built on psmm: whole-algebra linear parts and
cohomology, polynomial products, generator offsets, a necessary test for
homotopic morphisms and the simplicial-complex closure check.  The
package itself never needs them, so they live beside the tests.
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
from psmm.cohomology import StageCohomology
from psmm.errors import InputError
from psmm.gvec import GradedVectorSpace
from psmm.ratlin import RatMatrix


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
            cols.append(col)
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
