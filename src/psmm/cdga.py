"""Free graded-commutative differential algebras.

Monomials in named generators (degrees >= 1) are kept in a canonical
form: generator indices sorted by (degree, name), odd generators at
most once.  `sort_monomial` is the one Koszul sign rule: a product
concatenates its factors, a Leibniz term splices d(x) in place of x,
and both are put in canonical form by sorting.  Polynomials are sparse
dicts {monomial: Fraction}; a homogeneous one has sparse coordinates
{monomial index: Fraction} in its degree's basis (`poly_to_vec`), the
one vector format of the package.

Degree bases are materialized through an explicit truncation degree,
each counted from the generator degrees before it is enumerated, with
CapExceeded past MONOMIAL_CAP monomials; symbolic polynomial arithmetic
(multiplication, Leibniz differential, the d^2 = 0 check) is exact and
truncation-free.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .cohomology import StageCohomology, mul_elements
from .errors import CapExceeded, DimensionMismatch, InputError, TruncationError
from .gvec import GradedLinearMap, GradedVectorSpace
from .ratlin import RatMatrix, combine
from .util import json_coeff, json_int, num_to_json

Monomial = tuple  # sorted generator indices
Poly = dict  # Monomial -> Fraction

# Cap on the monomial basis of one degree; CapExceeded past it.
MONOMIAL_CAP = 1 << 20


def count_monomials(degrees: Sequence[int], deg: int) -> int:
    """Size of the degree-deg monomial basis on generators of the given
    degrees (deg >= 0): the coefficient of t^deg in
    prod_odd (1 + t^d) * prod_even 1 / (1 - t^d)."""
    counts = [1] + [0] * deg
    for d in degrees:
        for k in range(deg, d - 1, -1) if d % 2 else range(d, deg + 1):
            counts[k] += counts[k - d]
    return counts[deg]


class SullivanAlgebra:
    """Free CDGA on ordered generators with a degree +1 differential.

    Generators are stored sorted by (degree, name); the differential is
    a polynomial per generator, validated so that the degree is raised
    by exactly one and d(d(g)) = 0 identically.
    """

    def __init__(self, generators: Sequence, differential: dict, truncation_degree: int):
        gens = [(str(n), int(d)) for n, d in generators]
        if len({n for n, _ in gens}) != len(gens):
            raise InputError("duplicate generator names")
        if any(d < 1 for _, d in gens):
            raise InputError("generator degrees must be >= 1")
        self.generators = tuple(sorted(gens, key=lambda nd: (nd[1], nd[0])))
        self.index = {n: i for i, (n, _) in enumerate(self.generators)}
        self.degrees = tuple(d for _, d in self.generators)
        self.names = tuple(n for n, _ in self.generators)
        self._generator_space = GradedVectorSpace.from_dims(Counter(self.degrees))
        if truncation_degree < 1:
            raise InputError("truncation degree must be >= 1")
        self.trunc = truncation_degree
        self.diff: dict[int, Poly] = {}
        for name, poly in differential.items():
            if name not in self.index:
                raise InputError(f"differential on unknown generator {name!r}")
            self.diff[self.index[name]] = self._canon_poly(poly)
        self._monomials: dict[int, list] = {}
        self._mono_index: dict[int, dict] = {}
        self._dcols: dict[int, tuple] = {}
        self._mulcache: dict = {}
        self._validate()

    # -- canonical monomial arithmetic ---------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        return sum(self.degrees[i] for i in m)

    def sort_monomial(self, indices: Sequence[int]) -> Optional[tuple]:
        """Canonicalize an arbitrary index sequence: (monomial, sign) or
        None when an odd generator repeats."""
        sign = 1
        lst = list(indices)
        # insertion sort, counting odd-odd transpositions
        for i in range(1, len(lst)):
            j = i
            while j > 0 and lst[j - 1] > lst[j]:
                if self.degrees[lst[j - 1]] % 2 and self.degrees[lst[j]] % 2:
                    sign = -sign
                lst[j - 1], lst[j] = lst[j], lst[j - 1]
                j -= 1
        for a, b in zip(lst, lst[1:]):
            if a == b and self.degrees[a] % 2:
                return None
        return tuple(lst), sign

    def mul_monomials(self, m1: Monomial, m2: Monomial) -> Optional[tuple]:
        """(product monomial, Koszul sign) or None when it vanishes."""
        key = (m1, m2)
        hit = self._mulcache.get(key, 0)
        if hit == 0:
            hit = self._mulcache[key] = self.sort_monomial(m1 + m2)
        return hit

    def d_monomial(self, m: Monomial) -> Poly:
        """Leibniz rule: d(x_1..x_n) = sum over positions of the sign of
        the odd generators before x_i times x_1..d(x_i)..x_n, each term
        put in canonical form by `sort_monomial`."""
        terms = []
        sign = 1
        for pos, g in enumerate(m):
            for mono, coeff in self.diff.get(g, {}).items():
                r = self.sort_monomial(m[:pos] + mono + m[pos + 1:])
                if r is not None:
                    terms.append((sign * r[1] * coeff, {r[0]: 1}))
            if self.degrees[g] % 2:
                sign = -sign
        return combine(terms)

    def d_poly(self, p: Poly) -> Poly:
        return combine((c, self.d_monomial(m)) for m, c in p.items())

    def _canon_poly(self, terms) -> Poly:
        """The polynomial of a list of terms, each a {'coeff', 'monomial'}
        dict or a (coeff, names) pair."""
        out: Poly = {}
        for term in terms:
            try:
                coeff, names = ((term["coeff"], term["monomial"]) if isinstance(term, dict)
                                else term)
                coeff, names = json_coeff(coeff, term), [str(n) for n in names]
            except (KeyError, TypeError, ValueError):
                raise InputError(f"malformed term {term!r}: needs a coeff and a "
                                 "monomial list") from None
            try:
                idxs = [self.index[n] for n in names]
            except KeyError as e:
                raise InputError(f"unknown generator in monomial: {e}")
            res = self.sort_monomial(idxs)
            if res is None:
                raise InputError(f"odd generator squared in monomial {names}")
            mono, sign = res
            c = sign * coeff
            if c != 0:
                out[mono] = out.get(mono, Fraction(0)) + c
        return {m: c for m, c in out.items() if c != 0}

    def _validate(self):
        for i, poly in self.diff.items():
            want = self.degrees[i] + 1
            for m in poly:
                if self.monomial_degree(m) != want:
                    raise InputError(
                        f"differential of {self.names[i]} has a term of degree "
                        f"{self.monomial_degree(m)}, expected {want}")
        for i in range(len(self.generators)):
            dd = self.d_poly(self.diff.get(i, {}))
            if dd:
                raise InputError(f"d(d({self.names[i]})) != 0")

    # -- degree bases ---------------------------------------------------

    def monomials(self, deg: int) -> list:
        if deg > self.trunc:
            raise TruncationError(f"degree {deg} beyond truncation {self.trunc}")
        if deg in self._monomials:
            return self._monomials[deg]
        out: list = []

        def extend(start: int, remaining: int, acc: list):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for g in range(start, len(self.generators)):
                d = self.degrees[g]
                if d > remaining:
                    continue
                acc.append(g)
                extend(g + 1 if d % 2 else g, remaining - d, acc)
                acc.pop()

        if deg >= 0:
            n = count_monomials(self.degrees, deg)
            if n > MONOMIAL_CAP:
                raise CapExceeded(f"degree-{deg} monomial basis of {n} exceeds "
                                  f"cap {MONOMIAL_CAP}")
            extend(0, deg, [])
        self._monomials[deg] = out
        self._mono_index[deg] = {m: i for i, m in enumerate(out)}
        return out

    def poly_to_vec(self, p: Poly, deg: int) -> dict:
        """Sparse coordinates {monomial index: coeff} of a polynomial of
        degree deg."""
        self.monomials(deg)
        idx = self._mono_index[deg]
        if any(self.monomial_degree(m) != deg for m in p):
            raise DimensionMismatch("inhomogeneous polynomial")
        return {idx[m]: c for m, c in p.items()}

    # -- finite-CDGA interface -------------------------------------------

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return len(self.monomials(k))

    def d_columns(self, k: int) -> tuple:
        """Sparse columns of d: degree k -> k+1, one per degree-k
        monomial, with their row count (0 past the truncation)."""
        if k not in self._dcols:
            rows = self.dim(k + 1) if k + 1 <= self.trunc else 0
            index = self._mono_index.get(k + 1, {})
            cols = [{index[m]: c for m, c in self.d_monomial(mono).items()} if rows else {}
                    for mono in self.monomials(k)]
            self._dcols[k] = (cols, rows)
        return self._dcols[k]

    def mul_basis(self, p: int, i: int, q: int, j: int) -> dict:
        if p + q > self.trunc:
            return {}
        m1 = self.monomials(p)[i]
        m2 = self.monomials(q)[j]
        r = self.mul_monomials(m1, m2)
        if r is None:
            return {}
        self.monomials(p + q)
        return {self._mono_index[p + q][r[0]]: Fraction(r[1])}

    def unit_coords(self) -> dict:
        return {0: Fraction(1)}

    # -- linear part and minimality ----------------------------------------

    def generator_space(self) -> GradedVectorSpace:
        return self._generator_space

    def is_minimal(self) -> bool:
        """No linear term in any differential: im(d) in wedge^{>=2}."""
        return all(
            all(len(m) >= 2 for m in poly)
            for poly in self.diff.values()
        )

    def dump(self) -> dict:
        return {
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "differential": {
                self.names[i]: [
                    {"coeff": num_to_json(c), "monomial": [self.names[g] for g in m]}
                    for m, c in sorted(p.items())
                ]
                for i, p in sorted(self.diff.items()) if p
            },
            "truncation": self.trunc,
        }


def sullivan_from_json(spec, min_trunc: int = 0) -> SullivanAlgebra:
    """Sullivan algebra from its file form: a `generators` list of
    {"name", "degree"} objects, an optional `differential` object
    mapping names to lists of {"coeff", "monomial"} terms, and an
    optional integer `truncation` (default 6, raised to min_trunc)."""
    if not isinstance(spec, dict) or not isinstance(spec.get("generators"), list):
        raise InputError("a Sullivan algebra needs a 'generators' list")
    gens = []
    for g in spec["generators"]:
        if not isinstance(g, dict) or not isinstance(g.get("name"), str):
            raise InputError(f"generator {g!r} needs a string 'name' and a 'degree'")
        gens.append((g["name"], json_int(g.get("degree"), f"degree of {g['name']}")))
    differential = spec.get("differential", {})
    if not isinstance(differential, dict) or not all(
            isinstance(terms, list) for terms in differential.values()):
        raise InputError("'differential' must map generator names to term lists")
    trunc = max(json_int(spec.get("truncation", 6), "truncation"), min_trunc)
    return SullivanAlgebra(gens, differential, trunc)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


def image_of_monomial(source: SullivanAlgebra, target, images, m: Monomial) -> dict:
    """Sparse coords of phi(m) in the target basis of its degree, for the
    algebra map phi sending generator g to the sparse coordinate vector
    images[g]: the images of m's generators multiplied left to right."""
    if not m:
        return target.unit_coords()
    acc, deg = images[m[0]], source.degrees[m[0]]
    for g in m[1:]:
        if not acc:
            break
        acc = mul_elements(target, deg, acc, source.degrees[g], images[g])
        deg += source.degrees[g]
    return acc


class CDGAMorphism:
    """Degree-preserving algebra map from a Sullivan algebra into any
    finite CDGA (another Sullivan algebra or a cohomology ring).

    `images` holds one sparse coordinate dict {basis index: Fraction}
    per source generator, in the target's basis of the generator's
    degree; monomial images are folded out of products in the target
    and cached as sparse columns, which `matrix` and `apply_vec` read.
    """

    def __init__(self, source: SullivanAlgebra, target, images: Sequence[dict],
                 check: bool = True):
        self.source = source
        self.target = target
        if len(images) != len(source.generators):
            raise InputError("one image per generator required")
        for i, vec in enumerate(images):
            d = source.degrees[i]
            if vec and (min(vec) < 0 or max(vec) >= target.dim(d)):
                raise DimensionMismatch(
                    f"image of {source.names[i]} has an index out of range at degree {d}")
        self.images = list(images)
        self._mono_image: dict = {}
        self._mats: dict[int, RatMatrix] = {}
        if check:
            self.verify_chain_map()

    def max_checkable(self) -> int:
        return min(self.source.trunc, self.target.trunc)

    def _image_of_monomial(self, m: Monomial) -> dict:
        """Sparse coords of phi(m) in the target basis of its degree."""
        if m not in self._mono_image:
            self._mono_image[m] = image_of_monomial(self.source, self.target,
                                                    self.images, m)
        return self._mono_image[m]

    def matrix(self, k: int) -> RatMatrix:
        if k not in self._mats:
            self._mats[k] = RatMatrix.from_columns(
                [self._image_of_monomial(m) for m in self.source.monomials(k)],
                rows=self.target.dim(k))
        return self._mats[k]

    def apply_vec(self, k: int, vec: dict) -> dict:
        """phi of a sparse degree-k vector {monomial index: coeff}, as a
        sparse target vector: the monomial images over its entries."""
        basis = self.source.monomials(k)
        return combine((c, self._image_of_monomial(basis[j])) for j, c in vec.items())

    def verify_chain_map(self):
        """phi(d m) = d(phi(m)) for every source monomial m of degree k,
        k = 0 .. max_checkable() - 1, compared as sparse columns."""
        for k in range(self.max_checkable()):
            up = self.source.monomials(k + 1)
            tgt_d, _ = self.target.d_columns(k)
            for m, dm in zip(self.source.monomials(k), self.source.d_columns(k)[0]):
                lhs = combine((c, self._image_of_monomial(up[r])) for r, c in dm.items())
                rhs = combine((c, tgt_d[t]) for t, c in self._image_of_monomial(m).items())
                if lhs != rhs:
                    raise InputError(f"morphism does not commute with d at degree {k}")

    def compose_after(self, inner: "CDGAMorphism") -> "CDGAMorphism":
        """self o inner, where inner's target is self's source."""
        if inner.target is not self.source:
            raise InputError("composition mismatch")
        images = [self.apply_vec(d, vec) for vec, d in zip(inner.images, inner.source.degrees)]
        return CDGAMorphism(inner.source, self.target, images, check=False)


def linear_part_map(phi: CDGAMorphism) -> GradedLinearMap:
    """Word-length-1 coefficients of generator images; Q is functorial."""
    src = phi.source.generator_space()
    if isinstance(phi.target, SullivanAlgebra):
        tgt_space = phi.target.generator_space()
        by_deg: dict[int, list] = {}
        for i, (_, d) in enumerate(phi.target.generators):
            by_deg.setdefault(d, []).append(i)
        mats: dict[int, RatMatrix] = {}
        src_by_deg: dict[int, list] = {}
        for i, (_, d) in enumerate(phi.source.generators):
            src_by_deg.setdefault(d, []).append(i)
        for d, idxs in src_by_deg.items():
            pos = {g: r for r, g in enumerate(by_deg.get(d, []))}
            mono = phi.target.monomials(d)
            cols = [{pos[mono[t][0]]: c for t, c in phi.images[i].items()
                     if len(mono[t]) == 1} for i in idxs]
            m = RatMatrix.from_columns(cols, rows=len(pos))
            if not m.is_zero():
                mats[d] = m
        return GradedLinearMap(src, tgt_space, mats)
    raise InputError("linear part of a morphism needs a free target")


def induced_matrix(phi: CDGAMorphism, h_src: StageCohomology,
                   h_tgt: StageCohomology, k: int) -> RatMatrix:
    """The matrix of H^k(phi) on the chosen representative bases."""
    rows, cols = h_tgt.h_dim(k), h_src.h_dim(k)
    if rows == 0 or cols == 0:
        return RatMatrix.zeros(rows, cols)
    return RatMatrix.from_columns(
        [h_tgt.class_of(k, phi.apply_vec(k, rep)) for rep in h_src.h_reps(k)], rows)


def induced_cohomology_map(phi: CDGAMorphism, h_src: StageCohomology,
                           h_tgt: StageCohomology, max_deg: int) -> GradedLinearMap:
    """H(phi) on the chosen representative bases, in degrees 0..max_deg."""
    degrees = range(max_deg + 1)
    mats = {k: induced_matrix(phi, h_src, h_tgt, k) for k in degrees}
    return GradedLinearMap(
        GradedVectorSpace.from_dims({k: h_src.h_dim(k) for k in degrees}),
        GradedVectorSpace.from_dims({k: h_tgt.h_dim(k) for k in degrees}),
        {k: m for k, m in mats.items() if not m.is_zero()},
    )
