"""Simplicial rational cohomology with cup products.

Produces per-stage cohomology rings (basis classes with representative
cocycles plus multiplication structure constants) and the maps induced
by stage inclusions.  Cup products use the Alexander-Whitney formula in
the global vertex order; the ring is graded-commutative and associative
after projection to cohomology, and both facts are asserted during
construction.  A ring is built in one pass: everything below its top
degree at construction, the top degree on its first `dim`.

Everything in degree 0 is read off component labels instead, with no
cup product and no class solve.  Each H^0 representative is the 0/1
indicator of one connected component, and the coboundary is
block-diagonal over components, so every positive-degree representative
lies in one component.  With each vertex labelled by the H^0 class
containing it, 1_C . b and b . 1_C are b when b lies in C and 0
otherwise (`mul_basis`, which stores none of them), and the unit is the
sum of the H^0 basis.  An induced map sends 1_C to the sum of the small
components inside C, and its multiplicativity against degree 0 is one
label lookup per nonzero entry.  The labels are checked where they are
built: a representative that breaks them raises InputError.

`StageCohomology` computes the kernel mod image of every cochain
complex in the package.  It eliminates each sparse coboundary once, in
ascending degree and only up to the degrees asked for, and reads
dimensions, representative cocycles and class coordinates off that one
pass.

Every value the engine and the rings hold is a canonical exact rational,
as `ratlin` makes it: an int when integral, a `Fraction` otherwise.  On
a simplicial complex the coboundaries are +-1, the H^0 representatives
0/1 and the unit 1, all ints.
"""

from __future__ import annotations

from typing import Optional

from .errors import InputError, TruncationError
from .gvec import GradedLinearMap, GradedVectorSpace
from .metric import SimplicialComplex
from .ratlin import ColumnReducer, RatMatrix, _exact, combine
from .util import json_coeff, json_int


def coboundary_columns(cx: SimplicialComplex, p: int):
    """Sparse columns of delta^p: C^p -> C^{p+1}, indexed by p-simplices,
    with int entries +-1."""
    lower = cx.dim_simplices(p)
    upper = cx.dim_simplices(p + 1)
    low_index = cx.index(p)
    cols = [dict() for _ in lower]
    for ui, t in enumerate(upper):
        for i in range(len(t)):
            face = t[:i] + t[i + 1:]
            j = low_index[face]
            cols[j][ui] = 1 if i % 2 == 0 else -1
    return cols, len(upper)


def cup_product(cx: SimplicialComplex, a: dict, p: int, b: dict, q: int) -> dict:
    """Alexander-Whitney product of cochains: front face times back face.

    Cochains are sparse {simplex index: exact} dicts over the ordered
    simplices of their degree, and so is the product.
    """
    ip = cx.index(p)
    iq = cx.index(q)
    out = {}
    for idx, s in enumerate(cx.dim_simplices(p + q)):
        va = a.get(ip.get(s[: p + 1], -1))
        if not va:
            continue
        vb = b.get(iq.get(s[p:], -1))
        if not vb:
            continue
        out[idx] = va * vb
    return out


class StageCohomology:
    """Lazy kernel-mod-image engine for one finite cochain complex.

    The complex is given by `n_cochains(k)`, the dimension of degree k,
    and `columns(k)`, the sparse columns of d^k (one per degree-k basis
    element) with their row count.  Three sources feed it: the
    coboundaries of a simplicial complex (`of_complex`), the
    differential of a Sullivan algebra and the zero differential of a
    cohomology ring (`of_cdga`).

    Each d^k is eliminated once, in ascending k, by one record-mode
    `ColumnReducer` pass with clearing (Chen-Kerber 2011): a column
    whose index is a pivot row of the reduced d^{k-1} is skipped, since
    d d = 0 makes it reduce to zero.  The pass gives the rank of d^k as
    its pivot count, and its kernel combinations are the representative
    cocycles: the skipped columns are exactly the kernel elements that
    a greedy pass modulo im d^{k-1} would have dropped.  `class_of`
    solves against the reduced pivots of d^{k-1} with the
    representatives added on top.  Degrees above `max_deg`, when given,
    have zero cohomology.

    The coboundary columns of a complex (`cx` given) are built afresh by
    each `columns(k)` call for this pass alone, so the reducer takes
    them whole (`ColumnReducer.add_fresh`) and keeps its +-1 pivots
    without copying them.  Every other source's columns, such as the
    cached `d_columns` of an algebra, stay with their owner and go
    through `add`, which copies.
    """

    def __init__(self, n_cochains, columns, max_deg: Optional[int] = None,
                 cx: Optional[SimplicialComplex] = None):
        self.n_cochains = n_cochains
        self._delta = columns
        self.max_deg = max_deg
        self.cx = cx
        self._reduced = {}
        self._reps = {}
        self._class_red = {}
        self._h_dims = {}

    @staticmethod
    def of_complex(cx: SimplicialComplex) -> "StageCohomology":
        return StageCohomology(lambda k: len(cx.dim_simplices(k)),
                               lambda k: coboundary_columns(cx, k), cx=cx)

    @staticmethod
    def of_cdga(alg, max_deg: int) -> "StageCohomology":
        """Cohomology through max_deg of anything with the finite-CDGA
        interface (`dim`, `d_columns`, `trunc`)."""
        # a zero differential is exact at the truncation edge; otherwise
        # degree max_deg needs d into max_deg + 1
        limit = alg.trunc if getattr(alg, "zero_differential", False) else alg.trunc - 1
        if max_deg > limit:
            raise TruncationError(
                f"cohomology through {max_deg} needs truncation > {max_deg}")
        return StageCohomology(alg.dim, alg.d_columns, max_deg=max_deg)

    def _reducer(self, k: int) -> ColumnReducer:
        """The record-mode reducer of d^k, cleared by the pivot rows of
        d^{k-1} (k >= 0)."""
        if k not in self._reduced:
            cleared = self._reducer(k - 1).pivots if k > 0 else {}
            cols, nup = self._delta(k)
            red = ColumnReducer(nup, record=True)
            if self.cx is not None:
                red.add_fresh(cols, cleared)
            else:
                for j, c in enumerate(cols):
                    if j in cleared:
                        red.skip()
                    else:
                        red.add(c)
            self._reduced[k] = red
        return self._reduced[k]

    def rank_delta(self, k: int) -> int:
        if k < 0 or self.n_cochains(k) == 0:
            return 0
        return self._reducer(k).rank

    def h_dim(self, k: int) -> int:
        if k not in self._h_dims:
            self._h_dims[k] = self._compute_h_dim(k)
        return self._h_dims[k]

    def _compute_h_dim(self, k: int) -> int:
        if k < 0 or (self.max_deg is not None and k > self.max_deg):
            return 0
        n = self.n_cochains(k)
        if n == 0:
            return 0
        return n - self.rank_delta(k) - self.rank_delta(k - 1)

    def h_reps(self, k: int) -> list:
        """Representative cocycles (sparse dicts over degree-k basis
        indices): the kernel combinations of the cleared d^k pass, in
        elimination order."""
        if k in self._reps:
            return self._reps[k]
        if self.h_dim(k) == 0:
            self._reps[k] = []
        else:
            self._reps[k] = list(self._reducer(k).kernel_combos)
        return self._reps[k]

    def _class_reducer(self, k: int) -> ColumnReducer:
        """Reducer seeded with the reduced im(d^{k-1}) and loaded with the
        chosen reps, so rep coefficients of any cocycle can be read off."""
        if k not in self._class_red:
            image = self._reducer(k - 1).pivots if k > 0 else {}
            red = ColumnReducer.from_pivots(self.n_cochains(k), image)
            for rep in self.h_reps(k):
                if not red.add(rep):
                    raise InputError("dependent representative")  # pragma: no cover
            self._class_red[k] = red
        return self._class_red[k]

    def class_of(self, k: int, cochain: dict) -> dict:
        """Coordinates of the class of a sparse cocycle in the chosen H^k
        basis, as a sparse dict {rep index: exact} sorted by index
        with no zeros."""
        if self.h_dim(k) == 0:
            return {}
        if k == 0 and self.n_cochains(0) == 1 and cochain.keys() <= {0}:
            # connected: H^0 = C^0, its one rep the unit cochain {0: 1}
            return {0: _exact(v) for v in cochain.values() if v}
        sol = self._class_reducer(k).solve(cochain)
        if sol is None:
            raise InputError("cochain is not a cocycle modulo boundaries")
        return dict(sorted(sol.items()))


# ---------------------------------------------------------------------------
# Cohomology rings
# ---------------------------------------------------------------------------


def mul_elements(alg, p: int, a: dict, q: int, b: dict) -> dict:
    """Product of sum_i a[i]·e^p_i and sum_j b[j]·e^q_j in any finite
    CDGA, through its `mul_basis`; sparse in and out, no zero entries."""
    return combine((ca * cb, alg.mul_basis(p, i, q, j))
                   for i, ca in a.items() for j, cb in b.items())


class CohomologyRing:
    """Graded basis of H* with representatives and structure constants.

    `basis[k]` holds the representative cocycle of each degree-k class,
    sparse over simplex indices, or None per class in an abstract ring.
    `structure` stores products; those with a degree-0 factor only in an
    abstract ring, as unit entries (a complex-backed ring reads labels).
    Everything below the top degree `max_deg` is built at construction,
    the top degree on its first `dim`: `from_data` fills it up front,
    and `from_complex` asks for it only when a product can land there.
    Doubles as a formal CDGA (zero differential) for minimal-model
    construction: `dim`, `d_columns`, `mul_basis`, `unit_coords` and
    `trunc` (with `zero_differential` set) make up the finite-CDGA
    interface shared with Sullivan algebras.  Its differential is the
    zero column per basis class, with row count 0, and its unit is the
    sparse coordinate dict of 1 in the H^0 basis.
    """

    zero_differential = True

    def __init__(self, max_deg: int, engine: Optional[StageCohomology] = None):
        self.max_deg = max_deg
        self.trunc = max_deg
        self.engine = engine
        self.basis: dict[int, list] = {}
        self.structure: dict[tuple, dict] = {}
        self._labels: Optional[list] = None
        self._comps: dict[int, list] = {}
        self._spaces: dict = {}

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_complex(cx: SimplicialComplex, max_deg: int) -> "CohomologyRing":
        """The ring of `cx` in one pass: the basis of every degree below
        max_deg, every product of positive degrees landing in 0..max_deg
        (`{}` where that degree is zero), then the ring axioms.  The top
        degree max_deg is fetched only when such a product lands there."""
        ring = CohomologyRing(max_deg, StageCohomology.of_complex(cx))
        for k in range(max_deg):
            ring.dim(k)
        for p in range(1, max_deg):
            for q in range(1, max_deg + 1 - p):
                if ring.dim(p) == 0 or ring.dim(q) == 0:
                    continue
                zero = ring.dim(p + q) == 0
                for i, ci in enumerate(ring.basis[p]):
                    for j, cj in enumerate(ring.basis[q]):
                        ring.structure[(p, i, q, j)] = {} if zero else ring.engine.class_of(
                            p + q, cup_product(cx, ci, p, cj, q))
        ring._check_ring_axioms()
        return ring

    @staticmethod
    def from_data(max_deg: int, labels: dict, structure: dict) -> "CohomologyRing":
        """Abstract ring: labels maps degree -> list of class names, of
        which only the count is kept; structure maps (p, i, q, j) ->
        {index: coeff} in degree p+q.  H^0 is Q, spanned by the unit."""
        ring = CohomologyRing(max_deg)
        for k in range(max_deg + 1):
            ring.basis[k] = [None] * len(labels.get(k, ()))
        for key, val in structure.items():
            ring.structure[tuple(key)] = {i: _exact(c) for i, c in val.items() if c}
        if len(ring.basis.get(0, ())) != 1:
            raise InputError("abstract rings must have H^0 = Q with the unit as basis")
        for p in range(ring.max_deg + 1):
            for i in range(len(ring.basis[p])):
                ring.structure.setdefault((0, 0, p, i), {i: 1})
                ring.structure.setdefault((p, i, 0, 0), {i: 1})
        ring._check_ring_axioms()
        return ring

    # -- component labels ------------------------------------------------

    def _vertex_labels(self) -> list:
        """The index of the H^0 rep holding each vertex.  Checks what the
        degree-0 rules rest on: the reps are 0/1 indicators of disjoint
        vertex sets covering every vertex, so they sum to the unit."""
        if self._labels is None:
            labels = [None] * self.engine.n_cochains(0)
            for i, rep in enumerate(self.basis[0]):
                for v, c in rep.items():
                    if c != 1 or labels[v] is not None:
                        raise InputError("H^0 reps are not disjoint indicators: invariant breach")
                    labels[v] = i
            if None in labels:
                raise InputError("H^0 reps miss a vertex: invariant breach")
            self._labels = labels
        return self._labels

    def _components(self, k: int) -> list:
        """For each degree-k rep, the H^0 rep whose vertex set holds its
        whole support; one pass over the supports checks that there is
        one."""
        if k not in self._comps:
            labels = self._vertex_labels()
            if k == 0:
                comps = list(range(len(self.basis[0])))
            elif len(self.basis[0]) == 1:
                comps = [0] * len(self.basis[k])
            else:
                simplices = self.engine.cx.dim_simplices(k)
                comps = []
                for rep in self.basis[k]:
                    found = {labels[v] for s in rep for v in simplices[s]}
                    if len(found) != 1:
                        raise InputError(
                            f"a degree-{k} rep spans several components: invariant breach")
                    comps.append(found.pop())
            self._comps[k] = comps
        return self._comps[k]

    # -- ring axioms -----------------------------------------------------

    def _check_ring_axioms(self):
        # graded commutativity with exact Koszul signs; the label rule
        # for degree 0 is symmetric, its invariants checked by _components
        low = 0 if self.engine is None else 1
        top = self.max_deg
        for p in range(low, top + 1):
            for q in range(low, top + 1 - p):
                sign = -1 if (p % 2 and q % 2) else 1
                for i in range(self.dim(p)):
                    for j in range(self.dim(q)):
                        ab = self.mul_basis(p, i, q, j)
                        ba = self.mul_basis(q, j, p, i)
                        if {t: sign * c for t, c in ba.items()} != ab:
                            raise InputError(
                                f"graded commutativity fails at ({p},{i})x({q},{j})")
        # associativity on basis triples within truncation
        for p in range(1, top + 1):
            for q in range(1, top + 1 - p):
                for r in range(1, top + 1 - p - q):
                    for i in range(self.dim(p)):
                        for j in range(self.dim(q)):
                            for t in range(self.dim(r)):
                                left = mul_elements(self, p + q, self.mul_basis(p, i, q, j),
                                                    r, {t: 1})
                                right = mul_elements(self, p, {i: 1}, q + r,
                                                     self.mul_basis(q, j, r, t))
                                if left != right:
                                    raise InputError("associativity fails")

    # -- finite-CDGA interface --------------------------------------------

    def dim(self, k: int) -> int:
        """dim H^k; the one place a missing degree is filled, with the
        check that each of its reps lies in one component.  Only the top
        degree of a complex-backed ring can be missing."""
        if k < 0:
            return 0
        if k > self.max_deg:
            raise TruncationError(f"degree {k} beyond ring truncation {self.max_deg}")
        if k not in self.basis:
            self.basis[k] = list(self.engine.h_reps(k))
            self._components(k)
        return len(self.basis[k])

    def d_columns(self, k: int) -> tuple:
        """Zero columns of d^k with row count 0.  Only dim(k) is read:
        everything below the top degree is built at construction, and
        d^{max_deg - 1} leaves the top degree to its first `dim`."""
        return [{} for _ in range(self.dim(k))], 0

    def mul_basis(self, p: int, i: int, q: int, j: int) -> dict:
        if p + q > self.max_deg:
            return {}
        if self.engine is not None and (p == 0 or q == 0):
            # 1_C . b and b . 1_C are b when b lies in C, else 0
            c, k, b = (i, q, j) if p == 0 else (j, p, i)
            return {b: 1} if self._components(k)[b] == c else {}
        return dict(self.structure.get((p, i, q, j), {}))

    def unit_coords(self) -> dict:
        if self.engine is None:
            return {0: 1}  # from_data: H^0 is Q, spanned by the unit
        n0 = self.dim(0)
        self._vertex_labels()  # the H^0 reps sum to the constant 1
        return {i: 1 for i in range(n0)}

    def space(self, through: Optional[int] = None) -> GradedVectorSpace:
        """H^0..H^through, built once per `through`: a degree's dim is
        fixed once `dim` has filled it."""
        hi = self.max_deg if through is None else through
        space = self._spaces.get(hi)
        if space is None:
            space = self._spaces[hi] = GradedVectorSpace.from_dims(
                {k: self.dim(k) for k in range(hi + 1)})
        return space

    def unital_core(self) -> "CohomologyRing":
        """The subring Q.1 + H^+, used as the formal CDGA of a stage.

        Collapses the degree-0 part to the unit line (the cohomology of
        the wedge of the stage's components); positive degrees and their
        products are untouched, and products with the unit follow from
        its constant representative.
        """
        if self.dim(0) == 1:
            return self
        core = CohomologyRing(self.max_deg, self.engine)
        core.basis = dict(self.basis)
        core.basis[0] = [{i: 1 for i in range(self.engine.n_cochains(0))}]
        core.structure = dict(self.structure)  # products of positive degrees
        return core

    def core_key(self, through: int) -> tuple:
        """Hashable data on which the minimal model of this unital core
        through degree `through` depends: dim(k) for k <= through, every
        stored structure constant (both degrees >= 1), and
        dim(through + 1) only when that degree is already fetched.

        Everything below the top degree is built at construction, the
        top degree on its first `dim`, which is never called here, since
        on a large stage that degree can cost more than the model itself.
        Leaving an unfetched top degree out is exact: construction
        computes every product landing in the top degree and fetches it
        when one can be nonzero, so no product lands there,
        H^{through+1}(rho) is zero whatever its dimension, and
        `minimal_model` finds the same kernel.
        """
        top = through + 1
        dims = tuple(self.dim(k) for k in range(through + 1))
        top_dim = self.dim(top) if top in self.basis else None
        products = tuple(sorted((key, tuple(sorted(v.items())))
                                for key, v in self.structure.items()))
        return dims, top_dim, products


def ring_from_json(data: dict, min_max_deg: int = 0) -> CohomologyRing:
    """Abstract ring from its file form: a `classes` list of {"name",
    "degree"} objects, an optional integer `max_degree` and a `products`
    list of {"left", "right", "result"} objects, each result a list of
    {"class", "coeff"} terms; omitted products are zero and the
    Koszul-symmetric counterpart of each listed product is filled in.
    """
    if not isinstance(data, dict):
        raise InputError("a cohomology ring must be a JSON object")
    classes = data.get("classes", [])
    products = data.get("products", [])
    if not isinstance(classes, list) or not isinstance(products, list):
        raise InputError("'classes' and 'products' must be lists")
    degrees = []
    for c in classes:
        if not isinstance(c, dict) or not isinstance(c.get("name"), str):
            raise InputError(f"class {c!r} needs a string 'name' and a 'degree'")
        degrees.append(json_int(c.get("degree"), f"degree of {c['name']}"))
    max_deg = json_int(data.get("max_degree", max(degrees + [min_max_deg])), "max_degree")
    if max_deg < min_max_deg:
        raise InputError(
            f"ring file covers degrees <= {max_deg} but {min_max_deg} are needed")
    labels: dict[int, list] = {0: ["one"]}
    where = {}
    for c, deg in zip(classes, degrees):
        name = c["name"]
        if deg < 1 or deg > max_deg:
            raise InputError(f"class {name} has degree {deg} outside 1..{max_deg}")
        if name in where:
            raise InputError(f"duplicate class name {name}")
        labels.setdefault(deg, []).append(name)
        where[name] = (deg, len(labels[deg]) - 1)

    def lookup(entry, key):
        try:
            return where[entry[key]]
        except (KeyError, TypeError):
            raise InputError(f"{entry!r} needs a known class name as {key!r}") from None

    structure = {}
    for prod in products:
        (p, i) = lookup(prod, "left")
        (q, j) = lookup(prod, "right")
        if p + q > max_deg:
            raise InputError("product lands beyond max_degree")
        terms = prod.get("result", [])
        if not isinstance(terms, list):
            raise InputError(f"the result of {prod!r} must be a list of terms")
        result = {}
        for term in terms:
            (r, t) = lookup(term, "class")
            if r != p + q:
                raise InputError("product term has wrong degree")
            result[t] = json_coeff(term.get("coeff", 1), term)
        structure[(p, i, q, j)] = result
    sign_filled = dict(structure)
    for (p, i, q, j), val in structure.items():
        key = (q, j, p, i)
        if key not in sign_filled:
            sign = -1 if (p % 2 and q % 2) else 1
            sign_filled[key] = {t: sign * c for t, c in val.items()}
    return CohomologyRing.from_data(max_deg, labels, sign_filled)


def induced_ring_map(ring_small: CohomologyRing, ring_big: CohomologyRing,
                     max_deg: Optional[int] = None) -> GradedLinearMap:
    """Map H*(big stage) -> H*(small stage) induced by the inclusion of
    the small stage, by restricting representative cocycles.

    The H^0 block is read off the labels (`_h0_columns`): restricted,
    1_C is the sum of the small components inside C.  A small component
    meeting two big ones, or one and a vertex outside the big stage,
    restricts to no cocycle and raises InputError, as `class_of` would.
    """
    if ring_small.engine is None or ring_big.engine is None:
        raise InputError("induced maps need complex-backed rings")
    hi = min(ring_small.max_deg, ring_big.max_deg) if max_deg is None else max_deg
    small = ring_small.engine
    big = ring_big.engine
    mats = {}
    for k in range(hi + 1):
        nb = ring_big.dim(k)
        ns = ring_small.dim(k)
        if nb == 0 or ns == 0:
            continue
        if k == 0:
            cols = _h0_columns(ring_small, ring_big)
        else:
            small_index = small.cx.index(k)
            big_simplices = big.cx.dim_simplices(k)
            cols = []
            for rep in ring_big.basis[k]:
                restricted = {}
                for bi, c in rep.items():
                    si = small_index.get(big_simplices[bi])
                    if si is not None:
                        restricted[si] = c
                cols.append(small.class_of(k, restricted))
        m = RatMatrix.from_columns(cols, rows=ns)
        if not m.is_zero():
            mats[k] = m
    out = GradedLinearMap(ring_big.space(hi), ring_small.space(hi), mats)
    _verify_multiplicative(out, ring_small, ring_big, hi)
    return out


def _h0_columns(ring_small: CohomologyRing, ring_big: CohomologyRing) -> list:
    """Per big component, the 0/1 column of the small components whose
    vertices it holds."""
    big_labels = ring_big._vertex_labels()
    big_index = ring_big.engine.cx.index(0)
    owner = {}  # small component -> big component, None outside the big stage
    for vertex, s in zip(ring_small.engine.cx.dim_simplices(0), ring_small._vertex_labels()):
        bv = big_index.get(vertex)
        c = None if bv is None else big_labels[bv]
        if owner.setdefault(s, c) != c:
            raise InputError("a component of the small stage is split in the big stage")
    cols = [{} for _ in range(ring_big.dim(0))]
    for s, c in owner.items():
        if c is not None:
            cols[c][s] = 1
    return cols


def _verify_multiplicative(f: GradedLinearMap, ring_small: CohomologyRing,
                           ring_big: CohomologyRing, hi: int):
    """Check f(a . b) = f(a) . f(b) on basis pairs of degrees p + q <= hi,
    bilinearly where both degrees are >= 1.  With 1_C . b = b for b in C
    and 0 otherwise, in either ring, the pairs with a degree-0 factor say
    exactly: the H^0 columns are 0/1 with disjoint supports (1_C
    idempotent, 1_C . 1_D = 0), and each small class in f(b), b in C,
    lies in a small component of f(1_C)'s support."""
    cols = [f.matrix(k).sparse_columns() for k in range(hi + 1)]
    owner = {}  # small component -> the big component whose image holds it
    for c, col in enumerate(cols[0]):
        for s, v in col.items():
            if v != 1 or s in owner:
                raise InputError(
                    f"induced map not multiplicative at (0,{owner.get(s, c)})x(0,{c})")
            owner[s] = c
    for k in range(1, hi + 1):
        comps = ring_small._components(k)
        for j, (col, c) in enumerate(zip(cols[k], ring_big._components(k))):
            if any(owner.get(comps[t]) != c for t in col):
                raise InputError(f"induced map not multiplicative at (0,{c})x({k},{j})")
    for p in range(1, hi + 1):
        for q in range(1, hi + 1 - p):
            for i in range(ring_big.dim(p)):
                for j in range(ring_big.dim(q)):
                    lhs = combine((c, cols[p + q][t])
                                  for t, c in ring_big.mul_basis(p, i, q, j).items())
                    rhs = mul_elements(ring_small, p, cols[p][i], q, cols[q][j])
                    if lhs != rhs:
                        raise InputError(
                            f"induced map not multiplicative at ({p},{i})x({q},{j})")
