"""Finite metric spaces, Vietoris-Rips filtrations, and the exact
Gromov-Hausdorff distance of small spaces.

Distances are either exact rationals or binary64 floats, tracked per
instance.  A distance entry is read by `util.json_number`: a JSON integer
or an exact-number string is exact, a float keeps binary64 and makes the
whole matrix binary64, and a NaN or infinite entry is rejected.  A point
coordinate must be a JSON number, an int or a float, and is read as a
float.

Every step that only orders or compares distances reads one integer
scale, the space's key matrix (`MetricSpace.keys`), built on first use
and kept.  For an exact space it holds each distance times L, the lcm of
their denominators, as Python ints, with L; for a binary64 space it is
the float matrix itself.  Rips diameters, the enclosing radius, the grid
and the cone cut, the H-barcode reduction and the Gromov-Hausdorff search
all compare keys; a number is made only where a value leaves, as
`Fraction(key, L)` (`MetricSpace.value`).

The Rips convention is the open one, diam < t, realized as left-open
right-closed constancy intervals (d_k, d_{k+1}] over the grid of
distinct positive pairwise distances.  A filtration read only below its
max_dim puts one shared star at and past the enclosing radius
(`build_filtration`).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import CapExceeded, InputError
from .util import json_number

Num = Union[Fraction, float]


@dataclass(frozen=True)
class MetricSpace:
    """Finite point set with symmetric nonnegative pairwise distances."""

    dist: tuple  # tuple of tuples, Fraction or float
    names: Optional[tuple] = None
    exact: bool = True

    @property
    def n(self) -> int:
        return len(self.dist)

    def d(self, i: int, j: int) -> Num:
        return self.dist[i][j]

    @cached_property
    def keys(self) -> tuple:
        """(K, L): the distances on one integer scale, built once.

        For an exact space K[i][j] = dist[i][j] * L as an int, L the lcm
        of the denominators; for a binary64 space K is `dist` itself and
        L is None.  Keys order and compare as the distances do, and
        equal distances have equal keys.  Equality, hashing, copies and
        pickles ignore them (`__reduce__`).
        """
        if not self.exact:
            return self.dist, None
        scale = math.lcm(*{v.denominator for row in self.dist for v in row})
        return tuple(tuple(v.numerator * (scale // v.denominator) for v in row)
                     for row in self.dist), scale

    def __reduce__(self):
        # the keys are derived: a copy or an unpickled space builds its own
        return MetricSpace, (self.dist, self.names, self.exact)

    def value(self, key) -> Num:
        """The distance a key stands for: `Fraction(key, L)`, or the
        float key itself."""
        scale = self.keys[1]
        return key if scale is None else Fraction(key, scale)

    def positive_keys(self) -> list:
        """The keys of the distinct positive distances, ascending."""
        return sorted({k for row in self.keys[0] for k in row if k})

    def positive_distances(self) -> list:
        return [self.value(k) for k in self.positive_keys()]

    def radius_key(self):
        """The key of `enclosing_radius`."""
        return min(map(max, self.keys[0]))

    def enclosing_radius(self) -> Num:
        """min_x max_y d(x, y) (Bauer, *Ripser*, 2021).

        From this scale on every Rips stage is a cone over any x
        attaining the minimum: x is joined to every point, and adding x
        to a simplex keeps its diameter within the scale.  Truncated at
        dimension max_dim the stage is a cone through dimension
        max_dim - 1, so H^0 = Q and H^k = 0 for 1 <= k < max_dim.  A
        caller that reads only degrees below max_dim therefore needs no
        simplex of diameter above the radius, and one cone on the same
        points can stand in for every stage at or past it
        (`build_filtration`).
        """
        return self.value(self.radius_key())

    def scaled(self, lam: Num) -> "MetricSpace":
        rows = tuple(tuple(x * lam for x in row) for row in self.dist)
        return MetricSpace(rows, self.names, self.exact and isinstance(lam, (int, Fraction)))


def metric_from_matrix(matrix: Sequence[Sequence], names=None) -> MetricSpace:
    if not (isinstance(matrix, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in matrix)):
        raise InputError("distance matrix must be a list of rows")
    if not (names is None or isinstance(names, (list, tuple))):
        raise InputError("names must be a list")
    n = len(matrix)
    if n == 0:
        raise InputError("distance matrix has no points")
    if any(len(row) != n for row in matrix):
        raise InputError("distance matrix is not square")
    rows = [[json_number(x, "distance entry") for x in row] for row in matrix]
    if any(isinstance(x, float) and not math.isfinite(x) for row in rows for x in row):
        raise InputError("distance matrix has a NaN or infinite entry")
    exact = all(isinstance(x, Fraction) for row in rows for x in row)
    if not exact:
        try:
            rows = [[float(x) for x in row] for row in rows]
        except OverflowError as e:
            raise InputError("distance entry too large for a float") from e
    for i in range(n):
        if rows[i][i] != 0:
            raise InputError(f"nonzero diagonal at {i}")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InputError(f"asymmetric entries at ({i},{j})")
            if rows[i][j] < 0:
                raise InputError(f"negative distance at ({i},{j})")
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise InputError("names length mismatch")
    return MetricSpace(tuple(tuple(r) for r in rows), names, exact)


def _coordinate(c) -> float:
    """A point coordinate: a JSON number, an int or a float; a bool, a
    string or anything else is rejected."""
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise InputError(f"invalid point coordinate {c!r}")
    return float(c)


def metric_from_points(points: Sequence[Sequence]) -> MetricSpace:
    """Euclidean distances computed in binary64."""
    try:
        pts = [tuple(_coordinate(c) for c in p) for p in points]
    except (TypeError, OverflowError) as e:
        raise InputError(f"bad point coordinate: {e}") from e
    if not pts:
        raise InputError("no points")
    if any(len(p) != len(pts[0]) for p in pts):
        raise InputError("inconsistent point dimensions")
    if any(not math.isfinite(c) for p in pts for c in p):
        raise InputError("a point coordinate is NaN or infinite")
    n = len(pts)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(pts[i], pts[j])
            if not math.isfinite(d):
                raise InputError(f"distance between points {i} and {j} overflows")
            rows[i][j] = rows[j][i] = d
    return MetricSpace(tuple(tuple(r) for r in rows), None, exact=False)


def load_metric(data: dict) -> MetricSpace:
    """A metric space from its JSON object: `points`, or a
    `distance_matrix` with optional `names`."""
    if "points" in data:
        return metric_from_points(data["points"])
    if "distance_matrix" in data:
        return metric_from_matrix(data["distance_matrix"], data.get("names"))
    raise InputError("expected 'points' or 'distance_matrix'")


# ---------------------------------------------------------------------------
# Simplicial complexes and Rips filtrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed simplex set, stored per dimension.

    Simplices are strictly increasing vertex tuples in the global
    vertex order; vertices run 0..n_vertices-1 and every singleton is
    present.
    """

    n_vertices: int
    simplices: dict = field(default_factory=dict)  # dim -> tuple of tuples
    _index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def dim_simplices(self, d: int) -> tuple:
        return self.simplices.get(d, ())

    def index(self, d: int) -> dict:
        """Position of each d-simplex in `dim_simplices(d)`, built once."""
        idx = self._index.get(d)
        if idx is None:
            idx = self._index[d] = {s: i for i, s in enumerate(self.dim_simplices(d))}
        return idx

    def simplex_count(self) -> int:
        return sum(len(s) for s in self.simplices.values())


def complex_from_simplices(n_vertices: int, maximal: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Downward closure of the given simplices (plus all vertices)."""
    by_dim: dict[int, set] = {0: {(v,) for v in range(n_vertices)}}
    for s in maximal:
        s = tuple(sorted(set(int(v) for v in s)))
        if s and (min(s) < 0 or max(s) >= n_vertices):
            raise InputError(f"vertex out of range in {s}")
        for k in range(1, len(s) + 1):
            for face in itertools.combinations(s, k):
                by_dim.setdefault(k - 1, set()).add(face)
    return SimplicialComplex(n_vertices, {d: tuple(sorted(g)) for d, g in by_dim.items()})


@dataclass(frozen=True)
class FilteredComplex:
    """Rips filtration over the grid of distinct positive distances.

    Stage k holds the simplices of diameter <= d_k (d_0 := 0), which is
    VR_t for every t in (d_k, d_{k+1}], with d_{m+1} = infinity.
    """

    critical_values: tuple
    stages: tuple  # SimplicialComplex per index 0..m

    @property
    def num_stages(self) -> int:
        return len(self.stages)


def rips_simplices(m: MetricSpace, max_dim: int, simplex_cap: int = 2_000_000,
                   max_diameter=None) -> dict:
    """Every simplex of dimension <= max_dim with its diameter as a key
    (`MetricSpace.keys`), or only those whose key is <= max_diameter, a
    key too: per dimension, the lexicographic list of (simplex, key),
    a vertex's key the int 0.  `m.value` turns a key back into the
    diameter.

    Only kept simplices are extended, which is exact since every face of
    a kept simplex is kept, and keeps the order.  The final Rips stage is
    the full simplex on the points, so the count, and with it the cap, is
    known before anything is enumerated; it is checked on that full
    count whatever the bound.  The vertices alone are never capped.
    """
    if max_dim < 0:
        raise InputError("max_dim must be >= 0")
    n = m.n
    if max_dim > 0 and sum(math.comb(n, d + 1) for d in range(max_dim + 1)) > simplex_cap:
        raise CapExceeded(f"simplex count exceeds cap {simplex_cap}")
    keys = m.keys[0]
    simplices: dict[int, list] = {0: [((v,), 0) for v in range(n)]}
    for d in range(1, max_dim + 1):
        cur = []
        for s, diam in simplices[d - 1]:
            for v in range(s[-1] + 1, n):
                nd = diam
                for u in s:
                    duv = keys[u][v]
                    if duv > nd:
                        nd = duv
                if max_diameter is None or nd <= max_diameter:
                    cur.append((s + (v,), nd))
        simplices[d] = cur
    return simplices


def build_filtration(m: MetricSpace, max_dim: int, simplex_cap: int = 2_000_000,
                     max_degree: Optional[int] = None) -> FilteredComplex:
    """The stages of `rips_simplices`, sliced by diameter key.

    `max_degree` is the highest cohomology degree the caller reads; by
    default every stage is complete.  When it is below max_dim, every
    stage at or past the enclosing radius is one shared star, vertex 0
    joined to every other vertex.  The star is a cone like the stages it
    stands in for (`MetricSpace.enclosing_radius`), so it has the same
    cohomology below max_dim, H^0 spanned by the constant 1, and the same
    restriction to earlier stages.  Only simplices of diameter up to the
    last grid value below the radius (0 when the radius is 0) are then
    enumerated.
    """
    crit = m.positive_keys()
    bounds = [0, *crit]
    cut = max_degree is not None and max_degree < max_dim
    # the first cone stage: the radius is 0 or one of the distances
    cone_from = bisect.bisect_left(bounds, m.radius_key()) if cut else len(bounds)
    simplices = rips_simplices(m, max_dim, simplex_cap,
                               bounds[max(cone_from - 1, 0)] if cut else None)
    star = complex_from_simplices(m.n, [(0, v) for v in range(1, m.n)])
    stages = []
    for k, bound in enumerate(bounds):
        if k >= cone_from:
            stages.append(star)
            continue
        by_dim = {}
        for d, group in simplices.items():
            sel = tuple(s for s, diam in group if diam <= bound)
            if sel:
                by_dim[d] = sel
        stages.append(SimplicialComplex(m.n, by_dim))
    return FilteredComplex(tuple(map(m.value, crit)), tuple(stages))


# ---------------------------------------------------------------------------
# Gromov-Hausdorff by correspondence distortion
# ---------------------------------------------------------------------------


def gh_bruteforce(x: MetricSpace, y: MetricSpace, cap: int = 30) -> Num:
    """Half the minimum correspondence distortion, exactly, by
    branch-and-bound over correspondences.

    Any correspondence contains one of the form graph(phi) u
    graph(psi)^T for maps phi: X->Y, psi: Y->X, with no larger
    distortion.  The search assigns phi(x_k) and psi(y_k), interleaved so
    the coupling costs prune early, over one table of the costs
    |dx[a][c] - dy[b][d]| of all pairs of pairs: O((|X|*|Y|)^2) memory.
    Candidates go cheapest first, a branch ends once it, or a variable it
    leaves open, cannot beat the best correspondence found, and the
    search stops as soon as that one meets the eccentricity lower bound.
    The stack is explicit, so the depth |X| + |Y| is not bounded by the
    interpreter's recursion limit.

    Two exact spaces are searched on their keys (`MetricSpace.keys`),
    both brought to lcm(Lx, Ly) only when their scales differ, and the
    result is the `Fraction` best / (2 L); a float space on either side
    makes the search and its result binary64.
    """
    if x.n * y.n > cap:
        raise CapExceeded(f"|X|*|Y| = {x.n * y.n} exceeds cap {cap}")
    if x.n == 0 or y.n == 0:
        raise InputError("empty metric space")
    nx, ny = x.n, y.n
    (dx, lx), (dy, ly) = x.keys, y.keys
    if lx is None or ly is None:
        dx, dy, scale = x.dist, y.dist, None
    elif lx == ly:
        scale = lx
    else:
        scale = math.lcm(lx, ly)
        dx = tuple(tuple(k * (scale // lx) for k in row) for row in dx)
        dy = tuple(tuple(k * (scale // ly) for k in row) for row in dy)
    # every correspondence pairs each x with some y and each y with some
    # x, and one that pairs x with y has distortion >= |ecc x - ecc y|, where
    # ecc x = max_x' d(x, x'); in floats too, as rounding is monotone
    ecc_x, ecc_y = [max(row) for row in dx], [max(row) for row in dy]
    lower = max(max(min(abs(a - b) for b in ecc_y) for a in ecc_x),
                max(min(abs(a - b) for a in ecc_x) for b in ecc_y))
    # cost[p][q], p = a*ny + b and q = c*ny + d: the pairs (a, b), (c, d)
    # of X x Y together cost |dx[a][c] - dy[b][d]|
    cost = [[abs(u - v) for u in row_x for v in row_y] for row_x in dx for row_y in dy]
    slots = []  # the pair indices of phi(x_k), then of psi(y_k)
    for k in range(max(nx, ny)):
        if k < nx:
            slots.append(slice(k * ny, k * ny + ny))
        if k < ny:
            slots.append(slice(k, nx * ny, ny))
    pair_ids = range(nx * ny)

    # a frame: the untried candidates of the next slot, cheapest first,
    # worst[q] the largest cost of pair q against the assigned pairs
    # (q itself included), and the distortion of the assigned pairs
    best = math.inf
    worst = [cost[q][q] for q in pair_ids]
    stack = [(iter(sorted(pair_ids[slots[0]], key=worst.__getitem__)), worst, 0)]
    while stack:
        cands, worst, cur = stack[-1]
        q = next(cands, None)
        val = None if q is None else max(cur, worst[q])
        if val is None or val >= best:
            stack.pop()
        elif len(stack) == len(slots):
            best = val
            if best <= lower:
                break
            stack.pop()
        else:
            depth = len(stack)
            worst = [a if a > b else b for a, b in zip(worst, cost[q])]
            # descend only if every open slot still has a candidate below best
            if max(map(min, map(worst.__getitem__, slots[depth:]))) < best:
                stack.append((iter(sorted(pair_ids[slots[depth]], key=worst.__getitem__)),
                              worst, val))
    if scale is not None:
        return Fraction(best, 2 * scale)
    return best * 0.5
