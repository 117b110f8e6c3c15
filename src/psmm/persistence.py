"""Persistence modules of graded vector spaces over a finite grid.

Modules are stored covariantly; contravariant families (cohomology and
the generator spaces of models, whose arrows run against the filtration)
are re-indexed by reversing the grid and endpoints are mapped back when
bars are reported.  Bars follow the half-open (b, e] convention of the
open Rips filtration, with stage k constant on (d_k, d_{k+1}].

The barcode is read off an interval decomposition with explicit bases,
built by the elder-rule sweep (Zomorodian-Carlsson, "Computing
persistent homology", 2005): each live bar's vector is pushed through
the next map, the images are reduced in birth order, and an image that
depends on older ones ends the youngest bar.  A stage whose map is the
identity between equal dims is carried across with no reduction: the
live vectors before it are a basis, so every bar lives on with its
vector and none is born.  Every decomposition is verified against the
raw matrices, every stage in full, before its bars are reported.  A
module checks once that each map runs between its two stage spaces; the
map has already checked its matrices against those spaces.

The persistent-cohomology barcode of a simplicial filtration
(`cohomology_barcode`) needs no module: one reduction of the coboundary
over the whole filtration, with clearing, pairs the simplices.  It
orders, pairs and merges on keys (for a metric space, its diameters on
one integer scale) and makes a value only for each reported endpoint.

The bottleneck distance between barcodes is exact: a search over the
candidate costs with a Hopcroft-Karp perfect-matching test per probe.
It runs between the least cost at which every bar has a partner and the
cost of one matching known in advance (finite bars to the diagonal,
essential bars paired in birth order).  Each probe reads only the pairs
within a bound, found by range queries on the bars sorted by one
endpoint, in one graph that each probe widens or narrows to its bound.
The bound starts at the floor and doubles until a probe succeeds.  When
the first probe succeeds the floor is the distance; otherwise the costs
between the last two bounds are bisected.  Each probe starts from the
matching of the probe before it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InputError
from .gvec import GradedLinearMap, GradedVectorSpace
from .ratlin import ColumnReducer, combine
from .util import num_to_json

INF = math.inf


@dataclass(frozen=True)
class Barcode:
    """Per degree, a sorted multiset of (birth, death, multiplicity)."""

    bars: tuple = ()  # tuple of (degree, ((b, e, mult), ...))

    @staticmethod
    def from_dict(d: dict) -> "Barcode":
        items = []
        for deg in sorted(d):
            merged: dict = {}
            for (b, e, m) in d[deg]:
                if not (b < e):
                    raise InputError(f"bar with b >= e: ({b}, {e}]")
                merged[(b, e)] = merged.get((b, e), 0) + m
            if merged:
                items.append((deg, tuple(sorted(
                    (b, e, m) for (b, e), m in merged.items()))))
        return Barcode(tuple(items))

    def degree(self, deg: int) -> tuple:
        for d, bars in self.bars:
            if d == deg:
                return bars
        return ()

    def degrees(self) -> list:
        return [d for d, _ in self.bars]

    def expanded(self, deg: int) -> list:
        out = []
        for (b, e, m) in self.degree(deg):
            out.extend([(b, e)] * m)
        return out

    def total_bars(self) -> int:
        return sum(m for _, bars in self.bars for (_, _, m) in bars)

    def to_json(self) -> list:
        return [
            {"degree": d,
             "bars": [{"birth": num_to_json(b), "death": num_to_json(e), "mult": m}
                      for (b, e, m) in bars]}
            for d, bars in self.bars
        ]


class PersistentGVec:
    """Graded vector spaces over stages 0..m with connecting maps.

    `maps[k]` runs stage k -> stage k+1 in the stored (covariant)
    indexing; `reversed_grid` records that the family arrived
    contravariantly and endpoints must be mirrored on report.
    """

    def __init__(self, grid: Sequence, spaces: Sequence[GradedVectorSpace],
                 maps: Sequence[GradedLinearMap], reversed_grid: bool = False):
        if len(spaces) != len(grid) + 1:
            raise DimensionMismatch("need one stage per grid interval")
        if len(maps) != max(len(spaces) - 1, 0):
            raise DimensionMismatch("need one map per consecutive stage pair")
        for k, f in enumerate(maps):
            if f.source != spaces[k] or f.target != spaces[k + 1]:
                raise DimensionMismatch(
                    f"map {k} does not run from stage {k} to stage {k + 1}")
        self.grid = tuple(grid)
        self.spaces = list(spaces)
        self.maps = list(maps)
        self.reversed_grid = reversed_grid

    @property
    def num_stages(self) -> int:
        return len(self.spaces)

    @staticmethod
    def from_contravariant(grid, spaces, maps) -> "PersistentGVec":
        """maps[k]: stage k+1 -> stage k; re-indexed to covariant form."""
        return PersistentGVec(grid, list(spaces)[::-1], list(maps)[::-1],
                              reversed_grid=True)

    def degrees(self) -> list:
        out = set()
        for s in self.spaces:
            out.update(s.degrees())
        return sorted(out)

    def degree_data(self, deg: int):
        dims = [s.dim(deg) for s in self.spaces]
        mats = [f.matrix(deg) for f in self.maps]
        return dims, mats

    # -- barcode --------------------------------------------------------

    def _zero(self):
        if self.grid and isinstance(self.grid[0], float):
            return 0.0
        return Fraction(0)

    def _stage_interval_endpoints(self, i: int, j: int):
        """Parameter endpoints of a bar spanning stored stages i..j."""
        m = len(self.grid)
        if self.reversed_grid:
            oi, oj = m - j, m - i  # original stages oi..oj
        else:
            oi, oj = i, j
        birth = self._zero() if oi == 0 else self.grid[oi - 1]
        death = INF if oj == m else self.grid[oj]
        return birth, death

    def barcode(self) -> Barcode:
        """Bars of every degree, read off `decompose`."""
        out: dict[int, list] = {}
        for deg in self.degrees():
            for bar in self.decompose(deg):
                b, e = self._stage_interval_endpoints(bar["birth"], bar["death"] - 1)
                out.setdefault(deg, []).append((b, e, 1))
        return Barcode.from_dict(out)

    # -- decomposition with explicit bases ------------------------------

    def decompose(self, deg: int):
        """Interval decomposition with explicit bases (elder rule).

        Returns a list of bars {birth, death, vecs} where vecs[k] is the
        bar's basis vector at stage k (alive for birth <= k < death), a
        sparse {index: coeff} dict with no zeros, and
        death = num_stages for bars that never die.  Verified against
        the raw matrices before returning.
        """
        dims, mats = self.degree_data(deg)
        m = self.num_stages
        bars: list[dict] = []
        active: list[int] = []
        for k in range(m):
            if k > 0 and mats[k - 1].is_identity():
                # The live vectors are a basis of stage k-1, so an identity
                # onto an equal stage keeps every bar and starts none.
                for b in active:
                    bars[b]["vecs"][k] = bars[b]["vecs"][k - 1]
                continue
            red = ColumnReducer(max(dims[k], 1), record=True)
            added_bars = []
            survivors = []
            if k > 0:
                for b in active:
                    vec = mats[k - 1].apply_sparse(bars[b]["vecs"][k - 1])
                    added_bars.append(b)
                    if red.add(vec):
                        bars[b]["vecs"][k] = vec
                        survivors.append(b)
                        continue
                    # The image depends on older bars' images, so b dies;
                    # adding the kernel combination's older bars to b's
                    # history makes its last vector map to zero.
                    bars[b]["death"] = k
                    vecs = bars[b]["vecs"]
                    for idx, c in red.kernel_combos[-1].items():
                        sb = added_bars[idx]
                        if sb == b:
                            continue
                        for st in range(bars[b]["birth"], k):
                            vecs[st] = combine(((1, vecs[st]), (c, bars[sb]["vecs"][st])))
            for e in range(dims[k]):
                unit = {e: 1}
                if red.add(unit):
                    added_bars.append(len(bars))
                    survivors.append(len(bars))
                    bars.append({"birth": k, "death": m, "vecs": {k: unit}})
            active = survivors
        self._verify_decomposition(dims, mats, bars)
        return bars

    def _verify_decomposition(self, dims: list, mats: list, bars: list):
        """InputError unless the bars' vectors are a basis of every stage
        and each map sends a live vector to its next one; `dims` and
        `mats` are `degree_data` of the bars' degree."""
        m = self.num_stages
        for k in range(m):
            red = ColumnReducer(max(dims[k], 1))
            count = 0
            for bar in bars:
                if bar["birth"] <= k < bar["death"]:
                    if not red.add(bar["vecs"][k]):
                        raise InputError("decomposition basis dependent")
                    count += 1
            if count != dims[k]:
                raise InputError("decomposition basis incomplete")
        for bar in bars:
            for k in range(bar["birth"], min(bar["death"], m - 1)):
                img = mats[k].apply_sparse(bar["vecs"][k])
                if k + 1 < bar["death"]:
                    if img != bar["vecs"][k + 1]:
                        raise InputError("decomposition not map-compatible")
                elif img:
                    raise InputError("dying bar has nonzero image")


# ---------------------------------------------------------------------------
# Persistent cohomology of a simplicial filtration
# ---------------------------------------------------------------------------


def cohomology_barcode(simplices: dict, max_degree: int, zero, value) -> Barcode:
    """Persistent-cohomology barcode in degrees 0..max_degree of a
    simplicial filtration, by one reduction of its coboundary with
    clearing (de Silva-Morozov-Vejdemo-Johansson, "Dualities in
    persistent (co)homology", 2011; Bauer, "Ripser", 2021).

    `simplices[d]` lists the d-simplices as (vertex tuple, key), every
    face of a listed simplex listed with a key no larger; keys order as
    the values they stand for (`metric.rips_simplices`).  The filtration
    order is (key, dimension, list order).  For each degree
    k the coboundary columns of the k-simplices are reduced from the
    last simplex to the first, with the (k+1)-simplices as rows, last
    first, so a column's pivot is its earliest surviving coface.  A
    pivot tau pairs the column's simplex sigma with tau: the bar
    (key sigma, key tau] when it is not empty.  A k-simplex that is
    already the pivot of a degree-(k-1) column reduces to zero and is
    skipped (clearing); any other column that reduces to zero is an
    essential class (key sigma, inf).  Equal bars are merged on their
    keys, and only then is each endpoint reported as a value: a birth at
    key 0 as `zero`, any other finite endpoint as `value(key)`.
    """
    by_key = {d: sorted(group, key=lambda sv: sv[1]) for d, group in simplices.items()}
    top = max((d for d, group in by_key.items() if group), default=-1)
    items = []
    cleared: set = set()
    for k in range(min(max_degree, top) + 1):
        cofaces = by_key.get(k + 1, [])
        last = len(cofaces) - 1
        coboundary: dict = {}
        for i, (t, _) in enumerate(cofaces):
            for j in range(len(t)):
                coboundary.setdefault(t[:j] + t[j + 1:], {})[last - i] = -1 if j % 2 else 1
        red = ColumnReducer(len(cofaces))
        pivots = set()
        bars: dict = {}
        for s, birth in reversed(by_key[k]):
            if s in cleared:
                continue
            if red.add(coboundary.get(s, {})):
                t, death = cofaces[last - red.last_low]
                pivots.add(t)
            else:
                death = INF
            if birth < death:
                bars[birth, death] = bars.get((birth, death), 0) + 1
        cleared = pivots
        if bars:
            items.append((k, tuple((zero if b == 0 else value(b), e if e == INF else value(e), m)
                                   for (b, e), m in sorted(bars.items()))))
    return Barcode(tuple(items))


# ---------------------------------------------------------------------------
# Bottleneck distance
#
# In one degree the distance is the least delta at which the bars admit
# a delta-matching: matched bars differ by at most delta at each end,
# and every unmatched bar is at most 2 delta long (it goes to the
# diagonal at its half-length).  That delta is a candidate cost: 0, the
# cost of a pair of bars or a half-length.  Two bounds on it are known
# before any search.  The cap matching sends every finite bar to the
# diagonal and pairs the essential bars of the two lists in birth
# order; its cost, the cap, bounds the distance from above.  The floor,
# the least cost at which every bar has a partner (a bar of the other
# list, or the diagonal), bounds it from below.
#
# `_CostTable` keeps the matching graph's edges of cost at most a bound R
# with their costs; `widen` rebuilds it at each new R.  It finds the pairs
# of cost at most R by range queries (Kerber-Morozov-Nigmetov, "Geometry
# helps to compare persistence diagrams", 2017): a pair costs at least
# the difference of its bars' endpoints on either axis, so a bar meets
# only the bars of the other list whose endpoint lies within R of its
# own, one window of that list sorted by endpoint.
# The floor comes from the same sorted lists, by nearest neighbours.
# `_bottleneck_degree` asks Hopcroft-Karp (`_max_matching`) for a
# perfect matching of the graph at R (Efrat-Itai-Katz 2001): first at
# the floor, then at twice the last R, never past the cap, until one
# exists.  A perfect matching at the floor makes the floor the answer;
# otherwise it bisects the sorted costs between the last failed R and R,
# widening the graph to each.  No probe starts from an empty matching:
# each starts from the last probe's matching (the first from the cap
# matching) without the pairs that are not edges of its graph.
# ---------------------------------------------------------------------------


def _finite_cost(p, q):
    """The pair cost of two finite bars: the larger of the two computed
    endpoint differences, the first of two equal ones, as `max` picks.
    It is at least each of them.  A pair of essential bars costs the
    difference of its births, and a finite bar paired with an essential
    one costs INF."""
    db, de = abs(p[0] - q[0]), abs(p[1] - q[1])
    return de if de > db else db


def _essential(e) -> bool:
    """Is e the death of an essential bar?  Tested by type first: a
    `Fraction` compared with a float is slow, and is never infinite."""
    return type(e) is float and e == INF


def _scaled_endpoints(bars):
    """(2L, the bars with every finite endpoint times 2L), where L is the
    lcm of the endpoints' denominators; None when an endpoint is a
    finite float.  An essential bar keeps its death INF.

    The scaled endpoints are ints, so their pair costs and half-lengths
    are exact ints that order and equate as the bars' costs do, at a
    fraction of the price of `Fraction` arithmetic.  A cost with a float
    endpoint is rounded as it is computed, so such bars keep their own
    arithmetic; so do ints from 2**52 on, since an int bar's half-length
    is the float (e - b) / 2.
    """
    ratios = []
    for bar in bars:
        for x in bar:
            t = type(x)
            if t is Fraction or (t is int and abs(x) < 2 ** 52):
                ratios.append(x.as_integer_ratio())
            elif _essential(x):
                ratios.append(None)
            else:
                return None
    scale = 2 * math.lcm(1, *(r[1] for r in ratios if r))
    ends = [INF if r is None else r[0] * (scale // r[1]) for r in ratios]
    return scale, list(zip(ends[::2], ends[1::2]))


class _CostTable:
    """The matching graph of two bar lists with its edges of cost at most
    `bound`: `nbrs[u]` lists left vertex u's right neighbours and
    `costs[u]` their edges' costs.

    `bound` is the floor at construction and the last bound given to
    `widen` after, in the table's arithmetic (scaled ints when
    `_scaled_endpoints` applies, the costs themselves otherwise), as are
    `floor_cost` and `cap_cost`.  The cap is the cost of the cap matching
    `cap_matching` (the `match_r` of `_max_matching`).  When the lists
    hold different numbers of essential bars no matching has a finite
    cost; then the cap is infinite and `cap_matching` is None.

    The graph is Kerber-Morozov-Nigmetov's.  Left vertices are bars1
    (0..n-1) and diagonal copies of bars2 (n..n+m-1); right vertices are
    bars2 (0..m-1) and diagonal copies of bars1 (m..m+n-1).  Bar i meets
    bar j at their pair cost and its own copy m+i at its half-length;
    copy n+j meets bar j at its half-length and copy m+i at the cost of
    the pair (i, j), which is what the copies of a matched pair pay to
    meet.  At any delta up to the bound it has a perfect matching iff
    the bars admit a delta-matching.  Below the floor some vertex has no
    edge, so the graph has no perfect matching there.

    The finite bars are sorted by their endpoint on one axis, the one
    with more distinct values among them: the death for degree-0 Rips
    bars, which are all born at 0.  `widen` finds the finite pairs
    within the bound by one window of bars2 per finite bar of bars1,
    and pairs the essential bars of the two lists in full.
    """

    def __init__(self, bars1, bars2):
        """The table at the floor, the search's first bound.  First what no
        bound changes: the endpoints in the table's arithmetic, the
        half-lengths, the sorted finite bars, the essential pairs, the cap
        matching, and the costs of the cap and the floor."""
        n, m = len(bars1), len(bars2)
        self.n, self.size = n, n + m
        self.bars = list(bars1) + list(bars2)
        scaled = _scaled_endpoints(self.bars)
        if scaled is None:
            self.scale, pts = None, self.bars
            halves = [INF if _essential(e) else (e - b) / 2 for b, e in pts]
        else:
            self.scale, pts = scaled
            halves = [INF if type(e) is float else (e - b) // 2 for b, e in pts]
        self.pts, self.halves = pts, halves
        essential = [_essential(e) for _, e in pts]
        fin = [t for t in range(n + m) if not essential[t]]
        self.axis = axis = int(len({pts[t][1] for t in fin}) > len({pts[t][0] for t in fin}))
        fin1 = sorted((t for t in fin if t < n), key=lambda t: pts[t][axis])
        fin2 = sorted((t for t in fin if t >= n), key=lambda t: pts[t][axis])
        self._fin1, self._fin2 = fin1, fin2
        self._xs2 = [pts[t][axis] for t in fin2]
        ess1 = sorted((t for t in range(n) if essential[t]), key=lambda t: pts[t][0])
        ess2 = sorted((t for t in range(n, n + m) if essential[t]), key=lambda t: pts[t][0])
        self._ess_pairs = [(i, t, abs(pts[i][0] - pts[t][0])) for i in ess1 for t in ess2]
        # The cap matching: bar i to its copy m+i, copy n+j to bar j, except
        # that the essential bars are paired in birth order, i with j and
        # copy n+j with copy m+i.
        match_r = [n + j for j in range(m)] + list(range(n))
        for i, t in zip(ess1, ess2):
            match_r[t - n], match_r[m + i] = i, t
        if len(ess1) == len(ess2):
            costs = [halves[t] for t in fin]
            costs += [abs(pts[i][0] - pts[t][0]) for i, t in zip(ess1, ess2)]
            self.cap_cost, self.cap_matching = max(costs, default=0), match_r
        else:
            self.cap_cost, self.cap_matching = INF, None
        # A right vertex's edges cost what its mirror's on the left do (bar
        # j and copy n+j, copy m+i and bar i), so the floor is the dearest
        # of the bars' cheapest edges.
        cheapest = self._cheapest_edges(fin1, fin2, self._xs2)
        cheapest += self._cheapest_edges(fin2, fin1, [pts[t][axis] for t in fin1])
        for t, others in [(i, ess2) for i in ess1] + [(t, ess1) for t in ess2]:
            cheapest.append(min((abs(pts[t][0] - pts[u][0]) for u in others), default=INF))
        self.floor_cost = max(cheapest, default=0)
        self.widen(self.floor_cost)

    def _cheapest_edges(self, rows, others, xs):
        """For each finite bar t of `rows`, the cost of its cheapest edge:
        the least of its half-length and its pair costs with the finite
        bars `others`, sorted by their endpoints on the axis, `xs`.  The
        search walks out from t's place in `others`, and each side stops
        where the computed endpoint difference exceeds the best cost so
        far: that difference only grows further out, and bounds every
        pair cost beyond.  The pair cost is `_finite_cost`'s, inline."""
        pts, axis = self.pts, self.axis
        out = []
        for t in rows:
            b, e = p = pts[t]
            x, best = p[axis], self.halves[t]
            start = k = bisect_left(xs, x)
            while k < len(xs) and abs(x - xs[k]) <= best:
                q = pts[others[k]]
                db, de = abs(b - q[0]), abs(e - q[1])
                c = de if de > db else db
                if c < best:
                    best = c
                k += 1
            k = start - 1
            while k >= 0 and abs(x - xs[k]) <= best:
                q = pts[others[k]]
                db, de = abs(b - q[0]), abs(e - q[1])
                c = de if de > db else db
                if c < best:
                    best = c
                k -= 1
            out.append(best)
        return out

    def widen(self, bound):
        """Rebuild the graph with the edges of cost at most `bound`, given
        in the table's arithmetic (a scaled int when `scale` is set):
        `nbrs[u]` lists left vertex u's right neighbours and `costs[u]`
        their edges' costs, in no set order."""
        n, m, pts, axis = self.n, self.size - self.n, self.pts, self.axis
        xs, fin2, halves = self._xs2, self._fin2, self.halves
        self.bound = bound
        self.nbrs = nbrs = [[] for _ in range(self.size)]
        self.costs = costs = [[] for _ in range(self.size)]
        for i, t, c in self._ess_pairs:
            if c <= bound:
                nbrs[i].append(t - n)
                costs[i].append(c)
                nbrs[t].append(m + i)
                costs[t].append(c)
        for i in self._fin1:
            b, e = p = pts[i]
            x = p[axis]
            lo, hi = bisect_left(xs, x - bound), bisect_right(xs, x + bound)
            # For floats x - bound and x + bound are rounded.  The computed
            # |x - x_j| only grows with x_j's distance from x, so each end
            # walks out while it is within the bound.
            while lo and abs(x - xs[lo - 1]) <= bound:
                lo -= 1
            while hi < len(xs) and abs(x - xs[hi]) <= bound:
                hi += 1
            row, row_costs, copy = nbrs[i], costs[i], m + i
            for t in fin2[lo:hi]:
                q = pts[t]
                db, de = abs(b - q[0]), abs(e - q[1])
                c = de if de > db else db
                if c <= bound:
                    row.append(t - n)
                    row_costs.append(c)
                    nbrs[t].append(copy)
                    costs[t].append(c)
        for t in self._fin1 + fin2:
            if halves[t] <= bound:
                nbrs[t].append(m + t if t < n else t - n)
                costs[t].append(halves[t])

    def own_number(self, cost):
        """`cost`, the cost of an edge in the graph or 0, in the table's
        arithmetic, as the bars' own number: the first equal cost met in
        the order 0, pair costs row by row, half-lengths of bars1, then of
        bars2.  Every pair of cost at most the bound is in the graph, so
        its row order is that of all pairs.  Equal costs of different
        types (`Fraction(1, 2)` and `0.5`) are told apart only by this
        order, and the type shows in the JSON reports."""
        if cost == 0:
            return 0
        n, m = self.n, self.size - self.n
        for i in range(n):
            row_costs = self.costs[i]
            if cost in row_costs:
                js = [v for c, v in zip(row_costs, self.nbrs[i]) if c == cost and v < m]
                if js:
                    b1, b2 = self.bars[i], self.bars[n + min(js)]
                    return abs(b1[0] - b2[0]) if _essential(b1[1]) else _finite_cost(b1, b2)
        b, e = self.bars[self.halves.index(cost)]
        return (e - b) / 2


def _max_matching(adj, size, match_r=None):
    """Maximum matching by Hopcroft-Karp; returns (size of the matching,
    match_r) with match_r[v] the left vertex matched to right vertex v,
    or -1.  `adj[u]` lists the right neighbours of left vertex u; both
    sides are numbered 0..size-1.  A given `match_r`, a matching of
    this graph in the same form, is where the search starts; it is not
    modified.

    Each phase layers the graph by a breadth-first search from the free
    left vertices, then augments along vertex-disjoint shortest paths
    found by depth-first searches that keep their path on an explicit
    stack, so a long augmenting path cannot exhaust the interpreter's
    recursion limit.
    """
    match_l = [-1] * size
    if match_r is None:
        match_r = [-1] * size
    else:
        match_r = list(match_r)
        for v, u in enumerate(match_r):
            if u != -1:
                match_l[u] = v
    matched = size - match_r.count(-1)
    while True:
        free = [u for u in range(size) if match_l[u] == -1]
        dist = [-1] * size
        for u in free:
            dist[u] = 0
        layer, limit = free, -1
        while layer and limit < 0:
            below = []
            for u in layer:
                for v in adj[u]:
                    w = match_r[v]
                    if w == -1:
                        limit = dist[u]
                    elif dist[w] == -1:
                        dist[w] = dist[u] + 1
                        below.append(w)
            layer = below
        if limit < 0:
            return matched, match_r
        pos = [0] * size  # next neighbour to try, per left vertex
        for root in free:
            stack = [root]
            via = []  # via[i] is the right vertex from stack[i] to stack[i + 1]
            while stack:
                u = stack[-1]
                nbrs, i, d = adj[u], pos[u], dist[u]
                end, v = len(nbrs), -1
                while i < end:
                    x = nbrs[i]
                    i += 1
                    w = match_r[x]
                    if (d == limit) if w == -1 else (dist[w] == d + 1):
                        v = x
                        break
                pos[u] = i
                if v == -1:
                    dist[u] = -1  # no shortest augmenting path through u this phase
                    stack.pop()
                    if via:
                        via.pop()
                elif match_r[v] == -1:
                    via.append(v)
                    for x, y in zip(stack, via):
                        match_l[x], match_r[y] = y, x
                    matched += 1
                    break
                else:
                    via.append(v)
                    stack.append(match_r[v])


def _bottleneck_degree(bars1, bars2):
    if not bars1 and not bars2:
        return 0
    if sum(_essential(e) for _, e in bars1) != sum(_essential(e) for _, e in bars2):
        return INF
    table = _CostTable(bars1, bars2)
    match_r = table.cap_matching

    def perfect(bound):
        """Does the graph at `bound` have a perfect matching?  The search
        starts from the last probe's matching less its pairs that are not
        edges of this graph."""
        nonlocal match_r
        if bound != table.bound:
            table.widen(bound)
        nbrs = table.nbrs
        match_r = [u if v in nbrs[u] else -1 for v, u in enumerate(match_r)]
        matched, match_r = _max_matching(nbrs, table.size, match_r)
        return matched == table.size

    # The answer is the least cost whose graph has a perfect matching, at
    # least the floor and at most the cap.  The probes run at the floor,
    # then at twice the last bound (the least positive half-length after
    # 0), never past the cap, until one succeeds.  When the first succeeds
    # the answer is the floor.  Otherwise the probes bisect the costs of
    # the graph at that bound that lie above the last failed bound.
    bound, failed = table.floor_cost, None
    while not perfect(bound):
        failed = bound
        grown = 2 * failed if failed else min(
            (h for h in table.halves if 0 < h <= table.cap_cost), default=table.cap_cost)
        bound = min(grown, table.cap_cost)
    if failed is None:
        return table.own_number(table.floor_cost)
    keys = sorted({c for row in table.costs for c in row if c > failed})
    lo, hi = 0, len(keys) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect(keys[mid]):
            hi = mid
        else:
            lo = mid + 1
    # `own_number` reads the pairs at the answer's cost off the graph.
    if table.bound < keys[lo]:
        table.widen(keys[lo])
    return table.own_number(keys[lo])


@dataclass(frozen=True)
class BottleneckResult:
    per_degree: dict
    sup: object

    def degree(self, d):
        return self.per_degree.get(d, 0)


def bottleneck(b1: Barcode, b2: Barcode) -> BottleneckResult:
    degrees = sorted(set(b1.degrees()) | set(b2.degrees()))
    per = {}
    sup = 0
    for d in degrees:
        v = _bottleneck_degree(b1.expanded(d), b2.expanded(d))
        per[d] = v
        sup = max(sup, v)
    return BottleneckResult(per, sup)
