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
depends on older ones ends the youngest bar.  Every decomposition is
verified against the raw matrices before its bars are reported.

The persistent-cohomology barcode of a simplicial filtration
(`cohomology_barcode`) needs no module: one reduction of the coboundary
over the whole filtration, with clearing, pairs the simplices.

The bottleneck distance between barcodes is exact: a binary search over
the ranks of the candidate costs, each computed once, with a
Hopcroft-Karp perfect-matching test per probe.  The search runs between
the least rank at which every bar has a partner and the cost of one
matching known in advance (finite bars to the diagonal, essential bars
paired in birth order), and each probe starts from the matching of the
probe before it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
            for deg in set(spaces[k].degrees()) | set(spaces[k + 1].degrees()):
                m = f.matrix(deg)
                if m.rows != spaces[k + 1].dim(deg) or m.cols != spaces[k].dim(deg):
                    raise DimensionMismatch(f"map {k} shape at degree {deg}")
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
        self._verify_decomposition(deg, bars)
        return bars

    def _verify_decomposition(self, deg: int, bars: list):
        dims, mats = self.degree_data(deg)
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


def cohomology_barcode(simplices: dict, max_degree: int, zero) -> Barcode:
    """Persistent-cohomology barcode in degrees 0..max_degree of a
    simplicial filtration, by one reduction of its coboundary with
    clearing (de Silva-Morozov-Vejdemo-Johansson, "Dualities in
    persistent (co)homology", 2011; Bauer, "Ripser", 2021).

    `simplices[d]` lists the d-simplices as (vertex tuple, value), every
    face of a listed simplex listed with a value no larger.  The
    filtration order is (value, dimension, list order).  For each degree
    k the coboundary columns of the k-simplices are reduced from the
    last simplex to the first, with the (k+1)-simplices as rows, last
    first, so a column's pivot is its earliest surviving coface.  A
    pivot tau pairs the column's simplex sigma with tau: the bar
    (value sigma, value tau] when it is not empty.  A k-simplex that is
    already the pivot of a degree-(k-1) column reduces to zero and is
    skipped (clearing); any other column that reduces to zero is an
    essential class (value sigma, inf).  Births at value 0 are reported
    as `zero`.
    """
    by_value = {d: sorted(group, key=lambda sv: sv[1]) for d, group in simplices.items()}
    top = max((d for d, group in by_value.items() if group), default=-1)
    out: dict[int, list] = {}
    cleared: set = set()
    for k in range(min(max_degree, top) + 1):
        cofaces = by_value.get(k + 1, [])
        last = len(cofaces) - 1
        coboundary: dict = {}
        for i, (t, _) in enumerate(cofaces):
            for j in range(len(t)):
                coboundary.setdefault(t[:j] + t[j + 1:], {})[last - i] = -1 if j % 2 else 1
        red = ColumnReducer(len(cofaces))
        pivots = set()
        bars = out.setdefault(k, [])
        for s, birth in reversed(by_value[k]):
            if s in cleared:
                continue
            if birth == 0:
                birth = zero
            if red.add(coboundary.get(s, {})):
                t, death = cofaces[last - red.last_low]
                pivots.add(t)
                if birth < death:
                    bars.append((birth, death, 1))
            else:
                bars.append((birth, INF, 1))
        cleared = pivots
    return Barcode.from_dict(out)


# ---------------------------------------------------------------------------
# Bottleneck distance
#
# In one degree the distance is the least delta at which the bars admit
# a delta-matching: matched bars differ by at most delta at each end,
# and every unmatched bar is at most 2 delta long (it goes to the
# diagonal at its half-length).  That delta is a candidate cost: 0, the
# cost of a pair of bars or a half-length.  One delta-matching is known
# before any search, the cap matching: every finite bar goes to the
# diagonal and the essential bars of the two lists are paired in birth
# order.  Its cost, the cap, bounds the distance, so `_CostTable` keeps
# only the candidates at or below it.  It computes each candidate once
# and labels the matching graph's edges with the integer ranks of their
# costs.  `_bottleneck_degree` searches the ranks from the floor, the
# least rank at which every vertex has an edge, to the cap's, and each
# probe asks Hopcroft-Karp (`_max_matching`) for a perfect matching of
# the edges at or below the probed rank (Efrat-Itai-Katz 2001;
# Kerber-Morozov-Nigmetov, "Geometry helps to compare persistence
# diagrams", 2017).  The probes gallop up from the floor until one
# succeeds, then bisect, so the dense graphs of high ranks are probed
# only when the distance is near the cap.  No probe starts from an
# empty matching: the search starts from the cap matching, a failed
# probe hands its maximum matching to the next, higher probe as it is,
# and a successful probe hands its perfect matching to the next, lower
# probe without the pairs whose edges rank above that probe.
# ---------------------------------------------------------------------------


def _pair_cost(b1, b2):
    db = abs(b1[0] - b2[0])
    if b1[1] == INF and b2[1] == INF:
        de = 0
    elif b1[1] == INF or b2[1] == INF:
        return INF
    else:
        de = abs(b1[1] - b2[1])
    return max(db, de)


def _half_length(b):
    if b[1] == INF:
        return INF
    return (b[1] - b[0]) / 2


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


def _int_pair_costs(pts1, pts2):
    """The pair costs of scaled bars (`_scaled_endpoints`), one row per
    bar of pts1: max(|b1 - b2|, |e1 - e2|) for two finite bars,
    |b1 - b2| for two essential bars and INF for one of each."""
    ess2 = [j for j, (_, e) in enumerate(pts2) if type(e) is float]
    # an essential column's death is a stand-in; its cost is set below
    fin2 = [(b, 0) if type(e) is float else (b, e) for b, e in pts2] if ess2 else pts2
    rows = []
    for b1, e1 in pts1:
        if type(e1) is float:
            row = [INF] * len(pts2)
            for j in ess2:
                row[j] = abs(b1 - pts2[j][0])
        else:
            row = [x if (x := abs(b1 - b2)) > (y := abs(e1 - e2)) else y for b2, e2 in fin2]
            for j in ess2:
                row[j] = INF
        rows.append(row)
    return rows


class _CostTable:
    """The candidate costs of two bar lists up to the cap, each computed
    once, and the matching graph with its edges labelled by their costs'
    ranks.

    `keys` are the sorted distinct finite costs at or below the cap, and
    0 (scaled ints when `_scaled_endpoints` applies, the costs
    themselves otherwise); a cost's rank is its index in `keys`, and a
    cost above the cap or infinite has rank `len(keys)`.  `cap` is the
    rank of the cap, the cost of the cap matching `cap_matching` (the
    `match_r` of `_max_matching`): the last key's rank.  When the lists
    hold different numbers of essential bars no matching has a finite
    cost; then `cap` is `len(keys)` and `cap_matching` is None.

    The graph is Kerber-Morozov-Nigmetov's.  Left vertices are bars1
    (0..n-1) and diagonal copies of bars2 (n..n+m-1); right vertices are
    bars2 (0..m-1) and diagonal copies of bars1 (m..m+n-1).  Bar i meets
    bar j at their pair cost and its own copy m+i at its half-length;
    copy n+j meets bar j at its half-length and copy m+i at the cost of
    the pair (i, j), which is what the copies of a matched pair pay to
    meet.  At any delta it has a perfect matching iff the bars admit a
    delta-matching.  Only the edges of rank at most `cap` are kept, since
    the graph at rank `cap` already has a perfect matching.  Each
    vertex's edges are sorted by rank, so the graph at rank k keeps a
    prefix of every list.  Below rank `floor` some vertex has no edge,
    so the graph has no perfect matching there.
    """

    def __init__(self, bars1, bars2):
        n, m = len(bars1), len(bars2)
        self.bars = list(bars1) + list(bars2)
        scaled = _scaled_endpoints(self.bars)
        if scaled is None:
            self.scale, pts = None, self.bars
            halves = [_half_length(b) for b in pts]
            pairs = [[_pair_cost(p1, p2) for p2 in pts[n:]] for p1 in pts[:n]]
        else:
            self.scale, pts = scaled
            halves = [INF if type(e) is float else (e - b) // 2 for b, e in pts]
            pairs = _int_pair_costs(pts[:n], pts[n:])
        # The cap matching: bar i to its copy m+i, copy n+j to bar j, except
        # that the essential bars are paired in birth order, i with j and
        # copy n+j with copy m+i.
        ess = {t for t, (_, e) in enumerate(self.bars) if _essential(e)}
        ess1 = sorted((t for t in ess if t < n), key=lambda t: pts[t][0])
        ess2 = sorted((t - n for t in ess if t >= n), key=lambda j: pts[n + j][0])
        match_r = [n + j for j in range(m)] + list(range(n))
        for i, j in zip(ess1, ess2):
            match_r[j], match_r[m + i] = i, n + j
        costs = [h for t, h in enumerate(halves) if t not in ess]
        costs += [pairs[i][j] for i, j in zip(ess1, ess2)]
        cap = max(costs, default=0) if len(ess1) == len(ess2) else INF
        keys = {0}
        for row in pairs:
            keys.update(row)
        keys.update(halves)
        keys.discard(INF)
        self.keys = sorted(c for c in keys if c <= cap)
        top = len(self.keys)
        self.cap = top if cap == INF else top - 1
        self.cap_matching = None if cap == INF else match_r
        # Every cost above the cap, INF among them, has rank top.  Every
        # rank is the one int object that `index` holds for it, and every
        # vertex number the one in `vertex`: the lists below share them
        # instead of holding a new int per pair.
        index = dict.fromkeys(keys, top)
        index.update((c, k) for k, c in enumerate(self.keys))
        index[INF] = top
        rank = index.__getitem__
        self.ranks = [list(map(rank, row)) for row in pairs]
        self.half_ranks = list(map(rank, halves))
        del pairs
        vertex = list(range(n + m))
        self.size = n + m
        self._ranks, self._nbrs = [], []
        for i, row in enumerate(self.ranks):
            self._add_vertex(row + [self.half_ranks[i]], vertex[:m] + [vertex[m + i]])
        columns = zip(*self.ranks) if n else [()] * m
        for j, col in enumerate(columns):
            self._add_vertex(list(col) + [self.half_ranks[n + j]], vertex[m:] + [vertex[j]])
        # A right vertex meets the left ones at the ranks its mirror on the
        # left does (bar j and copy n+j, copy m+i and bar i), so below the
        # floor some vertex of either side has no edge.
        self.floor = max((ranks[0] for ranks in self._ranks), default=0)

    def _add_vertex(self, ranks, nbrs):
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        ranks = list(map(ranks.__getitem__, order))
        kept = bisect_right(ranks, self.cap)
        del ranks[kept:], order[kept:]
        self._ranks.append(ranks)
        self._nbrs.append(list(map(nbrs.__getitem__, order)))

    def adjacency(self, k):
        """The matching graph with the edges of rank at most k."""
        return [nbrs[:bisect_right(ranks, k)]
                for ranks, nbrs in zip(self._ranks, self._nbrs)]

    def matched_ranks(self, match_r):
        """The rank of each right vertex's edge in the perfect matching
        `match_r` (as `_max_matching` returns it)."""
        ranks, halves = self.ranks, self.half_ranks
        n = len(ranks)
        m = self.size - n
        return [(ranks[u][v] if v < m else halves[u]) if u < n else
                (halves[u] if v < m else ranks[v - m][u - n])
                for v, u in enumerate(match_r)]

    def value(self, k):
        """The cost of rank k as the bars' own number: the first equal
        cost met in the order 0, pair costs row by row, half-lengths of
        bars1, then of bars2.  Equal costs of different types
        (`Fraction(1, 2)` and `0.5`) are told apart only by this order,
        and the type shows in the JSON reports."""
        if self.keys[k] == 0:
            return 0
        n = len(self.ranks)
        for i, row in enumerate(self.ranks):
            if k in row:
                return _pair_cost(self.bars[i], self.bars[n + row.index(k)])
        return _half_length(self.bars[self.half_ranks.index(k)])


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
                v = -1
                while i < len(nbrs):
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
    # The answer is the least rank whose graph has a perfect matching, at
    # least `table.floor` and at most `table.cap`.  The probes gallop up
    # from the floor (floor, floor + 1, floor + 3, floor + 7, ...) until
    # one succeeds, then bisect.  Each probe starts from the last probe's
    # matching.  After a success `held[v]` is the rank of right vertex
    # v's matched edge, and the next, lower probe drops the pairs above
    # it; after a failure `held` is None, and the maximum matching holds
    # as it is at the next, higher probe.
    match_r = table.cap_matching
    held = table.matched_ranks(match_r)
    lo, hi = table.floor, table.cap
    mid, step = lo, 1  # step: the gallop's next stride, 0 once a probe succeeded
    while lo < hi:
        if held is not None:
            match_r = [u if r <= mid else -1 for u, r in zip(match_r, held)]
        matched, match_r = _max_matching(table.adjacency(mid), table.size, match_r)
        if matched == table.size:
            hi, step = mid, 0
            held = table.matched_ranks(match_r)
        else:
            lo = mid + 1
            held = None
        mid = min(lo + step - 1, hi - 1) if step else (lo + hi) // 2
        step *= 2
    return table.value(lo)


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
