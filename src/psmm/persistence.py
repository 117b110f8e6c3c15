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
verified against the raw matrices before its bars are reported.  The
same bases feed the interleaving oracle, which certifies answers in
both directions: True answers carry an explicitly checked pair of shift
morphisms, False answers a violated rank inequality.

The bottleneck distance between barcodes is exact: a binary search over
the ranks of the candidate costs, each computed once, with a
Hopcroft-Karp perfect-matching test per probe.  The interleaving
oracle's matched witness comes from the same cost table and graph.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch, InputError
from .gvec import GradedLinearMap, GradedVectorSpace
from .ratlin import ColumnReducer, RatMatrix, rank
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
        bar's basis vector at stage k (alive for birth <= k < death) and
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
                    vec = mats[k - 1].apply(bars[b]["vecs"][k - 1])
                    added_bars.append(b)
                    if red.add(vec):
                        bars[b]["vecs"][k] = vec
                        survivors.append(b)
                        continue
                    # The image depends on older bars' images, so b dies;
                    # adding the kernel combination's older bars to b's
                    # history makes its last vector map to zero.
                    bars[b]["death"] = k
                    for idx, c in red.kernel_combos[-1].items():
                        sb = added_bars[idx]
                        if sb == b:
                            continue
                        for st in range(bars[b]["birth"], k):
                            cur = bars[b]["vecs"][st]
                            corr = bars[sb]["vecs"][st]
                            bars[b]["vecs"][st] = [x + c * y for x, y in zip(cur, corr)]
            for e in range(dims[k]):
                unit = [Fraction(0)] * dims[k]
                unit[e] = Fraction(1)
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
                img = mats[k].apply(bar["vecs"][k])
                if k + 1 < bar["death"]:
                    if img != bar["vecs"][k + 1]:
                        raise InputError("decomposition not map-compatible")
                elif any(c != 0 for c in img):
                    raise InputError("dying bar has nonzero image")

    # -- evaluation over real parameters --------------------------------

    def stage_of(self, t) -> Optional[int]:
        """Stored-index stage at parameter t; None when the module is 0.

        For reversed (contravariant) families the parameter is mirrored.
        """
        if self.reversed_grid:
            m = len(self.grid)
            if t <= 0:
                return None
            k = sum(1 for d in self.grid if d < t)
            return m - k
        if t <= 0:
            return None
        return sum(1 for d in self.grid if d < t)

    def map_between(self, t, s, deg: int) -> RatMatrix:
        """Matrix of the structure map from time t to time s >= t."""
        if s < t:
            raise InputError("backwards structure map")
        kt, ks = self.stage_of(t), self.stage_of(s)
        rows = 0 if ks is None else self.spaces[ks].dim(deg)
        cols = 0 if kt is None else self.spaces[kt].dim(deg)
        if kt is None or ks is None:
            return RatMatrix.zeros(rows, cols)
        if self.reversed_grid and ks > kt:
            raise InputError("reversed module evaluated backwards")
        comp = RatMatrix.identity(cols)
        step = 1
        for k in range(kt, ks, step):
            comp = self.maps[k].matrix(deg).matmul(comp)
        return comp


def interval_module(interval, grid, deg: int) -> PersistentGVec:
    """Interval-like persistent object: Q on stages inside (b, e], zero
    outside, identities inside, zero across the boundary."""
    b, e = interval
    if not (b < e):
        raise InputError(f"malformed interval ({b}, {e}]")
    stops = [0] + list(grid) + [INF]
    if b not in stops or (e != INF and e not in stops):
        raise InputError("interval endpoints must lie on the grid")
    m = len(grid)
    spaces = []
    for k in range(m + 1):
        lo = stops[k]
        hi = stops[k + 1]
        inside = (b <= lo) and (hi <= e)
        spaces.append(GradedVectorSpace.from_dims({deg: 1} if inside else {}))
    maps = []
    for k in range(m):
        if spaces[k].dim(deg) and spaces[k + 1].dim(deg):
            maps.append(GradedLinearMap(spaces[k], spaces[k + 1],
                                        {deg: RatMatrix.identity(1)}))
        else:
            maps.append(GradedLinearMap(spaces[k], spaces[k + 1], {}))
    return PersistentGVec(grid, spaces, maps)


def direct_sum(modules: Sequence[PersistentGVec]) -> PersistentGVec:
    grid = modules[0].grid
    if any(p.grid != grid or p.reversed_grid != modules[0].reversed_grid
           for p in modules):
        raise InputError("direct sum needs a shared grid")
    m = len(grid)
    spaces = []
    for k in range(m + 1):
        dims: dict[int, int] = {}
        for p in modules:
            for d in p.spaces[k].degrees():
                dims[d] = dims.get(d, 0) + p.spaces[k].dim(d)
        spaces.append(GradedVectorSpace.from_dims(dims))
    maps = []
    for k in range(m):
        mats = {}
        degs = set(spaces[k].degrees()) | set(spaces[k + 1].degrees())
        for d in degs:
            blocks = [p.maps[k].matrix(d) for p in modules]
            rows = sum(b.rows for b in blocks)
            cols = sum(b.cols for b in blocks)
            data = [[Fraction(0)] * cols for _ in range(rows)]
            r0 = c0 = 0
            for bm in blocks:
                for i in range(bm.rows):
                    for j in range(bm.cols):
                        data[r0 + i][c0 + j] = bm[i, j]
                r0 += bm.rows
                c0 += bm.cols
            mat = RatMatrix(rows, cols, data)
            if not mat.is_zero():
                mats[d] = mat
        maps.append(GradedLinearMap(spaces[k], spaces[k + 1], mats))
    return PersistentGVec(grid, spaces, maps,
                          reversed_grid=modules[0].reversed_grid)


# ---------------------------------------------------------------------------
# Bottleneck distance
#
# In one degree the distance is the least delta at which the bars admit
# a delta-matching: matched bars differ by at most delta at each end,
# and every unmatched bar is at most 2 delta long (it goes to the
# diagonal at its half-length).  That delta is a candidate cost: 0, the
# cost of a pair of bars or a half-length.  `_CostTable` computes each
# candidate once and labels the matching graph's edges with the integer
# ranks of their costs; `_bottleneck_degree` binary-searches the ranks,
# and each probe asks Hopcroft-Karp (`_max_matching`) for a perfect
# matching of the edges at or below the probed rank (Efrat-Itai-Katz
# 2001; Kerber-Morozov-Nigmetov, "Geometry helps to compare persistence
# diagrams", 2017).
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


def _scaled_endpoints(bars):
    """(2L, the bars with every finite endpoint times 2L), where L is the
    lcm of the endpoints' denominators; None when an endpoint is a float.

    The scaled endpoints are ints, so their pair costs and half-lengths
    are exact ints that order and equate as the bars' costs do, at a
    fraction of the price of `Fraction` arithmetic.  A cost with a float
    endpoint is rounded as it is computed, so such bars keep their own
    arithmetic; so do ints from 2**52 on, since an int bar's half-length
    is the float (e - b) / 2.
    """
    rational = (int, Fraction)
    if not all(type(x) is Fraction or (type(x) is int and abs(x) < 2 ** 52)
               or x == INF for bar in bars for x in bar):
        return None
    scale = 2 * math.lcm(1, *(x.denominator for bar in bars for x in bar
                              if type(x) in rational))
    return scale, [tuple(x.numerator * (scale // x.denominator)
                         if type(x) in rational else INF for x in bar)
                   for bar in bars]


class _CostTable:
    """The candidate costs of two bar lists, each computed once, and the
    matching graph with its edges labelled by their costs' ranks.

    `keys` are the sorted distinct finite costs and 0 (scaled ints when
    `_scaled_endpoints` applies, the costs themselves otherwise); a
    cost's rank is its index in `keys`, and an infinite cost has rank
    `len(keys)`, above every probe.

    The graph is Kerber-Morozov-Nigmetov's.  Left vertices are bars1
    (0..n-1) and diagonal copies of bars2 (n..n+m-1); right vertices are
    bars2 (0..m-1) and diagonal copies of bars1 (m..m+n-1).  Bar i meets
    bar j at their pair cost and its own copy m+i at its half-length;
    copy n+j meets bar j at its half-length and copy m+i at the cost of
    the pair (i, j), which is what the copies of a matched pair pay to
    meet.  At any delta it has a perfect matching iff the bars admit a
    delta-matching.  Each vertex's edges are sorted by rank, so the graph
    at rank k keeps a prefix of every list.
    """

    def __init__(self, bars1, bars2):
        n, m = len(bars1), len(bars2)
        self.bars = list(bars1) + list(bars2)
        scaled = _scaled_endpoints(self.bars)
        if scaled is None:
            self.scale, pts = None, self.bars
            halves = [_half_length(b) for b in pts]
        else:
            self.scale, pts = scaled
            halves = [INF if e == INF else (e - b) // 2 for b, e in pts]
        pairs = [[_pair_cost(p1, p2) for p2 in pts[n:]] for p1 in pts[:n]]
        keys = {0}
        for row in pairs:
            keys.update(row)
        keys.update(halves)
        keys.discard(INF)
        self.keys = sorted(keys)
        top = len(self.keys)
        index = {c: k for k, c in enumerate(self.keys)}
        # Every rank is the one int object that `index` holds for it, and
        # every vertex number the one in `vertex`: the lists below share
        # them instead of holding a new int per pair.
        self.ranks = [[index.get(c, top) for c in row] for row in pairs]
        self.half_ranks = [index.get(h, top) for h in halves]
        del pairs
        vertex = list(range(n + m))
        self.size = n + m
        self._ranks, self._nbrs = [], []
        for i, row in enumerate(self.ranks):
            self._add_vertex(row + [self.half_ranks[i]], vertex[:m] + [vertex[m + i]])
        for j in range(m):
            self._add_vertex([row[j] for row in self.ranks] + [self.half_ranks[n + j]],
                             vertex[m:] + [vertex[j]])

    def _add_vertex(self, ranks, nbrs):
        order = sorted(range(len(ranks)), key=ranks.__getitem__)
        self._ranks.append([ranks[t] for t in order])
        self._nbrs.append([nbrs[t] for t in order])

    def adjacency(self, k):
        """The matching graph with the edges of rank at most k."""
        return [nbrs[:bisect_right(ranks, k)]
                for ranks, nbrs in zip(self._ranks, self._nbrs)]

    def rank_at(self, delta):
        """The highest rank whose cost is at most delta; -1 when none is."""
        if delta == INF:
            return len(self.keys)
        if self.scale is not None:
            delta = Fraction(delta) * self.scale
        return bisect_right(self.keys, delta) - 1

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


def _max_matching(adj, size):
    """Maximum matching by Hopcroft-Karp; returns (size of the matching,
    match_r) with match_r[v] the left vertex matched to right vertex v,
    or -1.  `adj[u]` lists the right neighbours of left vertex u; both
    sides are numbered 0..size-1.

    Each phase layers the graph by a breadth-first search from the free
    left vertices, then augments along vertex-disjoint shortest paths
    found by depth-first searches that keep their path on an explicit
    stack, so a long augmenting path cannot exhaust the interpreter's
    recursion limit.
    """
    match_l = [-1] * size
    match_r = [-1] * size
    matched = 0
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
    inf1 = sum(1 for b in bars1 if b[1] == INF)
    inf2 = sum(1 for b in bars2 if b[1] == INF)
    if inf1 != inf2:
        return INF
    table = _CostTable(bars1, bars2)
    top = len(table.keys)
    lo, hi = 0, top  # rank top is an infinite cost and is never probed
    while lo < hi:
        mid = (lo + hi) // 2
        matched, _ = _max_matching(table.adjacency(mid), table.size)
        if matched == table.size:
            hi = mid
        else:
            lo = mid + 1
    return INF if lo == top else table.value(lo)


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


def _matching_at(bars1, bars2, delta):
    """One feasible matching (list of (i, j) real-real pairs) at delta,
    or None; deleted bars are those not in any pair."""
    n, m = len(bars1), len(bars2)
    table = _CostTable(bars1, bars2)
    matched, match_r = _max_matching(table.adjacency(table.rank_at(delta)), table.size)
    if matched != table.size:
        return None
    return [(match_r[v], v) for v in range(m) if 0 <= match_r[v] < n]


# ---------------------------------------------------------------------------
# Interleaving oracle
# ---------------------------------------------------------------------------


def _sample_points(grid, delta):
    stops = {0}
    for d in list(grid) + [0]:
        for k in (-2, -1, 0, 1, 2):
            stops.add(d + k * delta)
    stops = sorted(stops)
    samples = []
    prev = None
    for x in stops:
        if prev is not None and x > prev:
            samples.append(prev + (x - prev) / 2)
        prev = x
    samples.append(stops[-1] + 1)
    samples.insert(0, stops[0] - 1)
    return samples


def _rank_conditions_hold(p, q, delta, deg) -> bool:
    samples = [t for t in _sample_points(p.grid, delta)]
    for a in range(len(samples)):
        for b in range(a, len(samples)):
            t, s = samples[a], samples[b]
            if rank(p.map_between(t, s + 2 * delta, deg)) > \
                    rank(q.map_between(t + delta, s + delta, deg)):
                return False
            if rank(q.map_between(t, s + 2 * delta, deg)) > \
                    rank(p.map_between(t + delta, s + delta, deg)):
                return False
    return True


class _DecomposedModule:
    """Interval view of one degree of a module, in parameter terms."""

    def __init__(self, p: PersistentGVec, deg: int):
        self.intervals = []
        for bar in p.decompose(deg):
            b, e = p._stage_interval_endpoints(bar["birth"], bar["death"] - 1)
            self.intervals.append((b, e))

    def alive(self, t) -> list:
        return [i for i, (b, e) in enumerate(self.intervals)
                if b < t and (e == INF or t <= e)]

    def internal_map(self, t, s) -> RatMatrix:
        at, as_ = self.alive(t), self.alive(s)
        data = [[Fraction(1) if (j == i) else Fraction(0) for j in at] for i in as_]
        return RatMatrix(len(as_), len(at), data)


def _shift_matrix(src: "_DecomposedModule", dst: "_DecomposedModule",
                  pairs, t, delta, windows) -> RatMatrix:
    """f_t: src(t) -> dst(t + delta) from a matching; component 1 on the
    overlap window of each matched pair, 0 elsewhere."""
    alive_s = src.alive(t)
    alive_d = dst.alive(t + delta)
    data = [[Fraction(0)] * len(alive_s) for _ in alive_d]
    pos_s = {i: c for c, i in enumerate(alive_s)}
    pos_d = {j: r for r, j in enumerate(alive_d)}
    for (i, j) in pairs:
        lo, hi = windows[(i, j)]
        if i in pos_s and j in pos_d and lo < t and (hi == INF or t <= hi):
            data[pos_d[j]][pos_s[i]] = Fraction(1)
    return RatMatrix(len(alive_d), len(alive_s), data)


def interleaving_check(p: PersistentGVec, q: PersistentGVec, delta) -> bool:
    """Decide existence of a delta-interleaving on the shared grid.

    True answers construct explicit shift morphisms from a matched
    decomposition and verify every naturality square and both triangle
    families at a refined sample set.  False answers exhibit a violated
    rank inequality (a composite of structure maps that cannot factor
    through the other module).
    """
    if p.grid != q.grid:
        raise InputError("interleaving check needs a shared refined grid")
    if p.reversed_grid or q.reversed_grid:
        raise InputError("re-index contravariant modules before the check")
    if delta < 0:
        raise InputError("delta must be nonnegative")
    degrees = sorted(set(p.degrees()) | set(q.degrees()))
    for deg in degrees:
        if not _rank_conditions_hold(p, q, delta, deg):
            return False
    for deg in degrees:
        dp = _DecomposedModule(p, deg)
        dq = _DecomposedModule(q, deg)
        pairs = _matching_at(dp.intervals, dq.intervals, delta)
        if pairs is None:
            return False
        if not _verify_interleaving(dp, dq, pairs, delta, p.grid):
            raise InputError("witness verification failed: internal error")
    return True


def _verify_interleaving(dp, dq, pairs, delta, grid) -> bool:
    windows_f = {}
    windows_g = {}
    for (i, j) in pairs:
        b, e = dp.intervals[i]
        b2, e2 = dq.intervals[j]
        windows_f[(i, j)] = (b, (e2 - delta) if e2 != INF else INF)
        windows_g[(j, i)] = (b2, (e - delta) if e != INF else INF)
    gpairs = [(j, i) for (i, j) in pairs]
    samples = _sample_points(grid, delta)

    def f_at(t):
        return _shift_matrix(dp, dq, pairs, t, delta, windows_f)

    def g_at(t):
        return _shift_matrix(dq, dp, gpairs, t, delta, windows_g)

    for a in range(len(samples) - 1):
        t, s = samples[a], samples[a + 1]
        # squares for f and for g
        if dq.internal_map(t + delta, s + delta).matmul(f_at(t)) != \
                f_at(s).matmul(dp.internal_map(t, s)):
            return False
        if dp.internal_map(t + delta, s + delta).matmul(g_at(t)) != \
                g_at(s).matmul(dq.internal_map(t, s)):
            return False
    for t in samples:
        if g_at(t + delta).matmul(f_at(t)) != dp.internal_map(t, t + 2 * delta):
            return False
        if f_at(t + delta).matmul(g_at(t)) != dq.internal_map(t, t + 2 * delta):
            return False
    return True
