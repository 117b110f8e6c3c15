"""Interval modules and the interleaving oracle, for tests.

`interval_module` and `direct_sum` build persistence modules with known
barcodes.  `interleaving_check` decides whether two modules on a shared
grid are delta-interleaved and certifies its answer in both directions:
True answers carry an explicitly checked pair of shift morphisms, built
from the elder-rule decomposition and a bottleneck matching; False
answers a violated rank inequality between composites of structure
maps (`map_between`).

Unlike `oracles.py`, this module builds on `psmm`: the modules are
`PersistentGVec`s, and the witness matching comes from the bottleneck
code's cost table and Hopcroft-Karp matching.
"""

import math
from fractions import Fraction
from typing import Optional, Sequence

from psmm.errors import InputError
from psmm.gvec import GradedLinearMap, GradedVectorSpace
from psmm.persistence import INF, PersistentGVec, _CostTable, _max_matching
from psmm.ratlin import RatMatrix, rank


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
                for i, row in enumerate(bm.tolist()):
                    data[r0 + i][c0:c0 + bm.cols] = row
                r0 += bm.rows
                c0 += bm.cols
            mat = RatMatrix(rows, cols, data)
            if not mat.is_zero():
                mats[d] = mat
        maps.append(GradedLinearMap(spaces[k], spaces[k + 1], mats))
    return PersistentGVec(grid, spaces, maps,
                          reversed_grid=modules[0].reversed_grid)


# ---------------------------------------------------------------------------
# Evaluation over real parameters
# ---------------------------------------------------------------------------


def stage_of(p: PersistentGVec, t) -> Optional[int]:
    """Stored-index stage of p at parameter t; None when the module is 0.

    For reversed (contravariant) families the parameter is mirrored.
    """
    if t <= 0:
        return None
    k = sum(1 for d in p.grid if d < t)
    return len(p.grid) - k if p.reversed_grid else k


def map_between(p: PersistentGVec, t, s, deg: int) -> RatMatrix:
    """Matrix of p's structure map from time t to time s >= t."""
    if s < t:
        raise InputError("backwards structure map")
    kt, ks = stage_of(p, t), stage_of(p, s)
    rows = 0 if ks is None else p.spaces[ks].dim(deg)
    cols = 0 if kt is None else p.spaces[kt].dim(deg)
    if kt is None or ks is None:
        return RatMatrix.zeros(rows, cols)
    if p.reversed_grid and ks > kt:
        raise InputError("reversed module evaluated backwards")
    comp = RatMatrix.identity(cols)
    for k in range(kt, ks):
        comp = p.maps[k].matrix(deg).matmul(comp)
    return comp


# ---------------------------------------------------------------------------
# Interleaving oracle
# ---------------------------------------------------------------------------


def _matching_at(bars1, bars2, delta):
    """One feasible matching (list of (i, j) real-real pairs) at delta,
    or None; deleted bars are those not in any pair."""
    n, m = len(bars1), len(bars2)
    table = _CostTable(bars1, bars2)
    table.widen(delta if table.scale is None or delta == INF
                else math.floor(Fraction(delta) * table.scale))
    matched, match_r = _max_matching(table.nbrs, table.size)
    if matched != table.size:
        return None
    return [(match_r[v], v) for v in range(m) if 0 <= match_r[v] < n]


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
            if rank(map_between(p, t, s + 2 * delta, deg)) > \
                    rank(map_between(q, t + delta, s + delta, deg)):
                return False
            if rank(map_between(q, t, s + 2 * delta, deg)) > \
                    rank(map_between(p, t + delta, s + delta, deg)):
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


def _shift_matrix(src: _DecomposedModule, dst: _DecomposedModule,
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
