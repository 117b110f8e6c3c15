"""Independent test oracles.

Persistent homology by straight boundary-matrix reduction over Q,
written against the raw filtration data; dense Gauss-Jordan
elimination; the barcode by inclusion-exclusion over the rank
function; the former dense matrix-vector and matrix products; the
cohomology engine's former kernel-mod-image algorithm; the Rips
filtration of an exact distance matrix by brute-force clique
enumeration; the general cone-apex search the enclosing radius is
checked against; the elimination engine's former `Fraction`
arithmetic; dense coboundary matrices; ring structure constants by the
former cup route (every pair of representatives multiplied and solved
for); induced maps by the former restriction route (every
representative restricted and solved for) and the former bilinear
multiplicativity check over every pair of degrees; the bottleneck
distance's former algorithm; and the Gromov-Hausdorff distance by the
package's former bisection and by exhaustive search over pairs of
maps.  All deliberately share no code with the package: this module
imports nothing from `psmm`.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

INF = math.inf


def _boundary(simplex):
    for i in range(len(simplex)):
        yield (1 if i % 2 == 0 else -1), simplex[:i] + simplex[i + 1:]


def reduction_barcodes(filtration, max_deg):
    """Stage-index bars per homology degree: list of (birth, death) with
    death = number of stages for never-dying classes.

    A bar (b, d) means the class lives at stages b .. d-1.
    """
    stages = filtration.stages
    m = len(stages)
    appearance = {}
    for k, st in enumerate(stages):
        for group in st.simplices.values():
            for s in group:
                if s not in appearance:
                    appearance[s] = k
    order = sorted(appearance, key=lambda s: (appearance[s], len(s), s))
    index = {s: i for i, s in enumerate(order)}

    columns = []
    for s in order:
        col = {}
        if len(s) > 1:
            for sign, face in _boundary(s):
                col[index[face]] = Fraction(sign)
        columns.append(col)

    lows = {}  # low row -> column index (reduced)
    reduced = []
    pairs = {}
    for j, col in enumerate(columns):
        col = dict(col)
        while col:
            low = max(col)
            k = lows.get(low)
            if k is None:
                break
            f = col[low] / reduced[k][low]
            for r, v in reduced[k].items():
                nv = col.get(r, Fraction(0)) - f * v
                if nv == 0:
                    col.pop(r, None)
                else:
                    col[r] = nv
        reduced.append(col)
        if col:
            low = max(col)
            lows[low] = j
            pairs[low] = j

    bars = {}
    for i, s in enumerate(order):
        dim = len(s) - 1
        if reduced[i]:
            continue  # negative column, pairs some lower simplex
        birth = appearance[s]
        j = pairs.get(i)
        if j is None:
            death = m
        else:
            death = appearance[order[j]]
        if death > birth:
            bars.setdefault(dim, []).append((birth, death))
    return {k: sorted(v) for k, v in bars.items() if k <= max_deg}


def betti_numbers(filtration, stage, max_deg):
    bars = reduction_barcodes(filtration, max_deg)
    out = {}
    for k in range(max_deg + 1):
        out[k] = sum(1 for (b, d) in bars.get(k, []) if b <= stage < d)
    return out


def parameter_bars(filtration, max_deg):
    """Bars in filtration parameters: (birth, death) with death None for
    infinite bars, following the (d_b, d_d] convention with d_0 = 0."""
    grid = filtration.critical_values
    g = len(grid)
    out = {}
    for k, bars in reduction_barcodes(filtration, max_deg).items():
        conv = []
        for (b, d) in bars:
            birth = 0 if b == 0 else grid[b - 1]
            death = None if d > g else grid[d - 1]
            conv.append((birth, death))
        out[k] = sorted(conv, key=lambda t: (t[0], t[1] is None, t[1] or 0))
    return out


def rips_filtration(matrix, max_dim):
    """The Rips filtration of a distance matrix of exact entries through
    dimension max_dim: every vertex subset of at most max_dim + 1 points
    with its `Fraction` diameter, and stage k the subsets of diameter at
    most d_k, over the sorted distinct positive distances d_1 < d_2 < ...
    (d_0 = 0): the `critical_values` and per stage the `simplices` dict
    that `reduction_barcodes` and `parameter_bars` read."""
    n = len(matrix)
    dist = [[Fraction(v) for v in row] for row in matrix]
    grid = sorted({v for row in dist for v in row if v > 0})
    diameter = {}
    for size in range(1, max_dim + 2):
        for s in itertools.combinations(range(n), size):
            diameter[s] = max((dist[i][j] for i, j in itertools.combinations(s, 2)),
                              default=Fraction(0))
    stages = []
    for bound in [Fraction(0), *grid]:
        by_dim = {}
        for s, diam in diameter.items():
            if diam <= bound:
                by_dim.setdefault(len(s) - 1, []).append(s)
        stages.append(SimpleNamespace(simplices={d: tuple(g) for d, g in by_dim.items()}))
    return SimpleNamespace(critical_values=tuple(grid), stages=tuple(stages))


def complex_betti(cx, max_deg):
    """Betti numbers of a single complex by dense rank computations,
    kept independent of the package's linear algebra."""
    out = {}
    for k in range(max_deg + 1):
        lower = cx.dim_simplices(k)
        upper = cx.dim_simplices(k + 1)
        rank_k = _dense_rank(_delta_dense(lower, upper))
        below = cx.dim_simplices(k - 1) if k else ()
        rank_km1 = _dense_rank(_delta_dense(below, lower)) if k else 0
        out[k] = len(lower) - rank_k - rank_km1
    return out


def find_cone_apex(cx):
    """(apex, complete) when the complex is a cone over the apex,
    possibly truncated in its top dimension; None otherwise.

    complete=True means sigma u {apex} is present for every simplex
    avoiding the apex, so the complex is a genuine cone and all reduced
    cohomology vanishes.  complete=False means only top-dimensional
    simplices lack their coface, which still forces vanishing below the
    top dimension.
    """
    top = max((d for d, group in cx.simplices.items() if group), default=-1)
    if top < 0:
        return None
    present = {s for group in cx.simplices.values() for s in group}
    for v in range(cx.n_vertices):
        if not all(tuple(sorted((u, v))) in present for u in range(cx.n_vertices) if u != v):
            continue
        missing = {len(s) - 1 for group in cx.simplices.values() for s in group
                   if v not in s and tuple(sorted(s + (v,))) not in present}
        if not missing - {top}:
            return (v, not missing)
    return None


def _delta_dense(lower, upper):
    li = {s: i for i, s in enumerate(lower)}
    rows = [[Fraction(0)] * len(lower) for _ in upper]
    for ui, t in enumerate(upper):
        for sign, face in _boundary(t):
            rows[ui][li[face]] = Fraction(sign)
    return rows


def dense_rref(rows, ncols=None):
    """(reduced rows, pivot columns) of the reduced row echelon form,
    by Gauss-Jordan elimination on dense rows of rationals; `ncols`
    defaults to the first row's length."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def _dense_rank(rows, ncols=None):
    return len(dense_rref(rows, ncols)[1])


def dense_solve(rows, ncols, b):
    """The solution of a.x = b with free variables zero, or None when b
    is outside the image; read off the RREF of [a | b]."""
    reduced, pivots = dense_rref([list(row) + [v] for row, v in zip(rows, b)],
                                 ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][ncols]
    return x


def dense_kernel(rows, ncols):
    """One kernel vector per free column fc, in order: e_fc minus fc's
    RREF coefficients on the pivot columns."""
    reduced, pivots = dense_rref(rows, ncols)
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        out.append(v)
    return out


def rank_function_barcode(grid, degree_data, contravariant=False):
    """The barcode of a module over stages 0..len(grid), by
    inclusion-exclusion over its rank function, in the shape of the
    package's `Barcode.bars`: ((degree, ((birth, death, mult), ...)), ...).

    `degree_data[deg]` is (dims, mats): dims[k] the dimension at stage k,
    and mats[k] the rows of the map stage k -> k+1, or of stage k+1 -> k
    when `contravariant`.  Stage k lives on (grid[k-1], grid[k]], with
    grid[-1] = 0 and grid[len(grid)] = inf.
    """
    n = len(grid) + 1
    zero = 0.0 if grid and isinstance(grid[0], float) else Fraction(0)
    out = []
    for deg in sorted(degree_data):
        dims, mats = degree_data[deg]
        r = {}
        for i in range(n):
            # comp: stage i -> stage j (covariant), stage j -> stage i (contravariant)
            comp = [[Fraction(int(a == b)) for b in range(dims[i])] for a in range(dims[i])]
            r[i, i] = dims[i]
            for j in range(i + 1, n):
                if contravariant:
                    comp = dense_matmul(comp, mats[j - 1], dims[j])
                    r[i, j] = _dense_rank(comp, dims[j])
                else:
                    comp = dense_matmul(mats[j - 1], comp, dims[i])
                    r[i, j] = _dense_rank(comp, dims[i])
        bars = []
        for i in range(n):
            for j in range(i, n):
                mult = (r[i, j] - r.get((i - 1, j), 0) - r.get((i, j + 1), 0)
                        + r.get((i - 1, j + 1), 0))
                assert mult >= 0, "a chain of linear maps has no negative multiplicity"
                if mult:
                    birth = zero if i == 0 else grid[i - 1]
                    death = INF if j == n - 1 else grid[j]
                    bars.append((birth, death, mult))
        if bars:
            out.append((deg, tuple(sorted(bars))))
    return tuple(out)


def dense_matmul(a, b, ncols):
    """Dense product of row lists; `ncols` is b's column count."""
    return [[sum((x * row[c] for x, row in zip(ar, b)), Fraction(0))
             for c in range(ncols)] for ar in a]


def dense_apply(rows, vec):
    """The package's former dense `RatMatrix.apply`: each row's products
    with the vector's entries, summed from Fraction(0), skipping the
    row's zero entries."""
    v = [Fraction(x) for x in vec]
    return [sum((a * b for a, b in zip(row, v) if a != 0), Fraction(0)) for row in rows]


class FractionColumnReducer:
    """The package's former `ColumnReducer`: the same lowest-row
    elimination with `rank`, `skip`, `from_pivots`, `pivots`,
    `kernel_combos` and `solve`, in `Fraction` arithmetic throughout.
    Entries are converted before zeros are dropped."""

    def __init__(self, nrows, record=False):
        self.nrows = nrows
        self.record = record
        self.pivots = {}  # low row -> reduced column
        self._combos = {}
        self._ncols = 0
        self.rank = 0
        self.kernel_combos = []

    @staticmethod
    def from_pivots(nrows, pivots):
        red = FractionColumnReducer(nrows, record=True)
        red.pivots = dict(pivots)
        red._combos = {low: {} for low in pivots}
        red.rank = len(pivots)
        return red

    def skip(self):
        self._ncols += 1
        return self._ncols - 1

    @staticmethod
    def _to_sparse(col):
        items = col.items() if isinstance(col, dict) else enumerate(col)
        fracs = {i: Fraction(v) for i, v in items}
        return {i: v for i, v in fracs.items() if v != 0}

    def _reduce(self, c, combo):
        while c:
            low = max(c)
            p = self.pivots.get(low)
            if p is None:
                return c, combo, low
            f = c[low] / p[low]
            targets = [(c, p)]
            if combo is not None:
                targets.append((combo, self._combos[low]))
            for target, source in targets:
                for r, v in source.items():
                    nv = target.get(r, Fraction(0)) - f * v
                    if nv == 0:
                        target.pop(r, None)
                    else:
                        target[r] = nv
        return c, combo, None

    def add(self, col):
        c = self._to_sparse(col)
        combo = {self._ncols: Fraction(1)} if self.record else None
        self._ncols += 1
        c, combo, low = self._reduce(c, combo)
        if low is None:
            if self.record:
                self.kernel_combos.append(combo)
            return False
        self.pivots[low] = c
        self.rank += 1
        if self.record:
            self._combos[low] = combo
        return True

    def solve(self, col):
        c, combo, low = self._reduce(self._to_sparse(col), {})
        if low is not None:
            return None
        return {k: -v for k, v in combo.items()}


def greedy_cohomology_reps(cols_k, nup_k, cols_below):
    """Representative cocycles of H^k by the cohomology engine's former
    algorithm: the recorded kernel of all of d^k (columns `cols_k` with
    `nup_k` rows, which only bound the row indices), then each kernel
    vector in turn kept iff it is independent of im d^{k-1} (the
    columns `cols_below`) and of the vectors kept before it."""
    kernel = FractionColumnReducer(nup_k, record=True)
    for c in cols_k:
        assert all(r < nup_k for r in c)
        kernel.add(c)
    quotient = FractionColumnReducer(len(cols_k))
    for c in cols_below:
        quotient.add(c)
    return [dict(z) for z in kernel.kernel_combos if quotient.add(z)]


def coboundaries(cx, max_deg):
    """Dense rows of delta^0 .. delta^max_deg of a simplicial complex,
    built from its simplex tuples: row t, column s holds the sign of s
    as a face of t."""
    return [_delta_dense(cx.dim_simplices(p), cx.dim_simplices(p + 1))
            for p in range(max_deg + 1)]


def alexander_whitney(cx, a, p, b, q):
    """Cup product of sparse cochains a (degree p) and b (degree q) on a
    simplicial complex, from its simplex tuples: front p-face times back
    q-face of every (p+q)-simplex."""
    front = {s: i for i, s in enumerate(cx.dim_simplices(p))}
    back = {s: i for i, s in enumerate(cx.dim_simplices(q))}
    out = {}
    for t, s in enumerate(cx.dim_simplices(p + q)):
        va = a.get(front.get(s[:p + 1]), 0)
        vb = b.get(back.get(s[p:]), 0)
        if va and vb:
            out[t] = va * vb
    return out


def cup_route_ring(cx, reps, class_of, max_deg):
    """(structure, unit) of a complex's cohomology ring by the cup
    route: every pair of representative cocycles (reps maps degree ->
    list of sparse cocycles), in both orders, multiplied by
    Alexander-Whitney and put into class coordinates by class_of(k,
    cochain); the unit is the class of the constant 1 cochain, as a
    dense coordinate list."""
    structure = {}
    for p, q in itertools.product(reps, repeat=2):
        if p + q > max_deg:
            continue
        for (i, a), (j, b) in itertools.product(enumerate(reps[p]), enumerate(reps[q])):
            structure[(p, i, q, j)] = class_of(p + q, alexander_whitney(cx, a, p, b, q))
    one = {v: Fraction(1) for v in range(len(cx.dim_simplices(0)))}
    coords = class_of(0, one)
    return structure, [coords.get(i, 0) for i in range(len(reps.get(0, ())))]


def restriction_route_columns(small_cx, big_cx, reps, class_of, k):
    """Degree-k columns of the map induced by including small_cx in
    big_cx: each big representative (reps, sparse over big_cx's
    k-simplices) restricted to small_cx's k-simplices and put into
    class coordinates by the small stage's class_of(k, cochain)."""
    small_index = {s: i for i, s in enumerate(small_cx.dim_simplices(k))}
    big = big_cx.dim_simplices(k)
    return [class_of(k, {small_index[big[b]]: c for b, c in rep.items()
                         if big[b] in small_index})
            for rep in reps]


def bilinear_multiplicative(cols, ring_small, ring_big, hi) -> bool:
    """Is f(a.b) = f(a).f(b) for every pair of big basis classes of
    degrees p + q <= hi, degree 0 included?  f's degree-k block is given
    as sparse columns cols[k]; products come from the rings'
    `mul_basis`."""
    def add(out, c, vec):
        for t, v in vec.items():
            out[t] = out.get(t, 0) + c * v

    def nonzero(vec):
        return {t: v for t, v in vec.items() if v}

    for p in range(hi + 1):
        for q in range(hi + 1 - p):
            for i in range(ring_big.dim(p)):
                for j in range(ring_big.dim(q)):
                    lhs, rhs = {}, {}
                    for t, c in ring_big.mul_basis(p, i, q, j).items():
                        add(lhs, c, cols[p + q][t])
                    for s, a in cols[p][i].items():
                        for t, b in cols[q][j].items():
                            add(rhs, a * b, ring_small.mul_basis(p, s, q, t))
                    if nonzero(lhs) != nonzero(rhs):
                        return False
    return True


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


def _diag_adjacency(bars1, bars2, delta):
    """Left nodes: bars1 then diagonal copies of bars2; right nodes:
    bars2 then diagonal slots.  A perfect matching exists iff the bars
    admit a delta-matching with deletions costing half-length."""
    n, m = len(bars1), len(bars2)
    size = n + m
    adj = [[] for _ in range(size)]
    for i, b1 in enumerate(bars1):
        for j, b2 in enumerate(bars2):
            if _pair_cost(b1, b2) <= delta:
                adj[i].append(j)
        if _half_length(b1) <= delta:
            for j in range(m, size):
                adj[i].append(j)
    for k, b2 in enumerate(bars2):
        i = n + k
        if _half_length(b2) <= delta:
            adj[i].append(k)
        for j in range(m, size):
            adj[i].append(j)
    return adj


def _augment(adj, match_r, root, seen) -> bool:
    """Kuhn's depth-first search for an augmenting path from `root`,
    kept on an explicit stack; flips the path into `match_r`."""
    stack = [(root, iter(adj[root]))]
    via = []  # via[i] is the right vertex leading from stack[i] to stack[i + 1]
    while stack:
        u, nbrs = stack[-1]
        for v in nbrs:
            if seen[v]:
                continue
            seen[v] = True
            if match_r[v] == -1:
                match_r[v] = u
                for (w, _), x in zip(stack, via):
                    match_r[x] = w
                return True
            via.append(v)
            stack.append((match_r[v], iter(adj[match_r[v]])))
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


def _perfect_matching_exists(bars1, bars2, delta) -> bool:
    size = len(bars1) + len(bars2)
    adj = _diag_adjacency(bars1, bars2, delta)
    match_r = [-1] * size
    return all(_augment(adj, match_r, u, [False] * size) for u in range(size))


def bottleneck_reference(bars1, bars2):
    """Bottleneck distance of two bar lists, each bar a (birth, death)
    pair repeated once per copy, by the package's former algorithm: a
    binary search over the sorted candidate costs, each probe a full
    Kuhn matching on the bar-plus-diagonal graph.  The value is the
    candidate object the search lands on, so it keeps the type (`int`,
    `Fraction` or `float`) that its first equal candidate had."""
    if not bars1 and not bars2:
        return 0
    inf1 = sum(1 for b in bars1 if b[1] == INF)
    inf2 = sum(1 for b in bars2 if b[1] == INF)
    if inf1 != inf2:
        return INF
    cands = {0}
    for b1 in bars1:
        for b2 in bars2:
            c = _pair_cost(b1, b2)
            if c != INF:
                cands.add(c)
    for b in list(bars1) + list(bars2):
        h = _half_length(b)
        if h != INF:
            cands.add(h)
    cands = sorted(cands)
    lo, hi = 0, len(cands) - 1
    if not _perfect_matching_exists(bars1, bars2, cands[hi]):
        return INF
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching_exists(bars1, bars2, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


def _distortion_feasible(dx, dy, delta) -> bool:
    """Is there a correspondence with distortion <= delta?

    Any correspondence contains one of the form graph(phi) u
    graph(psi)^T for maps phi: X->Y, psi: Y->X, with no larger
    distortion.  The search assigns phi- and psi-values in interleaved
    order so the coupling constraints prune early, with all pairwise
    checks reduced to one precomputed boolean table over point pairs.
    """
    nx, ny = len(dx), len(dy)
    # ok[a*ny + b][c*ny + d]: the pairs (a, b), (c, d) of X x Y are
    # compatible, |dx[a][c] - dy[b][d]| <= delta
    npairs = nx * ny
    ok = [bytearray(npairs) for _ in range(npairs)]
    for a in range(nx):
        for b in range(ny):
            row = ok[a * ny + b]
            dxa = dx[a]
            for c in range(nx):
                dxac = dxa[c]
                dyb = dy[b]
                base = c * ny
                for d in range(ny):
                    if abs(dxac - dyb[d]) <= delta:
                        row[base + d] = 1

    # variables: phi(x_i) in Y and psi(y_j) in X, interleaved; each
    # assignment is a pair index into the table
    variables = []
    for k in range(max(nx, ny)):
        if k < nx:
            variables.append(("x", k))
        if k < ny:
            variables.append(("y", k))
    assigned = []

    def backtrack(v: int) -> bool:
        if v == len(variables):
            return True
        kind, k = variables[v]
        if kind == "x":
            candidates = (k * ny + b for b in range(ny))
        else:
            candidates = (a * ny + k for a in range(nx))
        for pair in candidates:
            row = ok[pair]
            if all(row[p] for p in assigned) and row[pair]:
                assigned.append(pair)
                if backtrack(v + 1):
                    return True
                assigned.pop()
        return False

    return backtrack(0)


def _integerize(dx, dy):
    dens = {v.denominator for row in dx for v in row}
    dens |= {v.denominator for row in dy for v in row}
    scale = 1
    for d in dens:
        scale = math.lcm(scale, d)
    ix = tuple(tuple(int(v * scale) for v in row) for row in dx)
    iy = tuple(tuple(int(v * scale) for v in row) for row in dy)
    return ix, iy, scale


def _is_exact(matrix):
    return all(isinstance(v, Fraction) for row in matrix for v in row)


def gh_bisection(dx, dy):
    """Gromov-Hausdorff distance of two distance matrices by the
    package's former algorithm: a bisection over every |dx - dy| value,
    each probe a backtracking search for a correspondence within it.
    Two all-`Fraction` matrices give a `Fraction`, anything else a
    `float`, as `gh_bruteforce` gives for the spaces holding them."""
    nx, ny = len(dx), len(dy)
    scale = None
    if _is_exact(dx) and _is_exact(dy):
        dx, dy, scale = _integerize(dx, dy)
    vals_x = {dx[i][j] for i in range(nx) for j in range(nx)}
    vals_y = {dy[i][j] for i in range(ny) for j in range(ny)}
    cands = sorted({abs(a - b) for a in vals_x for b in vals_y})
    lo, hi = 0, len(cands) - 1
    # cands[hi] is always feasible: distortion never exceeds max |dx-dy|
    while lo < hi:
        mid = (lo + hi) // 2
        if _distortion_feasible(dx, dy, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    best = cands[lo]
    if scale is not None:
        return Fraction(best, 2 * scale)
    return best * 0.5


def gh_exhaustive(dx, dy):
    """Gromov-Hausdorff distance of two distance matrices over every
    pair of maps phi: X->Y, psi: Y->X, with no pruning; for spaces of a
    few points."""
    nx, ny = len(dx), len(dy)
    best = None
    for phi in itertools.product(range(ny), repeat=nx):
        for psi in itertools.product(range(nx), repeat=ny):
            dis = 0
            for i, i2 in itertools.combinations_with_replacement(range(nx), 2):
                dis = max(dis, abs(dx[i][i2] - dy[phi[i]][phi[i2]]))
            for j, j2 in itertools.combinations_with_replacement(range(ny), 2):
                dis = max(dis, abs(dy[j][j2] - dx[psi[j]][psi[j2]]))
            for i in range(nx):
                for j in range(ny):
                    dis = max(dis, abs(dx[i][psi[j]] - dy[phi[i]][j]))
            if best is None or dis < best:
                best = dis
    return best / 2 if isinstance(best, float) else best * Fraction(1, 2)
