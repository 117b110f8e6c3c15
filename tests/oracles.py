"""Independent test oracles.

Persistent homology by straight boundary-matrix reduction over Q,
written against the raw filtration data, and the cohomology engine's
former kernel-mod-image algorithm, both deliberately sharing no code
with the package's cohomology, persistence or linear-algebra machinery.
"""

from fractions import Fraction


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


def _delta_dense(lower, upper):
    li = {s: i for i, s in enumerate(lower)}
    rows = [[Fraction(0)] * len(lower) for _ in upper]
    for ui, t in enumerate(upper):
        for sign, face in _boundary(t):
            rows[ui][li[face]] = Fraction(sign)
    return rows


def _dense_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / pr[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        r += 1
        rank += 1
    return rank


class _Reducer:
    """Lowest-row column reduction of sparse {row: Fraction} columns
    that records, per column, its combination of the input columns."""

    def __init__(self):
        self.pivots = {}  # low row -> (reduced column, combination)
        self.kernel = []
        self.ncols = 0

    def add(self, col) -> bool:
        col = {r: Fraction(v) for r, v in col.items() if v}
        combo = {self.ncols: Fraction(1)}
        self.ncols += 1
        while col:
            low = max(col)
            if low not in self.pivots:
                self.pivots[low] = (col, combo)
                return True
            pcol, pcombo = self.pivots[low]
            f = col[low] / pcol[low]
            for target, source in ((col, pcol), (combo, pcombo)):
                for r, v in source.items():
                    nv = target.get(r, Fraction(0)) - f * v
                    if nv == 0:
                        target.pop(r, None)
                    else:
                        target[r] = nv
        self.kernel.append(combo)
        return False


def greedy_cohomology_reps(cols_k, nup_k, cols_below):
    """Representative cocycles of H^k by the cohomology engine's former
    algorithm: the recorded kernel of all of d^k (columns `cols_k` with
    `nup_k` rows, which only bound the row indices), then each kernel
    vector in turn kept iff it is independent of im d^{k-1} (the
    columns `cols_below`) and of the vectors kept before it."""
    kernel = _Reducer()
    for c in cols_k:
        assert all(r < nup_k for r in c)
        kernel.add(c)
    quotient = _Reducer()
    for c in cols_below:
        quotient.add(c)
    return [dict(z) for z in kernel.kernel if quotient.add(z)]
