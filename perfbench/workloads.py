"""The benchmark's four workloads.

Each workload makes a pool of `pool` inputs from the seed when it is
constructed (this is part of set-up time), runs one op of user work on
input k in `op(k)` (timed), and checks that op's output in
`check(k, result)` (untimed), returning an error message or None.  A run
cycles through the pool, so every input is timed several times.
Ops call psmm only through module attributes (`cli.main`,
`pipeline.h_barcode`, ...), so the wrappers of a traced run see them.
Why each workload was chosen is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from psmm import cli, metric, persistence, pipeline
from psmm.config import Config
from psmm.persistence import INF, Barcode

DEFAULT_SEED = 20260810
HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


def _load_file(root: Path, rel: str):
    """Import a repository file that is not part of the package."""
    path = root / rel
    if not path.is_file():
        raise FileNotFoundError(f"{rel} is missing from this checkout")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _barcode_digest(vb: Barcode, hb: Barcode) -> str:
    blob = json.dumps({"V": vb.to_json(), "H": hb.to_json()}, sort_keys=True)
    return _sha256(blob.encode())


class _ModelDump:
    """`psmm model` through `psmm.cli.main` in-process, then the V and H
    barcodes read back from the dump."""

    max_degree: int

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.inputs = self.write_inputs(random.Random(seed))
        self.output = workdir / f"{self.name}-model.json"

    def op(self, k: int):
        path = self.inputs[k]
        code = cli.main(["model", "--input", str(path), "--max-degree",
                         str(self.max_degree), "-o", str(self.output)])
        if code != 0:
            raise RuntimeError(f"psmm model exited with code {code}")
        blob = self.output.read_bytes()
        vb, hb = pipeline.barcodes_from_json(json.loads(blob))
        return blob, vb, hb


class Circle(_ModelDump):
    """The regular geodesic circle of scripts/circle_experiment.py with 13
    points, at max degree 4."""

    name = "circle"
    max_degree = 4
    n = 13
    pool = 1

    def write_inputs(self, rng):
        # The regular circle has no random part, so every seed gets the
        # same input.  Relabelling the points would not do: the labels set
        # the elimination order, and shuffled labels moved op time by 30%.
        n = self.n
        rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
                for i in range(n)]
        path = self.workdir / "circle-input.json"
        path.write_text(json.dumps({"distance_matrix": rows}))
        return [path]

    def check(self, k, result):
        blob, vb, hb = result
        expected = EXPECTED["circle"]
        if _sha256(blob) != expected["dump_sha256"]:
            return "dump differs from the recorded one"
        if _barcode_digest(vb, hb) != expected["barcodes_sha256"]:
            return "V/H barcodes differ from the recorded ones"
        return None


class Annulus(_ModelDump):
    """An 8-point noisy planar annulus per input at max degree 2:
    radius 1 +- 0.15, angle jitter +- 0.1 around 8 equal angles."""

    name = "annulus"
    max_degree = 2
    n = 8
    pool = 32

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.oracles = _load_file(root, "tests/oracles.py")
        self.oracle_bars = {}  # input -> H bars of the oracle, made on first use

    def write_inputs(self, rng):
        self.points = []
        paths = []
        for k in range(self.pool):
            pts = []
            for i in range(self.n):
                angle = 2 * math.pi * i / self.n + rng.uniform(-0.1, 0.1)
                radius = rng.uniform(0.85, 1.15)
                pts.append([radius * math.cos(angle), radius * math.sin(angle)])
            path = self.workdir / f"annulus-input-{k}.json"
            path.write_text(json.dumps({"points": pts}))
            self.points.append(pts)
            paths.append(path)
        return paths

    def _oracle(self, k):
        if k not in self.oracle_bars:
            space = metric.metric_from_points(self.points[k])
            filt = metric.build_filtration(space, self.max_degree + 1)
            oracle = self.oracles.parameter_bars(filt, self.max_degree)
            self.oracle_bars[k] = [
                sorted((float(b), INF if e is None else float(e)) for (b, e) in oracle.get(deg, []))
                for deg in range(self.max_degree + 1)]
        return self.oracle_bars[k]

    def check(self, k, result):
        blob, _, hb = result
        if self.seed == DEFAULT_SEED and _sha256(blob) != EXPECTED["annulus"]["dump_sha256"][k]:
            return f"dump of annulus {k} differs from the one recorded at the default seed"
        for deg, want in enumerate(self._oracle(k)):
            got = sorted((float(b), float(e)) for (b, e, m) in hb.degree(deg) for _ in range(m))
            if got != want:
                return f"H barcode of annulus {k} differs from the reduction oracle in degree {deg}"
        return None


class Audit:
    """Pairs of exact 2-5-point spaces from scripts/stability_audit.py:
    H barcodes of both, their bottleneck distance, and brute-force GH."""

    name = "audit"
    per_sizes = 40  # pairs for each of the 16 pairs of sizes (2-5, 2-5)
    pool = 16 * per_sizes
    cfg = Config(max_degree=2, max_dim=3)

    def __init__(self, root, seed, workdir):
        # The script's own draws, in its order, keeping the first
        # `per_sizes` pairs of each pair of sizes: op time grows steeply
        # with the sizes, so a fixed mix keeps seeds comparable.
        random_space = _load_file(root, "scripts/stability_audit.py").random_space
        rng = random.Random(seed)
        by_sizes = {}
        while len(by_sizes) < 16 or min(map(len, by_sizes.values())) < self.per_sizes:
            x, y = random_space(rng), random_space(rng)
            group = by_sizes.setdefault((x.n, y.n), [])
            if len(group) < self.per_sizes:
                group.append((x, y))
        self.pairs = [pair for sizes in sorted(by_sizes) for pair in by_sizes[sizes]]

    def op(self, k):
        x, y = self.pairs[k]
        db = persistence.bottleneck(pipeline.h_barcode(x, self.cfg),
                                    pipeline.h_barcode(y, self.cfg))
        return db, 2 * metric.gh_bruteforce(x, y)

    def check(self, k, result):
        db, gh2 = result
        lhs = max((v for d, v in db.per_degree.items() if d <= 2), default=Fraction(0))
        if not lhs <= gh2:
            return f"pair {k}: dB_H = {lhs} exceeds 2*d_GH = {gh2}"
        return None


class Bottleneck:
    """`persistence.bottleneck` between a seeded barcode with about 30
    bars in each of degrees 0 and 1 and an eps-perturbation of it."""

    name = "bottleneck"
    pool = 96  # pairs: more than a run's ops, so that its p90 is not the
               # repeats of one or two slow pairs
    bars = 30  # per degree, before equal bars merge
    eps = Fraction(1, 5)
    unit = Fraction(1, 40)  # grid of endpoints and shifts

    def __init__(self, root, seed, workdir):
        rng = random.Random(seed)
        self.symmetry_checked = False
        self.pairs = []
        for _ in range(self.pool):
            bars = self._bars(rng)
            self.pairs.append((Barcode.from_dict(bars),
                               Barcode.from_dict(self._perturb(rng, bars))))

    def _bars(self, rng):
        u = self.unit
        # degree 0: births at 0 and one essential class
        deg0 = [(Fraction(0), INF, 1)] + [(Fraction(0), rng.randint(20, 400) * u, 1)
                                          for _ in range(self.bars - 1)]
        deg1 = []
        for _ in range(self.bars):
            birth = rng.randint(8, 320) * u
            deg1.append((birth, birth + rng.randint(20, 160) * u, 1))
        return {0: deg0, 1: deg1}

    def _perturb(self, rng, bars):
        # every bar is at least 1/2 long, so shifts of at most eps keep b < d
        k = int(self.eps / self.unit)

        def shift(x):
            return x if x == INF else x + rng.randint(-k, k) * self.unit
        return {deg: [(b if deg == 0 else shift(b), shift(d), m) for (b, d, m) in group]
                for deg, group in bars.items()}

    def op(self, k):
        a, b = self.pairs[k]
        return persistence.bottleneck(a, b)

    def check(self, k, result):
        if not result.sup <= self.eps:
            return f"pair {k}: d_B = {result.sup} exceeds eps = {self.eps}"
        if k == 0 and not self.symmetry_checked:
            self.symmetry_checked = True
            a, b = self.pairs[0]
            if persistence.bottleneck(b, a).per_degree != result.per_degree:
                return "d_B(a, b) != d_B(b, a) on pair 0"
        return None


WORKLOADS = {w.name: w for w in (Circle, Annulus, Audit, Bottleneck)}
