#!/usr/bin/env python3
"""Randomized audit of the lower-bound chain: for pairs of small exact
metric spaces, the cohomology-barcode bottleneck in degrees <= 2 must
stay below twice the exact Gromov-Hausdorff distance.

Usage: python3 scripts/stability_audit.py [trials] [seed] [out.json]

A trial count that is not a positive integer, or a seed that is not an
integer, exits 2 with a usage line on stderr.
"""

import json
import random
import sys
import time
from fractions import Fraction

from psmm.config import Config
from psmm.metric import gh_bruteforce, metric_from_matrix
from psmm.persistence import bottleneck
from psmm.pipeline import h_barcode
from psmm.util import num_to_json


def random_space(rng):
    n = rng.randint(2, 5)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(1, 9), 4)
            rows[i][j] = rows[j][i] = v
    return metric_from_matrix(rows)


USAGE = "usage: stability_audit.py [trials] [seed] [out.json]"


def _int_arg(text, name):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def main():
    args = sys.argv[1:]
    try:
        if len(args) > 3:
            raise ValueError("too many arguments")
        trials = _int_arg(args[0], "trials") if args else 200
        seed = _int_arg(args[1], "seed") if len(args) > 1 else 20260810
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
    except ValueError as e:
        print(f"{USAGE}\nstability_audit.py: error: {e}", file=sys.stderr)
        return 2
    out_path = args[2] if len(args) > 2 else None
    rng = random.Random(seed)
    cfg = Config(max_degree=2, max_dim=3)

    t0 = time.time()
    records = []
    violations = 0
    worst_ratio = Fraction(0)
    for k in range(trials):
        x, y = random_space(rng), random_space(rng)
        db = bottleneck(h_barcode(x, cfg), h_barcode(y, cfg))
        gh2 = 2 * gh_bruteforce(x, y)
        lhs = max((v for d, v in db.per_degree.items() if d <= 2), default=Fraction(0))
        ok = lhs <= gh2
        if not ok:
            violations += 1
        if gh2 > 0 and lhs / gh2 > worst_ratio:
            worst_ratio = lhs / gh2
        records.append({"trial": k, "dB_H": num_to_json(lhs),
                        "gh2": num_to_json(gh2), "holds": ok})

    elapsed = time.time() - t0
    print(f"{trials} trials, seed {seed}: {violations} violations, "
          f"worst dB_H/gh2 ratio {float(worst_ratio):.4f}, {elapsed:.1f}s")
    if out_path:
        with open(out_path, "w") as fh:
            json.dump({"seed": seed, "trials": trials, "violations": violations,
                       "records": records}, fh, indent=2, sort_keys=True)
        print(f"wrote {out_path}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
