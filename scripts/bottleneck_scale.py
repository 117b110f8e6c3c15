#!/usr/bin/env python3
"""Time one degree-0 bottleneck distance of n bars a side.

The first barcode holds one essential bar (0, inf) and n - 1 bars
(0, k/40] with k drawn from 20..400; the second shifts each finite
death by up to 8/40 either way.  Both come from `random.Random(0)`, so
the distance is at most 1/5.  Prints the distance, the seconds
`persistence.bottleneck` took and how far it raised the process's peak
RSS (`ru_maxrss`).

Usage: python3 scripts/bottleneck_scale.py N

An N that is not a positive integer, a missing N or a second argument
exits 2 with a usage line on stderr.
"""

import random
import resource
import sys
import time
from fractions import Fraction

from psmm.persistence import INF, Barcode, bottleneck

USAGE = "usage: bottleneck_scale.py N"


def barcode_pair(n):
    rng = random.Random(0)
    deaths = [rng.randint(20, 400) for _ in range(n - 1)]
    shifted = [k + rng.randint(-8, 8) for k in deaths]
    return tuple(Barcode.from_dict({0: [(Fraction(0), INF, 1)]
                                    + [(Fraction(0), Fraction(k, 40), 1) for k in ks]})
                 for ks in (deaths, shifted))


def main():
    args = sys.argv[1:]
    try:
        if len(args) != 1:
            raise ValueError("expected one argument")
        try:
            n = int(args[0])
        except ValueError:
            raise ValueError(f"N must be an integer, got {args[0]!r}") from None
        if n < 1:
            raise ValueError(f"N must be at least 1, got {n}")
    except ValueError as e:
        print(f"{USAGE}\nbottleneck_scale.py: error: {e}", file=sys.stderr)
        return 2
    a, b = barcode_pair(n)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    d = bottleneck(a, b).sup
    seconds = time.perf_counter() - t0
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
    print(f"bars: {n}")
    print(f"distance: {d}")
    print(f"seconds: {seconds:.3f}")
    print(f"ru_maxrss growth: {grown / 1024:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
