#!/usr/bin/env python3
"""Rips pipeline on a regular geodesic-circle sample.

Prints the rational-homotopy (V) and cohomology (H) barcodes next to
the ideal transition values of the circle, whose Rips stages are odd
spheres on the intervals ((2l/(2l+1))pi, ((2l+2)/(2l+3))pi].

Usage: python3 scripts/circle_experiment.py [n_points] [max_degree]

A point count that is not a positive integer, a max degree that is not
a nonnegative integer, or a third argument exits 2 with a usage line on
stderr.
"""

import math
import sys
import time

from psmm.config import Config
from psmm.metric import metric_from_matrix
from psmm.pipeline import h_barcode, persistent_model, v_barcode


def circle_space(n):
    rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
            for i in range(n)]
    return metric_from_matrix(rows)


USAGE = "usage: circle_experiment.py [n_points] [max_degree]"


def _int_arg(text, name, least):
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def main():
    args = sys.argv[1:]
    try:
        if len(args) > 2:
            raise ValueError("too many arguments")
        n = _int_arg(args[0], "n_points", 1) if args else 20
        max_degree = _int_arg(args[1], "max_degree", 0) if len(args) > 1 else 4
    except ValueError as e:
        print(f"{USAGE}\ncircle_experiment.py: error: {e}", file=sys.stderr)
        return 2
    print(f"{n} regular points, geodesic circle of circumference 2pi, "
          f"max degree {max_degree}")
    t0 = time.time()
    psm = persistent_model(circle_space(n), Config(max_degree=max_degree))
    vb, hb = v_barcode(psm), h_barcode(psm)
    print(f"pipeline: {time.time() - t0:.1f}s, {psm.num_stages} stages")

    for label, bc in (("V", vb), ("H", hb)):
        print(f"\n{label} barcode:")
        for deg in bc.degrees():
            for (b, e, m) in bc.degree(deg):
                # endpoints may be exact Fractions, which take no float format spec
                end = "inf" if e == math.inf else f"{float(e):.4f}"
                mult = f" x{m}" if m > 1 else ""
                print(f"  degree {deg}: ({float(b):.4f}, {end}]{mult}")

    print("\nideal circle transitions (odd spheres):")
    for l in range(3):
        lo = 2 * l / (2 * l + 1) * math.pi
        hi = (2 * l + 2) / (2 * l + 3) * math.pi
        print(f"  S^{2 * l + 1} on ({lo:.4f}, {hi:.4f}]")
    if psm.caveats():
        print("\ncaveats:")
        for c in psm.caveats():
            print(f"  {c}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
