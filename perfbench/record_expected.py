#!/usr/bin/env python3
"""Re-record expected.json: the sha256 digests of the `psmm model` dumps
of the circle and annulus workloads at the default seed.

    python3 perfbench/record_expected.py

Run from the root of a psmm checkout, and only in a change that alters
the dump bytes or the workload inputs on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    os.environ["PSMM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        seed = workloads.DEFAULT_SEED
        circle = workloads.Circle(ROOT, seed, workdir)
        blob, vb, hb = circle.op(0)
        annulus = workloads.Annulus(ROOT, seed, workdir)
        expected = {
            "circle": {"dump_sha256": workloads._sha256(blob),
                       "barcodes_sha256": workloads._barcode_digest(vb, hb)},
            "annulus": {"dump_sha256": [workloads._sha256(annulus.op(k)[0])
                                        for k in range(annulus.pool)]},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {HERE / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
