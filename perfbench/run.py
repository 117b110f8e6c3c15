#!/usr/bin/env python3
"""psmm benchmark.

    python3 perfbench/run.py --workload circle --seed 20260810 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a psmm checkout.  One invocation runs one workload
(circle, annulus, audit or bottleneck) in its own child process
(worker.py) under an address-space limit with PSMM_THREADS=1, between
set-up-only children that give setup_s.  Ops run single-threaded in
a closed loop, cycling through the workload's inputs, until their summed
wall time reaches --seconds.  Every time reported is wall time scaled to
a quiet host by a reference loop timed alongside (worker.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  --self-test runs
every workload for a few ops both ways and checks the metric names and
units against BENCHMARK.json.  README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260810  # also in workloads.py, which the parent does not import
WORKLOAD_NAMES = ("circle", "annulus", "audit", "bottleneck")
MEMORY_LIMIT_BYTES = 1 << 30
SETUP_PROBES = 4  # set-up-only children before and again after the worker:
                  # setup_s is a median of 9 set-ups from both ends of the run
TIMEOUT_S = 170.0  # the whole invocation
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many inputs' ops beyond it,
TAIL_MIN_PCT = 90.0  # but not below this one

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def _spawn(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line."""
    env = dict(os.environ, PSMM_THREADS="1")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spawned-at", repr(spawned_at)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            preexec_fn=_limit_memory)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _tail(op_s: list, pool: int):
    """(value, percentile, ops beyond it) for op_tail_s.

    The highest nearest-rank percentile with TAIL_BEYOND ops beyond it,
    or, where the run timed each of its `pool` inputs several times,
    TAIL_BEYOND inputs' worth of ops: otherwise the repeats of one or two
    slow inputs would make the tail, and it would move with the seed.
    Never below p90, which is where the workloads with fewer inputs land.
    """
    ordered = sorted(op_s)
    n = len(ordered)
    beyond = TAIL_BEYOND * max(n / pool, 1.0)
    pct = max(TAIL_MIN_PCT, 100.0 * (n - beyond) / n)
    rank = max(math.ceil(pct * n / 100 - 1e-9), 1)
    return ordered[rank - 1], pct, n - rank


def run(args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probes = 0 if args.trace else SETUP_PROBES  # a traced run reports no setup_s
    try:
        setups = [_spawn(args, workdir, True, deadline)["setup_s"] for _ in range(probes)]
        raw = _spawn(args, workdir, False, deadline)
        setups += [_spawn(args, workdir, True, deadline)["setup_s"] for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(raw["setup_s"])

    op_s = raw["op_s"]
    attempted, failed = len(op_s), raw["failed"]
    tail, pct, beyond = _tail(op_s, raw["pool"])
    for err in raw["errors"]:
        print(f"{args.workload}: {err}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, "
          f"{failed} failed (fail_rate {failed / attempted}); op_tail_s is p{pct:.4g} "
          f"with {beyond} ops beyond it; host-speed scale {raw['scale']:.4f} from "
          f"{raw['refs']} reference loops; wall op p50 {statistics.median(raw['wall_op_s']):.6g} s")

    if args.trace:
        metrics = raw["layers"]
    else:
        values = {
            "ops_per_s": (attempted - failed) / sum(op_s),
            "op_p50_s": statistics.median(op_s),
            "op_tail_s": tail,
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_test() -> int:
    """Every workload for a few ops, untraced and traced: each metric of
    BENCHMARK.json appears with its unit, and no op fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=wl["name"], seed=DEFAULT_SEED,
                                      seconds=1, trace=trace)
            try:
                result = run(args)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                problems.append(f"{wl['name']} trace {trace}: {e}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{wl['name']} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                problems.append(f"{wl['name']} trace {trace}: "
                                f"{result['failed']} of {result['attempted']} ops failed")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
