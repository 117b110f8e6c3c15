"""One workload in its own process: set up, run ops in a closed loop,
print the raw results as one JSON line.

Started by run.py, which sets the address-space limit and
PSMM_THREADS=1 and passes the monotonic time at which it spawned this
process, so that set-up time covers interpreter start, importing psmm,
and making and writing the inputs.

Between ops, and right after set-up, the worker times a fixed reference
loop that does not touch psmm.  The host is shared, and its speed drifts
by tens of percent within seconds and over minutes; the reference loop
runs slower by nearly the same factor as psmm does.  Each op time is
multiplied by REF_NOMINAL_S / (mean reference-loop time in the
WINDOW_S-long stretch of the run where the op started), and set-up time
by the same ratio taken right after set-up.  That gives seconds on a
host where the reference loop takes REF_NOMINAL_S.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOP_WALL_CAP_S = 120.0  # stop starting ops after this, whatever --seconds says
REF_NOMINAL_S = 0.0005  # reference-loop time on the 2-vCPU Xeon VM when its host is
                        # quiet: its fastest runs there take 0.49-0.50 ms
REF_EVERY_S = 0.02  # after an op, time reference loops once this long has passed
REF_SHARE = 0.05  # ... for this share of the time since the previous ones
WINDOW_S = 2.0  # stretch of the run over which host speed is averaged
SETUP_REFS = 100  # reference loops timed right after set-up


def reference_loop():
    """Fixed pure-Python work of the kinds psmm does: Fraction arithmetic,
    tuple keys and dict updates."""
    acc = Fraction(0)
    table = {}
    for k in range(1, 200):
        acc += Fraction(k % 7 + 1, k)
        key = (k % 13, k % 11)
        table[key] = table.get(key, 0) + k
    return acc, len(table)


def time_reference(refs: list, budget_s: float = 0.0):
    """Time reference loops, at least one, until they took budget_s;
    append (start, seconds) of each to refs."""
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        refs.append((t0, dt))
        spent += dt
        if spent >= budget_s:
            return


def window_scales(refs: list, start: float) -> dict:
    """Window index -> REF_NOMINAL_S / mean reference time in it; key
    None holds the factor over the whole run."""
    by_window = {None: [dt for _, dt in refs]}
    for t, dt in refs:
        by_window.setdefault(int((t - start) // WINDOW_S), []).append(dt)
    return {w: REF_NOMINAL_S / statistics.fmean(v) for w, v in by_window.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "psmm" / "__init__.py").is_file():
        print(f"error: no psmm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
    setup_s = time.monotonic() - args.spawned_at
    setup_refs = []
    for _ in range(SETUP_REFS):
        time_reference(setup_refs)
    setup_scale = window_scales(setup_refs, 0.0)[None]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * setup_scale}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # Round robin over the input pool, at least once through it.
    op_s, op_start, refs, errors = [], [], [], []
    timed = 0.0
    loop_start = last_ref = time.perf_counter()
    i = 0
    while i < wl.pool or (timed < args.seconds
                          and time.perf_counter() - loop_start < LOOP_WALL_CAP_S):
        k = i % wl.pool
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = wl.op(k)
            error = None
        except Exception as e:  # a failed op is counted, and the loop goes on
            result, error = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op()
        if error is None:
            error = wl.check(k, result)
        result = None
        if error is not None:
            errors.append(f"op {i}: {error}")
        op_s.append(t1 - t0)
        op_start.append(t0)
        timed += t1 - t0
        i += 1
        now = time.perf_counter()
        if now - last_ref >= REF_EVERY_S:
            time_reference(refs, (now - last_ref) * REF_SHARE)
            last_ref = time.perf_counter()
    if not refs:
        time_reference(refs)

    scales = window_scales(refs, loop_start)
    op_scale = [scales.get(int((t0 - loop_start) // WINDOW_S), scales[None]) for t0 in op_start]
    scaled = [dt * f for dt, f in zip(op_s, op_scale)]
    out = {
        "op_s": scaled,
        "wall_op_s": op_s,
        "scale": scales[None],
        "refs": len(refs),
        "pool": wl.pool,
        "failed": len(errors),
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s * setup_scale,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(len(op_s), sum(scaled) / sum(op_s),
                                             statistics.median(scaled))
        traces = ROOT / ".perfbench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
