"""Per-layer spans and counters, recorded from outside psmm.

A traced run replaces, at run time, the module-level functions and the
methods that psmm looks up when it calls them with wrappers that record
one span per call: name, start, end, parent span and op id.  A function
imported by name into several modules (`from .minmodel import
minimal_model` in `psmm.pipeline`, for instance) is replaced in every
psmm module that holds it, so calls made through any of those names are
seen.  `ColumnReducer.add` only counts calls and pivots.  Nothing in
`src/` changes, and an untraced run installs no wrapper at all.

Spans stay in memory during the run and are written out when it ends.
A span's self time is its duration minus the durations of its child
spans; calls are single-threaded (PSMM_THREADS=1), so children nest
inside their parent's interval.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, owner, attribute).  The owner is a module, or module:Class
# for methods.  The span name is <module>.<function> and prefixes the
# per-layer metric names.
SPANS = (
    ("cli.main", "psmm.cli", "main"),
    ("pipeline.persistent_model", "psmm.pipeline", "persistent_model"),
    ("pipeline.functoriality_check", "psmm.pipeline", "_check_functoriality"),
    ("pipeline.psm_to_json", "psmm.pipeline", "psm_to_json"),
    ("pipeline.h_barcode", "psmm.pipeline", "h_barcode"),
    ("metric.build_filtration", "psmm.metric", "build_filtration"),
    ("metric.gh_bruteforce", "psmm.metric", "gh_bruteforce"),
    ("cohomology.from_complex", "psmm.cohomology:CohomologyRing", "from_complex"),
    ("cohomology.rank_delta", "psmm.cohomology:StageCohomology", "rank_delta"),
    ("cohomology.h_reps", "psmm.cohomology:StageCohomology", "h_reps"),
    ("cohomology.class_of", "psmm.cohomology:StageCohomology", "class_of"),
    ("cohomology.cup_product", "psmm.cohomology", "cup_product"),
    ("cohomology.induced_ring_map", "psmm.cohomology", "induced_ring_map"),
    ("minmodel.minimal_model", "psmm.minmodel", "minimal_model"),
    ("minmodel.sullivan_representative", "psmm.minmodel", "sullivan_representative"),
    ("minmodel.verify_quasi_iso", "psmm.minmodel", "verify_quasi_iso"),
    ("cdga.linear_part_map", "psmm.cdga", "linear_part_map"),
    ("cdga.induced_cohomology_map", "psmm.cdga", "induced_cohomology_map"),
    ("persistence.barcode", "psmm.persistence:PersistentGVec", "barcode"),
    ("persistence.bottleneck", "psmm.persistence", "bottleneck"),
)

# Layers with spans; each gets a <module>.self_s total.
MODULES = ("cli", "pipeline", "metric", "cohomology", "minmodel", "cdga", "persistence")


def _filtration_counts(args, filt):
    return {
        "metric.stages": len(filt.stages),
        "metric.final_simplices": filt.stages[-1].simplex_count() if filt.stages else 0,
        "metric.stage_simplex_entries": sum(st.simplex_count() for st in filt.stages),
    }


def _ring_counts(args, ring):
    return {"cohomology.cone_stages": int(getattr(ring.engine, "_cone", None) is not None)}


def _model_counts(args, mm):
    return {
        "minmodel.generators": len(mm.model.generators),
        "minmodel.nonconverged_stages": int(not mm.deg1_converged),
    }


def _bottleneck_counts(args, result):
    return {"persistence.bottleneck.bars": args[0].total_bars() + args[1].total_bars()}


# Counters read off a span's arguments and result after it ends.
RESULT_COUNTS = {
    "metric.build_filtration": _filtration_counts,
    "cohomology.from_complex": _ring_counts,
    "minmodel.minimal_model": _model_counts,
    "persistence.bottleneck": _bottleneck_counts,
}

# Per-layer metrics in output order, with units.  Times and counts are
# per op, averaged over the traced run's ops.
PER_LAYER = (
    [("ratlin.reducer_adds", "count/op"), ("ratlin.reducer_pivots", "count/op"),
     ("ratlin.pivot_ratio", "ratio")]
    + [(f"{name}.self_s", "s/op") for name, _, _ in SPANS]
    + [(f"{name}.calls", "count/op") for name in (
        "cohomology.class_of", "cohomology.cup_product", "metric.gh_bruteforce",
        "minmodel.sullivan_representative", "persistence.bottleneck")]
    + [(counter, "count/op") for counter in (
        "metric.stages", "metric.final_simplices", "metric.stage_simplex_entries",
        "cohomology.cone_stages", "minmodel.generators", "minmodel.nonconverged_stages",
        "persistence.bottleneck.bars")]
    + [(f"{module}.self_s", "s/op") for module in MODULES]
    + [("trace.op_p50_s", "s")]
)


class Tracer:
    """Records spans and counters while an op is open."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op)
        self.counts = {}
        self._stack = []
        self._op = None

    # -- installation ---------------------------------------------------

    def install(self):
        for name, owner, attr in SPANS:
            mod_name, _, cls_name = owner.partition(":")
            target = sys.modules[mod_name]
            if cls_name:
                target = getattr(target, cls_name, None)
            raw = vars(target).get(attr) if target is not None else None
            if raw is None:
                # a refactor removed or renamed it: its metrics read 0
                print(f"trace: {owner}.{attr} not found, no {name} span", file=sys.stderr)
            elif isinstance(raw, staticmethod):
                setattr(target, attr, staticmethod(self._span(name, raw.__func__)))
            elif cls_name:
                setattr(target, attr, self._span(name, raw))
            else:
                wrapper = self._span(name, raw)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("psmm"):
                        for key, val in list(vars(mod).items()):
                            if val is raw:
                                setattr(mod, key, wrapper)
        from psmm.ratlin import ColumnReducer
        ColumnReducer.add = self._count_adds(ColumnReducer.add)

    def _span(self, name, fn):
        hook = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._op)
            if hook is not None:
                for key, val in hook(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + val
            return result
        return wrapper

    def _count_adds(self, add):
        counts = self.counts

        @functools.wraps(add)
        def wrapper(reducer, col):
            pivot = add(reducer, col)
            if self._op is not None:
                counts["ratlin.reducer_adds"] = counts.get("ratlin.reducer_adds", 0) + 1
                if pivot:
                    counts["ratlin.reducer_pivots"] = counts.get("ratlin.reducer_pivots", 0) + 1
            return pivot
        return wrapper

    # -- ops --------------------------------------------------------------

    def begin_op(self, op: int):
        self._op = op

    def end_op(self):
        self._op = None
        self._stack.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, n_ops: int, scale: float, traced_op_p50: float) -> dict:
        """Per-layer values in PER_LAYER order, averaged per op.  Times
        are multiplied by `scale`, the run's host-speed factor."""
        child = [0.0] * len(self.spans)
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = {}, {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[idx])
            calls[name] = calls.get(name, 0) + 1
        totals = dict(self.counts)
        for name, _, _ in SPANS:
            totals[f"{name}.self_s"] = self_s.get(name, 0.0)
            totals[f"{name}.calls"] = calls.get(name, 0)
        for module in MODULES:
            totals[f"{module}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == module)
        adds = totals.get("ratlin.reducer_adds", 0)
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "ratlin.pivot_ratio":
                value = totals.get("ratlin.reducer_pivots", 0) / adds if adds else 0.0
            elif metric == "trace.op_p50_s":
                value = traced_op_p50
            else:
                value = totals.get(metric, 0) / n_ops
                if unit == "s/op":
                    value *= scale
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """One JSON array per span: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
