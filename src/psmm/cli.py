"""Command-line entry points.

Exit codes: 0 success, 2 invalid input, 3 resource cap exceeded,
4 degree-1 non-convergence (output still written, flagged).  Data goes
to stdout when no -o is given; diagnostics go to stderr, each one line
that starts `error:` or `warning:`.  Same input and flags produce
byte-identical output.

Every command writes its output through `_write_json`, which streams
the bytes of `json.dumps(obj, sort_keys=True, indent=2)` to the output
in pieces, without the standard library's pure-Python encoder, the one
it uses whenever `indent` is set.  It writes a dict held in several
places of the tree (as `psm_to_json` shares the parts of shared models,
representatives and H maps) once per indent and repeats its text, and
it quotes a list of strings, such as a dense matrix row, in one join.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import warnings
from json.encoder import encode_basestring_ascii as _quote

from .cdga import sullivan_from_json
from .cohomology import ring_from_json
from .config import Config
from .errors import CapExceeded, InputError, LiftError, TruncationError
from .metric import MetricSpace, gh_bruteforce, load_metric
from .minmodel import minimal_model
from .pipeline import (
    _as_psm,
    barcodes_from_json,
    bounds_report,
    h_barcode,
    minimal_model_to_json,
    persistent_cdga_from_json,
    psm_to_json,
    v_barcode,
)
from .util import num_to_json

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CAP = 3
EXIT_DEG1 = 4


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"no such file: {path}") from e
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot decode {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}") from e
    except ValueError as e:  # an integer literal past the int-string limit
        raise InputError(f"{path}: {e}") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    return data


def _scalar(x) -> str:
    """A JSON scalar as `json.dumps` writes it: floats by repr, with NaN
    and +-Infinity for the non-finite ones."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _shared_dicts(obj) -> set:
    """The ids of the dicts that obj holds more than once, found in one
    iterative pass that enters each dict, list and tuple once."""
    seen, shared = set(), set()
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            items = x.values()
        elif isinstance(x, (list, tuple)):
            items = x
        else:
            continue
        if id(x) in seen:
            if isinstance(x, dict):
                shared.add(id(x))
            continue
        seen.add(id(x))
        if not _SCALAR_TYPES.issuperset(map(type, items)):
            stack.extend(items)
    return shared


def _write(obj, nl: str, put, shared: set, texts: dict):
    """Pass the text of obj to `put` in pieces; `nl` is a newline and the
    indent of obj's own level.  A dict whose id is in `shared` is
    written once per indent and its text kept in `texts`, keyed by
    (id, nl), for every later place that holds it."""
    if isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        if id(obj) in shared:
            key = (id(obj), nl)
            if key not in texts:
                parts: list = []
                _write_dict(obj, nl, parts.append, shared, texts)
                texts[key] = "".join(parts)
            put(texts[key])
            return
        _write_dict(obj, nl, put, shared, texts)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        try:  # a list of strings, such as a dense matrix row
            put("[" + inner + ("," + inner).join(map(_quote, obj)) + nl + "]")
            return
        except TypeError:
            pass
        if not any(isinstance(x, (dict, list, tuple)) for x in obj):
            put("[" + inner + ("," + inner).join(map(_scalar, obj)) + nl + "]")
            return
        sep = "[" + inner
        for x in obj:
            put(sep)
            _write(x, inner, put, shared, texts)
            sep = "," + inner
        put(nl + "]")
    else:
        put(_scalar(obj))


def _write_dict(obj: dict, nl: str, put, shared: set, texts: dict):
    inner = nl + "  "
    sep = "{" + inner
    for key in sorted(obj):
        put(sep + _quote(key) + ": ")
        _write(obj[key], inner, put, shared, texts)
        sep = "," + inner
    put(nl + "}")


def _write_json(obj, put):
    """Pass the text of `json.dumps(obj, sort_keys=True, indent=2)`, byte
    for byte, to `put` in pieces, for a tree of dicts with str keys,
    lists, tuples and JSON scalars.  A dict the tree holds in more than
    one place (`psm_to_json` shares them) is written once per indent;
    only those dicts keep their text, so the copies held stay bounded by
    the shared part of the output."""
    _write(obj, "\n", put, _shared_dicts(obj), {})


def _emit(obj: dict, output: str | None):
    """Write obj's JSON text and a newline to the file `output`, or to
    stdout, as the writer makes its pieces: the whole text is never held
    at once.  A write to a regular file that fails part-way removes the
    file, so it never holds part of a dump."""
    if not output:
        _write_json(obj, sys.stdout.write)
        sys.stdout.write("\n")
        return
    try:
        with open(output, "w") as fh:
            try:
                _write_json(obj, fh.write)
                fh.write("\n")
                fh.flush()
            except BaseException:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    os.remove(output)
                raise
    except OSError as e:
        raise InputError(f"cannot write {output}: {e.strerror or e}") from e


# The input kinds, as an error message names them.
DUMP, METRIC, CDGA = "a model dump", "a metric space", "a persistent CDGA"
RING, SULLIVAN = "a cohomology ring", "a Sullivan algebra"


def _load(path: str, cfg: Config, *kinds: str):
    """The input in the file at `path`, parsed as the first of `kinds`
    whose keys it has, tested in the order of the kinds above: a model
    dump (returned as its dict) has `format` "psmm-model"; a metric space
    `points` or `distance_matrix`; a persistent CDGA `stages`, which a
    dump has too; a cohomology ring `cohomology_ring`; a Sullivan algebra
    `generators`."""
    data = _read_json(path)
    dump = data.get("format") == "psmm-model"
    if DUMP in kinds and dump:
        return data
    if METRIC in kinds and ("points" in data or "distance_matrix" in data):
        return load_metric(data)
    if CDGA in kinds and "stages" in data and not dump:
        return persistent_cdga_from_json(data, min_trunc=cfg.max_degree + 2)
    if RING in kinds and "cohomology_ring" in data:
        return ring_from_json(data["cohomology_ring"], min_max_deg=cfg.max_degree + 1)
    if SULLIVAN in kinds and "generators" in data:
        return sullivan_from_json(data, min_trunc=cfg.max_degree + 2)
    raise InputError(f"{path}: expected {' or '.join(kinds)}")


def _config_from_args(args) -> Config:
    """The run flags given; an omitted one keeps its `Config` default."""
    return Config(**{k: v for k, v in vars(args).items()
                     if k in Config.__dataclass_fields__ and v is not None})


# The run flags, each stored under its `Config` field's name; each command
# registers the ones it reads.
_FLAGS = {
    "--max-degree": {"type": int},
    "--max-dim": {"type": int, "help": "simplex dimension cap (default max_degree + 1)"},
    "--deg1-cap": {"type": int, "help": "iterations for the degree-1 extension"},
    "--simplex-cap": {"type": int},
    "--gh-cap": {"type": int, "help": "cap on |X|*|Y| for the exact branch-and-bound "
                                      "Gromov-Hausdorff"},
}
_MODEL_FLAGS = ("--max-degree", "--max-dim", "--deg1-cap", "--simplex-cap")


def _add_flags(p: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("-o", "--output")


def cmd_model(args) -> int:
    cfg = _config_from_args(args)
    psm = _as_psm(_load(args.input, cfg, METRIC, CDGA), cfg)
    _emit(psm_to_json(psm), args.output)
    if psm.nonconverged_stages:
        print(f"warning: degree-1 construction did not converge at stages "
              f"{psm.nonconverged_stages}", file=sys.stderr)
        return EXIT_DEG1
    return EXIT_OK


def cmd_barcode(args) -> int:
    cfg = _config_from_args(args)
    x = _load(args.input, cfg, DUMP, METRIC, CDGA)
    code = EXIT_OK
    if isinstance(x, dict):  # a model dump
        vb, hb = barcodes_from_json(x)
        bc = vb if args.invariant == "V" else hb
        if x.get("nonconverged_stages"):
            code = EXIT_DEG1
    elif args.invariant == "H" and isinstance(x, MetricSpace):
        # the cohomology barcode needs no models, so none are built
        bc = h_barcode(x, cfg)
    else:
        psm = _as_psm(x, cfg)
        bc = v_barcode(psm) if args.invariant == "V" else h_barcode(psm)
        if psm.nonconverged_stages:
            code = EXIT_DEG1
    _emit({"invariant": args.invariant, "barcode": bc.to_json()}, args.output)
    if code == EXIT_DEG1:
        print("warning: degree-1 non-convergence; barcode flagged", file=sys.stderr)
    return code


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    left = _load(args.left, cfg, METRIC, CDGA)
    right = _load(args.right, cfg, METRIC, CDGA)
    report = bounds_report(left, right, cfg, with_gh=args.gh)
    _emit(report.to_json(), args.output)
    print(report.table(), file=sys.stderr)
    return EXIT_OK


def cmd_minimal_model(args) -> int:
    cfg = _config_from_args(args)
    alg = _load(args.input, cfg, RING, SULLIVAN)
    mm = minimal_model(alg, cfg.max_degree, cfg.deg1_cap)
    _emit({"format": "psmm-minimal-model", "is_minimal": mm.model.is_minimal(),
           **minimal_model_to_json(mm)}, args.output)
    if not mm.deg1_converged:
        print("warning: degree-1 construction did not converge", file=sys.stderr)
        return EXIT_DEG1
    return EXIT_OK


def cmd_gh(args) -> int:
    cfg = _config_from_args(args)
    x = _load(args.left, cfg, METRIC)
    y = _load(args.right, cfg, METRIC)
    val = gh_bruteforce(x, y, cfg.gh_cap)
    _emit({"gh": num_to_json(val), "gh2": num_to_json(2 * val)}, args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared after it: callers
    read it and do not change it."""
    ap = argparse.ArgumentParser(
        prog="psmm",
        description="Persistent minimal models of Rips filtrations: "
                    "homotopy and cohomology barcodes with lower-bound reports.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="persistent model dump from a metric "
                                     "space or persistent CDGA")
    p.add_argument("--input", required=True)
    _add_flags(p, *_MODEL_FLAGS)
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("barcode", help="V or H barcode")
    p.add_argument("--input", required=True,
                   help="metric space, persistent CDGA, or model dump")
    p.add_argument("--invariant", choices=("V", "H"), required=True)
    _add_flags(p, *_MODEL_FLAGS)
    p.set_defaults(fn=cmd_barcode)

    p = sub.add_parser("compare", help="lower-bound report for two inputs")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--gh", action="store_true",
                   help="include the exact branch-and-bound 2*d_GH upper bound")
    _add_flags(p, *_MODEL_FLAGS, "--gh-cap")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("minimal-model", help="minimal model of one CDGA file")
    p.add_argument("--input", required=True)
    _add_flags(p, "--max-degree", "--deg1-cap")
    p.set_defaults(fn=cmd_minimal_model)

    p = sub.add_parser("gh", help="exact branch-and-bound Gromov-Hausdorff distance")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_flags(p, "--gh-cap")
    p.set_defaults(fn=cmd_gh)
    return ap


def _warn_line(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn_line
            return args.fn(args)
    except (InputError, TruncationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except LiftError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
