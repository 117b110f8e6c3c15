"""The runnable scripts under scripts/, run as a user runs them, and a
lint over the source, test and script files."""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import psmm

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(psmm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


def test_stability_audit_smoke():
    proc = run_script("stability_audit.py", "20")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "20 trials, seed 20260810: 0 violations" in proc.stdout


@pytest.mark.parametrize("args", [("-5",), ("0",), ("2.5",), ("many",), ("5", "seed"),
                                  ("5", "1", "out.json", "extra")])
def test_stability_audit_rejects_bad_arguments(args):
    proc = run_script("stability_audit.py", *args)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("usage: stability_audit.py")
    assert "violations" not in proc.stdout


@pytest.mark.parametrize("args", [("13", "2"), ("1", "0")])
def test_circle_experiment_smoke(args):
    # one point has no positive distance, so its bars have exact Fraction ends
    proc = run_script("circle_experiment.py", *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "\nV barcode:\n" in proc.stdout and "\nH barcode:\n" in proc.stdout


@pytest.mark.parametrize("args", [("abc",), ("0",), ("5", "-1"), ("5", "two"),
                                  ("5", "1", "extra")])
def test_circle_experiment_rejects_bad_arguments(args):
    proc = run_script("circle_experiment.py", *args)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("usage: circle_experiment.py")
    assert "barcode" not in proc.stdout


def test_bottleneck_scale_smoke():
    proc = run_script("bottleneck_scale.py", "200")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert lines["bars"] == "200"
    assert 0 <= Fraction(lines["distance"]) <= Fraction(1, 5)
    assert float(lines["seconds"]) >= 0
    assert lines["ru_maxrss growth"].endswith(" MiB")


@pytest.mark.parametrize("args", [(), ("0",), ("-3",), ("2.5",), ("many",), ("5", "extra")])
def test_bottleneck_scale_rejects_bad_arguments(args):
    proc = run_script("bottleneck_scale.py", *args)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("usage: bottleneck_scale.py")
    assert "distance" not in proc.stdout


def test_trace_hooks_resolve():
    """Every function or method the benchmark's tracer wraps is still
    where `perfbench/tracing.py` looks it up; one that a refactor moved
    would only print `trace: ... not found` and read 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    missing = []
    for name, owner, attr in tracing.SPANS:
        mod_name, _, cls_name = owner.partition(":")
        target = importlib.import_module(mod_name)
        if cls_name:
            target = getattr(target, cls_name, None)
        if target is None or vars(target).get(attr) is None:
            missing.append(f"{owner}.{attr}")
    assert len(tracing.SPANS) == 20 and missing == []


def unused_imports(path):
    """(line, name) of each name `path` imports and never reads; names
    listed in `__all__` count as read, `from __future__` imports not at
    all."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p)
             for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))}
    assert {p: names for p, names in found.items() if names} == {}


# Definitions in src/ that src/ never reads, each with the reader that
# keeps it.
UNREAD_BY_SRC = {
    "total_bars": "perfbench/tracing.py counts the bars of each barcode with it",
    "simplex_count": "perfbench/tracing.py counts the simplices of each filtration with it",
    "positive_distances": "tests read a space's distances as values through it",
    "enclosing_radius": "tests check the cone stages against it; radius_key is its key",
    "from_rows": "tests build matrices from dense rows with it",
    "tolist": "tests read matrices as dense rows through it",
}


def unread_definitions(paths):
    """Names of the functions and methods defined in `paths` that no
    file there reads, as a name or as an attribute; dunder methods are
    read by the interpreter and are left out."""
    defined, read = {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {name: where for name, where in defined.items()
            if name not in read and not (name.startswith("__") and name.endswith("__"))}


def test_no_unread_definitions():
    found = unread_definitions(sorted((ROOT / "src").rglob("*.py")))
    assert {n: w for n, w in found.items() if n not in UNREAD_BY_SRC} == {}
    # a listed name that src/ now reads, or that is gone, leaves the list
    assert sorted(found) == sorted(UNREAD_BY_SRC)
