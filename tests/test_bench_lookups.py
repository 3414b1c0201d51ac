"""The benchmark patches and calls nimbus by name from outside the package
(benchmarks/tracing.py and benchmarks/desk.py).  These checks keep a
rename in nimbus from breaking the benchmark without failing the suite:
every name the two files look up on a nimbus module exists, and the
tracer's install() wraps the measured names and uninstall() puts back
every attribute it touched.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from nimbus import data as D
from nimbus import layers as L
from nimbus import metrics as E
from nimbus import model as M
from nimbus import optim as O
from nimbus import tensor as T

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = (D, E, L, M, O, T)
_MISSING = object()


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """The nimbus modules and the classes they define: every owner the
    tracer may patch."""
    owners = list(MODULES)
    for module in MODULES:
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
    return owners


def snapshot():
    return [(owner, dict(vars(owner))) for owner in namespaces()]


def changed(before):
    """(owner name, attribute) of every entry that differs from before, by
    identity, or that was added or removed."""
    out = set()
    for owner, old in before:
        new = vars(owner)
        for attr in set(old) | set(new):
            if old.get(attr, _MISSING) is not new.get(attr, _MISSING):
                out.add((owner.__name__, attr))
    return out


@pytest.mark.parametrize("script", ["tracing.py", "desk.py"])
def test_every_nimbus_name_the_benchmark_uses_exists(script):
    tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
    aliases = {a.asname or a.name: getattr(__import__("nimbus", fromlist=[a.name]), a.name)
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "nimbus"
               for a in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert used
    assert not [f"{alias}.{attr}" for alias, attr in sorted(used)
                if not hasattr(aliases[alias], attr)]


def test_tracer_install_wraps_and_uninstall_restores():
    tracing = load_tracing()
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = changed(before)
    finally:
        tracer.uninstall()
    assert {("nimbus.metrics", name) for name in
            ("evaluate", "trivial_baselines", "predict_to_files", "count_events")} <= patched
    assert {("nimbus.data", "read_tensor_file"), ("nimbus.tensor", "conv2d"),
            ("SmaAtUNet", "forward"), ("AdamW", "step")} <= patched
    assert changed(before) == set()
