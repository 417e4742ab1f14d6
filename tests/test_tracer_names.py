"""The names the perfbench tracer looks up in the package still exist.

``perfbench/tracer.py`` wraps the contraction tables it lists in ``TABLES``
and the class methods it lists in ``METHODS`` by name; a name deleted from
the package would break ``perfbench/run.py --trace``.  ``perfbench/worker.py``
sums the spans of the functions it names into its per-layer metrics; a name
that is no longer exported would read 0.  Both files are read only."""

import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tables_are_exported_lru_caches(tracer):
    assert tracer.TABLES
    for name in tracer.TABLES:
        layer, fname = name.split(".")
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        assert fname in mod.__all__, name
        assert isinstance(getattr(mod, fname), functools._lru_cache_wrapper), name


def test_methods_are_defined_on_their_classes(tracer):
    assert tracer.METHODS
    for layer, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"


WORKER = TRACER.parent / "worker.py"
# names the worker's span families still list though the package no longer
# defines them; each adds nothing to its family's sum
STALE_WORKER_NAMES = {"hopf.lie_bracket", "hopf.field_X"}


def _worker_function_names(layers) -> set[str]:
    """The dotted function names ``perfbench/worker.py`` reads spans of: every
    string constant of the form layer.function or layer.Class.method, except
    the metric names it writes (subscript and dict keys)."""
    tree = ast.parse(WORKER.read_text())
    keys = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
    keys |= {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    pattern = re.compile(rf"({'|'.join(layers)})(\.[A-Za-z_]\w*){{1,2}}")
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in keys and pattern.fullmatch(node.value)}


def test_worker_names_are_exported(tracer):
    names = _worker_function_names(tracer.LAYERS)
    assert "curvature.curvature_action_on_form" in names
    missing = set()
    for name in names:
        layer, *path = name.split(".")
        mod = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        if path[0] not in mod.__all__:
            missing.add(name)
        elif len(path) == 2 and path[1] not in getattr(mod, path[0]).__dict__:
            missing.add(name)
    assert missing == STALE_WORKER_NAMES
