"""The names the perfbench tracer looks up in the package still exist.

``perfbench/tracer.py`` wraps the contraction tables it lists in ``TABLES``
and the class methods it lists in ``METHODS`` by name; a name deleted from
the package would break ``perfbench/run.py --trace``.  The tracer module is
loaded from its file, read only."""

import functools
import importlib
import importlib.util
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
