"""Outside-in span tracer for the folcurv layers.

The tracer wraps each public function of the layer modules from outside the
package and rebinds the wrapper under every name any ``folcurv`` module holds
for the original, so a function imported by name into ``cli``, ``oneill``,
``curvature``, ``hopf`` or ``synthetic`` is caught at every call site.  A few
public methods are wrapped on their classes (``AlternatingForm.component``,
``RiemannTensor.__init__``, the ``Dual``/``CDual`` arithmetic and the
``ReportBuilder`` methods).  ``lru_cache`` tables are wrapped by calling the
cached object itself, so the cache is never bypassed.

Spans (name, start, end, parent span, run id) are kept in memory in compact
arrays while one command runs.  ``end_run`` returns them with their
aggregate: per-name call counts and self times (duration minus the time the
span's children cover).  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "folcurv"
LAYERS = ("exterior", "curvature", "oneill", "hopf", "dual", "synthetic", "report", "cli")

# Public methods wrapped on their classes: {layer: {class name: [methods]}}.
_DUAL_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "sqrt"]
METHODS = {
    "exterior": {"AlternatingForm": ["component"]},
    "curvature": {"RiemannTensor": ["__init__"]},
    "dual": {"Dual": _DUAL_OPS,
             "CDual": ["__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                       "times_i", "abs2"]},
    "report": {"ReportBuilder": ["check", "residual_check", "bound_check", "finding",
                                 "finish"]},
}

# The contraction tables whose builds, bytes and hit ratio are reported.
TABLES = ("exterior.interior_matrices", "exterior.wedge_matrices")

SPAN_DTYPE = np.dtype([("run", "<u4"), ("name", "<u2"), ("parent", "<i4"),
                       ("start", "<f8"), ("end", "<f8")])


def _is_public_function(obj, module_name: str) -> bool:
    if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
        return False
    return getattr(obj, "__module__", None) == module_name


def public_functions(module) -> list[str]:
    """Names of the functions a module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if _is_public_function(getattr(module, n, None), module.__name__)]


class Tracer:
    """Install with ``install()``; bracket each command with ``begin_run`` /
    ``end_run``; remove with ``uninstall()``."""

    def __init__(self):
        self.names: list[str] = []
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.errors: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.table_bytes: dict[str, int] = {}
        self._run_id = 0
        self._errors_before: list[int] = []
        self.last_spans = np.empty(0, SPAN_DTYPE)
        self._nid("cli")  # name 0: the root span of each command

    # -- installation --------------------------------------------------------

    def _nid(self, name: str) -> int:
        self.names.append(name)
        self.errors.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._nid(name)
        self.originals.setdefault(name, fn)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        return traced

    def _wrap_table(self, lru, name: str):
        sizes = self.table_bytes
        sizes[name] = 0

        def table(*args):
            misses = lru.cache_info().misses
            out = lru(*args)
            if lru.cache_info().misses != misses:
                sizes[name] += out.nbytes
            return out

        functools.update_wrapper(table, lru)
        self.originals[name] = lru
        return self._wrap(table, name)

    @staticmethod
    def modules() -> list:
        """Every loaded module of the package, the package itself included."""
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        """Wrap every public function and listed method of the layer modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self.modules()
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in public_functions(mod):
                orig = getattr(mod, fname)
                name = f"{layer}.{fname}"
                wrapper = (self._wrap_table(orig, name) if name in TABLES
                           else self._wrap(orig, name))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def clear_tables(self):
        """Empty the contraction-table caches so the next command builds them."""
        for name in TABLES:
            self.originals[name].cache_clear()
            self.table_bytes[name] = 0

    def table_info(self) -> dict[str, tuple[int, int]]:
        """{table: (hits, misses)} from each cache's ``cache_info()``."""
        return {n: (self.originals[n].cache_info().hits, self.originals[n].cache_info().misses)
                for n in TABLES}

    # -- runs ------------------------------------------------------------------

    def begin_run(self):
        """Start a command: open the root ``cli`` span."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        del self._stack[1:]
        self._errors_before = list(self.errors)
        self._name.append(0)
        self._parent.append(-1)
        self._end.append(0.0)
        self._stack.append(0)
        self._start.append(time.perf_counter())

    def end_run(self) -> "RunProfile":
        """Close the root span and return the command's profile; its spans
        stay in ``last_spans`` until the next command ends."""
        self._end[0] = time.perf_counter()
        self._stack.pop()
        if len(self._stack) != 1:
            raise RuntimeError("unbalanced spans at end of run")
        spans = np.empty(len(self._name), SPAN_DTYPE)
        spans["run"] = self._run_id
        spans["name"] = np.frombuffer(self._name, dtype=np.uint16)
        spans["parent"] = np.frombuffer(self._parent, dtype=np.int32)
        spans["start"] = np.frombuffer(self._start, dtype=np.float64)
        spans["end"] = np.frombuffer(self._end, dtype=np.float64)
        self._run_id += 1
        self.last_spans = spans
        errors = [b - a for a, b in zip(self._errors_before, self.errors)]
        return RunProfile(spans, list(self.names), errors)


class RunProfile:
    """Per-name call counts, errors, self and inclusive times of one command."""

    def __init__(self, spans: np.ndarray, names: list[str], errors: list[int]):
        k = len(names)
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(spans))
        ids = spans["name"].astype(np.intp)
        self.names = names
        self.errors = np.array(errors + [0] * (k - len(errors)))
        self.calls = np.bincount(ids, minlength=k)
        self.self_s = np.bincount(ids, weights=dur - covered, minlength=k)
        self.total_s = np.bincount(ids, weights=dur, minlength=k)
        self.wall_s = float(dur[0])

    def _select(self, names) -> np.ndarray:
        return np.array([n in names for n in self.names], dtype=bool)

    def layer(self, layer: str) -> np.ndarray:
        return np.array([n.split(".", 1)[0] == layer for n in self.names], dtype=bool)

    def calls_of(self, *names) -> int:
        return int(self.calls[self._select(names)].sum())

    def self_of(self, *names) -> float:
        return float(self.self_s[self._select(names)].sum())

    def total_of(self, *names) -> float:
        return float(self.total_s[self._select(names)].sum())
