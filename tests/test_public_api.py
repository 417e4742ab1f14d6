"""Every public name of a package module has a reader in the package.

A name is read when module-level code under ``src/folcurv`` loads it, or a
top-level function or class that is itself read does, followed to a
fixpoint.  A name in a module's ``__all__`` that is not read is a function
that no command runs, even when another unread function loads it; it is
wired into one or deleted.  Likewise every parameter default of a function
under ``src/folcurv``, and every field default of a ``NamedTuple`` or
dataclass there, is omitted by at least one call in the package: a
default that every call overrides is a route only tests take.  The
exceptions are pinned here, each with its reason, so that a new one fails
this test.  Each name has one home, its module: ``__init__.py`` holds only
the package docstring."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "folcurv"

UNREAD_EXPORTS = {
    # perfbench/worker.py times it as the curvature.transverse family
    ("curvature", "transverse_ricci"),
    # perfbench/tracer.py wraps both by name in TABLES; only interior_matrices reads it
    ("exterior", "interior_matrices"),
    ("exterior", "wedge_matrices"),
    # no check reads it until the benchmark lets a new check name join
    ("oneill", "prop41_sides"),
    # perfbench/worker.py counts its spans; tests/oracles.py seeds the full
    # Jacobians of the frame fields with it
    ("dual", "seed_point"),
}

# (function, parameter) pairs whose default no call in the package takes
UNTAKEN_DEFAULTS: set = set()


def _loads(node) -> set:
    """The names and attributes that ``node`` loads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def _exports_and_reads():
    exports, read, bodies = {}, set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exports[path.stem] = ast.literal_eval(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, set()).update(_loads(node))
            else:
                read |= _loads(node)
    reached = set()
    while new := (read & bodies.keys()) - reached:
        reached |= new
        for name in new:
            read |= bodies[name]
    return exports, read


def test_every_export_is_read_in_the_package():
    exports, read = _exports_and_reads()
    assert {"curvature", "exterior", "oneill", "synthetic"} <= exports.keys()
    unread = {(module, name) for module, names in exports.items()
              for name in names if name not in read}
    assert unread == UNREAD_EXPORTS


def test_package_holds_only_its_docstring():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def _defaults(fn: ast.FunctionDef, method: bool) -> dict:
    """{parameter: its position in a call, or None for a keyword-only one}
    for each parameter of ``fn`` with a default; a method's ``self`` takes
    no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {a.arg: i - int(method) for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None})
    return out


def _field_defaults(cls: ast.ClassDef) -> dict:
    """{field: its position in a call} for each field with a default of a
    ``NamedTuple`` or dataclass; any other class has none."""
    names = {getattr(b, "id", None) or getattr(b, "attr", None) for b in cls.bases}
    decorators = {getattr(getattr(d, "func", d), "id", None) for d in cls.decorator_list}
    if "NamedTuple" not in names and "dataclass" not in decorators:
        return {}
    fields = [f for f in cls.body
              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return {f.target.id: i for i, f in enumerate(fields) if f.value is not None}


def _untaken_defaults() -> set:
    """The (function, parameter) defaults that no call in the package omits.
    A function is matched by the name it is called by, a class's own name
    for its ``__init__`` or its ``NamedTuple`` or dataclass fields; a call
    that spreads ``*`` or ``**`` omits nothing."""
    defaults, calls = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defaults.setdefault(node.name, {}).update(_field_defaults(node))
            elif isinstance(node, ast.FunctionDef):
                cls = methods.get(id(node))
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                name = cls if node.name == "__init__" else node.name
                found = _defaults(node, method=cls is not None and not static)
                defaults.setdefault(name, {}).update(found)
            elif isinstance(node, ast.Call):
                calls.append(node)
    taken = set()
    for call in calls:
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        keywords = {k.arg for k in call.keywords}
        if name not in defaults or None in keywords or any(
                isinstance(a, ast.Starred) for a in call.args):
            continue
        taken |= {(name, param) for param, pos in defaults[name].items()
                  if param not in keywords and (pos is None or pos >= len(call.args))}
    return {(name, param) for name, found in defaults.items() for param in found} - taken


def test_every_default_is_taken_by_a_call_in_the_package():
    assert _untaken_defaults() == UNTAKEN_DEFAULTS


def test_field_defaults_are_scanned():
    # the theorem table's rows omit both field defaults of cli.Bound, so
    # they are taken; a field default that every call overrode would show
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found.update({(node.name, f): i for f, i in _field_defaults(node).items()})
    assert {("Bound", "needs_p"): 1, ("Bound", "finding"): 2}.items() <= found.items()
