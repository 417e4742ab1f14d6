"""Every public name of a package module has a reader in the package.

A name is read when module-level code under ``src/folcurv`` loads it, or a
top-level function or class that is itself read does, followed to a
fixpoint; the re-exports in ``__init__.py`` do not count.  A name in a
module's ``__all__`` that is not read is a function that no command runs,
even when another unread function loads it; it is wired into one or deleted.
The exceptions are pinned here, each with its reason, so that a new one
fails this test."""

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
        if path.name == "__init__.py":
            continue
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
