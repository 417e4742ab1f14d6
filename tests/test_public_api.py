"""Every public name of a package module has a reader in the package.

A name in a module's ``__all__`` that no code under ``src/folcurv`` loads,
apart from the re-export in ``__init__.py``, is a function that no command
runs; it is wired into one or deleted.  The exceptions are pinned here, each
with its reason, so that a new one fails this test."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "folcurv"

UNREAD_EXPORTS = {
    # perfbench/worker.py times it as the curvature.transverse family
    ("curvature", "transverse_ricci"),
    # perfbench/tracer.py wraps it by name in TABLES
    ("exterior", "interior_matrices"),
    # no check reads it until the benchmark lets a new check name join
    ("oneill", "prop41_check"),
    # the one-at-a-time references that tests/test_stacked.py compares stacks against
    ("synthetic", "random_curvature"),
    ("synthetic", "random_instance"),
}


def _exports_and_loads():
    exports, loaded = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exports[path.stem] = ast.literal_eval(node.value)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return exports, loaded


def test_every_export_is_read_in_the_package():
    exports, loaded = _exports_and_loads()
    assert {"curvature", "exterior", "oneill", "synthetic"} <= exports.keys()
    unread = {(module, name) for module, names in exports.items()
              for name in names if name not in loaded}
    assert unread == UNREAD_EXPORTS
