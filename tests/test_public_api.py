"""Every name that a quadrep module lists in ``__all__`` is read somewhere
outside ``tests/``: in the package itself, in ``scripts/`` or in
``perfbench/``.  A public name that only tests read is API that no program
needs; delete it, or keep it in ``KEEP`` with the reason."""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import quadrep

ROOT = Path(__file__).resolve().parents[1]
KEEP = {
    "compose_piecewise_manifold": "the paper's exact construction of a two-branch "
                                  "manifold; acceptance criterion 2 tests it",
}
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _reads(tree):
    """Names read in ``tree``: loaded names, attributes, and each part of a
    string that is a dotted name (``perfbench/spans.py`` names the functions
    it wraps that way).  Definitions are not reads, and the strings of an
    ``__all__`` list are skipped."""
    exports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exports.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED_NAME.fullmatch(node.value)):
            yield from node.value.split(".")


def _exports():
    """(module, name) for every ``__all__`` entry of every quadrep module."""
    for info in pkgutil.iter_modules(quadrep.__path__, "quadrep."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            yield info.name, name


def _read_outside_tests():
    names = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            names.update(_reads(ast.parse(path.read_text(), str(path))))
    return names


def test_every_exported_name_is_read_outside_tests():
    read = _read_outside_tests()
    unread = [f"{module}.{name}" for module, name in _exports()
              if name not in read and name not in KEEP]
    assert unread == []


def test_keep_list_holds_only_exported_names_without_readers():
    read = _read_outside_tests()
    exported = {name for _, name in _exports()}
    stale = [name for name in KEEP if name in read or name not in exported]
    assert stale == []
