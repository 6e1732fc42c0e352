"""Structure of the library's source: no module reaches into another's private names."""

import ast
from pathlib import Path

import conesolve

SOURCES = sorted(Path(conesolve.__file__).parent.glob("*.py"))


def foreign_private_names(tree: ast.Module) -> set[str]:
    """The single-underscore names that ``tree`` imports, or reads as an
    attribute of anything but ``self`` or ``cls``, without defining them."""
    defined, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return {name for name in used - defined
            if name.startswith("_") and not name.startswith("__")}


def test_foreign_private_names_are_found():
    tree = ast.parse("from .a import _hidden, shown\n"
                     "class C:\n"
                     "    def _own(self):\n"
                     "        return self._mine, cls._theirs, other._own, other._foreign\n")
    assert foreign_private_names(tree) == {"_hidden", "_foreign"}


def test_no_module_reads_another_modules_private_names():
    found = {path.stem: sorted(foreign_private_names(ast.parse(path.read_text())))
             for path in SOURCES}
    assert {module: names for module, names in found.items() if names} == {}
