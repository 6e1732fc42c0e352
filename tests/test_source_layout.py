"""Structure of the library's source: no module reaches into another's private
names, and no operator kind restates the calculus its terms feed."""

import ast
import importlib
from pathlib import Path

import conesolve
from conesolve.operators import SymmetricOperator

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


#: the calculus ``SymmetricOperator`` derives from a kind's terms and argument map
CALCULUS = {"_value", "_derivatives", "value", "gradient", "hessian"}


def subclasses(cls) -> list[type]:
    return [sub for direct in cls.__subclasses__() for sub in [direct, *subclasses(direct)]]


def test_no_operator_kind_restates_the_calculus():
    for path in SOURCES:
        if path.stem != "__init__":
            importlib.import_module(f"conesolve.{path.stem}")
    found = {kind.__name__: sorted(CALCULUS & vars(kind).keys())
             for kind in subclasses(SymmetricOperator) if kind.__module__.startswith("conesolve.")}
    assert found and {kind: names for kind, names in found.items() if names} == {}


#: the functions that may call ``eigvalsh``, one LAPACK call per matrix: the
#: few matrices the sup-norm prune keeps and the one-matrix Schur-Horn check;
#: a field's spectrum, dense or not, is read from its rows
EIGVALSH_SITES = {("eigencalc", "sup_operator_norm"), ("subsolution", "schur_horn_pairing")}


def sites(tree: ast.Module, hit) -> set[str]:
    """The functions (``Class.method`` for methods, ``<module>`` at top level)
    of ``tree`` that hold a node ``hit`` accepts."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if hit(child):
                found.add(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def eigvalsh_sites(tree: ast.Module) -> set[str]:
    """The functions of ``tree`` that name ``eigvalsh``, as an attribute, a
    name or an import."""
    return sites(tree, lambda node: (isinstance(node, ast.Attribute) and node.attr == "eigvalsh")
                 or (isinstance(node, ast.Name) and node.id == "eigvalsh")
                 or (isinstance(node, ast.alias) and node.name == "eigvalsh"))


def test_eigvalsh_sites_are_found():
    tree = ast.parse("from numpy.linalg import eigvalsh\n"
                     "def spectrum(a):\n"
                     "    return np.linalg.eigvalsh(a)\n"
                     "class C:\n"
                     "    def m(self, a):\n"
                     "        return eigvalsh(a)\n")
    assert eigvalsh_sites(tree) == {"<module>", "spectrum", "C.m"}


def test_eigvalsh_runs_only_where_few_matrices_are_solved():
    found = {(path.stem, site) for path in SOURCES
             for site in eigvalsh_sites(ast.parse(path.read_text()))}
    assert found and found <= EIGVALSH_SITES


#: the functions that may run a matrix product (``@``, ``matmul``, ``dot`` or
#: ``tensordot``): on one point's vectors and matrices, and the contact set's
#: plane products, in blocks of a fixed byte budget.  A field is summed over
#: the nonzero entries of its coefficients instead (``eigencalc.combine``,
#: ``torus.congruence``), whose bits and time do not depend on BLAS threads
MATMUL_SITES = {("selftest", "check_operator_derivatives"),
                ("subsolution", "dichotomy_check"), ("subsolution", "schur_horn_pairing"),
                ("diagnostics", "_has_supporting_plane")}
MATMUL_NAMES = {"matmul", "dot", "tensordot"}


def matmul_sites(tree: ast.Module) -> set[str]:
    """The functions of ``tree`` that use ``@`` or ``@=``, or name a matrix
    product as an attribute or an import."""
    return sites(tree, lambda node: (isinstance(node, (ast.BinOp, ast.AugAssign))
                                     and isinstance(node.op, ast.MatMult))
                 or (isinstance(node, ast.Attribute) and node.attr in MATMUL_NAMES)
                 or (isinstance(node, ast.alias) and node.name in MATMUL_NAMES))


def test_matmul_sites_are_found():
    tree = ast.parse("from numpy import tensordot\n"
                     "def product(a, b):\n"
                     "    return a @ b\n"
                     "def update(a, b):\n"
                     "    a @= b\n"
                     "class C:\n"
                     "    def m(self, a, b):\n"
                     "        return np.matmul(a, b) + a.dot(b)\n"
                     "    def n(self, dot):\n"
                     "        return np.einsum(dot, self.a, self.b)\n")
    assert matmul_sites(tree) == {"<module>", "product", "update", "C.m"}


def test_matrix_products_run_only_on_small_operands():
    found = {(path.stem, site) for path in SOURCES
             for site in matmul_sites(ast.parse(path.read_text()))}
    assert found and found <= MATMUL_SITES


#: the functions that may read a ``Packing``'s ``upper``, the row format's
#: entry order: all in ``eigencalc``, so every other module reads rows through
#: the ``Packing`` it holds
UPPER_SITES = {("eigencalc", "Packing.checked"), ("eigencalc", "Packing.pack"),
               ("eigencalc", "Packing._entry"), ("eigencalc", "Packing.product"),
               ("eigencalc", "_jacobi_spectrum"), ("eigencalc", "sup_operator_norm")}


def upper_sites(tree: ast.Module) -> set[str]:
    """The functions of ``tree`` that read an attribute ``upper``."""
    return sites(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "upper")


def test_upper_sites_are_found():
    tree = ast.parse("def rows(layout):\n"
                     "    return len(layout.upper)\n"
                     "def local(upper):\n"
                     "    return upper\n")
    assert upper_sites(tree) == {"rows"}


def test_only_eigencalc_reads_the_row_format():
    found = {(path.stem, site) for path in SOURCES
             for site in upper_sites(ast.parse(path.read_text()))}
    assert found and found <= UPPER_SITES
    assert {module for module, _ in UPPER_SITES} == {"eigencalc"}
