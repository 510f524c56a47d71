"""No library module imports or reaches another module's private name.

A private helper used from a second module is a second caller its owner
cannot see; the shared behaviour belongs in a public function.  Importing
a private module (``from ascolim import _kernels``) is allowed, and so is
importing public names from one.  Reaching a private name through an
imported module (``linalg._pivot_step``) counts as importing it.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ascolim"


def _is_private(module, name):
    """Is ``module.name`` a private name, and not a module of the package
    (``ascolim._kernels``) or a dunder (``__version__``)?"""
    if not name.startswith("_") or name.endswith("__"):
        return False
    return not (module == "ascolim" and (PACKAGE / f"{name}.py").exists())


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def private_imports(source, filename="<source>"):
    """``module.name`` for every ``from ascolim.<module> import _name`` in
    ``source``, at any depth (function-local imports included), and for
    every ``<module>._name`` read through a name an import bound to an
    ``ascolim`` module."""
    tree = ast.parse(source, filename)
    found = []
    modules = {}  # local name -> the ascolim module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ascolim":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else local
        if not isinstance(node, ast.ImportFrom) or node.level \
                or not (node.module or "").startswith("ascolim"):
            continue
        for alias in node.names:
            if node.module == "ascolim" \
                    and (PACKAGE / f"{alias.name}.py").exists():
                modules[alias.asname or alias.name] = f"ascolim.{alias.name}"
            if _is_private(node.module, alias.name):
                found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = _dotted(node.value)
        if owner is None:
            continue
        head, _, tail = owner.partition(".")
        if head not in modules:
            continue
        module = ".".join(filter(None, [modules[head], tail]))
        if _is_private(module, node.attr):
            found.append(f"{module}.{node.attr}")
    return found


def test_private_import_rule_flags_names_not_modules():
    assert private_imports(
        "def f():\n    from ascolim.simplicial import _staircase\n") == [
            "ascolim.simplicial._staircase"]
    assert private_imports("from ascolim import _kernels\n"
                           "from ascolim._kernels import matvec_q\n"
                           "from ascolim import __version__\n"
                           "from ascolim.rats import RAT\n") == []
    assert private_imports("from ascolim import _nonesuch\n") == [
        "ascolim._nonesuch"]


def test_private_import_rule_flags_private_attributes_of_modules():
    assert private_imports("from ascolim import linalg\n"
                           "def f(m):\n"
                           "    return linalg._fraction_free(m, 2)\n") == [
        "ascolim.linalg._fraction_free"]
    assert private_imports("import ascolim.linalg as la\n"
                           "la._pivot_step\n"
                           "import ascolim.geometry\n"
                           "ascolim.geometry._int_matrix\n") == [
        "ascolim.linalg._pivot_step", "ascolim.geometry._int_matrix"]
    assert private_imports("from ascolim import _kernels, linalg\n"
                           "import ascolim\n"
                           "linalg.fraction_free, linalg.__name__\n"
                           "_kernels.matvec_q, ascolim._kernels\n"
                           "self._cache, other._private\n") == []


def test_no_module_imports_a_private_name():
    found = {path.name: private_imports(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}
