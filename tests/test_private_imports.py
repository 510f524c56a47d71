"""No library module imports another module's private name.

A private helper used from a second module is a second caller its owner
cannot see; the shared behaviour belongs in a public function.  Importing
a private module (``from ascolim import _kernels``) is allowed, and so is
importing public names from one.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ascolim"


def private_imports(source, filename="<source>"):
    """``module.name`` for every ``from ascolim.<module> import _name`` in
    ``source``, at any depth (function-local imports included)."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ImportFrom) or node.level \
                or not (node.module or "").startswith("ascolim"):
            continue
        for alias in node.names:
            name = alias.name
            if not name.startswith("_") or name.endswith("__"):
                continue  # public, or a dunder such as __version__
            if node.module == "ascolim" \
                    and (PACKAGE / f"{name}.py").exists():
                continue  # the private module itself
            found.append(f"{node.module}.{name}")
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


def test_no_module_imports_a_private_name():
    found = {path.name: private_imports(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}
