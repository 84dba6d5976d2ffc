"""Every name a logcy module imports is read somewhere in that module, and no
logcy module reads a private name through another logcy module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "logcy"


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def private_reads(source):
    """(line, dotted name) of each underscore attribute, dunders aside, read through
    a logcy module that the source binds (`from . import complexes`).  A private
    name reached through a class the source imports is outside this rule."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module is None if node.level else node.module == "logcy")
               for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_private_name_is_read_through_a_module(path):
    assert private_reads(path.read_text()) == []


def test_an_import_left_behind_is_found():
    source = "from .rationals import RATIONAL, format_rational\nimport os.path\nSCHEMA = RATIONAL\n"
    assert unused_imports(source) == [(1, "format_rational"), (2, "os")]


def test_a_private_name_read_through_a_module_is_found():
    source = ("from . import complexes, poly\nfrom .groebner import Polynomial\n"
              "cx = complexes.SimplicialComplex._trusted(labels, complexes._compress(m, k))\n"
              "p, name = Polynomial._unchecked(t), poly.__name__\n")
    assert private_reads(source) == [(3, "complexes.SimplicialComplex._trusted"),
                                     (3, "complexes._compress")]
