"""Every name a logcy module imports is read somewhere in that module."""

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_import_left_behind_is_found():
    source = "from .rationals import RATIONAL, format_rational\nimport os.path\nSCHEMA = RATIONAL\n"
    assert unused_imports(source) == [(1, "format_rational"), (2, "os")]
