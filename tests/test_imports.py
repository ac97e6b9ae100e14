"""No module of the package imports a name it never uses.

A stand-in for a linter's unused-import rule (F401), so that deleting code
cannot leave its imports behind.  ``__init__.py`` is exempt: it imports
names to re-export them.  A line marked ``# noqa: F401`` is exempt too.
"""

import ast
from pathlib import Path

import pytest

import paramat

MODULES = sorted(
    path for path in Path(paramat.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports, outside ``__future__``, and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "import os\n"
        "from sys import argv, path\n"
        "from json import dumps  # noqa: F401\n"
        "print(argv)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 2: path"]
