"""Static checks on the package source, made with the standard library's ast."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import staleref

MODULES = sorted(
    path for path in Path(staleref.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that no other line of *source* reads.

    Names inside string annotations are not read.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nfrom x import a, b as c\nc()\n"
    assert unused_imports(source) == ["line 2: os", "line 3: a"]


def test_every_exported_name_resolves():
    assert len(staleref.__all__) == len(set(staleref.__all__))
    assert [name for name in staleref.__all__ if not hasattr(staleref, name)] == []
