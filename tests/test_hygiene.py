"""Static checks on the package source, made with the standard library's ast."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
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


def private_imports(source: str) -> list[str]:
    """Underscore names that *source* imports from a staleref module.

    A module keeps its private names to itself; another module that needs
    one needs a public name instead.
    """
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "staleref")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "from .reporting import _aggregates_dict, render_findings\n"
        "from staleref.pipeline import _Deadline\n"
        "from os import _exit\n"
        "def f():\n    from . import _private\n"
    )
    assert private_imports(source) == [
        "line 2: _aggregates_dict", "line 3: _Deadline", "line 6: _private"
    ]


# The diff-stream format: only revgraph folds a history's changes.
DIFF_STREAM_NAMES = frozenset({"Change", "replay", "first_parent_history"})


def diff_stream_uses(source: str) -> list[str]:
    """Imports of ``Change`` or ``replay`` from a staleref module in
    *source*, and its reads of an attribute of any of those names or
    ``first_parent_history``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "staleref"
        ):
            found += [(node.lineno, a.name) for a in node.names if a.name in DIFF_STREAM_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in DIFF_STREAM_NAMES:
            found.append((node.lineno, node.attr))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "revgraph.py"], ids=lambda path: path.name
)
def test_only_revgraph_reads_the_diff_stream(path):
    assert diff_stream_uses(path.read_text(encoding="utf-8")) == []


def test_diff_stream_use_is_found():
    source = (
        "from __future__ import annotations\n"
        "from .revgraph import Branch, Change\n"
        "from staleref.revgraph import replay as fold\n"
        "from os import replay\n"
        "def f(repo, seq, revgraph):\n"
        "    return repo.first_parent_history(seq), revgraph.replay\n"
    )
    assert diff_stream_uses(source) == [
        "line 2: Change", "line 3: replay", "line 6: first_parent_history", "line 6: replay"
    ]


def unreferenced_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Module-level functions and classes of *sources* (module name -> source)
    that no code in any of them reads and that are not in *exported*.

    A read is any name or attribute access, so a definition that only calls
    itself counts as read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read
        and node.name not in exported
    ]


def test_no_unreferenced_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_definitions(sources, set(staleref.__all__)) == []


def test_unreferenced_definition_is_found():
    sources = {
        "a.py": "def used():\n    pass\n\ndef _left():\n    pass\n\nclass Public:\n    pass\n",
        "b.py": "from a import used\nused()\n\ndef _loop():\n    _loop()\n",
    }
    assert unreferenced_definitions(sources, {"Public"}) == ["a.py: _left"]


def test_every_exported_name_resolves():
    assert len(staleref.__all__) == len(set(staleref.__all__))
    assert [name for name in staleref.__all__ if not hasattr(staleref, name)] == []


# Standard modules that cost start-up time on every run and that the package
# does without: dataclasses brings inspect, ast and dis; statistics brings
# fractions and decimal.
UNNEEDED_MODULES = {"dataclasses", "inspect", "statistics", "fractions", "decimal", "typing"}


def modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after *code* runs in a fresh interpreter
    that finds this package first."""
    package_root = str(Path(staleref.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(done.stdout.split())


def test_cli_import_loads_no_unneeded_module():
    # A module that the interpreter loads before any code runs (through a
    # site hook, say) is no cost of the package.
    loaded = modules_after("import staleref.cli") - modules_after("pass")
    assert "staleref.timeline" in loaded
    assert sorted(loaded & UNNEEDED_MODULES) == []



# The functions, by module, where a handler may catch every exception: only
# the command line's entry point, which prints the traceback and exits 2, since
# the interpreter's own exit code 1 reads as "outdated references found".
CATCH_ALL_ALLOWED: dict[str, set[str]] = {"cli.py": {"main"}}


def _catches_all(kind: ast.expr | None) -> bool:
    if kind is None:
        return True
    kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return any(isinstance(k, ast.Name) and k.id in ("Exception", "BaseException") for k in kinds)


def catch_all_handlers(source: str, allowed: set[str]) -> list[str]:
    """Bare ``except`` clauses of *source*, and those that catch
    ``Exception`` or ``BaseException`` alone or in a tuple, outside the
    functions whose qualified names are in *allowed*."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.ExceptHandler) and _catches_all(child.type):
                if scope not in allowed:
                    found.append(f"line {child.lineno}: {scope or '<module>'}")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_catch_all_handlers(path):
    allowed = CATCH_ALL_ALLOWED.get(path.name, set())
    assert catch_all_handlers(path.read_text(encoding="utf-8"), allowed) == []


def test_catch_all_handler_is_found():
    source = textwrap.dedent("""\
        try:
            pass
        except BaseException:
            raise
        def f():
            try:
                pass
            except:
                pass
        class C:
            def m(self):
                try:
                    pass
                except (ValueError, Exception):
                    pass
                except ValueError:
                    pass
        def _read_source_bytes():
            try:
                pass
            except Exception:
                pass
            def inner():
                try:
                    pass
                except Exception:
                    pass
    """)
    assert catch_all_handlers(source, {"_read_source_bytes", "C.n"}) == [
        "line 3: <module>", "line 8: f", "line 14: C.m", "line 26: _read_source_bytes.inner",
    ]
