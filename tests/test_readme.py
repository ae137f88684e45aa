"""The README's examples run as written."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import scenarios
import staleref
from staleref import cli, extraction

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_snippet() -> str:
    """The first ``python`` block under the README's "## Library use"."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def shared_options_block() -> str:
    """README's "Shared `scan`/`history` options" block, to the next heading."""
    text = README.read_text(encoding="utf-8")
    return text.split("\nShared `scan`/`history` options:\n", 1)[1].split("\n## ", 1)[0]


def exported_names_list() -> str:
    """The bullet list after "exports these names and no others:"."""
    text = README.read_text(encoding="utf-8")
    return text.split("exports these names and no others:\n\n", 1)[1].split("\n\n", 1)[0]


def rule_list() -> str:
    """The bullet list after "nine fixed rules run, in this order:"."""
    text = README.read_text(encoding="utf-8")
    return text.split("nine fixed rules run, in this order:\n\n", 1)[1].split("\n\n", 1)[0]


def parser_options(command: str) -> set[str]:
    """The long options of a subcommand of ``cli.build_parser()``, --help aside."""
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {option for action in commands.choices[command]._actions
            for option in action.option_strings if option.startswith("--")} - {"--help"}


def test_shared_options_block_names_every_shared_option_and_no_other():
    block = shared_options_block()
    shared = parser_options("scan")
    assert parser_options("history") == shared
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", block)) == shared
    # Every setting comes from its flag alone.
    assert re.findall(r"\bSTALEREF_[A-Z_]*", block) == []


def test_exported_names_list_is_the_package_root_all():
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", exported_names_list())
    assert sorted(names) == sorted(staleref.__all__)


def test_rule_list_names_every_rule_in_order():
    ids = re.findall(r"^- `([a-z-]+)`: ", rule_list(), re.MULTILINE)
    assert ids == [rule_id for rule_id, *_ in extraction._RULES]


def test_library_use_snippet_prints_the_outdated_findings(tmp_path, monkeypatch, capsys):
    manifest = scenarios.build_backtick_outdated(tmp_path / "build")
    (tmp_path / "work").mkdir()
    Path(manifest["repo"]).rename(tmp_path / "work" / "proj")
    monkeypatch.chdir(tmp_path)

    namespace: dict = {}
    exec(compile(library_use_snippet(), "README.md", "exec"), namespace)

    report = namespace["report"]
    outdated = [f for f in report.findings if f.status == "outdated"]
    assert {(f.document.origin, f.document.path, f.element_text) for f in outdated} == {
        key for key, status in manifest["expected"].items() if status == scenarios.OUTDATED
    }
    assert capsys.readouterr().out == "".join(
        f"{f.element_text} {f.document.path} {f.evidence}\n" for f in outdated
    )
    # The snippet names a wiki clone that is not there.
    assert [w["kind"] for w in report.warnings] == ["wiki_unavailable"]
