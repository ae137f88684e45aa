"""Command-line interface.

Subcommands: fetch, scan, history, stats, dump-catalog. Every option can also
be supplied through a STALEREF_* environment variable or a JSON config file;
explicit flags win over the environment, which wins over the file.

Exit codes: 0 no outdated references, 1 outdated references found, 2 error,
3 timed out (partial report still written).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from .docdiscovery import DiscoveryConfig
from .extraction import DEFAULT_CATALOG_TEXT, load_catalog
from .pipeline import RunConfig, project_home, run_history, run_scan
from .reporting import (
    FORMAT_CSV,
    FORMAT_JSON,
    FORMAT_MARKDOWN,
    aggregate_corpus,
    parse_report,
    render_aggregates,
    render_findings,
    render_issue_draft,
)
from .revgraph import GitError

ENV_PREFIX = "STALEREF_"

EXIT_CLEAN = 0
EXIT_OUTDATED = 1
EXIT_ERROR = 2
EXIT_TIMEOUT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staleref",
        description="Find documentation references to code elements that no "
        "longer exist in the source tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="clone a repository (and optionally its wiki)")
    fetch.add_argument("url")
    fetch.add_argument("--dest", default=".", help="directory to clone into")
    fetch.add_argument("--with-wiki", action="store_true", help="also clone <url>.wiki")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--repo", help="path to the source clone")
    shared.add_argument("--wiki", help="path to the wiki clone, 'auto', or 'none'")
    shared.add_argument("--branch", help="source branch (default: checked-out branch)")
    shared.add_argument("--regex-file", help="rule catalog file replacing the built-in one")
    shared.add_argument(
        "--exclude", action="append", help="exclude glob for source scanning (repeatable)"
    )
    shared.add_argument("--format", choices=[FORMAT_JSON, FORMAT_CSV, FORMAT_MARKDOWN])
    shared.add_argument("--out", help="write the report here instead of stdout")
    shared.add_argument("--timeout", type=float, help="wall-clock budget in seconds")
    shared.add_argument("--max-file-bytes", type=int, help="skip source files larger than this")
    shared.add_argument(
        "--scan-time", help="pin the scan timestamp (epoch seconds or RFC 3339)"
    )
    shared.add_argument("--url-base", help="base URL for browse links in reports")
    shared.add_argument("--readme-glob", help="root-level README pattern")
    shared.add_argument(
        "--extra-doc-glob",
        action="append",
        help="treat matching source files as documentation too (repeatable)",
    )
    shared.add_argument(
        "--strict-episodes",
        action="store_true",
        default=None,
        help="only open an episode when the reference was in sync immediately before",
    )
    shared.add_argument(
        "--issue-draft", help="also write a Markdown issue draft here ('-' for stdout)"
    )
    shared.add_argument("--config", help="JSON config file with option defaults")

    sub.add_parser(
        "scan",
        parents=[shared],
        help="compare each document's references between its snapshot and head",
    )
    sub.add_parser(
        "history",
        parents=[shared],
        help="full-history timelines, outdated episodes, and fix analysis",
    )

    stats = sub.add_parser("stats", help="pool aggregates over saved JSON reports")
    stats.add_argument("reports", nargs="+", help="report files produced by scan/history")
    stats.add_argument("--format", choices=[FORMAT_JSON, FORMAT_CSV, FORMAT_MARKDOWN])
    stats.add_argument("--out")

    dump = sub.add_parser("dump-catalog", help="print the built-in rule catalog")
    dump.add_argument("--out")

    return parser


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return data


def _opt(args, file_cfg: dict, name: str, default=None, cast=None, is_list: bool = False):
    """Flag > environment > config file > default. A list option is a tuple
    of strings; any other option is a string unless *cast* converts it."""
    value = getattr(args, name, None)
    if value in (None, []):
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            value = env.split(",") if is_list else env
        elif name in file_cfg:
            value = file_cfg[name]
    if value in (None, []):
        return default
    if is_list:
        value = [value] if isinstance(value, str) else value
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{name}: expected a string or a list of strings, got {value!r}")
        return tuple(value)
    if cast is None and not isinstance(value, str):
        raise ValueError(f"{name}: expected a string, got {value!r}")
    try:
        return value if cast is None else cast(value)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _given(**options) -> dict:
    """The options that have a value; the others keep their dataclass defaults."""
    return {name: value for name, value in options.items() if value is not None}


def _format(value) -> str:
    if value in (FORMAT_JSON, FORMAT_CSV, FORMAT_MARKDOWN):
        return value
    raise ValueError(f"expected json, csv or md, got {value!r}")


def _integer(value) -> int:
    """An integer's text, or a JSON number without a fraction; never a bool."""
    if isinstance(value, str):
        return int(value)
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _number(value) -> float:
    """A numeric string, or a JSON number; never a bool."""
    if isinstance(value, str) or type(value) in (int, float):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def _parse_scan_time(value) -> int:
    if not isinstance(value, str):
        return _integer(value)
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        pass
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _truthy(value) -> bool:
    """A bool, or one of the words 1/true/yes/on and 0/false/no/off."""
    if isinstance(value, bool):
        return value
    word = value.strip().lower() if isinstance(value, str) else None
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected a boolean, got {value!r}")
    return word in ("1", "true", "yes", "on")


def _resolve_wiki(repo_path: str, wiki_opt: str | None) -> str | None:
    wiki_opt = wiki_opt or "auto"
    if wiki_opt == "none":
        return None
    if wiki_opt == "auto":
        # Beside the project's directory; relative for a relative repository path.
        candidate = os.path.join(*project_home(repo_path)) + ".wiki"
        if not os.path.isabs(repo_path):
            candidate = os.path.relpath(candidate)
        return candidate if os.path.isdir(candidate) else None
    return wiki_opt


def _write_output(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_analysis(args, mode: str) -> int:
    file_cfg = _load_config_file(args)
    repo = _opt(args, file_cfg, "repo")
    if not repo:
        print("error: --repo is required (flag, STALEREF_REPO, or config file)", file=sys.stderr)
        return EXIT_ERROR

    regex_file = _opt(args, file_cfg, "regex_file")
    config = RunConfig(**_given(
        repo_path=repo,
        wiki_path=_resolve_wiki(repo, _opt(args, file_cfg, "wiki")),
        branch=_opt(args, file_cfg, "branch"),
        catalog=load_catalog(Path(regex_file).read_text(encoding="utf-8")) if regex_file else None,
        discovery=DiscoveryConfig(**_given(
            readme_glob=_opt(args, file_cfg, "readme_glob"),
            extra_doc_globs=_opt(args, file_cfg, "extra_doc_glob", is_list=True),
        )),
        exclude_globs=_opt(args, file_cfg, "exclude", is_list=True),
        max_file_bytes=_opt(args, file_cfg, "max_file_bytes", cast=_integer),
        scan_time=_opt(args, file_cfg, "scan_time", cast=_parse_scan_time),
        timeout_seconds=_opt(args, file_cfg, "timeout", cast=_number),
        url_base=_opt(args, file_cfg, "url_base"),
        strict_episodes=_opt(args, file_cfg, "strict_episodes", cast=_truthy),
    ))
    fmt = _opt(args, file_cfg, "format", default=FORMAT_JSON, cast=_format)
    out = _opt(args, file_cfg, "out")
    draft_target = _opt(args, file_cfg, "issue_draft")

    report = run_history(config) if mode == "history" else run_scan(config)

    _write_output(render_findings(report, fmt), out)
    if draft_target:
        if any(f.currently_outdated for f in report.findings):
            _write_output(render_issue_draft(report), draft_target)
        else:
            print("note: no outdated findings, skipping issue draft", file=sys.stderr)

    if report.partial:
        return EXIT_TIMEOUT
    if any(f.outdated for f in report.findings):
        return EXIT_OUTDATED
    return EXIT_CLEAN


def _cmd_fetch(args) -> int:
    url = args.url.rstrip("/")
    name = url.rsplit("/", 1)[-1]
    if name.endswith(".git"):
        name = name[:-4]
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    target = dest / name
    clone = subprocess.run(
        ["git", "clone", "--quiet", args.url, str(target)], capture_output=True, text=True
    )
    if clone.returncode != 0:
        print(f"error: clone failed: {clone.stderr.strip()}", file=sys.stderr)
        return EXIT_ERROR
    print(target)
    if args.with_wiki:
        base = url[:-4] if url.endswith(".git") else url
        wiki_url = base + ".wiki"
        wiki_target = dest / (name + ".wiki")
        wiki = subprocess.run(
            ["git", "clone", "--quiet", wiki_url, str(wiki_target)],
            capture_output=True,
            text=True,
        )
        if wiki.returncode != 0:
            print(f"warning: wiki clone failed: {wiki.stderr.strip()}", file=sys.stderr)
        else:
            print(wiki_target)
    return EXIT_CLEAN


def _cmd_stats(args) -> int:
    reports = []
    for path in args.reports:
        try:
            reports.append(parse_report(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    text = render_aggregates(aggregate_corpus(reports), args.format or FORMAT_JSON)
    _write_output(text, args.out)
    return EXIT_CLEAN


def _cmd_dump_catalog(args) -> int:
    _write_output(DEFAULT_CATALOG_TEXT, args.out)
    return EXIT_CLEAN


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"fetch": _cmd_fetch, "stats": _cmd_stats, "dump-catalog": _cmd_dump_catalog}
    try:
        if args.command in ("scan", "history"):
            return _run_analysis(args, args.command)
        return commands[args.command](args)
    except (GitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        # Exit 1 means outdated references, so an unforeseen failure must
        # not leave the interpreter's exit code. Only a failure needs the
        # traceback module, which costs start-up time.
        import traceback

        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
