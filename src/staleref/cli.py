"""Command-line interface.

Subcommands: scan, history, stats. Each option of scan and history comes
from its flag, or else from its STALEREF_<NAME> environment variable
(STALEREF_REPO, STALEREF_MAX_FILE_BYTES, ...). A variable holds text: a
repeatable option takes a comma-separated list (STALEREF_EXCLUDE=a,b), and
a number the text its flag takes.

Exit codes: 0 no outdated references, 1 outdated references found, 2 error,
3 timed out (partial report still written).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from datetime import datetime, timedelta
from pathlib import Path

from .docdiscovery import DiscoveryConfig
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

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--repo", help="path to the source clone")
    shared.add_argument("--wiki", help="path to the wiki clone, 'auto', or 'none'")
    shared.add_argument("--branch", help="source branch (default: checked-out branch)")
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
        "--issue-draft", help="also write a Markdown issue draft here ('-' for stdout)"
    )

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

    return parser


def _opt(args, name: str, default=None, cast=None, is_list: bool = False):
    """Flag > environment > default. A list option is a tuple of strings;
    any other option is a string unless *cast* converts it."""
    value = getattr(args, name, None)
    if value in (None, []):
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is None:
            return default
        value = env.split(",") if is_list else env
    if is_list:
        return tuple(value)
    try:
        return value if cast is None else cast(value)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _given(**options) -> dict:
    """The options that have a value; the others keep their defaults."""
    return {name: value for name, value in options.items() if value is not None}


def _format(value) -> str:
    if value in (FORMAT_JSON, FORMAT_CSV, FORMAT_MARKDOWN):
        return value
    raise ValueError(f"expected json, csv or md, got {value!r}")


# An RFC 3339 (section 5.6) date-time: "T" and "Z" in either case, a
# fraction of any length, and "Z" or a numeric offset.
_RFC3339 = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})[Tt]([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.[0-9]+)?"
    r"(?:[Zz]|([+-])([01][0-9]|2[0-3]):([0-5][0-9]))"
)


def _parse_scan_time(value: str) -> int:
    """Epoch seconds from an integer's text or an RFC 3339 date-time, whose
    fraction of a second is dropped: the instant is floored."""
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        pass
    match = _RFC3339.fullmatch(text)
    if match is None:
        raise ValueError(f"expected epoch seconds or an RFC 3339 date-time, got {value!r}")
    *fields, sign, hours, minutes = match.groups()
    seconds = (datetime(*map(int, fields)) - datetime(1970, 1, 1)) // timedelta(seconds=1)
    offset = 0 if sign is None else int(hours) * 3600 + int(minutes) * 60
    return seconds - offset if sign == "+" else seconds + offset


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
    repo = _opt(args, "repo")
    if not repo:
        print("error: --repo is required (flag or STALEREF_REPO)", file=sys.stderr)
        return EXIT_ERROR

    config = RunConfig(**_given(
        repo_path=repo,
        wiki_path=_resolve_wiki(repo, _opt(args, "wiki")),
        branch=_opt(args, "branch"),
        discovery=DiscoveryConfig(**_given(
            readme_glob=_opt(args, "readme_glob"),
            extra_doc_globs=_opt(args, "extra_doc_glob", is_list=True),
        )),
        exclude_globs=_opt(args, "exclude", is_list=True),
        max_file_bytes=_opt(args, "max_file_bytes", cast=int),
        scan_time=_opt(args, "scan_time", cast=_parse_scan_time),
        timeout_seconds=_opt(args, "timeout", cast=float),
        url_base=_opt(args, "url_base"),
    ))
    fmt = _opt(args, "format", default=FORMAT_JSON, cast=_format)
    out = _opt(args, "out")
    draft_target = _opt(args, "issue_draft")

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


def _parsed_reports(paths: list[str]):
    """Each report file parsed in turn; the first that fails, or that a
    timeout cut short, names its path."""
    for path in paths:
        try:
            report = parse_report(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        if report.partial:
            raise ValueError(f"{path}: partial report (the run timed out), not pooled")
        yield report


def _cmd_stats(args) -> int:
    # One parsed report at a time: each is folded before the next is read.
    aggregates = aggregate_corpus(_parsed_reports(args.reports))
    _write_output(render_aggregates(aggregates, args.format or FORMAT_JSON), args.out)
    return EXIT_CLEAN


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("scan", "history"):
            return _run_analysis(args, args.command)
        return _cmd_stats(args)
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
