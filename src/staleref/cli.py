"""Command-line interface.

Subcommands: scan, history, stats. Every setting comes from its flag; one
whose flag is not given keeps the default of RunConfig.

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

from .pipeline import RunConfig, project_home, run_history, run_scan
from .reporting import (
    FORMAT_CSV,
    FORMAT_JSON,
    aggregate_corpus,
    parse_report,
    render_aggregates,
    render_findings,
    render_issue_draft,
)
from .revgraph import GitError

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
    shared.add_argument("--repo", required=True, help="path to the source clone")
    shared.add_argument("--wiki", help="path to the wiki clone, 'auto', or 'none'")
    shared.add_argument("--branch", help="source branch (default: checked-out branch)")
    shared.add_argument(
        "--exclude", action="append", help="exclude glob for source scanning (repeatable)"
    )
    shared.add_argument("--format", choices=[FORMAT_JSON, FORMAT_CSV], default=FORMAT_JSON)
    shared.add_argument("--out", help="write the report here instead of stdout")
    shared.add_argument("--timeout", type=float, help="wall-clock budget in seconds")
    shared.add_argument("--max-file-bytes", type=int, help="skip source files larger than this")
    shared.add_argument(
        "--scan-time", help="pin the scan timestamp (epoch seconds or RFC 3339)"
    )
    shared.add_argument("--url-base", help="base URL for browse links in reports")
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
    stats.add_argument("--out")

    return parser


def _given(**options) -> dict:
    """The options that have a value; the others keep their defaults."""
    return {name: value for name, value in options.items() if value is not None}


# Epoch seconds in ASCII digits: no "_" separator and no other script's digits.
_EPOCH = re.compile(r"[+-]?[0-9]+")
# An RFC 3339 (section 5.6) date-time: "T" and "Z" in either case, a
# fraction of any length, and "Z" or a numeric offset.
_RFC3339 = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})[Tt]([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.[0-9]+)?"
    r"(?:[Zz]|([+-])([01][0-9]|2[0-3]):([0-5][0-9]))"
)


def _parse_scan_time(value: str) -> int:
    """Epoch seconds from an integer in ASCII digits or an RFC 3339 date-time, whose
    fraction of a second is dropped: the instant is floored."""
    text = value.strip()
    if _EPOCH.fullmatch(text):
        return int(text)
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
    scan_time = None
    if args.scan_time is not None:
        try:
            scan_time = _parse_scan_time(args.scan_time)
        except ValueError as exc:
            raise ValueError(f"scan_time: {exc}") from None
    config = RunConfig(**_given(
        repo_path=args.repo,
        wiki_path=_resolve_wiki(args.repo, args.wiki),
        branch=args.branch,
        extra_doc_globs=tuple(args.extra_doc_glob or ()),
        exclude_globs=tuple(args.exclude or ()),
        max_file_bytes=args.max_file_bytes,
        scan_time=scan_time,
        timeout_seconds=args.timeout,
        url_base=args.url_base,
    ))
    out, draft_target = args.out, args.issue_draft
    if (out and draft_target and "-" not in (out, draft_target)
            and os.path.realpath(out) == os.path.realpath(draft_target)):
        raise ValueError(
            f"--out and --issue-draft name the same file: {out!r} and {draft_target!r}"
        )
    # A target that cannot be opened fails now, not after the run.
    for flag, target in (("--out", out), ("--issue-draft", draft_target)):
        if target and target != "-":
            if os.path.isdir(target):
                raise ValueError(f"{flag} names a directory: {target!r}")
            if not os.path.isdir(os.path.dirname(target) or "."):
                raise ValueError(f"{flag} names a file whose directory is not there: {target!r}")

    report = run_history(config) if mode == "history" else run_scan(config)

    _write_output(render_findings(report, args.format), out)
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
    _write_output(render_aggregates(aggregates), args.out)
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
