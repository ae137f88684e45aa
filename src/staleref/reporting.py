"""Report assembly and rendering: JSON, CSV, Markdown, and issue drafts."""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from collections.abc import Iterable
from datetime import datetime, timezone
from urllib.parse import quote

from .docdiscovery import ORIGIN_WIKI, DocumentDescriptor
from .matching import STATUS_IN_SYNC, STATUS_NEVER_MATCHED, STATUS_OUTDATED
from .revgraph import Revision, RevisionSequence
from .timeline import (
    DOC_ABSENT,
    FIX_KINDS,
    NO_REFERENCE,
    FixEvent,
    OutdatedEpisode,
    Symbol,
    is_count,
    survival_curve,
    validate_symbol,
)

SCHEMA_VERSION = 1
MODE_CURRENT = "current"
MODE_HISTORY = "history"

FORMAT_JSON = "json"
FORMAT_CSV = "csv"
FORMAT_MARKDOWN = "md"

# GitHub-shaped browse URLs; never fetched.
BLOB_URL = "{base}/blob/{sha}/{path}#L{line}"
BLOB_NO_LINE_URL = "{base}/blob/{sha}/{path}"
WIKI_URL = "{base}/wiki/{page}/{sha}"
COMMIT_URL = "{base}/commit/{sha}"


class Finding(
    namedtuple(
        "Finding",
        "element_text document status snapshot_sha snapshot_count current_sha current_count"
        " evidence evidence_sha doc_sha urls symbols failed_ordinals episodes symbols_suffix",
        defaults=(None, None, None, None, (), None, None, None, None, None, None, None),
    )
):
    """One (element, document) result. Immutable.

    Current-mode findings carry a status and the snapshot/current counts;
    history-mode findings carry their symbols, one per revision of the report,
    the ordinals whose document version could not be read (read as
    DocAbsent), and their episodes instead (status is None there).
    ``evidence`` lists (path, line, kind) for instances at the evidence
    revision, where kind is "text" or "path-variant".
    """

    __slots__ = ()

    @property
    def outdated(self) -> bool:
        """Ever-outdated in history mode, currently outdated in current mode."""
        if self.episodes is not None:
            return bool(self.episodes)
        return self.status == STATUS_OUTDATED

    @property
    def currently_outdated(self) -> bool:
        if self.episodes is not None:
            return any(ep.ongoing for ep in self.episodes)
        return self.status == STATUS_OUTDATED


class Aggregates(
    namedtuple(
        "Aggregates",
        "elements_total elements_outdated documents_total documents_outdated projects_total"
        " projects_outdated fix_kind_counts reoutdated_count duration_stats survival_points",
    )
):
    """Totals over the findings of one or more projects; see ``_fold``.
    Immutable, and its fields are in the order of a report's ``aggregates``."""

    __slots__ = ()


class ScanReport(
    namedtuple(
        "ScanReport",
        "project_id scan_time mode findings warnings revisions partial covered_from_ordinal",
        defaults=(None, False, None),
    )
):
    """One run's findings and warnings, with the revisions that history
    symbols belong to and how far a partial run got. Immutable."""

    __slots__ = ()


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(
        findings, key=lambda f: (f.document.origin, f.document.path, f.element_text)
    )


# -- aggregates ---------------------------------------------------------------


def compute_aggregates(findings: list[Finding]) -> Aggregates:
    """Totals over one report's findings: the report's ``aggregates`` block,
    which is written from them and checked against them when parsed."""
    return _fold([findings])


def aggregate_corpus(reports: Iterable[ScanReport]) -> Aggregates:
    """Pool findings across reports from distinct projects, folding each
    report as it comes."""
    return _fold(report.findings for report in reports)


def _fold(projects: Iterable[list[Finding]]) -> Aggregates:
    """Totals over the findings of each project, and fix kinds, durations
    and the survival curve over all their episodes, in one pass. Only the
    totals and the durations outlive a project's findings."""
    projects_total = elements_total = elements_outdated = reoutdated_count = 0
    documents_total = documents_outdated = projects_outdated = 0
    fix_kind_counts = {kind: 0 for kind in FIX_KINDS}
    durations: list[int] = []
    fixed_positive: list[int] = []
    for findings in projects:
        documents: set[tuple] = set()
        outdated_docs: set[tuple] = set()
        pairs_with_episode: set[tuple] = set()
        for f in findings:
            document = (f.document.origin, f.document.path)
            documents.add(document)
            if f.outdated:
                elements_outdated += 1
                outdated_docs.add(document)
            if f.episodes:
                pairs_with_episode.add((document, f.element_text))
                reoutdated_count += len(f.episodes)
            for episode in f.episodes or ():
                if episode.fix is not None:
                    fix_kind_counts[episode.fix.kind] += 1
                if episode.duration_seconds is not None:
                    durations.append(episode.duration_seconds)
                    if not episode.ongoing and episode.duration_seconds > 0:
                        fixed_positive.append(episode.duration_seconds)
        projects_total += 1
        projects_outdated += bool(outdated_docs)
        elements_total += len(findings)
        documents_total += len(documents)
        documents_outdated += len(outdated_docs)
        reoutdated_count -= len(pairs_with_episode)  # all but each pair's first
    duration_stats = None
    if durations:
        duration_stats = {
            "min": min(durations),
            "median": median(durations),
            "mean": fmean(durations),
            "max": max(durations),
        }
    return Aggregates(
        elements_total, elements_outdated, documents_total, documents_outdated, projects_total,
        projects_outdated, fix_kind_counts, reoutdated_count, duration_stats,
        [[d, f] for d, f in survival_curve(fixed_positive, sorted({0, *fixed_positive}))],
    )


def median(values: list[int]) -> int | float:
    """The median of *values*, as ``statistics.median`` gives it: the middle
    value, or the correctly rounded mean of the two middle ones."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def fmean(values: list[int]) -> float:
    """The mean of *values* as a float, as ``statistics.fmean`` gives it."""
    return math.fsum(values) / len(values)


# -- serialization --------------------------------------------------------------


def rfc3339(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


def _document_dict(document: DocumentDescriptor) -> dict:
    return {"origin": document.origin, "path": document.path, "format": document.format}


def _parse_document(data: dict) -> DocumentDescriptor:
    return DocumentDescriptor(data["origin"], data["path"], data["format"])


def _parse_episode(data: dict, count: int) -> OutdatedEpisode:
    """*data* as an episode whose ordinals are among *count* revisions."""
    fix = None
    if data.get("fix"):
        fd = data["fix"]
        fix = FixEvent(fd["kind"], fd["at_ordinal"], fd["at_sha"], fd["at_timestamp"])
    ordinals = [data["start_ordinal"]]
    ordinals += [o for o in (data["end_ordinal"], fix and fix.at_ordinal) if o is not None]
    if not all(type(o) is int and 0 <= o < count for o in ordinals):
        raise ValueError(f"episode ordinals outside the revisions: {ordinals!r}")
    duration = data.get("duration_seconds")
    if duration is not None and not is_count(duration):
        raise ValueError(f"episode duration is no integer: {duration!r}")
    return OutdatedEpisode(
        data["start_ordinal"], data["end_ordinal"], fix=fix, duration_seconds=duration
    )


def _parse_symbols(symbols, count: int) -> tuple[Symbol, ...]:
    """*symbols*, a JSON array, as a timeline of *count* symbols; the error
    names the first symbol that is none."""
    if type(symbols) is not list:
        raise ValueError("symbols are no array")
    if len(symbols) != count:
        raise ValueError("one symbol per revision required")
    for symbol in symbols:
        if not (type(symbol) is int and symbol >= 0 or symbol in (DOC_ABSENT, NO_REFERENCE)):
            validate_symbol(symbol)
    return tuple(symbols)


def _parse_failed_ordinals(ordinals, count: int) -> tuple[int, ...]:
    """*ordinals*, null for none, as strictly ascending ordinals below *count*."""
    ordinals = [] if ordinals is None else ordinals
    if type(ordinals) is not list or not all(
        type(o) is int and previous < o < count for previous, o in zip([-1, *ordinals], ordinals)
    ):
        raise ValueError(f"failed_ordinals are no ascending revision ordinals: {ordinals!r}")
    return tuple(ordinals)


def _episode_dict(episode: OutdatedEpisode) -> dict:
    """An episode's JSON object: its fields and its fix's, in order."""
    fix = episode.fix
    return dict(episode._asdict(), fix=None if fix is None else fix._asdict())


def _finding_dict(finding: Finding) -> dict:
    return {
        "element_text": finding.element_text,
        "document": _document_dict(finding.document),
        "status": finding.status,
        "snapshot_sha": finding.snapshot_sha,
        "snapshot_count": finding.snapshot_count,
        "current_sha": finding.current_sha,
        "current_count": finding.current_count,
        "evidence": [
            {"path": path, "line": line, "kind": kind}
            for path, line, kind in finding.evidence
        ],
        "evidence_sha": finding.evidence_sha,
        "doc_sha": finding.doc_sha,
        "urls": finding.urls,
        "symbols": finding.symbols,
        "timeline_partial": None if finding.symbols is None else bool(finding.failed_ordinals),
        "failed_ordinals": finding.failed_ordinals,
        "episodes": [_episode_dict(ep) for ep in finding.episodes]
        if finding.episodes is not None
        else None,
        "symbols_suffix": finding.symbols_suffix,
    }


def _parse_finding(
    data: dict, revisions: tuple[Revision, ...] | None, covered_from: int | None, mode: str | None
) -> Finding:
    document = _parse_document(data["document"])
    status = data.get("status")
    if mode == MODE_HISTORY and status is not None:
        raise ValueError(f"history finding with a status: {status!r}")
    if mode == MODE_CURRENT:
        for key in ("symbols", "failed_ordinals", "episodes", "symbols_suffix"):
            if data.get(key) is not None:
                raise ValueError(f"current finding with {key}")
        if status not in (STATUS_OUTDATED, STATUS_IN_SYNC, STATUS_NEVER_MATCHED):
            raise ValueError(f"current finding with status: {status!r}")
    symbols = failed = None
    if data.get("symbols") is not None:
        if revisions is None:
            raise ValueError("symbols without revisions")
        symbols = _parse_symbols(data["symbols"], len(revisions))
        failed = _parse_failed_ordinals(data.get("failed_ordinals"), len(revisions))
        if bool(data.get("timeline_partial")) != bool(failed):
            raise ValueError("timeline_partial disagrees with failed_ordinals")
    elif data.get("failed_ordinals") is not None:
        raise ValueError("failed_ordinals without symbols")
    elif mode == MODE_HISTORY and covered_from is None:
        raise ValueError("history finding without symbols")
    suffix = data.get("symbols_suffix")
    if covered_from is not None:
        suffix = list(_parse_symbols(suffix, len(revisions) - covered_from))
    elif suffix is not None:
        raise ValueError("symbols_suffix without covered_from_ordinal")
    episodes = None
    if data.get("episodes") is not None:
        if revisions is None:
            raise ValueError("episodes without revisions")
        episodes = [_parse_episode(ep, len(revisions)) for ep in data["episodes"]]
    return Finding(
        element_text=data["element_text"],
        document=document,
        status=status,
        snapshot_sha=data.get("snapshot_sha"),
        snapshot_count=data.get("snapshot_count"),
        current_sha=data.get("current_sha"),
        current_count=data.get("current_count"),
        evidence=tuple(
            (e["path"], e["line"], e["kind"]) for e in data.get("evidence", [])
        ),
        evidence_sha=data.get("evidence_sha"),
        doc_sha=data.get("doc_sha"),
        urls=data.get("urls"),
        symbols=symbols,
        failed_ordinals=failed,
        episodes=episodes,
        symbols_suffix=suffix,
    )


def report_to_dict(report: ScanReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "project": report.project_id,
        "scan_time": rfc3339(report.scan_time),
        "scan_time_epoch": report.scan_time,
        "mode": report.mode,
        "partial": report.partial,
        "covered_from_ordinal": report.covered_from_ordinal,
        "revisions": [
            {"sha": r.sha, "timestamp": r.timestamp, "ordinal": r.ordinal}
            for r in report.revisions
        ]
        if report.revisions is not None
        else None,
        "findings": [_finding_dict(f) for f in report.findings],
        "warnings": report.warnings,
        "aggregates": compute_aggregates(report.findings)._asdict(),
    }


def parse_report(text: str) -> ScanReport:
    """Inverse of the JSON rendering; findings round-trip exactly.

    Raises ValueError for text that is no report of this schema version, for
    one whose aggregates or timelines disagree with its findings or revisions,
    and for a finding whose fields belong to the other mode.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a report is a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema_version: {version!r}")
    try:
        revisions = None
        if data.get("revisions") is not None:
            revisions = RevisionSequence(tuple(
                Revision(r["sha"], r["timestamp"], r["ordinal"]) for r in data["revisions"]
            )).revisions
        covered_from = data.get("covered_from_ordinal")
        n = len(revisions) if revisions is not None and data.get("partial") else -1
        if covered_from is not None and not (type(covered_from) is int and 0 <= covered_from <= n):
            raise ValueError("covered_from_ordinal is no ordinal of a partial report's "
                             f"revisions: {covered_from!r}")
        findings = [
            _parse_finding(f, revisions, covered_from, data.get("mode")) for f in data["findings"]
        ]
        mode = data["mode"]
        if mode not in (MODE_CURRENT, MODE_HISTORY):
            raise ValueError(f"unknown report mode: {mode!r}")
        if data["aggregates"] != compute_aggregates(findings)._asdict():
            raise ValueError("aggregates disagree with the findings")
        scan_time = data["scan_time_epoch"]
        if type(scan_time) is not int:
            raise ValueError(f"scan_time_epoch is no integer: {scan_time!r}")
        try:
            stated = rfc3339(scan_time)
        except (OverflowError, OSError, ValueError):
            stated = None
        if data["scan_time"] != stated:
            raise ValueError(f"scan_time is not the RFC 3339 form of scan_time_epoch: "
                             f"{data['scan_time']!r}")
        return ScanReport(
            project_id=data["project"],
            scan_time=scan_time,
            mode=mode,
            findings=findings,
            warnings=data.get("warnings", []),
            revisions=revisions,
            partial=bool(data.get("partial")),
            covered_from_ordinal=covered_from,
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed report: {exc!r}") from None


# -- rendering -------------------------------------------------------------------


def render_findings(report: ScanReport, fmt: str = FORMAT_JSON) -> str:
    if fmt == FORMAT_JSON:
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if fmt == FORMAT_CSV:
        if report.mode == MODE_HISTORY:
            return _render_history_table(report)
        return _render_findings_csv(report)
    if fmt == FORMAT_MARKDOWN:
        return _render_findings_markdown(report)
    raise ValueError(f"unknown output format: {fmt!r}")


def render_aggregates(agg: Aggregates, fmt: str = FORMAT_JSON) -> str:
    """Pooled aggregates as JSON, as a one-row CSV table of the scalar
    totals, or as a Markdown list."""
    data = agg._asdict()
    if fmt == FORMAT_JSON:
        return json.dumps(data, indent=2) + "\n"
    if fmt == FORMAT_CSV:
        nested = ("fix_kind_counts", "duration_stats", "survival_points")
        keys = [k for k in data if k not in nested]
        return ",".join(keys) + "\n" + ",".join(str(data[k]) for k in keys) + "\n"
    if fmt == FORMAT_MARKDOWN:
        lines = ["# Pooled aggregates", ""]
        lines += [f"* {key}: {value}" for key, value in data.items()]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format: {fmt!r}")


def _render_findings_csv(report: ScanReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "element",
            "origin",
            "document",
            "format",
            "status",
            "snapshot_sha",
            "snapshot_count",
            "current_sha",
            "current_count",
            "episodes",
            "evidence",
        ]
    )
    for f in report.findings:
        evidence = ";".join(f"{p}:{ln}:{kind}" for p, ln, kind in f.evidence)
        writer.writerow(
            [
                f.element_text,
                f.document.origin,
                f.document.path,
                f.document.format,
                f.status if f.status is not None else "",
                f.snapshot_sha or "",
                f.snapshot_count if f.snapshot_count is not None else "",
                f.current_sha or "",
                f.current_count if f.current_count is not None else "",
                len(f.episodes) if f.episodes is not None else "",
                evidence,
            ]
        )
    return buf.getvalue()


def _render_findings_markdown(report: ScanReport) -> str:
    lines = [
        f"# Reference scan of {report.project_id}",
        "",
        f"* mode: {report.mode}",
        f"* scan time: {rfc3339(report.scan_time)}",
        f"* findings: {len(report.findings)} "
        f"({sum(f.outdated for f in report.findings)} outdated)",
    ]
    if report.partial:
        lines.append("* **partial results** (run hit its timeout)")
    lines.append("")
    for f in report.findings:
        marker = "**outdated**" if f.outdated else (f.status or "history")
        lines.append(f"- `{f.element_text}` in `{f.document.path}` ({f.document.origin}): {marker}")
        if f.status is not None:
            lines.append(
                f"  - snapshot count {f.snapshot_count} at `{(f.snapshot_sha or '')[:10]}`, "
                f"current count {f.current_count} at `{(f.current_sha or '')[:10]}`"
            )
        if f.episodes:
            for ep in f.episodes:
                if ep.ongoing:
                    lines.append(f"  - outdated since ordinal {ep.start_ordinal}, not fixed")
                else:
                    lines.append(
                        f"  - outdated at ordinal {ep.start_ordinal}, fixed by "
                        f"{ep.fix.kind} at ordinal {ep.end_ordinal}"
                    )
    lines.append("")
    return "\n".join(lines)


def _render_history_table(report: ScanReport) -> str:
    """CSV table with one row per finding and one column per revision the
    report covers: all, or in a partial report those from ``covered_from_ordinal``
    on, filled from ``symbols_suffix``. Each column, and the comment line that
    carries its revision's sha, is named R1..Rn by ordinal in every table."""
    if not report.findings:
        return "element,origin,document\n"
    start = report.covered_from_ordinal
    covered = report.revisions if start is None else report.revisions[start:]
    buf = io.StringIO()
    for rev in covered:
        buf.write(f"# R{rev.ordinal + 1} {rev.sha} {rev.timestamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "origin", "document"] + [f"R{rev.ordinal + 1}" for rev in covered])
    for f in report.findings:
        symbols = f.symbols if start is None else f.symbols_suffix
        writer.writerow([f.element_text, f.document.origin, f.document.path, *map(str, symbols)])
    return buf.getvalue()


def render_issue_draft(report: ScanReport) -> str:
    """Markdown issue text covering the report's currently outdated findings.

    Links come from each finding's ``urls``, as the report carries them.
    Raises ValueError when nothing is outdated; an empty issue would only be
    noise for maintainers.
    """
    outdated = [f for f in report.findings if f.currently_outdated]
    if not outdated:
        raise ValueError("no outdated findings to draft an issue for")
    title = "Outdated code references in the documentation"
    if report.project_id:
        title += f" of {report.project_id}"
    lines = [
        f"# {title}",
        "",
        "The references below no longer match anything in the source tree,",
        "although each of them did when its document was last updated.",
        "They may confuse readers until the documentation is adjusted.",
        "",
    ]
    for f in outdated:
        urls = f.urls or {}
        doc_url = urls.get("document")
        if doc_url:
            lines.append(f"- `{f.element_text}` in [{f.document.path}]({doc_url})")
        else:
            lines.append(f"- `{f.element_text}` in `{f.document.path}`")
        if f.evidence and f.evidence_sha:
            path, line, kind = f.evidence[0]
            src_url = urls.get("evidence")
            location = f"{path}:{line}" if line > 0 else path
            if kind == "path-variant":
                location = f"{path} (referenced as a path)"
            if src_url:
                lines.append(f"  - last matched [{location}]({src_url})")
            else:
                lines.append(f"  - last matched {location} at {f.evidence_sha[:10]}")
        deleting_sha = _deleting_sha(f, report.revisions)
        if deleting_sha:
            url = urls.get("deleting_commit")
            if url:
                lines.append(f"  - instances disappeared in [{deleting_sha[:10]}]({url})")
            else:
                lines.append(f"  - instances disappeared in {deleting_sha[:10]}")
    lines.append("")
    return "\n".join(lines)


def _deleting_sha(finding: Finding, revisions: tuple[Revision, ...] | None) -> str | None:
    """Commit in which the last instances vanished, when the timeline shows it."""
    if finding.symbols is None or finding.episodes is None:
        return None
    ongoing = [ep for ep in finding.episodes if ep.ongoing]
    if not ongoing:
        return None
    return revisions[ongoing[-1].start_ordinal].sha


def build_finding_urls(
    finding: Finding, base: str | None, revisions: tuple[Revision, ...] | None
) -> dict | None:
    """Browse URLs under *base* for the finding's document, its first evidence
    match and the commit that deleted its last instances, which *revisions*
    names; None without a base or without any of them. Paths and page names
    are percent-encoded."""
    if not base:
        return None
    urls: dict = {}
    if finding.doc_sha:
        document = finding.document
        template = WIKI_URL if document.origin == ORIGIN_WIKI else BLOB_NO_LINE_URL
        urls["document"] = template.format(
            base=base, sha=finding.doc_sha, page=quote(document.page_name),
            path=quote(document.path),
        )
    if finding.evidence and finding.evidence_sha:
        path, line, _ = finding.evidence[0]
        template = BLOB_URL if line > 0 else BLOB_NO_LINE_URL
        urls["evidence"] = template.format(
            base=base, sha=finding.evidence_sha, path=quote(path), line=line
        )
    deleting = _deleting_sha(finding, revisions)
    if deleting:
        urls["deleting_commit"] = COMMIT_URL.format(base=base, sha=deleting)
    return urls or None
