"""End-to-end scan orchestration for current-state and full-history analysis."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .docdiscovery import (
    ORIGIN_README,
    ORIGIN_WIKI,
    DiscoveryConfig,
    DocumentDescriptor,
    discover_documents,
)
from .extraction import RegexCatalog, default_catalog, extract_elements
from .matching import HistoryCounter, MatchConfig, classify_current
from .reporting import (
    MODE_CURRENT,
    MODE_HISTORY,
    Aggregates,
    Finding,
    ScanReport,
    UrlTemplates,
    build_finding_urls,
    compute_aggregates,
    sort_findings,
)
from .revgraph import (
    Change,
    DocVersion,
    EmptyHistoryError,
    GitRepo,
    KIND_WIKI,
    MissingRepositoryError,
    Revision,
    RevisionSequence,
    link_source_to_docs,
    snapshot_for_doc,
)
from .timeline import (
    ElementTimeline,
    cell_symbol,
    detect_episodes,
    episode_duration,
    is_count,
    is_positive,
)

DEFAULT_TIMEOUT_SECONDS = 86_400.0


class ScanTimeout(Exception):
    """Internal signal that the configured wall-clock budget ran out."""


class _Deadline:
    def __init__(self, seconds: float):
        self._at = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self._at

    def check(self) -> None:
        if self.expired():
            raise ScanTimeout


@dataclass
class RunConfig:
    repo_path: str
    wiki_path: str | None = None
    branch: str | None = None
    catalog: RegexCatalog | None = None
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    exclude_globs: tuple[str, ...] = ()
    max_file_bytes: int = 10 * 1024 * 1024
    scan_time: int | None = None
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    url_base: str | None = None
    strict_episodes: bool = False
    project_id: str | None = None

    def resolved_project_id(self) -> str:
        if self.project_id:
            return self.project_id
        name = Path(self.repo_path).name
        return name[:-4] if name.endswith(".git") else name


def _derive_url_base(repo: GitRepo) -> str | None:
    url = repo.remote_url()
    if not url:
        return None
    if url.startswith("git@") and ":" in url:
        host, _, path = url[4:].partition(":")
        url = f"https://{host}/{path}"
    if not url.startswith(("http://", "https://")):
        return None
    return url[:-4] if url.endswith(".git") else url


def _sorted_warnings(*warning_lists: list[dict]) -> list[dict]:
    merged: list[dict] = []
    for warnings in warning_lists:
        merged.extend(warnings)
    return sorted(merged, key=lambda w: json.dumps(w, sort_keys=True))


def _evidence(matched_paths: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int, str], ...]:
    return tuple(
        (path, line, "path-variant" if line == 0 else "text") for path, line in matched_paths
    )


class _Project:
    """Opened repositories plus the shared derived state both modes need."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.source = GitRepo(config.repo_path)
        self.source_branch = self.source.resolve_branch(config.branch)
        self.source_seq = self.source.linearize_history(self.source_branch)
        self.warnings: list[dict] = []
        self.wiki: GitRepo | None = None
        self.wiki_branch: str | None = None
        self.wiki_seq: RevisionSequence | None = None
        if config.wiki_path:
            try:
                wiki = GitRepo(config.wiki_path)
                branch = wiki.resolve_branch(None)
                self.wiki_seq = wiki.linearize_history(branch, KIND_WIKI)
                self.wiki = wiki
                self.wiki_branch = branch
            except (MissingRepositoryError, EmptyHistoryError) as exc:
                self.warnings.append({"kind": "wiki_unavailable", "detail": str(exc)})
        self.catalog = config.catalog or default_catalog()
        templates_base = config.url_base or _derive_url_base(self.source)
        self.templates = UrlTemplates(base=templates_base)
        self.scan_time = (
            config.scan_time if config.scan_time is not None else int(time.time())
        )

    def close(self) -> None:
        self.source.close()
        if self.wiki is not None:
            self.wiki.close()

    def hosting(self, document: DocumentDescriptor) -> tuple[GitRepo, RevisionSequence, str]:
        if document.origin == ORIGIN_README:
            return self.source, self.source_seq, self.source_branch
        assert self.wiki is not None and self.wiki_seq is not None and self.wiki_branch
        return self.wiki, self.wiki_seq, self.wiki_branch

    def match_config(self, documents: list[DocumentDescriptor]) -> MatchConfig:
        # The analysed documents themselves never count as source instances.
        doc_paths = tuple(
            d.path for d in documents if d.origin == ORIGIN_README
        )
        return MatchConfig(
            exclude_globs=(".git/",) + doc_paths + tuple(self.config.exclude_globs),
            max_file_bytes=self.config.max_file_bytes,
        )

    def revision_by_sha(self, seq: RevisionSequence, sha: str) -> Revision:
        return seq.by_sha.get(sha, seq.head)


def run_scan(config: RunConfig) -> ScanReport:
    """Current-state scan: compare each document's references between its
    snapshot revision and the head of the source history.

    Documents are read first, with one deadline check each. One
    ``HistoryCounter`` over revision 0, the snapshots and head then counts
    every cited element at head and moves to each snapshot, newest first,
    with one deadline check per move. A timed-out scan holds the findings of
    the documents whose snapshot was counted.
    """
    project = _Project(config)
    deadline = _Deadline(config.timeout_seconds)
    try:
        seq = project.source_seq
        head = seq.head
        wiki_tree = (
            project.wiki.tree_at(project.wiki_seq.head.sha)
            if project.wiki is not None
            else None
        )
        documents = discover_documents(
            project.source.tree_at(head.sha), wiki_tree, config.discovery
        )

        # snapshot -> (document, its refs, sha of its hosting head) per document
        cited: dict[Revision, list[tuple]] = {}
        elements: set[str] = set()
        findings: list[Finding] = []
        warnings: list[dict] = []
        partial = False
        try:
            for document in documents:
                deadline.check()
                repo, hosting_seq, branch = project.hosting(document)
                doc_text = repo.read_blob(hosting_seq.head.sha, document.path)
                refs = extract_elements(doc_text, project.catalog, document)
                if not refs:
                    continue
                touch = repo.last_touch(branch, document.path)
                if touch is None:
                    continue
                doc_version = DocVersion(
                    document, project.revision_by_sha(hosting_seq, touch[0]), doc_text
                )
                snapshot = snapshot_for_doc(doc_version, seq)
                cited.setdefault(snapshot, []).append((document, refs, hosting_seq.head.sha))
                elements.update(ref.text for ref in refs)

            deadline.check()
            revisions = tuple(sorted({seq.revisions[0], head, *cited}, key=lambda r: r.ordinal))
            counter = HistoryCounter(
                project.source,
                project.match_config(documents),
                frozenset(elements),
                revisions,
                project.source.first_parent_changes(revisions),
            )
            warnings = counter.warnings
            counter.seek(head)
            current = {element: counter.count(element, head) for element in elements}
            for snapshot in sorted(cited, key=lambda r: r.ordinal, reverse=True):
                deadline.check()
                counter.seek(snapshot)
                for document, refs, doc_sha in cited[snapshot]:
                    for ref in refs:
                        snapshot_count = counter.count(ref.text, snapshot)
                        finding = Finding(
                            element_text=ref.text,
                            document=document,
                            status=classify_current(snapshot_count, current[ref.text]),
                            snapshot_sha=snapshot.sha,
                            snapshot_count=snapshot_count,
                            current_sha=head.sha,
                            current_count=current[ref.text],
                            evidence=_evidence(counter.evidence(ref.text)),
                            evidence_sha=snapshot.sha,
                            doc_sha=doc_sha,
                        )
                        finding.urls = build_finding_urls(finding, project.templates)
                        findings.append(finding)
        except ScanTimeout:
            partial = True

        findings = sort_findings(findings)
        report = ScanReport(
            project_id=config.resolved_project_id(),
            scan_time=project.scan_time,
            mode=MODE_CURRENT,
            findings=findings,
            warnings=_sorted_warnings(project.warnings, warnings),
            aggregates=compute_aggregates(findings),
            revisions=None,
            partial=partial,
        )
        return report
    finally:
        project.close()


def _union_listing(changes: list[list[Change]]) -> list[str]:
    """Every path that holds a blob at some revision, sorted."""
    return sorted({
        path.decode("utf-8", errors="replace")
        for revision_changes in changes
        for path, _, new in revision_changes
        if new is not None
    })


def _blob_series(changes: list[list[Change]], paths: set[str]) -> dict[str, list[str | None]]:
    """The blob of each of *paths* at every revision, None where it is absent."""
    current: dict[str, str | None] = dict.fromkeys(paths)
    series: dict[str, list[str | None]] = {path: [] for path in paths}
    for revision_changes in changes:
        for raw, _, new in revision_changes:
            path = raw.decode("utf-8", errors="replace")
            if path in current:
                current[path] = new
        for path, blobs in series.items():
            blobs.append(current[path])
    return series


def run_history(config: RunConfig) -> ScanReport:
    """Full-history analysis producing symbolic timelines and episodes.

    Each repository's first-parent changes come from one diff stream. Cells
    are decided in one pass over the revisions, newest first, while a
    ``HistoryCounter`` undoes each revision's changes, so that when the
    timeout strikes, the partial output covers the most recent revisions.
    """
    project = _Project(config)
    deadline = _Deadline(config.timeout_seconds)
    try:
        source_seq = project.source_seq
        head = source_seq.head
        # Keyed by the origin of the documents each repository hosts.
        changes = {ORIGIN_README: project.source.first_parent_changes(source_seq.revisions)}
        if project.wiki is not None:
            changes[ORIGIN_WIKI] = project.wiki.first_parent_changes(project.wiki_seq.revisions)
        documents = discover_documents(
            _union_listing(changes[ORIGIN_README]),
            _union_listing(changes[ORIGIN_WIKI]) if ORIGIN_WIKI in changes else None,
            config.discovery,
        )
        doc_blobs = {
            origin: _blob_series(origin_changes, {d.path for d in documents if d.origin == origin})
            for origin, origin_changes in changes.items()
        }

        # Document side: dense version lists over each document's hosting
        # history, extraction cached per distinct blob.
        doc_text_cache: dict[str, str | None] = {}
        refs_by_blob: dict[str | None, frozenset[str]] = {None: frozenset()}
        rows: list[dict] = []
        n = len(source_seq.revisions)
        covered_from = n
        partial = False
        for document in documents:
            if deadline.expired():
                partial = True
                break
            repo, hosting_seq, _ = project.hosting(document)
            blobs = doc_blobs[document.origin][document.path]
            versions: list[DocVersion] = []
            refs_map: dict[tuple[str, str], frozenset[str]] = {}
            elements: set[str] = set()
            for rev, blob in zip(hosting_seq.revisions, blobs):
                if blob is None:
                    text = None
                    refs: frozenset[str] = frozenset()
                else:
                    if blob not in doc_text_cache:
                        doc_text_cache[blob] = repo.read_blob_bytes(blob).decode(
                            "utf-8", errors="replace"
                        )
                    text = doc_text_cache[blob]
                    if blob not in refs_by_blob:
                        refs_by_blob[blob] = frozenset(
                            ref.text
                            for ref in extract_elements(text, project.catalog, document)
                        )
                    refs = refs_by_blob[blob]
                versions.append(DocVersion(document, rev, text))
                refs_map[(document.path, rev.sha)] = refs
                elements.update(refs)
            if not elements:
                continue
            if document.origin == ORIGIN_README:
                pairs = list(zip(source_seq.revisions, versions))
            else:
                ordered = sorted(versions, key=lambda v: v.timestamp)
                pairs = link_source_to_docs(source_seq, ordered)
            refs_provider = lambda dv, _m=refs_map: _m[(dv.descriptor.path, dv.revision.sha)]
            for element in sorted(elements):
                rows.append(
                    {
                        "document": document,
                        "element": element,
                        "pairs": pairs,
                        "refs_provider": refs_provider,
                        "doc_sha": hosting_seq.head.sha if blobs[-1] else None,
                        "symbols": [None] * n,
                        "failed": [],
                        "evidence": None,
                    }
                )

        # One symbol per (row, revision) cell, newest revisions first. A row's
        # evidence comes from its newest positive cell.
        counter = HistoryCounter(
            project.source,
            project.match_config(documents),
            frozenset(row["element"] for row in rows),
            source_seq.revisions,
            changes[ORIGIN_README],
        )
        if not partial:
            try:
                for i in range(n - 1, -1, -1):
                    deadline.check()
                    counter.seek(source_seq.revisions[i])
                    for row in rows:
                        revision, doc_version = row["pairs"][i]
                        symbol, failed = cell_symbol(
                            row["element"],
                            revision,
                            doc_version,
                            counter.count,
                            row["refs_provider"],
                        )
                        row["symbols"][i] = symbol
                        if failed:
                            row["failed"].append(i)
                        elif row["evidence"] is None and is_positive(symbol):
                            row["evidence"] = (counter.evidence(row["element"]), revision.sha)
                    covered_from = i
            except ScanTimeout:
                partial = True

        findings: list[Finding] = []
        warnings_extra: list[dict] = []
        if partial:
            for row in rows:
                findings.append(
                    Finding(
                        element_text=row["element"],
                        document=row["document"],
                        status=None,
                        current_sha=head.sha,
                        symbols_suffix=row["symbols"][covered_from:],
                    )
                )
        else:
            for row in rows:
                timeline = ElementTimeline(
                    row["element"],
                    row["document"],
                    row["symbols"],
                    source_seq.revisions,
                    partial=bool(row["failed"]),
                    failed_ordinals=sorted(row["failed"]),
                )
                episodes = detect_episodes(timeline, strict=config.strict_episodes)
                for episode in episodes:
                    episode.duration_seconds = episode_duration(
                        episode, timeline.revisions, scan_time=project.scan_time
                    )
                    if not episode.ongoing and episode.duration_seconds < 0:
                        warnings_extra.append(
                            {
                                "kind": "negative_duration",
                                "element": row["element"],
                                "document": row["document"].path,
                                "start_ordinal": episode.start_ordinal,
                            }
                        )
                finding = _history_finding(row, timeline, episodes, head, project)
                findings.append(finding)

        findings = sort_findings(findings)
        report = ScanReport(
            project_id=config.resolved_project_id(),
            scan_time=project.scan_time,
            mode=MODE_HISTORY,
            findings=findings,
            warnings=_sorted_warnings(project.warnings, counter.warnings, warnings_extra),
            aggregates=compute_aggregates(findings),
            revisions=source_seq.revisions,
            partial=partial,
            covered_from_ordinal=covered_from if partial else None,
        )
        return report
    finally:
        project.close()


def _history_finding(
    row: dict,
    timeline: ElementTimeline,
    episodes,
    head: Revision,
    project: _Project,
) -> Finding:
    symbols = timeline.symbols
    current_count = symbols[-1] if symbols and is_count(symbols[-1]) else None
    matched_paths, evidence_sha = row["evidence"] or ((), None)
    finding = Finding(
        element_text=row["element"],
        document=row["document"],
        status=None,
        snapshot_sha=None,
        snapshot_count=None,
        current_sha=head.sha,
        current_count=current_count,
        evidence=_evidence(matched_paths),
        evidence_sha=evidence_sha,
        doc_sha=row["doc_sha"],
        timeline=timeline,
        episodes=episodes,
    )
    finding.urls = build_finding_urls(finding, project.templates)
    return finding
