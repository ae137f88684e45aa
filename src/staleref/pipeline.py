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
from .extraction import RegexCatalog, default_catalog, element_texts
from .matching import HistoryCounter, MatchConfig, classify_current
from .reporting import (
    MODE_CURRENT,
    MODE_HISTORY,
    Finding,
    ScanReport,
    UrlTemplates,
    build_finding_urls,
    compute_aggregates,
    sort_findings,
)
from .revgraph import (
    Change,
    EmptyHistoryError,
    GitError,
    GitRepo,
    MissingRepositoryError,
    Revision,
    RevisionSequence,
    link_source_to_docs,
    snapshot_for_doc,
)
from .timeline import (
    DOC_ABSENT,
    NO_REFERENCE,
    ElementTimeline,
    detect_episodes,
    episode_duration,
    is_count,
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

    def resolved_project_id(self) -> str:
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
                self.wiki_seq = wiki.linearize_history(branch)
                self.wiki = wiki
                self.wiki_branch = branch
            except (MissingRepositoryError, EmptyHistoryError) as exc:
                self.warnings.append({"kind": "wiki_unavailable", "detail": str(exc)})
        self.catalog = config.catalog or default_catalog()
        # Line -> element texts, shared by every document the run extracts.
        self._line_elements: dict = {}
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

    def element_texts(self, doc_text: str) -> frozenset[str]:
        return element_texts(doc_text, self.catalog, self._line_elements)


def _unreadable(document: DocumentDescriptor, error: Exception | str) -> dict:
    return {"kind": "unreadable_document", "document": document.path, "detail": str(error)}


def run_scan(config: RunConfig) -> ScanReport:
    """Current-state scan: compare each document's references between its
    snapshot revision and the head of the source history.

    Each hosting repository's head tree is listed once, and gives both the
    documents and their blobs. Documents are read first, with one deadline
    check each; a document that cannot be read, or whose last touch is not
    found, is skipped with a warning. A README's snapshot is the source
    revision that last touched it; a wiki page's is the ``snapshot_for_doc``
    of the wiki revision that last touched it. One ``HistoryCounter`` over
    revision 0, the snapshots and head then counts every cited element at
    head and moves to each snapshot, newest first, with one deadline check
    per move. A timed-out scan holds the findings of the documents whose
    snapshot was counted.
    """
    project = _Project(config)
    deadline = _Deadline(config.timeout_seconds)
    try:
        seq = project.source_seq
        head = seq.head
        # path -> blob at the head of each repository, keyed by the origin of
        # the documents it hosts.
        trees = {ORIGIN_README: dict(project.source.tree_entries(head.sha))}
        if project.wiki is not None:
            trees[ORIGIN_WIKI] = dict(project.wiki.tree_entries(project.wiki_seq.head.sha))
        documents = discover_documents(
            list(trees[ORIGIN_README]),
            list(trees[ORIGIN_WIKI]) if ORIGIN_WIKI in trees else None,
            config.discovery,
        )

        # snapshot -> (document, its element texts, sha of its hosting head)
        cited: dict[Revision, list[tuple]] = {}
        elements: set[str] = set()
        findings: list[Finding] = []
        warnings: list[dict] = []
        doc_warnings: list[dict] = []
        partial = False
        try:
            for document in documents:
                deadline.check()
                repo, hosting_seq, branch = project.hosting(document)
                try:
                    data = repo.read_blob_bytes(trees[document.origin][document.path])
                except (GitError, OSError) as exc:
                    doc_warnings.append(_unreadable(document, exc))
                    continue
                texts = project.element_texts(data.decode("utf-8", errors="replace"))
                if not texts:
                    continue
                try:
                    touch = repo.last_touch(branch, document.path)
                except (GitError, OSError) as exc:
                    doc_warnings.append(_unreadable(document, exc))
                    continue
                if touch is None:
                    # git log matched no commit, as for a path that is not
                    # UTF-8 and reached it decoded.
                    doc_warnings.append(_unreadable(
                        document, f"no first-parent commit of {branch} touches it"
                    ))
                    continue
                touched = project.revision_by_sha(hosting_seq, touch[0])
                snapshot = (
                    touched if document.origin == ORIGIN_README
                    else snapshot_for_doc(touched, seq)
                )
                cited.setdefault(snapshot, []).append((document, texts, hosting_seq.head.sha))
                elements.update(texts)

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
                for document, texts, doc_sha in cited[snapshot]:
                    for text in sorted(texts):
                        snapshot_count = counter.count(text, snapshot)
                        finding = Finding(
                            element_text=text,
                            document=document,
                            status=classify_current(snapshot_count, current[text]),
                            snapshot_sha=snapshot.sha,
                            snapshot_count=snapshot_count,
                            current_sha=head.sha,
                            current_count=current[text],
                            evidence=_evidence(counter.evidence(text)),
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
            warnings=_sorted_warnings(project.warnings, doc_warnings, warnings),
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
    A document blob that cannot be read warns, and its cells read absent and
    count as failed, as a failed count does.
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

        # Document side: per source revision, the element texts each document
        # cites there, None where it is absent, or the read error where its
        # blob could not be read. Each distinct blob is read and extracted
        # once, and its text is dropped.
        refs_by_blob: dict[str, frozenset[str] | Exception] = {}
        doc_warnings: list[dict] = []
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
            for blob in dict.fromkeys(blobs):
                if blob is None:
                    continue
                if blob not in refs_by_blob:
                    try:
                        data = repo.read_blob_bytes(blob)
                    except (GitError, OSError) as exc:
                        refs_by_blob[blob] = exc
                    else:
                        refs_by_blob[blob] = project.element_texts(
                            data.decode("utf-8", errors="replace")
                        )
                if isinstance(refs_by_blob[blob], Exception):
                    doc_warnings.append(_unreadable(document, refs_by_blob[blob]))
            refs = [None if blob is None else refs_by_blob[blob] for blob in blobs]
            elements = frozenset().union(
                *(cited for cited in refs if isinstance(cited, frozenset))
            )
            if not elements:
                continue
            if document.origin != ORIGIN_README:
                refs = [refs[r.ordinal] for r in link_source_to_docs(source_seq, hosting_seq)]
            # Revisions that see an unreadable version read absent and count
            # as failed in every row of the document.
            unreadable_at = [i for i, cited in enumerate(refs) if isinstance(cited, Exception)]
            if unreadable_at:
                refs = [None if isinstance(cited, Exception) else cited for cited in refs]
            for element in sorted(elements):
                rows.append(
                    {
                        "document": document,
                        "element": element,
                        "refs": refs,
                        "doc_sha": hosting_seq.head.sha if blobs[-1] else None,
                        "symbols": [None] * n,
                        "failed": list(unreadable_at),
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
                    revision = source_seq.revisions[i]
                    counter.seek(revision)
                    for row in rows:
                        element, cited = row["element"], row["refs"][i]
                        if cited is None:
                            symbol = DOC_ABSENT
                        elif element not in cited:
                            symbol = NO_REFERENCE
                        else:
                            # A failed count reads as DocAbsent, so that it can
                            # never fabricate an outdated stretch on its own.
                            try:
                                symbol = counter.count(element, revision)
                            except Exception:
                                symbol = DOC_ABSENT
                                row["failed"].append(i)
                            else:
                                if symbol > 0 and row["evidence"] is None:
                                    row["evidence"] = (counter.evidence(element), revision.sha)
                        row["symbols"][i] = symbol
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
            warnings=_sorted_warnings(
                project.warnings, doc_warnings, counter.warnings, warnings_extra
            ),
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
