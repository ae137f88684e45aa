"""End-to-end scan orchestration for current-state and full-history analysis."""

from __future__ import annotations

import contextlib
import glob
import itertools
import json
import time
from collections.abc import Iterable, Iterator
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
    replay,
    snapshot_for_doc,
)
from .timeline import (
    DOC_ABSENT,
    NO_REFERENCE,
    detect_episodes,
    episode_duration,
    is_count,
)


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
    max_file_bytes: int = MatchConfig.max_file_bytes
    scan_time: int | None = None
    timeout_seconds: float = 86_400.0
    url_base: str | None = None
    strict_episodes: bool = False

    def resolved_project_id(self) -> str:
        name = Path(self.repo_path).name
        return name[:-4] if name.endswith(".git") else name


def _derive_url_base(repo: GitRepo) -> str | None:
    """The origin remote's web address, without the credentials it may hold."""
    url = repo.remote_url() or ""
    if url.startswith("git@") and ":" in url:
        url = "https://" + url[4:].replace(":", "/", 1)
    scheme, sep, rest = url.partition("://")
    if not sep or scheme not in ("http", "https"):
        return None
    authority, slash, path = rest.partition("/")
    url = f"{scheme}://{authority.rpartition('@')[2]}{slash}{path}".rstrip("/")
    return url.removesuffix(".git")


@dataclass(frozen=True)
class _Host:
    """One opened repository that hosts documents, with the first-parent
    history of the branch a run reads and that history's changes."""

    repo: GitRepo
    seq: RevisionSequence
    changes: list[list[Change]]

    @classmethod
    def open(cls, path: str, branch: str | None) -> _Host:
        repo = GitRepo(path)
        seq = repo.linearize_history(branch)
        return cls(repo, seq, repo.first_parent_changes(seq))


class _Project:
    """Opened repositories plus the shared derived state both modes need.

    ``hosts`` maps each document origin to the repository that hosts it;
    ``source``, the README host, is the one whose instances are counted.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.warnings: list[dict] = []
        self.source = _Host.open(config.repo_path, config.branch)
        self.hosts = {ORIGIN_README: self.source}
        if config.wiki_path:
            try:
                self.hosts[ORIGIN_WIKI] = _Host.open(config.wiki_path, None)
            except (MissingRepositoryError, EmptyHistoryError) as exc:
                self.warnings.append({"kind": "wiki_unavailable", "detail": str(exc)})
        self.catalog = config.catalog or default_catalog()
        # Line -> element texts, shared by every document the run extracts.
        self._line_elements: dict = {}
        self.url_base = config.url_base or _derive_url_base(self.source.repo)
        self.scan_time = (
            config.scan_time if config.scan_time is not None else int(time.time())
        )

    def discover(
        self, listings: dict[str, Iterable[bytes]]
    ) -> tuple[list[DocumentDescriptor], dict[DocumentDescriptor, bytes]]:
        """The documents among each origin's raw paths, and the raw path of
        each one the run reads; one whose decoded path has two is not read."""
        names: dict[str, dict[str, bytes | None]] = {origin: {} for origin in listings}
        for origin, paths in listings.items():
            for raw in paths:
                name = raw.decode("utf-8", errors="replace")
                names[origin][name] = None if name in names[origin] else raw
        documents = discover_documents(
            list(names[ORIGIN_README]),
            list(names[ORIGIN_WIKI]) if ORIGIN_WIKI in names else None,
            self.config.discovery,
        )
        raw_paths = {d: names[d.origin][d.path] for d in documents}
        self.warnings += [
            {"kind": "ambiguous_document_path", "document": d.path}
            for d, raw in raw_paths.items() if raw is None
        ]
        return documents, {d: raw for d, raw in raw_paths.items() if raw is not None}

    def match_config(self, documents: list[DocumentDescriptor]) -> MatchConfig:
        # The analysed documents themselves never count as source instances.
        # Each is excluded by its exact path: an anchored, literal pattern.
        doc_paths = tuple(
            "/" + glob.escape(d.path) for d in documents if d.origin == ORIGIN_README
        )
        return MatchConfig(
            exclude_globs=(".git/",) + doc_paths + tuple(self.config.exclude_globs),
            max_file_bytes=self.config.max_file_bytes,
        )

    def refs_of(self, origin: str, blobs: list[str]) -> Iterator[frozenset[str] | Exception]:
        """The element texts that each of *blobs*, documents of *origin*,
        cites, or the error that reading it gave, in order. Each distinct
        blob is read and extracted once, and its text is dropped; the blobs
        are read through one stream, which closing this iterator ends."""
        refs: dict[str, frozenset[str] | Exception] = {}
        distinct = list(dict.fromkeys(blobs))
        with contextlib.closing(self.hosts[origin].repo.read_blobs(distinct)) as stream:
            for blob in blobs:
                while blob not in refs:
                    read, data = next(stream)
                    if not isinstance(data, GitError):
                        text = data.decode("utf-8", errors="replace")
                        data = element_texts(text, self.catalog, self._line_elements)
                    refs[read] = data
                yield refs[blob]

    def report(
        self, mode: str, findings: list[Finding], *warning_lists: list[dict], **fields
    ) -> ScanReport:
        """The run's report: findings are sorted and get their browse URLs,
        and the warnings of the project and of *warning_lists* are merged in
        a stable order."""
        findings = sort_findings(findings)
        warnings = [w for group in (self.warnings, *warning_lists) for w in group]
        report = ScanReport(
            project_id=self.config.resolved_project_id(),
            scan_time=self.scan_time,
            mode=mode,
            findings=findings,
            warnings=sorted(warnings, key=lambda w: json.dumps(w, sort_keys=True)),
            aggregates=compute_aggregates(findings),
            **fields,
        )
        for finding in findings:
            finding.urls = build_finding_urls(finding, self.url_base, report.revisions)
        return report


def _unreadable(document: DocumentDescriptor, error: Exception) -> dict:
    return {"kind": "unreadable_document", "document": document.path, "detail": str(error)}


def run_scan(config: RunConfig) -> ScanReport:
    """Current-state scan: compare each document's references between its
    snapshot revision and the head of the source history.

    Each hosting repository's first-parent changes give its documents, their
    blobs at head and the revision that last touched each. Documents are
    read first, through one stream per repository, with one deadline check
    each; a document that cannot be read is skipped with a warning. A README's snapshot is the source revision
    that last touched it; a wiki page's is the ``snapshot_for_doc`` of the
    wiki revision that last touched it. One ``HistoryCounter`` then counts
    every cited element at head and moves to each snapshot, newest first,
    with one deadline check per move. A timed-out scan holds the findings of
    the documents whose snapshot was counted.
    """
    # The budget starts before the repositories are opened and diffed.
    deadline = _Deadline(config.timeout_seconds)
    project = _Project(config)
    source = project.source
    head = source.seq.head
    # raw path -> (blob at head, ordinal of its last change), per origin.
    heads = {origin: replay(host.changes) for origin, host in project.hosts.items()}
    documents, raw_paths = project.discover(heads)

    # snapshot -> (document, its element texts, sha of its hosting head)
    cited: dict[Revision, list[tuple]] = {}
    elements: set[str] = set()
    findings: list[Finding] = []
    warnings: list[dict] = []
    doc_warnings: list[dict] = []
    partial = False
    try:
        # One stream per origin reads its head documents.
        for origin, group in itertools.groupby(raw_paths.items(), key=lambda item: item[0].origin):
            group = list(group)
            host = project.hosts[origin]
            blobs = [heads[origin][raw][0] for _, raw in group]
            with contextlib.closing(project.refs_of(origin, blobs)) as refs:
                for document, raw in group:
                    deadline.check()
                    texts = next(refs)
                    if isinstance(texts, Exception):
                        doc_warnings.append(_unreadable(document, texts))
                        continue
                    if not texts:
                        continue
                    touched = host.seq.revisions[heads[origin][raw][1]]
                    snapshot = (
                        touched if origin == ORIGIN_README
                        else snapshot_for_doc(touched, source.seq)
                    )
                    cited.setdefault(snapshot, []).append((document, texts, host.seq.head.sha))
                    elements.update(texts)

        deadline.check()
        counter = HistoryCounter(
            source.repo, project.match_config(documents), frozenset(elements), source.changes
        )
        warnings = counter.warnings
        snapshots = sorted(cited, key=lambda r: r.ordinal, reverse=True)
        with contextlib.closing(counter.walk([head, *snapshots])) as stops:
            next(stops)
            current = {element: counter.count(element, head) for element in elements}
            for snapshot in snapshots:
                deadline.check()
                next(stops)
                for document, texts, doc_sha in cited[snapshot]:
                    for text in sorted(texts):
                        snapshot_count = counter.count(text, snapshot)
                        findings.append(Finding(
                            element_text=text,
                            document=document,
                            status=classify_current(snapshot_count, current[text]),
                            snapshot_sha=snapshot.sha,
                            snapshot_count=snapshot_count,
                            current_sha=head.sha,
                            current_count=current[text],
                            evidence=counter.evidence(text),
                            evidence_sha=snapshot.sha,
                            doc_sha=doc_sha,
                        ))
    except ScanTimeout:
        partial = True

    return project.report(MODE_CURRENT, findings, doc_warnings, warnings, partial=partial)


def _blob_series(
    changes: list[list[Change]], raw_paths: dict[DocumentDescriptor, bytes]
) -> dict[DocumentDescriptor, list[str | None]]:
    """The blob of each document's raw path at every revision, None where it is absent."""
    current: dict[bytes, str | None] = dict.fromkeys(raw_paths.values())
    series: dict[DocumentDescriptor, list[str | None]] = {document: [] for document in raw_paths}
    for revision_changes in changes:
        for path, _, new in revision_changes:
            if path in current:
                current[path] = new
        for document, blobs in series.items():
            blobs.append(current[raw_paths[document]])
    return series


def run_history(config: RunConfig) -> ScanReport:
    """Full-history analysis producing symbolic timelines and episodes.

    Each repository's first-parent changes come from one diff stream, and
    one blob stream per repository reads every version of its documents,
    with one deadline check per document. Cells are decided in one pass
    over the revisions, newest first, while a ``HistoryCounter`` undoes
    each revision's changes, so that when the timeout strikes, the partial
    output covers the most recent revisions.
    A document version that cannot be read warns, and the source revisions
    that see it read absent: they are the failed ordinals of each of the
    document's findings. An error from counting ends the run, as in
    ``run_scan``.
    """
    # The budget starts before the repositories are opened and diffed.
    deadline = _Deadline(config.timeout_seconds)
    project = _Project(config)
    source = project.source
    head = source.seq.head
    hosts = project.hosts
    # Every raw path that holds a blob at some revision, per origin.
    documents, raw_paths = project.discover({
        origin: {path for changes in host.changes for path, _, new in changes if new}
        for origin, host in hosts.items()
    })

    # Document side: per source revision, the element texts each document
    # cites there, None where it is absent or its version unreadable. A
    # row holds what the cell pass reads and writes for one element.
    doc_warnings: list[dict] = []
    # (document, sha of its hosting head or None, failed ordinals, rows)
    docs: list[tuple[DocumentDescriptor, str | None, tuple[int, ...], list[dict]]] = []
    revisions = source.seq.revisions
    n = len(revisions)
    covered_from = n
    partial = False
    try:
        # One stream per origin reads the versions of its documents.
        for origin, group in itertools.groupby(raw_paths.items(), key=lambda item: item[0].origin):
            host = hosts[origin]
            series = _blob_series(host.changes, dict(group))
            # The hosting revision that each source revision sees.
            seen = range(n) if origin == ORIGIN_README else [
                r.ordinal for r in link_source_to_docs(source.seq, host.seq)
            ]
            versions = [blob for blobs in series.values() for blob in blobs if blob]
            with contextlib.closing(project.refs_of(origin, versions)) as cited_by:
                for document, blobs in series.items():
                    if deadline.expired():
                        raise ScanTimeout
                    by_blob = {blob: next(cited_by) for blob in blobs if blob}
                    doc_warnings.extend(
                        _unreadable(document, cited) for cited in by_blob.values()
                        if isinstance(cited, Exception)
                    )
                    elements = frozenset().union(
                        *(cited for cited in by_blob.values() if isinstance(cited, frozenset))
                    )
                    if not elements:
                        continue
                    refs = [by_blob.get(blobs[i]) for i in seen]
                    failed = tuple(i for i, cited in enumerate(refs) if isinstance(cited, Exception))
                    if failed:
                        refs = [None if isinstance(cited, Exception) else cited for cited in refs]
                    docs.append((document, host.seq.head.sha if blobs[-1] else None, failed, [
                        {"element": element, "refs": refs, "symbols": [None] * n, "evidence": None}
                        for element in sorted(elements)
                    ]))
    except ScanTimeout:
        partial = True
    rows = [row for *_, doc_rows in docs for row in doc_rows]

    # One symbol per (row, revision) cell, newest revisions first. A row's
    # evidence comes from its newest positive cell.
    counter = HistoryCounter(
        source.repo,
        project.match_config(documents),
        frozenset(row["element"] for row in rows),
        source.changes,
    )
    if not partial:
        try:
            with contextlib.closing(counter.walk(revisions[::-1])) as stops:
                for i in range(n - 1, -1, -1):
                    deadline.check()
                    revision = next(stops)
                    for row in rows:
                        element, cited = row["element"], row["refs"][i]
                        if cited is None:
                            symbol = DOC_ABSENT
                        elif element not in cited:
                            symbol = NO_REFERENCE
                        else:
                            symbol = counter.count(element, revision)
                            if symbol > 0 and row["evidence"] is None:
                                row["evidence"] = (counter.evidence(element), revision.sha)
                        row["symbols"][i] = symbol
                    covered_from = i
        except ScanTimeout:
            partial = True

    findings: list[Finding] = []
    warnings_extra: list[dict] = []
    for document, doc_sha, failed, doc_rows in docs:
        for row in doc_rows:
            finding = Finding(row["element"], document, status=None, current_sha=head.sha)
            findings.append(finding)
            if partial:
                finding.symbols_suffix = row["symbols"][covered_from:]
                continue
            finding.symbols = tuple(row["symbols"])
            finding.failed_ordinals = failed
            finding.episodes = detect_episodes(
                finding.symbols, revisions, strict=config.strict_episodes
            )
            for episode in finding.episodes:
                episode.duration_seconds = episode_duration(
                    episode, revisions, scan_time=project.scan_time
                )
                if not episode.ongoing and episode.duration_seconds < 0:
                    warnings_extra.append({
                        "kind": "negative_duration",
                        "element": row["element"],
                        "document": document.path,
                        "start_ordinal": episode.start_ordinal,
                    })
            finding.evidence, finding.evidence_sha = row["evidence"] or ((), None)
            finding.doc_sha = doc_sha
            last = finding.symbols[-1]
            finding.current_count = last if is_count(last) else None

    return project.report(
        MODE_HISTORY, findings, doc_warnings, counter.warnings, warnings_extra,
        revisions=revisions,
        partial=partial,
        covered_from_ordinal=covered_from if partial else None,
    )
