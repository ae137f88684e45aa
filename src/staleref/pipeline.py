"""End-to-end scan orchestration for current-state and full-history analysis."""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import time
from collections.abc import Iterable, Iterator

from .docdiscovery import (
    ORIGIN_README,
    ORIGIN_WIKI,
    DocumentDescriptor,
    discover_documents,
)
from .extraction import element_texts
from .matching import MAX_FILE_BYTES, HistoryCounter, classify_current
from .reporting import (
    MODE_CURRENT,
    MODE_HISTORY,
    Finding,
    ScanReport,
    build_finding_urls,
    rfc3339,
    sort_findings,
)
from .revgraph import (
    Branch,
    EmptyHistoryError,
    GitError,
    GitRepo,
    MissingRepositoryError,
    Revision,
    doc_ordinals_seen,
    snapshot_for_doc,
)
from .timeline import (
    DOC_ABSENT,
    NO_REFERENCE,
    detect_episodes,
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


class RunConfig:
    """The settings of one scan or history run. Each is checked here, before
    any git work, so a bad setting never ends in a report."""

    def __init__(
        self,
        repo_path: str,
        wiki_path: str | None = None,
        branch: str | None = None,
        exclude_globs: tuple[str, ...] = (),
        max_file_bytes: int = MAX_FILE_BYTES,
        scan_time: int | None = None,
        timeout_seconds: float = 86_400.0,
        url_base: str | None = None,
    ):
        if max_file_bytes <= 0:
            raise ValueError(f"max_file_bytes must be positive, got {max_file_bytes}")
        # No time is ever at or past a NaN deadline.
        if math.isnan(timeout_seconds):
            raise ValueError("timeout must be a number of seconds, not nan")
        if scan_time is not None:
            try:
                rfc3339(scan_time)
            except (OverflowError, OSError, ValueError):
                raise ValueError(f"scan_time: no RFC 3339 time at epoch {scan_time}") from None
        self.repo_path = repo_path
        self.wiki_path = wiki_path
        self.branch = branch
        self.exclude_globs = exclude_globs
        self.max_file_bytes = max_file_bytes
        self.scan_time = scan_time
        self.timeout_seconds = timeout_seconds
        self.url_base = url_base

    def resolved_project_id(self) -> str:
        return project_home(self.repo_path)[1]


def project_home(repo_path: str) -> tuple[str, str]:
    """The directory that holds the project, and the project's name: the
    base name of *repo_path*, or of its work tree's top for a ``.git``
    directory, without a bare repository's ``.git`` suffix. The project's
    wiki is ``<directory>/<name>.wiki``."""
    path = os.path.abspath(repo_path)  # also "." and "..", without following symlinks
    if os.path.basename(path) == ".git":
        path = os.path.dirname(path)
    return os.path.dirname(path), os.path.basename(path).removesuffix(".git")


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


class _Project:
    """Opened repositories plus the shared derived state both modes need.

    ``hosts`` maps each document origin to the branch of the repository
    that hosts it; ``source``, the README host, is the one whose instances
    are counted.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.warnings: list[dict] = []
        self.source = Branch.open(config.repo_path, config.branch)
        self.hosts = {ORIGIN_README: self.source}
        if config.wiki_path:
            try:
                self.hosts[ORIGIN_WIKI] = Branch.open(config.wiki_path, None)
            except (MissingRepositoryError, EmptyHistoryError) as exc:
                self.warnings.append({"kind": "wiki_unavailable", "detail": str(exc)})
        # Line -> element texts, shared by every document the run extracts.
        self._line_elements: dict = {}
        self.url_base = config.url_base or _derive_url_base(self.source.repo)
        self.scan_time = (
            config.scan_time if config.scan_time is not None else int(time.time())
        )

    def discover(self, listings: dict[str, Iterable[bytes]]) -> dict[DocumentDescriptor, bytes]:
        """The raw path of each document among each origin's raw paths that
        the run reads; one whose decoded path has two is not read."""
        raw_paths = discover_documents(listings)
        self.warnings += [
            {"kind": "ambiguous_document_path", "document": d.path}
            for d, raw in raw_paths.items() if raw is None
        ]
        return {d: raw for d, raw in raw_paths.items() if raw is not None}

    def counter(self, elements: Iterable[str]) -> HistoryCounter:
        """A counter of *elements* over the source history, in which no
        document counts as a source instance."""
        return HistoryCounter(
            self.source, frozenset(elements), self.config.exclude_globs, self.config.max_file_bytes
        )

    def read_documents(
        self, versions: dict[DocumentDescriptor, list[str | None]], deadline: _Deadline
    ) -> Iterator[tuple[DocumentDescriptor, dict[str, frozenset[str]]]]:
        """Each document of *versions* (document -> its blob at each
        revision, None where it has none), after one deadline check per
        document, with the element texts that each of its blobs that could
        be read cites. Each distinct blob is read through one stream per
        origin and extracted once, and its text is dropped; a blob that
        cannot be read is left out and warns once per document."""
        for origin, group in itertools.groupby(versions.items(), key=lambda item: item[0].origin):
            group = list(group)
            refs: dict[str, frozenset[str] | GitError] = {}
            distinct = list(dict.fromkeys(blob for _, blobs in group for blob in blobs if blob))
            with contextlib.closing(self.hosts[origin].repo.read_blobs(distinct)) as stream:
                for document, blobs in group:
                    deadline.check()
                    cited = {}
                    for blob in dict.fromkeys(blob for blob in blobs if blob):
                        while blob not in refs:
                            read, data = next(stream)
                            if not isinstance(data, GitError):
                                text = data.decode("utf-8", errors="replace")
                                data = element_texts(text, self._line_elements)
                            refs[read] = data
                        if isinstance(refs[blob], GitError):
                            self.warnings.append({
                                "kind": "unreadable_document",
                                "document": document.path,
                                "detail": str(refs[blob]),
                            })
                        else:
                            cited[blob] = refs[blob]
                    yield document, cited

    def report(
        self, mode: str, findings: list[Finding], *warning_lists: list[dict],
        revisions: tuple[Revision, ...] | None = None, **fields,
    ) -> ScanReport:
        """The run's report: findings are sorted and get their browse URLs,
        and the warnings of the project and of *warning_lists* are merged in
        a stable order."""
        warnings = [w for group in (self.warnings, *warning_lists) for w in group]
        return ScanReport(
            project_id=self.config.resolved_project_id(),
            scan_time=self.scan_time,
            mode=mode,
            findings=[
                f._replace(urls=build_finding_urls(f, self.url_base, revisions))
                for f in sort_findings(findings)
            ],
            warnings=sorted(warnings, key=lambda w: json.dumps(w, sort_keys=True)),
            revisions=revisions,
            **fields,
        )


def run_scan(config: RunConfig) -> ScanReport:
    """Current-state scan: compare each document's references between its
    snapshot revision and the head of the source history.

    Each hosting repository's branch head gives its documents, their blobs
    at head and the revision that last touched each. Documents are read
    first, through one stream per repository, with one deadline check each;
    a document that cannot be read is skipped with a warning. A README's
    snapshot is the source revision that last touched it; a wiki page's is
    the ``snapshot_for_doc`` of the wiki revision that last touched it. One
    ``HistoryCounter`` then counts every cited element at head and moves to
    each snapshot, newest first, with one deadline check per move. A
    timed-out scan holds the findings of the documents whose snapshot was
    counted.
    """
    # The budget starts before the repositories are opened and diffed.
    deadline = _Deadline(config.timeout_seconds)
    project = _Project(config)
    source = project.source
    head = source.seq.head
    hosts = project.hosts
    raw_paths = project.discover({origin: host.head for origin, host in hosts.items()})
    versions = {
        document: [hosts[document.origin].head[raw][0]] for document, raw in raw_paths.items()
    }

    # snapshot -> (document, its element texts, sha of its hosting head)
    cited: dict[Revision, list[tuple]] = {}
    elements: set[str] = set()
    findings: list[Finding] = []
    warnings: list[dict] = []
    partial = False
    try:
        for document, by_blob in project.read_documents(versions, deadline):
            texts = frozenset().union(*by_blob.values())
            if not texts:
                continue
            host = hosts[document.origin]
            touched = host.seq.revisions[host.head[raw_paths[document]][1]]
            snapshot = (
                touched if document.origin == ORIGIN_README
                else snapshot_for_doc(touched, source.seq)
            )
            cited.setdefault(snapshot, []).append((document, texts, host.seq.head.sha))
            elements.update(texts)

        deadline.check()
        counter = project.counter(elements)
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

    return project.report(MODE_CURRENT, findings, warnings, partial=partial)


def run_history(config: RunConfig) -> ScanReport:
    """Full-history analysis producing symbolic timelines and episodes.

    Each repository's first-parent changes come from one diff stream, and
    one blob stream per repository reads every version of its documents,
    with one deadline check per document. Cells are decided in one pass
    over the revisions, newest first, while a ``HistoryCounter`` undoes
    each revision's changes, so that when the timeout strikes, the partial
    output covers the most recent revisions.
    A wiki page's cells read the wiki revision that ``doc_ordinals_seen``
    gives each source revision, and read absent where it gives none.
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
    raw_paths = project.discover({origin: host.paths() for origin, host in hosts.items()})
    series = {
        origin: host.blob_series(raw for d, raw in raw_paths.items() if d.origin == origin)
        for origin, host in hosts.items()
    }
    versions = {document: series[document.origin][raw] for document, raw in raw_paths.items()}
    # The hosting revision that each source revision sees, per origin; None
    # before a wiki's first.
    revisions = source.seq.revisions
    n = len(revisions)
    seen = {
        origin: range(n) if origin == ORIGIN_README else doc_ordinals_seen(source.seq, host.seq)
        for origin, host in hosts.items()
    }

    # A row is one (element, document) pair: the element texts its document
    # cites at each source revision (None where the document is absent or
    # its version unreadable), the ordinals whose version failed, the sha of
    # the document's hosting head, and the symbols that the cell pass fills in.
    rows: list[tuple] = []
    covered_from = n
    partial = False
    try:
        for document, by_blob in project.read_documents(versions, deadline):
            blobs = versions[document]
            seen_blobs = [None if at is None else blobs[at] for at in seen[document.origin]]
            refs = [by_blob.get(blob) for blob in seen_blobs]
            failed = tuple(i for i, blob in enumerate(seen_blobs) if blob and blob not in by_blob)
            doc_sha = hosts[document.origin].seq.head.sha if blobs[-1] else None
            rows += [
                (element, document, refs, failed, doc_sha, [None] * n)
                for element in sorted(frozenset().union(*by_blob.values()))
            ]
    except ScanTimeout:
        partial = True

    # One symbol per (row, revision) cell, newest revisions first. A row's
    # evidence, and the sha it was found at, come from its newest positive cell.
    evidence: dict[int, tuple] = {}
    counter = project.counter(row[0] for row in rows)
    if not partial:
        try:
            with contextlib.closing(counter.walk(revisions[::-1])) as stops:
                for i in range(n - 1, -1, -1):
                    deadline.check()
                    revision = next(stops)
                    for row, (element, _, refs, _, _, symbols) in enumerate(rows):
                        cited = refs[i]
                        if cited is None:
                            symbol = DOC_ABSENT
                        elif element not in cited:
                            symbol = NO_REFERENCE
                        else:
                            symbol = counter.count(element, revision)
                            if symbol > 0 and row not in evidence:
                                evidence[row] = (counter.evidence(element), revision.sha)
                        symbols[i] = symbol
                    covered_from = i
        except ScanTimeout:
            partial = True

    findings: list[Finding] = []
    for row, (element, document, _, failed, doc_sha, symbols) in enumerate(rows):
        if partial:
            # Only the suffix of symbols the pass reached is reported.
            findings.append(Finding(
                element, document, None, current_sha=head.sha,
                symbols_suffix=symbols[covered_from:],
            ))
            continue
        symbols = tuple(symbols)
        found, found_sha = evidence.get(row, ((), None))
        findings.append(Finding(
            element, document, None, current_sha=head.sha,
            current_count=symbols[-1] if is_count(symbols[-1]) else None,
            evidence=found, evidence_sha=found_sha, doc_sha=doc_sha, symbols=symbols,
            failed_ordinals=failed,
            episodes=detect_episodes(symbols, revisions, scan_time=project.scan_time),
        ))
    project.warnings += [
        {
            "kind": "negative_duration",
            "element": finding.element_text,
            "document": finding.document.path,
            "start_ordinal": episode.start_ordinal,
        }
        for finding in findings for episode in finding.episodes or ()
        if not episode.ongoing and episode.duration_seconds < 0
    ]

    return project.report(
        MODE_HISTORY, findings, counter.warnings,
        revisions=revisions,
        partial=partial,
        covered_from_ordinal=covered_from if partial else None,
    )
