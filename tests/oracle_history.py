"""Slow, obviously correct references for both modes, used as test oracles.

``tree_entries`` lists a commit's tree with one ``git ls-tree``, and
``tree_paths``, ``blob_at`` and ``read_text_at`` read a repository by
(commit, path) through it. ``last_touch`` compares those listings newest
first. ``SourceScanner`` counts one element at one revision by walking the
whole tree listing of that revision. ``run_scan_oracle`` is the scan that
counts each (reference, revision) pair with it, document by document, and
takes a wiki page's snapshot from ``linear_snapshot``, which walks every
source revision. ``run_history_oracle`` lists every revision's tree with
``git ls-tree``, reads one ``DocVersion`` per (document, hosting revision),
pairs wiki versions with source revisions through ``doc_versions_seen``,
which tries every version at every source revision, builds each (element,
document) timeline with ``build_timeline`` and
``SourceScanner.count_instances`` as its counts provider, and takes
evidence from ``count_instances`` at the last positive revision. A document whose head blob cannot be read warns and is skipped
in scan. In history a document version whose blob cannot be read reads as
absent, its source ordinals are the finding's failed ordinals, and each
such blob warns once per document. ``run_history_oracle`` takes the
production deadline and reports a cut as ``run_history`` does. In both, a
skipped or capped file warns at every revision the run visits
(``warn_at``), whichever cells are counted.
Nothing is incremental, so their reports are the ones that ``run_scan``
and ``run_history`` must reproduce byte for byte.
``scan_history_disagreements`` compares a scan's counts with a complete
history run's cells at the same revisions, for README and wiki documents.
"""

from __future__ import annotations

import subprocess
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import oracle_discovery
from staleref.docdiscovery import (
    ORIGIN_README,
    ORIGIN_WIKI,
    DocumentDescriptor,
)
from staleref import matching, pipeline
from staleref.extraction import extract_elements
from staleref.matching import (
    MAX_FILE_BYTES,
    MAX_MATCHED_PATHS,
    _Skip,
    _source_bytes,
    classify_current,
    count_occurrences,
    expand_path_variants,
    matches_exclude,
)
from staleref.pipeline import RunConfig, ScanTimeout, _Project
from staleref.reporting import MODE_CURRENT, MODE_HISTORY, Finding, ScanReport
from staleref.revgraph import (
    Branch,
    GitError,
    GitRepo,
    Revision,
    RevisionSequence,
    UnknownRevisionError,
)
from staleref.timeline import (
    DOC_ABSENT,
    NO_REFERENCE,
    Symbol,
    OutdatedEpisode,
    detect_episodes,
    is_count,
)


def is_positive(symbol: Symbol) -> bool:
    return is_count(symbol) and symbol > 0


def episode_duration(
    episode: OutdatedEpisode, revisions: tuple[Revision, ...], scan_time: int
) -> int:
    """Seconds from the first outdated revision to the fix, or to *scan_time*
    for an ongoing episode; a fix at an older timestamp gives a negative
    duration."""
    start_ts = revisions[episode.start_ordinal].timestamp
    if episode.fix is None:
        return scan_time - start_ts
    return episode.fix.at_timestamp - start_ts


def _read_source_text(
    repo: GitRepo, blob: str, max_file_bytes: int
) -> tuple[str | None, _Skip | None]:
    """Decoded text of a source blob, or None and the reason it was skipped."""
    [(_, read)] = repo.read_blobs([blob])
    data, skip = _source_bytes(read, max_file_bytes)
    return (None if data is None else data.decode("utf-8", errors="replace")), skip


def _ls_tree_raw(repo: GitRepo, sha: str) -> list[tuple[bytes, str, str]]:
    """(raw path, mode, blob-sha) for every blob reachable at commit *sha*."""
    completed = subprocess.run(
        ["git", "-C", str(repo.path), "ls-tree", "-r", "-z", sha], capture_output=True
    )
    if completed.returncode != 0:
        raise UnknownRevisionError(
            f"{repo.path}: cannot list tree at {sha}: "
            f"{completed.stderr.decode(errors='replace').strip()}"
        )
    entries = []
    for record in completed.stdout.split(b"\x00"):
        if not record:
            continue
        meta, path_bytes = record.split(b"\t", 1)
        mode, obj_type, obj_sha = meta.decode().split(" ")
        if obj_type == "blob":
            entries.append((path_bytes, mode, obj_sha))
    return entries


def _ls_tree(repo: GitRepo, sha: str) -> list[tuple[str, str, str]]:
    """(path, mode, blob-sha) for every blob reachable at commit *sha*, sorted."""
    return sorted(
        (path.decode("utf-8", errors="replace"), mode, blob)
        for path, mode, blob in _ls_tree_raw(repo, sha)
    )


def ambiguous_paths(repo: GitRepo, shas: list[str]) -> set[str]:
    """The decoded paths that two raw blob paths of the trees at *shas* give."""
    raw = {path for sha in shas for path, _, _ in _ls_tree_raw(repo, sha)}
    names = Counter(path.decode("utf-8", errors="replace") for path in raw)
    return {name for name, n in names.items() if n > 1}


def _skip_ambiguous(project: _Project, documents, shas_of) -> list[DocumentDescriptor]:
    """The documents a run reads: one whose decoded path two raw paths of its
    host give at *shas_of(host)* is skipped, with a warning."""
    ambiguous = {
        origin: ambiguous_paths(host.repo, shas_of(host)) for origin, host in project.hosts.items()
    }
    kept = []
    for document in documents:
        if document.path in ambiguous[document.origin]:
            project.warnings.append({"kind": "ambiguous_document_path", "document": document.path})
        else:
            kept.append(document)
    return kept


def tree_entries(repo: GitRepo, sha: str) -> tuple[tuple[str, str], ...]:
    """(path, blob-sha) pairs for every blob reachable at commit *sha*, sorted."""
    return tuple((path, blob) for path, _, blob in _ls_tree(repo, sha))


def tree_paths(repo: GitRepo, sha: str) -> list[str]:
    """Sorted recursive file listing at commit *sha*."""
    return [path for path, _ in tree_entries(repo, sha)]


def blob_at(repo: GitRepo, sha: str, path: str) -> str | None:
    return dict(tree_entries(repo, sha)).get(path)


def last_touch(seq: RevisionSequence, repo: GitRepo, path: str) -> Revision | None:
    """The newest revision of *seq* whose listing differs from the one
    before it in *path*'s mode or blob, or None if *path* holds no blob at
    head. Paths are compared decoded, so a name that is not UTF-8 is found
    too, which ``git log -- <path>`` cannot do."""
    def entry(revision: Revision) -> tuple[str, str] | None:
        listing = {p: (mode, blob) for p, mode, blob in _ls_tree(repo, revision.sha)}
        return listing.get(path)

    revisions = seq.revisions
    current = entry(revisions[-1])
    if current is None:
        return None
    for i in range(len(revisions) - 1, 0, -1):
        if entry(revisions[i - 1]) != current:
            return revisions[i]
    return revisions[0]


def read_blob_bytes(repo: GitRepo, blob: str) -> bytes:
    """Raw contents of one blob, read as a stream of one; raises its error."""
    [(_, data)] = repo.read_blobs([blob])
    if isinstance(data, Exception):
        raise data
    return data


def read_text_at(repo: GitRepo, sha: str, path: str) -> str:
    """Decoded text of *path* at commit *sha*; undecodable bytes are replaced."""
    blob = blob_at(repo, sha, path)
    if blob is None:
        raise KeyError(f"{repo.path}: {path} not present at {sha}")
    return read_blob_bytes(repo, blob).decode("utf-8", errors="replace")


@dataclass(frozen=True)
class DocVersion:
    """The state of one document at one revision of its hosting repository.

    ``text`` is None when the file is absent at that revision.
    """

    descriptor: DocumentDescriptor
    revision: Revision
    text: str | None


def linear_snapshot(doc_revision: Revision, source_seq: RevisionSequence) -> Revision:
    """The source revision that a page last written at *doc_revision*
    describes, by a walk over every source revision: the latest by timestamp
    at or before the page's, ties to the later ordinal, and the first
    revision for a page older than them all."""
    best = None
    for rev in source_seq.revisions:
        if rev.timestamp <= doc_revision.timestamp and (
            best is None or rev.timestamp >= best.timestamp
        ):
            best = rev
    return best if best is not None else source_seq.revisions[0]


def doc_versions_seen(
    source_seq: RevisionSequence,
    doc_versions: list[DocVersion],
) -> list[tuple[Revision, DocVersion | None]]:
    """Pair every source revision with the version of one document that it
    sees: of the versions whose ``linear_snapshot`` is that revision or an
    older one, the one at the newest hosting revision; None where there is
    none."""
    pairs = []
    for rev in source_seq.revisions:
        belonging = [
            v for v in doc_versions
            if linear_snapshot(v.revision, source_seq).ordinal <= rev.ordinal
        ]
        pairs.append((rev, max(belonging, key=lambda v: v.revision.ordinal, default=None)))
    return pairs


def cell_symbol(
    element_text: str,
    revision: Revision,
    doc_version: DocVersion | None,
    counts_provider: Callable[[str, Revision], int],
    refs_provider: Callable[[DocVersion], frozenset[str]],
) -> Symbol:
    """The symbol for one (revision, document version) cell."""
    if doc_version is None or doc_version.text is None:
        return DOC_ABSENT
    if element_text not in refs_provider(doc_version):
        return NO_REFERENCE
    return int(counts_provider(element_text, revision))


def build_timeline(
    element_text: str,
    linked_pairs: list[tuple[Revision, DocVersion | None]],
    counts_provider: Callable[[str, Revision], int],
    refs_provider: Callable[[DocVersion], frozenset[str]],
) -> tuple[Symbol, ...]:
    """The symbols for one element from linked (revision, doc) pairs.

    ``refs_provider`` maps a document version to the set of element texts it
    references; ``counts_provider`` counts source instances at a revision.
    """
    return tuple(
        cell_symbol(element_text, revision, doc_version, counts_provider, refs_provider)
        for revision, doc_version in linked_pairs
    )


def evidence_of(matched_paths: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int, str], ...]:
    """(path, line, kind) evidence from (path, line) pairs: line 0 marks a
    path-variant match, any other line a text match."""
    return tuple(
        (path, line, "path-variant" if line == 0 else "text") for path, line in matched_paths
    )


@dataclass(frozen=True)
class InstanceCount:
    """How often one element occurs in the tree at one revision.

    ``matched_paths`` holds (path, line) pairs for the first match per file;
    line 0 marks a synthetic path-variant match rather than a text match.
    """

    element_text: str
    revision: Revision
    count: int
    matched_paths: tuple[tuple[str, int], ...] = ()


class _WarningLog:
    def __init__(self) -> None:
        self.warnings: list[dict] = []
        self._warned: set[tuple] = set()

    def _warn(self, **entry) -> None:
        key = tuple(sorted(entry.items()))
        if key not in self._warned:
            self._warned.add(key)
            self.warnings.append(entry)

    def _warn_skipped(self, skip: _Skip, path: str) -> None:
        kind, detail_key, detail = skip
        self._warn(kind=kind, path=path, **{detail_key: detail})


class SourceScanner(_WarningLog):
    """Counts element instances at arbitrary revisions with blob-level caching.

    Each call walks the whole tree listing at its revision. ``HistoryCounter``
    must agree with it in both modes. Files under a ``.git`` directory and
    the files that ``oracle_discovery`` finds to be documents, one path at a
    time, are not scanned.
    """

    def __init__(
        self,
        repo: GitRepo,
        exclude_globs: tuple[str, ...] = (),
        max_file_bytes: int = MAX_FILE_BYTES,
    ):
        super().__init__()
        self.repo = repo
        self.exclude_globs = exclude_globs
        self.max_file_bytes = max_file_bytes
        self._scannable: dict[str, tuple[tuple[str, str], ...]] = {}
        self._text_cache: dict[str, str | None] = {}
        self._skips: dict[str, _Skip] = {}
        self._count_cache: dict[tuple[str, str], tuple[int, int, bool]] = {}
        self._variant_cache: dict[str, dict[str, list[str]]] = {}

    def _scannable_entries(self, revision: Revision) -> tuple[tuple[str, str], ...]:
        cached = self._scannable.get(revision.sha)
        if cached is None:
            cached = tuple(
                (path, blob)
                for path, blob in tree_entries(self.repo, revision.sha)
                if not oracle_discovery.discover_documents([path], None)
                and not matches_exclude(path, (".git/", *self.exclude_globs))
            )
            self._scannable[revision.sha] = cached
        return cached

    def _blob_text(self, blob_sha: str, path: str) -> str | None:
        if blob_sha in self._text_cache:
            text = self._text_cache[blob_sha]
        else:
            text, skip = _read_source_text(self.repo, blob_sha, self.max_file_bytes)
            self._text_cache[blob_sha] = text
            if skip is not None:
                self._skips[blob_sha] = skip
        if text is None and blob_sha in self._skips:
            # Every path that carries a skipped blob gets its own warning.
            self._warn_skipped(self._skips[blob_sha], path)
        return text

    def _variants(self, revision: Revision) -> dict[str, list[str]]:
        """variant -> contributing paths, over the full listing at *revision*."""
        cached = self._variant_cache.get(revision.sha)
        if cached is None:
            cached = {}
            for path, _ in tree_entries(self.repo, revision.sha):
                for variant in expand_path_variants([path]):
                    cached.setdefault(variant, []).append(path)
            self._variant_cache[revision.sha] = cached
        return cached

    def count_instances(self, element_text: str, revision: Revision) -> InstanceCount:
        total = 0
        matched: list[tuple[str, int]] = []
        for path, blob in self._scannable_entries(revision):
            text = self._blob_text(blob, path)
            if text is None:
                continue
            key = (blob, element_text)
            result = self._count_cache.get(key)
            if result is None:
                result = count_occurrences(element_text, text, cap=matching.MAX_COUNT_PER_FILE)
                self._count_cache[key] = result
            count, first, capped = result
            if capped:
                self._warn(
                    kind="count_capped",
                    path=path,
                    element=element_text,
                    cap=matching.MAX_COUNT_PER_FILE,
                )
            if count > 0:
                total += count
                line = text.count("\n", 0, first) + 1
                matched.append((path, line))
        for path in self._variants(revision).get(element_text, ()):
            total += 1
            matched.append((path, 0))
        return InstanceCount(
            element_text,
            revision,
            total,
            tuple(matched[:MAX_MATCHED_PATHS]),
        )


def warn_at(scanner: SourceScanner, revisions, elements) -> None:
    """Log the warnings of *revisions*: skipped and capped files warn at
    every revision a run visits, whichever of its cells are counted. So
    every cited element is counted at each, and the counts are dropped."""
    for revision in revisions:
        for element in elements:
            scanner.count_instances(element, revision)


def readme_scanner(config: RunConfig, repo: GitRepo) -> SourceScanner:
    """A scanner of *config*'s source files in which no document counts."""
    return SourceScanner(repo, config.exclude_globs, config.max_file_bytes)


def _unreadable(document: DocumentDescriptor, error: GitError) -> dict:
    return {"kind": "unreadable_document", "document": document.path, "detail": str(error)}


def run_scan_oracle(config: RunConfig) -> ScanReport:
    """Current-state scan that counts each (reference, revision) pair on its own."""
    deadline = pipeline._Deadline(config.timeout_seconds)
    project = _Project(config)
    source, wiki = project.source, project.hosts.get(ORIGIN_WIKI)
    head = source.seq.head
    documents = oracle_discovery.discover_documents(
        tree_paths(source.repo, head.sha),
        tree_paths(wiki.repo, wiki.seq.head.sha) if wiki else None,
    )
    scanner = readme_scanner(config, source.repo)
    documents = _skip_ambiguous(project, documents, lambda host: [host.seq.head.sha])

    findings: list[Finding] = []
    visited, elements = {head}, set()
    partial = False
    try:
        for document in documents:
            deadline.check()
            host = project.hosts[document.origin]
            try:
                doc_text = read_text_at(host.repo, host.seq.head.sha, document.path)
            except GitError as exc:
                project.warnings.append(_unreadable(document, exc))
                continue
            refs = extract_elements(doc_text)
            if not refs:
                continue
            touched = last_touch(host.seq, host.repo, document.path)
            snapshot = (
                touched if document.origin == ORIGIN_README
                else linear_snapshot(touched, source.seq)
            )
            visited.add(snapshot)
            elements.update(ref.text for ref in refs)
            for ref in refs:
                snap_ic = scanner.count_instances(ref.text, snapshot)
                cur_ic = scanner.count_instances(ref.text, head)
                findings.append(Finding(
                    element_text=ref.text,
                    document=document,
                    status=classify_current(snap_ic.count, cur_ic.count),
                    snapshot_sha=snapshot.sha,
                    snapshot_count=snap_ic.count,
                    current_sha=head.sha,
                    current_count=cur_ic.count,
                    evidence=evidence_of(snap_ic.matched_paths),
                    evidence_sha=snapshot.sha,
                    doc_sha=host.seq.head.sha,
                ))
    except ScanTimeout:
        partial = True

    warn_at(scanner, visited, elements)
    return project.report(MODE_CURRENT, findings, scanner.warnings, partial=partial)


def _union_listing(host: Branch) -> list[str]:
    paths: set[str] = set()
    for rev in host.seq.revisions:
        paths.update(tree_paths(host.repo, rev.sha))
    return sorted(paths)


def run_history_oracle(config: RunConfig) -> ScanReport:
    """History with the production deadline: one check per document, in
    the order ``run_history`` reads them, then one per revision, newest
    first. A cut reports the documents read, with the symbols of the
    revisions whose check passed; cells and warnings come only from those."""
    deadline = pipeline._Deadline(config.timeout_seconds)
    project = _Project(config)
    source, wiki = project.source, project.hosts.get(ORIGIN_WIKI)
    seq = source.seq
    n = len(seq.revisions)
    documents = oracle_discovery.discover_documents(
        _union_listing(source), _union_listing(wiki) if wiki else None
    )
    scanner = readme_scanner(config, source.repo)
    documents = _skip_ambiguous(
        project, documents, lambda host: [rev.sha for rev in host.seq.revisions]
    )
    counts_provider = lambda element, rev: scanner.count_instances(element, rev).count
    # (element, document, linked pairs, refs by hosting sha, doc_sha, failed ordinals)
    rows = []
    covered_from = n
    partial = False
    try:
        for document in documents:
            deadline.check()
            host = project.hosts[document.origin]
            versions, unreadable = [], {}  # unreadable: hosting sha -> blob
            for rev in host.seq.revisions:
                blob = blob_at(host.repo, rev.sha, document.path)
                try:
                    text = None if blob is None else read_text_at(host.repo, rev.sha, document.path)
                except GitError as exc:
                    if blob not in unreadable.values():
                        project.warnings.append(_unreadable(document, exc))
                    unreadable[rev.sha], text = blob, None
                versions.append(DocVersion(document, rev, text))
            refs = {
                version.revision.sha: frozenset(
                    ref.text for ref in extract_elements(version.text)
                ) if version.text is not None else frozenset()
                for version in versions
            }
            if document.origin == ORIGIN_README:
                pairs = list(zip(seq.revisions, versions))
            else:
                pairs = doc_versions_seen(seq, versions)
            doc_sha = (
                host.seq.head.sha
                if blob_at(host.repo, host.seq.head.sha, document.path)
                else None
            )
            failed = tuple(
                i for i, (_, version) in enumerate(pairs)
                if version is not None and version.revision.sha in unreadable
            )
            rows += [
                (element, document, pairs, refs, doc_sha, failed)
                for element in sorted(set().union(*refs.values()))
            ]
        for i in reversed(range(n)):
            deadline.check()
            covered_from = i
    except ScanTimeout:
        partial = True

    findings: list[Finding] = []
    extra_warnings: list[dict] = []
    for element, document, pairs, refs, doc_sha, failed in rows:
        symbols = build_timeline(
            element, pairs[covered_from:], counts_provider, lambda dv: refs[dv.revision.sha]
        )
        if partial:
            findings.append(Finding(
                element, document, status=None, current_sha=seq.head.sha,
                symbols_suffix=list(symbols),
            ))
            continue
        episodes = [
            episode._replace(duration_seconds=episode_duration(
                episode, seq.revisions, project.scan_time
            ))
            for episode in detect_episodes(symbols, seq.revisions)
        ]
        for episode in episodes:
            if not episode.ongoing and episode.duration_seconds < 0:
                extra_warnings.append({
                    "kind": "negative_duration",
                    "element": element,
                    "document": document.path,
                    "start_ordinal": episode.start_ordinal,
                })
        evidence: tuple = ()
        evidence_sha = None
        positives = [i for i, s in enumerate(symbols) if is_positive(s)]
        if positives:
            revision = seq.revisions[positives[-1]]
            instance = scanner.count_instances(element, revision)
            evidence = evidence_of(instance.matched_paths)
            evidence_sha = revision.sha
        last = symbols[-1]
        findings.append(Finding(
            element_text=element,
            document=document,
            status=None,
            current_sha=seq.head.sha,
            current_count=last if isinstance(last, int) else None,
            evidence=evidence,
            evidence_sha=evidence_sha,
            doc_sha=doc_sha,
            symbols=symbols,
            failed_ordinals=failed,
            episodes=episodes,
        ))
    warn_at(scanner, seq.revisions[covered_from:], {row[0] for row in rows})
    return project.report(
        MODE_HISTORY, findings, scanner.warnings, extra_warnings,
        revisions=seq.revisions,
        partial=partial,
        covered_from_ordinal=covered_from if partial else None,
    )


def scan_history_disagreements(
    scan: ScanReport, history: ScanReport
) -> list[tuple[str, str, str, tuple, tuple]]:
    """(origin, document path, element, scan counts, history cells) of each
    finding whose scan counts at its snapshot and at head differ from what
    the complete *history* run of the same settings holds at the snapshot's
    ordinal and at the last one."""
    ordinal = {rev.sha: i for i, rev in enumerate(history.revisions)}
    rows = {(f.document, f.element_text): f.symbols for f in history.findings}
    disagreements = []
    for f in scan.findings:
        symbols = rows[(f.document, f.element_text)]
        counts = (f.snapshot_count, f.current_count)
        cells = (symbols[ordinal[f.snapshot_sha]], symbols[-1])
        if counts != cells:
            disagreements.append(
                (f.document.origin, f.document.path, f.element_text, counts, cells)
            )
    return disagreements
