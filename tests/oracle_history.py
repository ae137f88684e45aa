"""Slow, obviously correct references for both modes, used as test oracles.

``SourceScanner`` counts one element at one revision by walking the whole
tree listing of that revision. ``run_scan_oracle`` is the scan that counts
each (reference, revision) pair with it, document by document.
``run_history_oracle`` lists every revision's tree with ``git ls-tree``,
builds each (element, document) timeline with ``build_timeline`` and
``SourceScanner.count_instances`` as its counts provider, and takes evidence
from ``count_instances`` at the last positive revision. Nothing is
incremental, so their reports are the ones that ``run_scan`` and
``run_history`` must reproduce byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from staleref.docdiscovery import ORIGIN_README, discover_documents
from staleref.extraction import extract_elements
from staleref.matching import (
    MatchConfig,
    _read_source_text,
    _Skip,
    classify_current,
    count_occurrences,
    expand_path_variants,
    matches_exclude,
)
from staleref.pipeline import (
    RunConfig,
    ScanTimeout,
    _Deadline,
    _evidence,
    _Project,
    _sorted_warnings,
)
from staleref.reporting import (
    MODE_CURRENT,
    MODE_HISTORY,
    Finding,
    ScanReport,
    build_finding_urls,
    compute_aggregates,
    sort_findings,
)
from staleref.revgraph import DocVersion, GitRepo, Revision, link_source_to_docs, snapshot_for_doc
from staleref.timeline import build_timeline, detect_episodes, episode_duration, is_positive


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
    must agree with it in both modes.
    """

    def __init__(self, repo: GitRepo, config: MatchConfig):
        super().__init__()
        self.repo = repo
        self.config = config
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
                for path, blob in self.repo.tree_entries(revision.sha)
                if not matches_exclude(path, self.config.exclude_globs)
            )
            self._scannable[revision.sha] = cached
        return cached

    def _blob_text(self, blob_sha: str, path: str) -> str | None:
        if blob_sha in self._text_cache:
            text = self._text_cache[blob_sha]
        else:
            text, skip = _read_source_text(self.repo, blob_sha, self.config.max_file_bytes)
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
            for path, _ in self.repo.tree_entries(revision.sha):
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
                result = count_occurrences(
                    element_text, text, cap=self.config.max_count_per_file
                )
                self._count_cache[key] = result
            count, first, capped = result
            if capped:
                self._warn(
                    kind="count_capped",
                    path=path,
                    element=element_text,
                    cap=self.config.max_count_per_file,
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
            tuple(matched[: self.config.max_matched_paths]),
        )


def run_scan_oracle(config: RunConfig) -> ScanReport:
    """Current-state scan that counts each (reference, revision) pair on its own."""
    project = _Project(config)
    deadline = _Deadline(config.timeout_seconds)
    try:
        head = project.source_seq.head
        wiki_tree = (
            project.wiki.tree_at(project.wiki_seq.head.sha)
            if project.wiki is not None
            else None
        )
        documents = discover_documents(
            project.source.tree_at(head.sha), wiki_tree, config.discovery
        )
        scanner = SourceScanner(project.source, project.match_config(documents))

        findings: list[Finding] = []
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
                snapshot = snapshot_for_doc(doc_version, project.source_seq)
                for ref in refs:
                    snap_ic = scanner.count_instances(ref.text, snapshot)
                    cur_ic = scanner.count_instances(ref.text, head)
                    status = classify_current(snap_ic.count, cur_ic.count)
                    finding = Finding(
                        element_text=ref.text,
                        document=document,
                        status=status,
                        snapshot_sha=snapshot.sha,
                        snapshot_count=snap_ic.count,
                        current_sha=head.sha,
                        current_count=cur_ic.count,
                        evidence=_evidence(snap_ic.matched_paths),
                        evidence_sha=snapshot.sha,
                        doc_sha=hosting_seq.head.sha,
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
            warnings=_sorted_warnings(project.warnings, scanner.warnings),
            aggregates=compute_aggregates(findings),
            revisions=None,
            partial=partial,
        )
        return report
    finally:
        project.close()


def _union_listing(repo, seq) -> list[str]:
    paths: set[str] = set()
    for rev in seq.revisions:
        paths.update(repo.tree_at(rev.sha))
    return sorted(paths)


def run_history_oracle(config: RunConfig) -> ScanReport:
    project = _Project(config)
    try:
        seq = project.source_seq
        wiki_listing = (
            _union_listing(project.wiki, project.wiki_seq) if project.wiki is not None else None
        )
        documents = discover_documents(
            _union_listing(project.source, seq), wiki_listing, config.discovery
        )
        scanner = SourceScanner(project.source, project.match_config(documents))
        counts_provider = lambda element, rev: scanner.count_instances(element, rev).count
        findings: list[Finding] = []
        extra_warnings: list[dict] = []
        for document in documents:
            repo, hosting_seq, _ = project.hosting(document)
            versions = []
            for rev in hosting_seq.revisions:
                blob = repo.blob_sha(rev.sha, document.path)
                text = None if blob is None else repo.read_blob(rev.sha, document.path)
                versions.append(DocVersion(document, rev, text))
            refs = {
                version.revision.sha: frozenset(
                    ref.text for ref in extract_elements(version.text, project.catalog, document)
                ) if version.text is not None else frozenset()
                for version in versions
            }
            if document.origin == ORIGIN_README:
                pairs = list(zip(seq.revisions, versions))
            else:
                pairs = link_source_to_docs(seq, sorted(versions, key=lambda v: v.timestamp))
            doc_sha = (
                hosting_seq.head.sha
                if repo.blob_sha(hosting_seq.head.sha, document.path)
                else None
            )
            for element in sorted(set().union(*refs.values())):
                timeline = build_timeline(
                    element, document, pairs, counts_provider,
                    lambda dv: refs[dv.revision.sha],
                )
                episodes = detect_episodes(timeline, strict=config.strict_episodes)
                for episode in episodes:
                    episode.duration_seconds = episode_duration(
                        episode, timeline.revisions, scan_time=project.scan_time
                    )
                    if not episode.ongoing and episode.duration_seconds < 0:
                        extra_warnings.append({
                            "kind": "negative_duration",
                            "element": element,
                            "document": document.path,
                            "start_ordinal": episode.start_ordinal,
                        })
                evidence: tuple = ()
                evidence_sha = None
                positives = [i for i, s in enumerate(timeline.symbols) if is_positive(s)]
                if positives:
                    revision = timeline.revisions[positives[-1]]
                    instance = scanner.count_instances(element, revision)
                    evidence = tuple(
                        (path, line, "path-variant" if line == 0 else "text")
                        for path, line in instance.matched_paths
                    )
                    evidence_sha = revision.sha
                last = timeline.symbols[-1]
                finding = Finding(
                    element_text=element,
                    document=document,
                    status=None,
                    current_sha=seq.head.sha,
                    current_count=last if isinstance(last, int) else None,
                    evidence=evidence,
                    evidence_sha=evidence_sha,
                    doc_sha=doc_sha,
                    timeline=timeline,
                    episodes=episodes,
                )
                finding.urls = build_finding_urls(finding, project.templates)
                findings.append(finding)
        findings = sort_findings(findings)
        return ScanReport(
            project_id=config.resolved_project_id(),
            scan_time=project.scan_time,
            mode=MODE_HISTORY,
            findings=findings,
            warnings=_sorted_warnings(project.warnings, scanner.warnings, extra_warnings),
            aggregates=compute_aggregates(findings),
            revisions=seq.revisions,
            partial=False,
        )
    finally:
        project.close()
