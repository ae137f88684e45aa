"""Slow per-cell reference for history mode, used as a test oracle.

Lists every revision's tree with ``git ls-tree``, builds each (element,
document) timeline with ``build_timeline`` and ``SourceScanner.count_instances``
as its counts provider, and takes evidence from ``count_instances`` at the last
positive revision. Nothing is incremental, so its report is the one that
``run_history`` must reproduce byte for byte.
"""

from __future__ import annotations

from staleref.docdiscovery import ORIGIN_README, discover_documents
from staleref.extraction import extract_elements
from staleref.matching import SourceScanner
from staleref.pipeline import RunConfig, _Project, _sorted_warnings
from staleref.reporting import (
    MODE_HISTORY,
    Finding,
    ScanReport,
    build_finding_urls,
    compute_aggregates,
    sort_findings,
)
from staleref.revgraph import DocVersion, link_source_to_docs
from staleref.timeline import build_timeline, detect_episodes, episode_duration, is_positive


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
