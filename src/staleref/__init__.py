"""Detect documentation references to code elements that no longer exist.

The package scans a git project's README and wiki for code-element mentions
(identifiers, calls, paths, ...), counts their instances in the source tree at
the documentation snapshot and at head, and flags references whose instances
all disappeared. History mode replays every revision to build per-reference
timelines, outdated episodes, and fix statistics.
"""

from __future__ import annotations

from .docdiscovery import (
    DiscoveryConfig,
    DocumentDescriptor,
    ORIGIN_README,
    ORIGIN_WIKI,
    discover_documents,
)
from .extraction import CodeElementRef, extract_elements
from .matching import (
    MatchConfig,
    STATUS_IN_SYNC,
    STATUS_NEVER_MATCHED,
    STATUS_OUTDATED,
    classify_current,
    count_occurrences,
    expand_path_variants,
)
from .pipeline import RunConfig, run_history, run_scan
from .reporting import (
    Aggregates,
    Finding,
    ScanReport,
    aggregate_corpus,
    compute_aggregates,
    parse_report,
    render_findings,
    render_issue_draft,
)
from .revgraph import (
    EmptyHistoryError,
    GitError,
    GitRepo,
    MissingRepositoryError,
    Revision,
    RevisionSequence,
    UnknownBranchError,
    UnknownRevisionError,
    link_source_to_docs,
    snapshot_for_doc,
)
from .timeline import (
    DOC_ABSENT,
    FIX_DOC_DELETE,
    FIX_DOC_UPDATE,
    FIX_SOURCE_CHANGE,
    FixEvent,
    NO_REFERENCE,
    OutdatedEpisode,
    detect_episodes,
    survival_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregates",
    "CodeElementRef",
    "DiscoveryConfig",
    "DocumentDescriptor",
    "DOC_ABSENT",
    "EmptyHistoryError",
    "FIX_DOC_DELETE",
    "FIX_DOC_UPDATE",
    "FIX_SOURCE_CHANGE",
    "Finding",
    "FixEvent",
    "GitError",
    "GitRepo",
    "MatchConfig",
    "MissingRepositoryError",
    "NO_REFERENCE",
    "ORIGIN_README",
    "ORIGIN_WIKI",
    "OutdatedEpisode",
    "Revision",
    "RevisionSequence",
    "RunConfig",
    "STATUS_IN_SYNC",
    "STATUS_NEVER_MATCHED",
    "STATUS_OUTDATED",
    "ScanReport",
    "UnknownBranchError",
    "UnknownRevisionError",
    "aggregate_corpus",
    "classify_current",
    "compute_aggregates",
    "count_occurrences",
    "detect_episodes",
    "discover_documents",
    "expand_path_variants",
    "extract_elements",
    "link_source_to_docs",
    "parse_report",
    "render_findings",
    "render_issue_draft",
    "run_history",
    "run_scan",
    "snapshot_for_doc",
    "survival_curve",
]
