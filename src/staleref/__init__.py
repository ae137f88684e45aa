"""Detect documentation references to code elements that no longer exist.

The package scans a git project's README and wiki for code-element mentions
(identifiers, calls, paths, ...), counts their instances in the source tree at
the documentation snapshot and at head, and flags references whose instances
all disappeared. History mode replays every revision to build per-reference
timelines, outdated episodes, and fix statistics.
"""

from __future__ import annotations

from .docdiscovery import DocumentDescriptor, ORIGIN_README, ORIGIN_WIKI
from .matching import STATUS_IN_SYNC, STATUS_NEVER_MATCHED, STATUS_OUTDATED
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
    UnknownBranchError,
    UnknownRevisionError,
)
from .timeline import (
    DOC_ABSENT,
    FIX_DOC_DELETE,
    FIX_DOC_UPDATE,
    FIX_SOURCE_CHANGE,
    FixEvent,
    NO_REFERENCE,
    OutdatedEpisode,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregates",
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
    "MissingRepositoryError",
    "NO_REFERENCE",
    "ORIGIN_README",
    "ORIGIN_WIKI",
    "OutdatedEpisode",
    "Revision",
    "RunConfig",
    "STATUS_IN_SYNC",
    "STATUS_NEVER_MATCHED",
    "STATUS_OUTDATED",
    "ScanReport",
    "UnknownBranchError",
    "UnknownRevisionError",
    "aggregate_corpus",
    "compute_aggregates",
    "parse_report",
    "render_findings",
    "render_issue_draft",
    "run_history",
    "run_scan",
]
