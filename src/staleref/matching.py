"""Whole-word instance counting of code elements across a revision's tree.

An element matches only as a whole word: a word boundary is required on each
side whose edge character is a word character, so ``fPIC`` will not match
inside ``fPICky`` but ``renderFiles('./files')`` matches wherever its exact
characters appear. File paths contribute extra synthetic instances: a
reference like ``to/file.py`` counts against any tracked file whose path has
that variant.
"""

from __future__ import annotations

import fnmatch
import string
from dataclasses import dataclass, field

from .revgraph import GitRepo, Revision

STATUS_OUTDATED = "outdated"
STATUS_IN_SYNC = "in_sync"
STATUS_NEVER_MATCHED = "never_matched"

_BINARY_SNIFF_BYTES = 8192

_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_")


@dataclass(frozen=True)
class MatchConfig:
    exclude_globs: tuple[str, ...] = ()
    max_file_bytes: int = 10 * 1024 * 1024
    max_count_per_file: int = 10_000
    max_matched_paths: int = 20

    def __post_init__(self) -> None:
        if self.max_file_bytes <= 0 or self.max_count_per_file <= 0:
            raise ValueError("size and count limits must be positive")


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


def count_occurrences(
    element: str, text: str, cap: int | None = None
) -> tuple[int, int, bool]:
    """Count whole-word occurrences of *element* in *text*.

    Returns (count, first_match_index, capped); first_match_index is -1 when
    there is no match. Scanning is left to right and non-overlapping, exactly
    like a regex search for the escaped element wrapped in conditional word
    boundaries.
    """
    if not element:
        raise ValueError("element must be non-empty")
    need_left = element[0] in _WORD_CHARS
    need_right = element[-1] in _WORD_CHARS
    count = 0
    first = -1
    pos = 0
    n = len(text)
    m = len(element)
    while True:
        idx = text.find(element, pos)
        if idx < 0:
            break
        ok = not (need_left and idx > 0 and text[idx - 1] in _WORD_CHARS)
        if ok and need_right:
            end = idx + m
            if end < n and text[end] in _WORD_CHARS:
                ok = False
        if ok:
            count += 1
            if first < 0:
                first = idx
            if cap is not None and count >= cap:
                return count, first, True
            pos = idx + m
        else:
            pos = idx + 1
    return count, first, False


def expand_path_variants(paths: list[str] | tuple[str, ...]) -> set[str]:
    """Every way a tracked path might be written in prose.

    For each path this is the set of component suffixes, each with and without
    a leading slash: ``path/to/file.py`` yields six variants ranging from
    ``file.py`` to ``/path/to/file.py``.
    """
    variants: set[str] = set()
    for path in paths:
        parts = path.split("/")
        for i in range(len(parts)):
            suffix = "/".join(parts[i:])
            variants.add(suffix)
            variants.add("/" + suffix)
    return variants


def matches_exclude(path: str, patterns: tuple[str, ...]) -> bool:
    """Gitignore-flavoured exclusion: bare names match any path segment,
    patterns with a slash match against the whole relative path (and the
    subtree below it), and a trailing slash restricts to directories."""
    for pattern in patterns:
        p = pattern.strip()
        if not p:
            continue
        dir_only = p.endswith("/")
        p = p.rstrip("/")
        if "/" in p:
            anchored = p.lstrip("/")
            if fnmatch.fnmatchcase(path, anchored) or fnmatch.fnmatchcase(
                path, anchored + "/*"
            ):
                return True
        else:
            segments = path.split("/")
            if dir_only:
                segments = segments[:-1]
            if any(fnmatch.fnmatchcase(seg, p) for seg in segments):
                return True
    return False


class SourceScanner:
    """Counts element instances at arbitrary revisions with blob-level caching.

    Blobs repeat across revisions, so per-(blob, element) counts make history
    scans cheap.
    """

    def __init__(self, repo: GitRepo, config: MatchConfig):
        self.repo = repo
        self.config = config
        self.warnings: list[dict] = []
        self._warned: set[tuple] = set()
        self._scannable: dict[str, tuple[tuple[str, str], ...]] = {}
        self._text_cache: dict[str, str | None] = {}
        self._count_cache: dict[tuple[str, str], tuple[int, int, bool]] = {}
        self._variant_cache: dict[str, dict[str, list[str]]] = {}

    def _warn(self, **entry) -> None:
        key = tuple(sorted(entry.items()))
        if key not in self._warned:
            self._warned.add(key)
            self.warnings.append(entry)

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
            return self._text_cache[blob_sha]
        try:
            data = self.repo.read_blob_bytes(blob_sha)
        except Exception as exc:
            self._warn(kind="unreadable_blob", path=path, detail=str(exc))
            self._text_cache[blob_sha] = None
            return None
        if len(data) > self.config.max_file_bytes:
            self._warn(kind="oversized_file", path=path, size=len(data))
            text = None
        elif b"\x00" in data[:_BINARY_SNIFF_BYTES]:
            text = None
        else:
            text = data.decode("utf-8", errors="replace")
        self._text_cache[blob_sha] = text
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


def count_instances(
    repo: GitRepo, element_text: str, revision: Revision, config: MatchConfig
) -> InstanceCount:
    """One-shot counting without a shared scanner (tests, small call sites)."""
    return SourceScanner(repo, config).count_instances(element_text, revision)


def classify_current(snapshot: InstanceCount, current: InstanceCount) -> str:
    """Compare counts at the doc snapshot and at the current revision.

    Outdated means the element matched when the document was last written but
    matches nothing now; never_matched means it did not match even back then.
    """
    if snapshot.element_text != current.element_text:
        raise ValueError(
            f"mismatched elements: {snapshot.element_text!r} vs {current.element_text!r}"
        )
    if snapshot.count == 0:
        return STATUS_NEVER_MATCHED
    if current.count == 0:
        return STATUS_OUTDATED
    return STATUS_IN_SYNC
