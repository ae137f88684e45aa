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
from dataclasses import dataclass

from .revgraph import Change, GitRepo, Revision

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


# Why a blob was skipped with a warning: (kind, detail key, detail value).
_Skip = tuple[str, str, object]


def _read_source_text(
    repo: GitRepo, blob_sha: str, max_file_bytes: int
) -> tuple[str | None, _Skip | None]:
    """Decoded text of a source blob, or None and the reason it was skipped.

    Binary blobs are skipped silently, with no reason.
    """
    try:
        data = repo.read_blob_bytes(blob_sha)
    except Exception as exc:
        return None, ("unreadable_blob", "detail", str(exc))
    if len(data) > max_file_bytes:
        return None, ("oversized_file", "size", len(data))
    if b"\x00" in data[:_BINARY_SNIFF_BYTES]:
        return None, None
    return data.decode("utf-8", errors="replace"), None


class HistoryCounter:
    """Running instance totals of a fixed set of elements over one history.

    The counter holds the tree of one revision as a path -> blob map and moves
    newest first, from the head down, by undoing each revision's changes.
    *revisions* are the oldest-first revisions it may stop at, starting at
    revision 0, and *changes* their ``GitRepo.first_parent_changes``. Each
    blob is read once and counted once per element; only its non-zero counts
    are kept, so a move costs the changed blobs, not the whole tree. Warnings
    are logged once each, for the paths and elements of the counted cells.
    """

    def __init__(
        self,
        repo: GitRepo,
        config: MatchConfig,
        elements: frozenset[str],
        revisions: tuple[Revision, ...],
        changes: list[list[Change]],
    ):
        self.repo = repo
        self.config = config
        self.revision: Revision | None = None  # whose tree the state holds
        self.warnings: list[dict] = []
        self._warned: set[tuple] = set()
        self._elements = elements
        self._index = {revision: i for i, revision in enumerate(revisions)}
        self._position = len(revisions)
        self._changes = changes
        self._tree: dict[bytes, str] = {}
        # raw path -> (decoded path, scannable, cited elements among its variants)
        self._paths: dict[bytes, tuple[str, bool, tuple[str, ...]]] = {}
        # blob -> element -> (count, line of the first match, capped)
        self._blob_counts: dict[str, dict[str, tuple[int, int, bool]]] = {}
        self._blob_skips: dict[str, _Skip] = {}
        self._totals: dict[str, int] = dict.fromkeys(elements, 0)
        self._variant_paths: dict[str, set[bytes]] = {e: set() for e in elements}
        self._capped_paths: dict[str, set[bytes]] = {e: set() for e in elements}
        self._skipped_paths: dict[bytes, _Skip] = {}
        self._counted: set[str] = set()  # elements counted at this revision

    def seek(self, revision: Revision) -> None:
        """Move the state to *revision*, which must not be newer than the
        current one."""
        target = self._index.get(revision)
        if target is None:
            raise ValueError(f"revision {revision.ordinal} is not one of the counter's")
        if self.revision is None:
            tree: dict[bytes, str] = {}
            for changes in self._changes[: target + 1]:
                for path, _, new in changes:
                    if new is None:
                        tree.pop(path, None)
                    else:
                        tree[path] = new
            for path, blob in tree.items():
                self._add(path, blob)
        elif target > self._position:
            raise ValueError("the counter only moves towards older revisions")
        else:
            for i in range(self._position, target, -1):
                for path, old, new in self._changes[i]:
                    if new is not None:
                        self._remove(path, new)
                    if old is not None:
                        self._add(path, old)
        self._position = target
        if revision != self.revision:
            self.revision = revision
            self._counted = set()

    def count(self, element_text: str, revision: Revision) -> int:
        """Instances of one element at *revision*, the counter's position."""
        if revision is not self.revision and revision != self.revision:
            raise ValueError(f"the counter is not at revision {revision.ordinal}")
        if element_text not in self._counted:
            if not self._counted:
                for path, (kind, detail_key, detail) in self._skipped_paths.items():
                    self._warn(kind=kind, path=self._paths[path][0], **{detail_key: detail})
            self._counted.add(element_text)
            for path in self._capped_paths[element_text]:
                self._warn(
                    kind="count_capped",
                    path=self._paths[path][0],
                    element=element_text,
                    cap=self.config.max_count_per_file,
                )
        return self._totals[element_text] + len(self._variant_paths[element_text])

    def evidence(self, element_text: str) -> tuple[tuple[str, int], ...]:
        """(path, line of the first match) per file that matches one element
        at the current revision; line 0 marks a path-variant match."""
        hits = []
        for path, blob in self._tree.items():
            name, scannable, _ = self._paths[path]
            found = self._blob_counts[blob].get(element_text) if scannable else None
            if found is not None:
                hits.append((name, blob, found[1]))
        variants = sorted(
            (self._paths[path][0], self._tree[path]) for path in self._variant_paths[element_text]
        )
        matched = [(name, line) for name, _, line in sorted(hits)]
        matched += [(name, 0) for name, _ in variants]
        return tuple(matched[: self.config.max_matched_paths])

    def _warn(self, **entry) -> None:
        key = tuple(sorted(entry.items()))
        if key not in self._warned:
            self._warned.add(key)
            self.warnings.append(entry)

    def _path_info(self, path: bytes) -> tuple[str, bool, tuple[str, ...]]:
        info = self._paths.get(path)
        if info is None:
            name = path.decode("utf-8", errors="replace")
            info = self._paths[path] = (
                name,
                not matches_exclude(name, self.config.exclude_globs),
                tuple(v for v in expand_path_variants([name]) if v in self._elements),
            )
        return info

    def _counts_of(self, blob: str) -> dict[str, tuple[int, int, bool]]:
        counts = self._blob_counts.get(blob)
        if counts is None:
            counts = self._blob_counts[blob] = {}
            if not self._elements:
                return counts  # nothing is ever counted, so nothing is read
            text, skip = _read_source_text(self.repo, blob, self.config.max_file_bytes)
            if skip is not None:
                self._blob_skips[blob] = skip
            if text:
                cap = self.config.max_count_per_file
                for element in self._elements:
                    if element not in text:
                        continue
                    count, first, capped = count_occurrences(element, text, cap=cap)
                    if count:
                        counts[element] = (count, text.count("\n", 0, first) + 1, capped)
        return counts

    def _add(self, path: bytes, blob: str) -> None:
        self._tree[path] = blob
        _, scannable, variants = self._path_info(path)
        for element in variants:
            self._variant_paths[element].add(path)
        if not scannable:
            return
        for element, (count, _, capped) in self._counts_of(blob).items():
            self._totals[element] += count
            if capped:
                self._capped_paths[element].add(path)
        if blob in self._blob_skips:
            self._skipped_paths[path] = self._blob_skips[blob]

    def _remove(self, path: bytes, blob: str) -> None:
        del self._tree[path]
        _, scannable, variants = self._path_info(path)
        for element in variants:
            self._variant_paths[element].discard(path)
        if not scannable:
            return
        for element, (count, _, capped) in self._blob_counts[blob].items():
            self._totals[element] -= count
            if capped:
                self._capped_paths[element].discard(path)
        self._skipped_paths.pop(path, None)


def classify_current(snapshot_count: int, current_count: int) -> str:
    """Compare counts at the doc snapshot and at the current revision.

    Outdated means the element matched when the document was last written but
    matches nothing now; never_matched means it did not match even back then.
    """
    if snapshot_count == 0:
        return STATUS_NEVER_MATCHED
    if current_count == 0:
        return STATUS_OUTDATED
    return STATUS_IN_SYNC
