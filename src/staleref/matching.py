"""Whole-word instance counting of code elements across a revision's tree.

An element matches only as a whole word: a word boundary is required on each
side whose edge character is a word character, so ``fPIC`` will not match
inside ``fPICky`` but ``renderFiles('./files')`` matches wherever its exact
characters appear. File paths contribute extra synthetic instances: a
reference like ``to/file.py`` counts against any tracked file whose path has
that variant.
"""

from __future__ import annotations

import contextlib
import fnmatch
import string
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .revgraph import Branch, GitError, Revision

STATUS_OUTDATED = "outdated"
STATUS_IN_SYNC = "in_sync"
STATUS_NEVER_MATCHED = "never_matched"

_BINARY_SNIFF_BYTES = 8192

# Evidence lists at most this many matching files per element.
MAX_MATCHED_PATHS = 20
# A file counts at most this many instances of one element, and warns.
MAX_COUNT_PER_FILE = 10_000

_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_")
# Maps every byte that is not a word character to a space.
_NON_WORD_TO_SPACE = bytes(b if chr(b) in _WORD_CHARS else 0x20 for b in range(256))
# A blob is split into word tokens about this many bytes at a time, so its
# token list stays small however large the blob is.
_TOKEN_SLICE_BYTES = 1 << 16


@dataclass(frozen=True)
class MatchConfig:
    exclude_globs: tuple[str, ...] = ()
    max_file_bytes: int = 10 * 1024 * 1024


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


def _source_bytes(data: bytes | GitError, max_file_bytes: int) -> tuple[bytes | None, _Skip | None]:
    """Raw bytes of a source blob as read, or None and the reason it was skipped.

    Binary blobs are skipped silently, with no reason.
    """
    if isinstance(data, GitError):
        return None, ("unreadable_blob", "detail", str(data))
    if len(data) > max_file_bytes:
        return None, ("oversized_file", "size", len(data))
    if b"\x00" in data[:_BINARY_SNIFF_BYTES]:
        return None, None
    return data, None


def _decode(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


def _held_runs(data: bytes, runs: frozenset[bytes]) -> set[bytes]:
    """The members of *runs* that appear in *data* as whole word tokens.

    A token is a maximal run of ``[A-Za-z0-9_]`` bytes. UTF-8 never puts an
    ASCII byte inside a multibyte sequence, and a replaced undecodable byte
    is no word character, so these are also the tokens of the decoded text.
    The bytes are split one slice at a time, each cut at a non-word byte.
    """
    words = data.translate(_NON_WORD_TO_SPACE)
    held: set[bytes] = set()
    start = 0
    while start < len(words):
        end = start + _TOKEN_SLICE_BYTES
        if end < len(words):
            cut = words.rfind(b" ", start, end)
            if cut <= start:  # one token fills the slice: cut after it
                cut = words.find(b" ", end)
            end = cut if cut >= 0 else len(words)
        held.update(runs.intersection(words[start:end].split()))
        start = end
    return held


class HistoryCounter:
    """Running instance totals of a fixed set of elements over one history.

    The counter holds the tree of one revision of *branch* as a path -> blob
    map and moves newest first, from the head down. ``Branch.nets`` gives
    each move as one blob per path that it may change, so a move reads only
    blobs that the target revision holds, and a walk reads the blobs of all
    its moves through one stream. Each blob is read and split into word tokens
    once, and counted only for the elements whose word runs are all among
    its tokens; an element with no word run is counted in every blob. Only
    its non-zero counts are kept, so a move costs the changed blobs, not
    the whole tree. Warnings are logged by the moves, once each: when a
    scanned path gets a skipped blob, and for each element whose count in a
    path's new blob hit the cap. A count only reads the state.
    """

    def __init__(self, branch: Branch, config: MatchConfig, elements: frozenset[str]):
        self.branch = branch
        self.config = config
        self.revision: Revision | None = None  # whose tree the state holds
        self.warnings: list[dict] = []
        self._warned: set[tuple] = set()
        self._elements = elements
        # first word run -> (element, its other word runs)
        self._by_first_run: dict[bytes, list[tuple[str, tuple[bytes, ...]]]] = {}
        self._runless: list[str] = []
        all_runs: set[bytes] = set()
        for element in elements:
            runs = element.encode().translate(_NON_WORD_TO_SPACE).split()
            if runs:
                self._by_first_run.setdefault(runs[0], []).append((element, tuple(runs[1:])))
                all_runs.update(runs)
            else:
                self._runless.append(element)
        self._runs = frozenset(all_runs)
        self._tree: dict[bytes, str] = {}
        # raw path -> (decoded path, scannable, cited elements among its variants)
        self._paths: dict[bytes, tuple[str, bool, tuple[str, ...]]] = {}
        # blob -> element -> (count, line of the first match, capped)
        self._blob_counts: dict[str, dict[str, tuple[int, int, bool]]] = {}
        self._blob_skips: dict[str, _Skip] = {}
        self._totals: dict[str, int] = dict.fromkeys(elements, 0)
        self._variant_paths: dict[str, set[bytes]] = {e: set() for e in elements}
        # element -> the scannable paths whose blob matches it
        self._hit_paths: dict[str, set[bytes]] = {e: set() for e in elements}

    def walk(self, stops: Sequence[Revision]) -> Iterator[Revision]:
        """Move the state to each of *stops* in turn, none newer than the one
        before it, and yield each stop once the state is there. The blobs
        that the moves add and that are not counted yet are read through one
        ``GitRepo.read_blobs`` stream, in the order the moves first add them.
        """
        nets = self.branch.nets(stops, self.revision)
        unread = {
            blob: None for net in nets for path, blob in net.items()
            if blob and blob not in self._blob_counts and self._path_info(path)[1]
        }
        with contextlib.closing(self.branch.repo.read_blobs(list(unread))) as stream:
            for stop, net in zip(stops, nets):
                for path, old in net.items():
                    new = self._tree.get(path)
                    if new != old:
                        if new is not None:
                            self._remove(path, new)
                        if old is not None:
                            self._add(path, old, stream)
                self.revision = stop
                yield stop

    def count(self, element_text: str, revision: Revision) -> int:
        """Instances of one element at *revision*, the counter's position."""
        if revision is not self.revision and revision != self.revision:
            raise ValueError(f"the counter is not at revision {revision.ordinal}")
        return self._totals[element_text] + len(self._variant_paths[element_text])

    def evidence(self, element_text: str) -> tuple[tuple[str, int, str], ...]:
        """(path, line of the first match, kind) per file that matches one
        element at the current revision. Kind is "text" for a match in the
        file's text, or "path-variant" for a match of its path, at line 0."""
        hits = []
        for path in self._hit_paths[element_text]:
            blob = self._tree[path]
            hits.append((self._paths[path][0], blob, self._blob_counts[blob][element_text][1]))
        variants = sorted(
            (self._paths[path][0], self._tree[path]) for path in self._variant_paths[element_text]
        )
        matched = [(name, line, "text") for name, _, line in sorted(hits)]
        matched += [(name, 0, "path-variant") for name, _ in variants]
        return tuple(matched[:MAX_MATCHED_PATHS])

    def _warn(self, **entry) -> None:
        key = tuple(sorted(entry.items()))
        if key not in self._warned:
            self._warned.add(key)
            self.warnings.append(entry)

    def _path_info(self, path: bytes) -> tuple[str, bool, tuple[str, ...]]:
        info = self._paths.get(path)
        if info is None:
            name = path.decode("utf-8", errors="replace")
            # With no element cited, no path is scanned, so nothing is read.
            info = self._paths[path] = (
                name,
                bool(self._elements) and not matches_exclude(name, self.config.exclude_globs),
                tuple(v for v in expand_path_variants([name]) if v in self._elements),
            )
        return info

    def _counts_of(self, blob: str, stream: Iterator) -> dict[str, tuple[int, int, bool]]:
        counts = self._blob_counts.get(blob)
        if counts is None:
            counts = self._blob_counts[blob] = {}
            _, read = next(stream)
            data, skip = _source_bytes(read, self.config.max_file_bytes)
            if skip is not None:
                self._blob_skips[blob] = skip
            candidates = self._candidates(data) if data else ()
            if candidates:
                text = _decode(data)
                for element in candidates:
                    if element not in text:
                        continue
                    count, first, capped = count_occurrences(
                        element, text, cap=MAX_COUNT_PER_FILE
                    )
                    if count:
                        counts[element] = (count, text.count("\n", 0, first) + 1, capped)
        return counts

    def _candidates(self, data: bytes) -> list[str]:
        """The elements that may match in *data*: a whole-word match puts
        each of the element's word runs in the text as a whole token."""
        held = _held_runs(data, self._runs)
        candidates = list(self._runless)
        for run in held.intersection(self._by_first_run):
            candidates += [e for e, rest in self._by_first_run[run] if held.issuperset(rest)]
        return candidates

    def _add(self, path: bytes, blob: str, stream: Iterator) -> None:
        self._tree[path] = blob
        name, scannable, variants = self._path_info(path)
        for element in variants:
            self._variant_paths[element].add(path)
        if not scannable:
            return
        for element, (count, _, capped) in self._counts_of(blob, stream).items():
            self._totals[element] += count
            self._hit_paths[element].add(path)
            if capped:
                self._warn(kind="count_capped", path=name, element=element, cap=MAX_COUNT_PER_FILE)
        if blob in self._blob_skips:
            kind, detail_key, detail = self._blob_skips[blob]
            self._warn(kind=kind, path=name, **{detail_key: detail})

    def _remove(self, path: bytes, blob: str) -> None:
        del self._tree[path]
        _, scannable, variants = self._path_info(path)
        for element in variants:
            self._variant_paths[element].discard(path)
        if not scannable:
            return
        for element, (count, _, _) in self._blob_counts[blob].items():
            self._totals[element] -= count
            self._hit_paths[element].discard(path)


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
