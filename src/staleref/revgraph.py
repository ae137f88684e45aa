"""Git plumbing: linearized first-parent histories and snapshot linking.

All repository access goes through subprocess calls to the ``git`` binary; a
long-lived ``cat-file --batch`` child is kept per repository so blob reads do
not pay process startup per file.
"""

from __future__ import annotations

import bisect
import subprocess
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .docdiscovery import DocumentDescriptor

KIND_SOURCE = "source"
KIND_WIKI = "wiki"

# Raw diff modes on a side that holds no blob: nothing there, or a gitlink.
_NO_BLOB_MODES = (b"000000", b"160000")

# One changed path of a revision: (raw path, old blob, new blob), where None
# means the path holds no blob on that side.
Change = tuple[bytes, str | None, str | None]


class GitError(Exception):
    """Base class for repository access failures."""


class MissingRepositoryError(GitError):
    pass


class UnknownBranchError(GitError):
    pass


class EmptyHistoryError(GitError):
    pass


class UnknownRevisionError(GitError):
    pass


class MissingPathError(GitError):
    pass


@dataclass(frozen=True)
class Revision:
    sha: str
    timestamp: int
    ordinal: int

    def __post_init__(self) -> None:
        if len(self.sha) != 40 or any(c not in "0123456789abcdef" for c in self.sha):
            raise ValueError(f"not a full commit sha: {self.sha!r}")
        if self.ordinal < 0:
            raise ValueError("ordinal must be non-negative")


@dataclass(frozen=True)
class RevisionSequence:
    """Oldest-first, first-parent linearization of one branch."""

    repo_kind: str
    revisions: tuple[Revision, ...]

    def __post_init__(self) -> None:
        if self.repo_kind not in (KIND_SOURCE, KIND_WIKI):
            raise ValueError(f"unknown repo kind: {self.repo_kind!r}")
        for i, rev in enumerate(self.revisions):
            if rev.ordinal != i:
                raise ValueError("revision ordinals must be contiguous from zero")

    def __len__(self) -> int:
        return len(self.revisions)

    @property
    def head(self) -> Revision:
        return self.revisions[-1]

    @cached_property
    def by_sha(self) -> dict[str, Revision]:
        return {rev.sha: rev for rev in self.revisions}

    @cached_property
    def time_order(self) -> list[tuple[int, int]]:
        """(timestamp, ordinal) of every revision, ascending."""
        return sorted((rev.timestamp, rev.ordinal) for rev in self.revisions)


@dataclass(frozen=True)
class DocVersion:
    """The state of one document at one revision of its hosting repository.

    ``text`` is None when the file is absent at that revision.
    """

    descriptor: DocumentDescriptor
    revision: Revision
    text: str | None

    @property
    def timestamp(self) -> int:
        return self.revision.timestamp


class GitRepo:
    """Read-only handle on a local git clone (working tree or bare)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.exists():
            raise MissingRepositoryError(f"no such directory: {self.path}")
        probe = subprocess.run(
            ["git", "-C", str(self.path), "rev-parse", "--git-dir"],
            capture_output=True,
            text=True,
        )
        if probe.returncode != 0:
            raise MissingRepositoryError(f"not a git repository: {self.path}")
        self._batch: subprocess.Popen | None = None
        self._batch_lock = threading.Lock()
        self._tree_cache: dict[str, tuple[tuple[str, str], ...]] = {}
        self._entry_map_cache: dict[str, dict[str, str]] = {}

    # -- low-level helpers -------------------------------------------------

    def _git(self, *args: str) -> str:
        completed = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            raise GitError(
                f"git {' '.join(args)} failed in {self.path}: {completed.stderr.strip()}"
            )
        return completed.stdout

    def close(self) -> None:
        if self._batch is not None:
            try:
                self._batch.stdin.close()
                self._batch.terminate()
                self._batch.wait(timeout=5)
                self._batch.stdout.close()
            except Exception:
                pass
            self._batch = None

    def __enter__(self) -> "GitRepo":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            self.close()
        except Exception:
            pass

    # -- history -----------------------------------------------------------

    def resolve_branch(self, branch: str | None = None) -> str:
        if branch:
            return branch
        head = subprocess.run(
            ["git", "-C", str(self.path), "symbolic-ref", "--short", "-q", "HEAD"],
            capture_output=True,
            text=True,
        )
        name = head.stdout.strip()
        return name if name else "HEAD"

    def linearize_history(
        self, branch: str | None = None, repo_kind: str = KIND_SOURCE
    ) -> RevisionSequence:
        """First-parent history of *branch*, oldest first, committer timestamps.

        Raises UnknownBranchError for a branch that does not exist and
        EmptyHistoryError for a repository (or unborn branch) with no commits.
        """
        requested = branch
        name = self.resolve_branch(branch)
        verify = subprocess.run(
            ["git", "-C", str(self.path), "rev-parse", "--verify", "--quiet", f"{name}^{{commit}}"],
            capture_output=True,
            text=True,
        )
        if verify.returncode != 0:
            current = self.resolve_branch(None)
            if requested is None or requested == current:
                raise EmptyHistoryError(f"{self.path}: branch {name!r} has no commits")
            raise UnknownBranchError(f"{self.path}: unknown branch {name!r}")
        out = self._git("log", "--first-parent", "--reverse", "--format=%H %ct", name)
        revisions = []
        for i, line in enumerate(out.splitlines()):
            sha, ts = line.split()
            revisions.append(Revision(sha, int(ts), i))
        if not revisions:
            raise EmptyHistoryError(f"{self.path}: branch {name!r} has no commits")
        return RevisionSequence(repo_kind, tuple(revisions))

    def last_touch(self, branch: str | None, path: str) -> tuple[str, int] | None:
        """Most recent first-parent commit that changed *path*, or None."""
        name = branch or "HEAD"
        out = self._git("log", "--first-parent", "-1", "--format=%H %ct", name, "--", path)
        line = out.strip()
        if not line:
            return None
        sha, ts = line.split()
        return sha, int(ts)

    def remote_url(self) -> str | None:
        out = subprocess.run(
            ["git", "-C", str(self.path), "config", "--get", "remote.origin.url"],
            capture_output=True,
            text=True,
        )
        url = out.stdout.strip()
        return url or None

    # -- trees and blobs ----------------------------------------------------

    def tree_entries(self, sha: str) -> tuple[tuple[str, str], ...]:
        """(path, blob-sha) pairs for every blob reachable at commit *sha*, sorted."""
        cached = self._tree_cache.get(sha)
        if cached is not None:
            return cached
        completed = subprocess.run(
            ["git", "-C", str(self.path), "ls-tree", "-r", "-z", sha],
            capture_output=True,
        )
        if completed.returncode != 0:
            raise UnknownRevisionError(
                f"{self.path}: cannot list tree at {sha}: "
                f"{completed.stderr.decode(errors='replace').strip()}"
            )
        entries = []
        for record in completed.stdout.split(b"\x00"):
            if not record:
                continue
            meta, path_bytes = record.split(b"\t", 1)
            _, obj_type, obj_sha = meta.split(b" ")
            if obj_type != b"blob":
                continue
            entries.append((path_bytes.decode("utf-8", errors="replace"), obj_sha.decode()))
        entries.sort()
        result = tuple(entries)
        self._tree_cache[sha] = result
        return result

    def tree_at(self, revision: "Revision | str") -> list[str]:
        """Sorted recursive file listing at a commit (Revision or sha)."""
        sha = revision.sha if isinstance(revision, Revision) else revision
        return [path for path, _ in self.tree_entries(sha)]

    def _entry_map(self, sha: str) -> dict[str, str]:
        cached = self._entry_map_cache.get(sha)
        if cached is None:
            cached = dict(self.tree_entries(sha))
            self._entry_map_cache[sha] = cached
        return cached

    def blob_sha(self, commit_sha: str, path: str) -> str | None:
        return self._entry_map(commit_sha).get(path)

    def first_parent_changes(self, revs: tuple[Revision, ...]) -> list[list[Change]]:
        """The blob changes of each of *revs* against the one before it.

        *revs* are oldest first, from one sequence, and start at its revision
        0, which is diffed against the empty tree: ``--root`` does that only
        for a parentless commit (a root, or a shallow clone's graft). Entry i
        lists the changes of ``revs[i]`` against ``revs[i-1]``. Like
        ``tree_entries``, only blobs count: a gitlink is no blob on either
        side. One ``git diff-tree --stdin`` child serves every revision.
        """
        ordinals = [rev.ordinal for rev in revs]
        if ordinals[:1] != [0] or ordinals != sorted(set(ordinals)):
            raise ValueError("revisions must start at ordinal 0 and ascend")
        lines = [revs[0].sha] + [f"{rev.sha} {prev.sha}" for prev, rev in zip(revs, revs[1:])]
        completed = subprocess.run(
            ["git", "-C", str(self.path), "diff-tree", "-r", "-z", "--no-renames",
             "--root", "--always", "--stdin"],
            input="".join(line + "\n" for line in lines).encode(),
            capture_output=True,
        )
        if completed.returncode != 0:
            raise UnknownRevisionError(
                f"{self.path}: cannot diff the first-parent history: "
                f"{completed.stderr.decode(errors='replace').strip()}"
            )
        # -z output: each revision's sha, then a ":<modes> <shas> <status>"
        # field and a path field per changed path.
        fields = completed.stdout.split(b"\x00")
        changes: list[list[Change]] = []
        i = 0
        while i < len(fields) - 1:
            field = fields[i]
            if field.startswith(b":") and changes:
                old_mode, new_mode, old_sha, new_sha, _ = field[1:].split(b" ")
                changes[-1].append((
                    fields[i + 1],
                    None if old_mode in _NO_BLOB_MODES else old_sha.decode(),
                    None if new_mode in _NO_BLOB_MODES else new_sha.decode(),
                ))
                i += 2
            elif len(changes) < len(revs) and field == revs[len(changes)].sha.encode():
                changes.append([])
                i += 1
            else:
                raise GitError(f"{self.path}: unexpected git diff-tree output {field[:80]!r}")
        if len(changes) != len(revs):
            raise GitError(
                f"{self.path}: git diff-tree covered {len(changes)} of {len(revs)} revisions"
            )
        return changes

    def read_blob_bytes(self, blob_sha: str) -> bytes:
        """Raw contents of a blob object, via a persistent cat-file process."""
        with self._batch_lock:
            if self._batch is None or self._batch.poll() is not None:
                self._batch = subprocess.Popen(
                    ["git", "-C", str(self.path), "cat-file", "--batch"],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            self._batch.stdin.write(blob_sha.encode() + b"\n")
            self._batch.stdin.flush()
            header = self._batch.stdout.readline().decode().strip()
            if header.endswith(" missing") or not header:
                raise UnknownRevisionError(f"{self.path}: no such object {blob_sha}")
            size = int(header.rsplit(" ", 1)[1])
            data = b""
            while len(data) < size:
                chunk = self._batch.stdout.read(size - len(data))
                if not chunk:
                    raise GitError(f"{self.path}: truncated cat-file output for {blob_sha}")
                data += chunk
            self._batch.stdout.read(1)  # trailing newline
            return data

    def read_blob(self, commit_sha: str, path: str) -> str:
        """Decoded text of *path* at *commit_sha*; undecodable bytes are replaced."""
        blob = self.blob_sha(commit_sha, path)
        if blob is None:
            raise MissingPathError(f"{self.path}: {path} not present at {commit_sha}")
        return self.read_blob_bytes(blob).decode("utf-8", errors="replace")


def snapshot_for_doc(doc_version: DocVersion, source_seq: RevisionSequence) -> Revision:
    """The source revision a document version describes.

    This is the revision with the greatest timestamp at or before the document
    timestamp; equal timestamps resolve to the later ordinal so a doc edit and
    a source change in the same commit see each other. A document older than
    the whole history maps to the first revision, and one newer than every
    source commit maps to whatever revision carries the greatest timestamp.
    """
    if not source_seq.revisions:
        raise EmptyHistoryError("cannot snapshot against an empty revision sequence")
    order = source_seq.time_order
    idx = bisect.bisect_right(order, (doc_version.timestamp, len(order)))
    return source_seq.revisions[order[idx - 1][1] if idx else 0]


def link_source_to_docs(
    source_seq: RevisionSequence,
    doc_versions: list[DocVersion],
) -> list[tuple[Revision, DocVersion | None]]:
    """Pair every source revision with the next version of one document.

    Each revision pairs with the earliest doc version whose timestamp is at or
    after the revision's; revisions after the final doc version pair with that
    final (current) version. With no doc versions at all, every revision pairs
    with None. ``doc_versions`` must be sorted by timestamp ascending.
    """
    if not doc_versions:
        return [(rev, None) for rev in source_seq.revisions]
    timestamps = [v.timestamp for v in doc_versions]
    if timestamps != sorted(timestamps):
        raise ValueError("doc versions must be sorted by timestamp")
    pairs: list[tuple[Revision, DocVersion | None]] = []
    last = len(doc_versions) - 1
    for rev in source_seq.revisions:
        idx = bisect.bisect_left(timestamps, rev.timestamp)
        pairs.append((rev, doc_versions[min(idx, last)]))
    return pairs
