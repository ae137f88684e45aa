"""Git plumbing: linearized first-parent histories and snapshot linking.

All repository access goes through subprocess calls to the ``git`` binary.
Each blob stream reads through a ``cat-file --batch`` child of its own, so
its reads pay neither process startup per file nor a round trip per blob.
"""

from __future__ import annotations

import bisect
import re
import subprocess
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

# 40 hex digits name a SHA-1 object, 64 a SHA-256 one.
_FULL_SHA = re.compile("[0-9a-f]{40}|[0-9a-f]{64}")

# Blob requests a stream keeps unanswered: 63 SHA-256 request lines fit the
# one page a Linux pipe holds at the least, so writing them never blocks.
_WINDOW = 63

# Raw diff modes on a side that holds no blob: nothing there, or a gitlink.
_NO_BLOB_MODES = (b"000000", b"160000")

# One changed path of a revision: (raw path, old blob, new blob), where None
# means the path holds no blob on that side.
Change = tuple[bytes, str | None, str | None]


def replay(changes: list[list[Change]]) -> dict[bytes, tuple[str, int]]:
    """Raw path -> (its blob, index of the last of *changes* that changed its
    blob or mode), for every path that holds a blob after *changes*, which
    are applied in order to an empty tree."""
    tree: dict[bytes, tuple[str, int]] = {}
    for i, revision_changes in enumerate(changes):
        for path, _, new in revision_changes:
            if new is None:
                tree.pop(path, None)
            else:
                tree[path] = (new, i)
    return tree


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


@dataclass(frozen=True)
class Revision:
    sha: str
    timestamp: int
    ordinal: int

    def __post_init__(self) -> None:
        if not _FULL_SHA.fullmatch(self.sha):
            raise ValueError(f"not a full commit sha: {self.sha!r}")
        if type(self.timestamp) is not int:
            raise ValueError(f"timestamp is no integer: {self.timestamp!r}")
        if self.ordinal < 0:
            raise ValueError("ordinal must be non-negative")


@dataclass(frozen=True)
class RevisionSequence:
    """Oldest-first, first-parent linearization of one branch."""

    revisions: tuple[Revision, ...]

    def __post_init__(self) -> None:
        for i, rev in enumerate(self.revisions):
            if rev.ordinal != i:
                raise ValueError("revision ordinals must be contiguous from zero")

    def __len__(self) -> int:
        return len(self.revisions)

    @property
    def head(self) -> Revision:
        return self.revisions[-1]

    @cached_property
    def time_order(self) -> list[tuple[int, int]]:
        """(timestamp, ordinal) of every revision, ascending."""
        return sorted((rev.timestamp, rev.ordinal) for rev in self.revisions)


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
        """Nothing to end, as each blob stream ends its own child. Kept
        because the set-up probe of ``perfbench/run.py`` calls it."""

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

    def linearize_history(self, branch: str | None = None) -> RevisionSequence:
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
        return RevisionSequence(tuple(revisions))

    def remote_url(self) -> str | None:
        out = subprocess.run(
            ["git", "-C", str(self.path), "config", "--get", "remote.origin.url"],
            capture_output=True,
            text=True,
        )
        url = out.stdout.strip()
        return url or None

    # -- changes and blobs ---------------------------------------------------

    def first_parent_changes(self, seq: RevisionSequence) -> list[list[Change]]:
        """The blob changes of each revision of *seq* against the one before it.

        Entry i lists the changes of revision i against revision i-1; revision
        0 is diffed against the empty tree, which ``--root`` does for a
        parentless commit (a root, or a shallow clone's graft). Only blobs
        count: a gitlink is no blob on either side. One ``git diff-tree
        --stdin`` child serves every revision.
        """
        revs = seq.revisions
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

    def read_blobs(self, blobs: Sequence[str]) -> Iterator[tuple[str, bytes | GitError]]:
        """(blob, its raw contents or the GitError that reading it gave) for
        each of *blobs*, in order, through a cat-file child of the stream's
        own, started at the first request and ended with the stream. Up to
        ``_WINDOW`` requests run ahead of the answers, so git looks up the
        next objects while the caller works on this one. A missing object
        fails only its blob. A child that exits or cuts an answer short fails
        the first unanswered blob and is ended; the blobs after it are
        requested again from a new child."""
        batch = None
        done = sent = 0  # blobs[done:sent] are requested and not answered
        try:
            while done < len(blobs):
                more = blobs[sent : done + _WINDOW]
                if more:
                    if batch is None:
                        batch = subprocess.Popen(
                            ["git", "-C", str(self.path), "cat-file", "--batch"],
                            stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE,
                        )
                    sent += len(more)
                    try:
                        batch.stdin.write("".join(blob + "\n" for blob in more).encode())
                        batch.stdin.flush()
                    except BrokenPipeError:
                        pass  # the child is gone: reading its answers finds out
                blob, answers, done = blobs[done], batch.stdout, done + 1
                header = answers.readline().decode().strip()
                if header.endswith(" missing"):
                    yield blob, UnknownRevisionError(f"{self.path}: no such object {blob}")
                    continue
                if header:
                    size = int(header.rsplit(" ", 1)[1])
                    data = answers.read(size)
                    if len(data) == size and answers.read(1) == b"\n":
                        yield blob, data
                        continue
                _end(batch)
                batch, sent = None, done  # the rest are requested again from a new child
                yield blob, GitError(f"{self.path}: " + (
                    f"truncated cat-file output for {blob}" if header
                    else f"git cat-file exited before it answered for {blob}"
                ))
        finally:
            if batch is not None:
                _end(batch)


def _end(child: subprocess.Popen) -> None:
    try:
        child.stdin.close()
    except BrokenPipeError:
        pass  # a dead child leaves its last request unread
    child.terminate()
    child.wait(timeout=5)
    child.stdout.close()


def snapshot_for_doc(doc_revision: Revision, source_seq: RevisionSequence) -> Revision:
    """The source revision a wiki page describes, given the wiki revision that
    last wrote it.

    This is the revision with the greatest timestamp at or before the page
    timestamp; equal timestamps resolve to the later ordinal, so a page
    edited in the second of a source commit sees that commit. A page older
    than the whole history maps to the first revision, and one newer than
    every source commit maps to whatever revision carries the greatest
    timestamp. A README needs no such rule: its snapshot is the source
    commit that last touched it.
    """
    if not source_seq.revisions:
        raise EmptyHistoryError("cannot snapshot against an empty revision sequence")
    order = source_seq.time_order
    idx = bisect.bisect_right(order, (doc_revision.timestamp, len(order)))
    return source_seq.revisions[order[idx - 1][1] if idx else 0]


def link_source_to_docs(source_seq: RevisionSequence, doc_seq: RevisionSequence) -> list[Revision]:
    """The revision of a document's hosting repository that each source
    revision sees.

    This is the earliest hosting revision by (timestamp, ordinal) whose
    timestamp is at or after the source revision's; source revisions after
    every hosting revision see the last one in that order. It is the mirror
    of ``snapshot_for_doc``.
    """
    if not doc_seq.revisions:
        raise EmptyHistoryError("cannot link to an empty revision sequence")
    order = doc_seq.time_order
    last = len(order) - 1
    return [
        doc_seq.revisions[order[min(bisect.bisect_left(order, (rev.timestamp, -1)), last)][1]]
        for rev in source_seq.revisions
    ]
