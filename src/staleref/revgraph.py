"""Git plumbing: linearized first-parent histories and snapshot linking.

All repository access goes through subprocess calls to the ``git`` binary.
A ``Branch`` holds one history's per-revision changes and is the only code
that folds them into trees.
Each blob stream reads through a ``cat-file --batch`` child of its own, so
its reads pay neither process startup per file nor a round trip per blob.
"""

from __future__ import annotations

import bisect
import re
import subprocess
from collections.abc import Iterable, Iterator, Sequence
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
        probe = self._run("rev-parse", "--git-dir", "--show-prefix")
        if probe.returncode != 0:
            raise MissingRepositoryError(f"not a git repository: {self.path}")
        # Below a work tree's top, git finds the enclosing repository and
        # prints the directory's path in it as the prefix.
        if probe.stdout.split("\n")[-2]:
            raise MissingRepositoryError(f"not the top of a git repository: {self.path}")

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", "-C", str(self.path), *args], capture_output=True, text=True
        )

    def close(self) -> None:
        """Nothing to end, as each blob stream ends its own child. Kept
        because the set-up probe of ``perfbench/run.py`` calls it."""

    # -- history -----------------------------------------------------------

    def resolve_branch(self, branch: str | None = None) -> str:
        if branch:
            return branch
        return self._run("symbolic-ref", "--short", "-q", "HEAD").stdout.strip() or "HEAD"

    def linearize_history(self, branch: str | None = None) -> RevisionSequence:
        """First-parent history of *branch*, oldest first, committer timestamps.

        Raises UnknownBranchError for a branch that does not exist and
        EmptyHistoryError for a repository (or unborn branch) with no commits.
        """
        name = self.resolve_branch(branch)
        commit = f"{name}^{{commit}}"
        # git log reads the one name that rev-parse --verify reads: the
        # ``^{commit}`` suffix keeps it from reading a parent shorthand such
        # as ``^@``, and ``--end-of-options`` and ``--`` keep it from reading
        # an option or a path. It still reads a range, so a name with ``..``
        # is verified first.
        args = ("log", "--first-parent", "--reverse", "--format=%H %ct",
                "--end-of-options", commit, "--")
        listed = None if ".." in name else self._run(*args)
        # Only a failed or empty listing pays for telling its causes apart.
        if listed is None or listed.returncode != 0 or not listed.stdout:
            if self._run("rev-parse", "--verify", "--quiet", commit).returncode != 0:
                if branch is None or branch == self.resolve_branch(None):
                    raise EmptyHistoryError(f"{self.path}: branch {name!r} has no commits")
                raise UnknownBranchError(f"{self.path}: unknown branch {name!r}")
            listed = listed or self._run(*args)
            if listed.returncode != 0:
                raise GitError(
                    f"git {' '.join(args)} failed in {self.path}: {listed.stderr.strip()}"
                )
            if not listed.stdout:
                raise EmptyHistoryError(f"{self.path}: branch {name!r} has no commits")
        return RevisionSequence(tuple(
            Revision(sha, int(ts), i)
            for i, (sha, ts) in enumerate(line.split() for line in listed.stdout.splitlines())
        ))

    def remote_url(self) -> str | None:
        return self._run("config", "--get", "remote.origin.url").stdout.strip() or None

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


@dataclass(frozen=True)
class Branch:
    """One repository's first-parent history of a branch and each of its
    revisions' blob changes, which only this class folds into trees."""

    repo: GitRepo
    seq: RevisionSequence
    changes: list[list[Change]]

    @classmethod
    def open(cls, path: str | Path, branch: str | None) -> Branch:
        repo = GitRepo(path)
        seq = repo.linearize_history(branch)
        return cls(repo, seq, repo.first_parent_changes(seq))

    @cached_property
    def head(self) -> dict[bytes, tuple[str, int]]:
        """Raw path -> (its blob at head, index of its last change)."""
        return replay(self.changes)

    def paths(self) -> set[bytes]:
        """Every raw path that holds a blob at some revision."""
        return {path for changes in self.changes for path, _, new in changes if new}

    def blob_series(self, paths: Iterable[bytes]) -> dict[bytes, list[str | None]]:
        """The blob of each of *paths* at every revision, None where it holds none."""
        current: dict[bytes, str | None] = dict.fromkeys(paths)
        series: dict[bytes, list[str | None]] = {path: [] for path in current}
        for changes in self.changes:
            for path, _, new in changes:
                if path in current:
                    current[path] = new
            for path, blobs in series.items():
                blobs.append(current[path])
        return series

    def nets(
        self, stops: Sequence[Revision], at: Revision | None
    ) -> list[dict[bytes, str | None]]:
        """For each move from *at* (None for the empty tree) to each of
        *stops* in turn, the blob at its stop (None for none) of each path
        whose blob the move may change. No stop is newer than the one
        before it."""
        nets = []
        for stop in stops:
            target = stop.ordinal
            if target >= len(self.changes):
                raise ValueError(f"revision {target} is not one of the branch's")
            if at is not None and target > at.ordinal:
                raise ValueError("a move only goes towards older revisions")
            # The old side of each changed path's oldest undone change, where
            # a move from nothing undoes changes from the head's tree down.
            undone: dict[bytes, str | None] = {}
            top = len(self.changes) - 1 if at is None else at.ordinal
            for changes in self.changes[target + 1 : top + 1]:
                for path, old, _ in changes:
                    undone.setdefault(path, old)
            if at is None:
                undone = {path: blob for path, (blob, _) in self.head.items()} | undone
            nets.append(undone)
            at = stop
        return nets


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
