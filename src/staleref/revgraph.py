"""Git plumbing: linearized first-parent histories and snapshot linking.

All repository access goes through subprocess calls to the ``git`` binary.
A ``Branch`` holds one history's per-revision changes and is the only code
that folds them into trees.
Each blob stream reads through a ``cat-file --batch --buffer`` child of its
own, which reads the stream's requests from a file, so its reads pay neither
process startup per file nor a round trip per blob.
"""

from __future__ import annotations

import bisect
import itertools
import re
import subprocess
import tempfile
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from pathlib import Path

# 40 hex digits name a SHA-1 object, 64 a SHA-256 one.
_FULL_SHA = re.compile("[0-9a-f]{40}|[0-9a-f]{64}")

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


class Revision(namedtuple("Revision", "sha timestamp ordinal")):
    """One commit of a first-parent history: its full sha, its committer
    timestamp and its position, oldest first. Immutable."""

    __slots__ = ()

    def __new__(cls, sha: str, timestamp: int, ordinal: int) -> Revision:
        if not _FULL_SHA.fullmatch(sha):
            raise ValueError(f"not a full commit sha: {sha!r}")
        if type(timestamp) is not int:
            raise ValueError(f"timestamp is no integer: {timestamp!r}")
        if ordinal < 0:
            raise ValueError("ordinal must be non-negative")
        return tuple.__new__(cls, (sha, timestamp, ordinal))


class RevisionSequence:
    """Oldest-first, first-parent linearization of one branch."""

    def __init__(self, revisions: tuple[Revision, ...]):
        for i, rev in enumerate(revisions):
            if rev.ordinal != i:
                raise ValueError("revision ordinals must be contiguous from zero")
        self.revisions = revisions

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
        probe = self._run("rev-parse", "--git-dir", "--show-prefix", "--is-inside-git-dir")
        if probe.returncode != 0:
            raise MissingRepositoryError(f"not a git repository: {self.path}")
        # Below a work tree's top, git finds the enclosing repository and
        # prints the directory's path in it as the prefix. Inside a git
        # directory, only its top names itself as ".".
        *git_dir, prefix, inside, _ = probe.stdout.split("\n")
        if prefix or (inside == "true" and git_dir != ["."]):
            raise MissingRepositoryError(f"not the top of a git repository: {self.path}")

    def _run(self, *args: str, text: bool = True) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(self.path), *args], capture_output=True, text=text)

    def close(self) -> None:
        """Nothing to end, as each blob stream ends its own child. Kept
        because the set-up probe of ``perfbench/run.py`` calls it."""

    # -- history -----------------------------------------------------------

    def resolve_branch(self, branch: str | None = None) -> str:
        if branch:
            return branch
        return self._run("symbolic-ref", "--short", "-q", "HEAD").stdout.strip() or "HEAD"

    def linearize_history(self, branch: str | None = None) -> RevisionSequence:
        return self.first_parent_history(branch)[0]

    def first_parent_history(
        self, branch: str | None = None
    ) -> tuple[RevisionSequence, list[list[Change]]]:
        """First-parent history of *branch* (HEAD for None), oldest first with
        committer timestamps, and each revision's blob changes against the
        one before it, from one ``git log --raw`` child. Revision 0 is diffed
        against the empty tree, as ``--root`` does for a parentless commit (a
        root, or a shallow clone's graft); a gitlink is no blob on either side.

        Raises UnknownBranchError for a branch that does not exist and
        EmptyHistoryError for a repository (or unborn branch) with no commits.
        """
        name = branch or "HEAD"
        commit = f"{name}^{{commit}}"
        # git log reads the one name that rev-parse --verify reads: the
        # ``^{commit}`` suffix keeps it from reading a parent shorthand such
        # as ``^@``, and ``--end-of-options`` and ``--`` keep it from reading
        # an option or a path. It still reads a range, so a name with ``..``
        # is verified first. Options that a git config can change are given.
        args = ("log", "--first-parent", "--reverse", "--format=%H %ct", "--raw", "-z",
                "--no-abbrev", "--no-renames", "--root", "--diff-merges=first-parent",
                "--no-show-signature", "--end-of-options", commit, "--")
        listed = None if ".." in name else self._run(*args, text=False)
        # Only a failed or empty listing pays for telling its causes apart.
        if listed is None or listed.returncode != 0 or not listed.stdout:
            name = self.resolve_branch(branch)
            if self._run("rev-parse", "--verify", "--quiet", commit).returncode != 0:
                if branch is None or branch == self.resolve_branch(None):
                    raise EmptyHistoryError(f"{self.path}: branch {name!r} has no commits")
                raise UnknownBranchError(f"{self.path}: unknown branch {name!r}")
            listed = listed or self._run(*args, text=False)
            if listed.returncode != 0:
                raise GitError(f"git {' '.join(args)} failed in {self.path}: "
                               f"{listed.stderr.decode(errors='replace').strip()}")
            if not listed.stdout:
                raise EmptyHistoryError(f"{self.path}: branch {name!r} has no commits")
        # -z output: each revision's "<sha> <time>" field, then a "[\n]:<modes>
        # <shas> <status>" field and a path field per changed path; then "".
        revisions, changes = [], []
        fields = iter(listed.stdout.split(b"\x00")[:-1])
        for field in fields:
            if field.startswith((b":", b"\n:")):
                old_mode, new_mode, old_sha, new_sha, _ = field.lstrip(b"\n:").split(b" ")
                changes[-1].append((
                    next(fields),
                    None if old_mode in _NO_BLOB_MODES else old_sha.decode(),
                    None if new_mode in _NO_BLOB_MODES else new_sha.decode(),
                ))
            else:
                sha, timestamp = field.decode().split(" ")
                revisions.append(Revision(sha, int(timestamp), len(revisions)))
                changes.append([])
        return RevisionSequence(tuple(revisions)), changes

    def remote_url(self) -> str | None:
        """The origin remote's URL; None for no remote and for a URL that is
        not UTF-8."""
        url = self._run("config", "--get", "remote.origin.url", text=False).stdout.strip()
        try:
            return url.decode() or None
        except UnicodeDecodeError:
            return None

    # -- blobs ---------------------------------------------------------------

    def read_blobs(self, blobs: Sequence[str]) -> Iterator[tuple[str, bytes | GitError]]:
        """(blob, its raw contents or the GitError that reading it gave) for
        each of *blobs*, in order, through a ``cat-file --batch --buffer``
        child of the stream's own, started at the first request and ended
        with the stream. Every request is written once, to an unnamed
        temporary file that is the child's input, so git looks up the next
        objects while the caller works on this one. A missing object fails
        only its blob. A child that exits or cuts an answer short fails the
        first unanswered blob and is ended; a new child reads the requests
        from the next blob's on. Each child's stderr goes to an unnamed
        temporary file, whose last line ends its failed blob's error."""
        batch = stderr = None
        offset = 0  # where the next blob's request starts
        with tempfile.TemporaryFile() as requests:
            requests.write("".join(blob + "\n" for blob in blobs).encode())
            try:
                for blob in blobs:
                    if batch is None:
                        requests.seek(offset)  # which flushes the requests first
                        stderr = tempfile.TemporaryFile()
                        batch = subprocess.Popen(
                            ["git", "-C", str(self.path), "cat-file", "--batch", "--buffer"],
                            stdin=requests,
                            stdout=subprocess.PIPE,
                            stderr=stderr,
                        )
                    offset += len(blob) + 1
                    header = batch.stdout.readline()
                    if header.endswith(b" missing\n"):
                        yield blob, UnknownRevisionError(f"{self.path}: no such object {blob}")
                        continue
                    if header.endswith(b"\n"):
                        size = int(header.rsplit(b" ", 1)[1])
                        data = batch.stdout.read(size)
                        if len(data) == size and batch.stdout.read(1) == b"\n":
                            yield blob, data
                            continue
                    _end(batch)
                    batch = None  # the rest are answered by a new child
                    yield blob, GitError(f"{self.path}: " + (
                        f"truncated cat-file output for {blob}" if header
                        else f"git cat-file exited before it answered for {blob}"
                    ) + _last_line(stderr))
            finally:
                if batch is not None:
                    _end(batch)
                if stderr is not None:
                    stderr.close()


def _last_line(stderr) -> str:
    """": " and the last non-empty line of an ended child's *stderr* file, which is closed."""
    with stderr:
        stderr.seek(0)
        lines = stderr.read().decode(errors="replace").split("\n")
    return next((f": {line.strip()}" for line in reversed(lines) if line.strip()), "")


def _end(child: subprocess.Popen) -> None:
    """Kill *child* and reap it with one blocking wait: no poll loop, and no
    child that ignores SIGTERM outlives its stream."""
    child.kill()
    child.wait()
    child.stdout.close()


class Branch:
    """One repository's first-parent history of a branch and each of its
    revisions' blob changes, which only this class folds into trees."""

    def __init__(self, repo: GitRepo, seq: RevisionSequence, changes: list[list[Change]]):
        self.repo = repo
        self.seq = seq
        self.changes = changes

    @classmethod
    def open(cls, path: str | Path, branch: str | None) -> Branch:
        repo = GitRepo(path)
        return cls(repo, *repo.first_parent_history(branch))

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


def doc_ordinals_seen(source_seq: RevisionSequence, doc_seq: RevisionSequence) -> list[int | None]:
    """The ordinal of the hosting revision that each source revision sees,
    or None where it sees none yet.

    Each hosting revision belongs to the source revision that
    ``snapshot_for_doc`` gives it, and a source revision sees the newest
    hosting revision, by ordinal, that belongs to it or to an older source
    revision. So a page reads, at its scan snapshot and at head, the version
    that the scan reads.
    """
    belongs = [-1] * len(source_seq.revisions)
    for doc_revision in doc_seq.revisions:
        belongs[snapshot_for_doc(doc_revision, source_seq).ordinal] = doc_revision.ordinal
    return [None if seen < 0 else seen for seen in itertools.accumulate(belongs, max)]
