"""The two-call history reader, kept as the oracle of ``first_parent_history``.

``linearize_history`` lists a branch's first-parent revisions with one
``git log``, and ``first_parent_changes`` diffs each of them against the one
before it with one ``git diff-tree --stdin`` child, fed a ``<sha> <prev>``
pair per revision and checked to cover every revision. Together they give
what ``GitRepo.first_parent_history`` reads from one ``git log --raw``
stream.
"""

from __future__ import annotations

import subprocess

from staleref.revgraph import (
    _NO_BLOB_MODES,
    Change,
    EmptyHistoryError,
    GitError,
    GitRepo,
    Revision,
    RevisionSequence,
    UnknownBranchError,
    UnknownRevisionError,
)


def first_parent_history(
    repo: GitRepo, branch: str | None = None
) -> tuple[RevisionSequence, list[list[Change]]]:
    seq = linearize_history(repo, branch)
    return seq, first_parent_changes(repo, seq)


def linearize_history(repo: GitRepo, branch: str | None = None) -> RevisionSequence:
    """First-parent history of *branch*, oldest first, committer timestamps.

    Raises UnknownBranchError for a branch that does not exist and
    EmptyHistoryError for a repository (or unborn branch) with no commits.
    """
    name = repo.resolve_branch(branch)
    commit = f"{name}^{{commit}}"
    # git log reads the one name that rev-parse --verify reads: the
    # ``^{commit}`` suffix keeps it from reading a parent shorthand such
    # as ``^@``, and ``--end-of-options`` and ``--`` keep it from reading
    # an option or a path. It still reads a range, so a name with ``..``
    # is verified first.
    args = ("log", "--first-parent", "--reverse", "--format=%H %ct",
            "--end-of-options", commit, "--")
    listed = None if ".." in name else repo._run(*args)
    # Only a failed or empty listing pays for telling its causes apart.
    if listed is None or listed.returncode != 0 or not listed.stdout:
        if repo._run("rev-parse", "--verify", "--quiet", commit).returncode != 0:
            if branch is None or branch == repo.resolve_branch(None):
                raise EmptyHistoryError(f"{repo.path}: branch {name!r} has no commits")
            raise UnknownBranchError(f"{repo.path}: unknown branch {name!r}")
        listed = listed or repo._run(*args)
        if listed.returncode != 0:
            raise GitError(
                f"git {' '.join(args)} failed in {repo.path}: {listed.stderr.strip()}"
            )
        if not listed.stdout:
            raise EmptyHistoryError(f"{repo.path}: branch {name!r} has no commits")
    return RevisionSequence(tuple(
        Revision(sha, int(ts), i)
        for i, (sha, ts) in enumerate(line.split() for line in listed.stdout.splitlines())
    ))


def first_parent_changes(repo: GitRepo, seq: RevisionSequence) -> list[list[Change]]:
    """The blob changes of each revision of *seq* against the one before it.

    Entry i lists the changes of revision i against revision i-1; revision
    0 is diffed against the empty tree, which ``--root`` does for a
    parentless commit (a root, or a shallow clone's graft). Only blobs
    count: a gitlink is no blob on either side. One ``git diff-tree
    --stdin`` child serves every revision. The revisions need not form a
    chain, so any commits can be diffed in turn.
    """
    revs = seq.revisions
    lines = [revs[0].sha] + [f"{rev.sha} {prev.sha}" for prev, rev in zip(revs, revs[1:])]
    completed = subprocess.run(
        ["git", "-C", str(repo.path), "diff-tree", "-r", "-z", "--no-renames",
         "--root", "--always", "--stdin"],
        input="".join(line + "\n" for line in lines).encode(),
        capture_output=True,
    )
    if completed.returncode != 0:
        raise UnknownRevisionError(
            f"{repo.path}: cannot diff the first-parent history: "
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
            raise GitError(f"{repo.path}: unexpected git diff-tree output {field[:80]!r}")
    if len(changes) != len(revs):
        raise GitError(
            f"{repo.path}: git diff-tree covered {len(changes)} of {len(revs)} revisions"
        )
    return changes
