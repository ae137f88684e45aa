"""Tests for git plumbing, history linearization, and snapshot linking."""

from __future__ import annotations

import os
import random
import re
import subprocess

import pytest

import oracle_history
import oracle_revgraph
import scenarios
from repo_builder import RepoBuilder
from oracle_history import read_blob_bytes
from staleref.docdiscovery import DocumentDescriptor, ORIGIN_WIKI
from staleref import revgraph
from staleref.revgraph import (
    Branch,
    EmptyHistoryError,
    GitError,
    GitRepo,
    MissingRepositoryError,
    Revision,
    RevisionSequence,
    UnknownBranchError,
    UnknownRevisionError,
    link_source_to_docs,
    replay,
    snapshot_for_doc,
)

T = 1_600_000_000


def rev(ordinal, ts, sha=None):
    return Revision(sha or f"{ordinal:040x}", ts, ordinal)


def seq(*timestamps):
    return RevisionSequence(tuple(rev(i, ts) for i, ts in enumerate(timestamps)))


def doc_rev(ts):
    """A hosting revision that last wrote a document at *ts*."""
    return rev(0, ts)


class TestLinearize:
    def test_linear_history(self, repo_factory):
        builder = repo_factory()
        shas = [builder.commit(T + i * 100, {"f.txt": f"v{i}\n"}) for i in range(3)]
        repo = GitRepo(builder.path)
        sequence = repo.linearize_history()
        assert [r.sha for r in sequence.revisions] == shas
        assert [r.ordinal for r in sequence.revisions] == [0, 1, 2]
        assert [r.timestamp for r in sequence.revisions] == [T, T + 100, T + 200]

    def test_first_parent_excludes_side_commits(self, repo_factory):
        builder = repo_factory()
        a = builder.commit(T, {"f.txt": "a\n"})
        builder.branch("side")
        x = builder.commit(T + 100, {"g.txt": "x\n"})
        builder.checkout("main")
        b = builder.commit(T + 200, {"f.txt": "b\n"})
        m = builder.merge(T + 300, "side")
        repo = GitRepo(builder.path)
        sequence = repo.linearize_history()
        assert [r.sha for r in sequence.revisions] == [a, b, m]
        assert x not in [r.sha for r in sequence.revisions]

    def test_explicit_branch(self, repo_factory):
        builder = repo_factory()
        a = builder.commit(T, {"f.txt": "a\n"})
        builder.branch("feature")
        b = builder.commit(T + 100, {"f.txt": "b\n"})
        builder.checkout("main")
        repo = GitRepo(builder.path)
        assert [r.sha for r in repo.linearize_history("feature").revisions] == [a, b]
        assert [r.sha for r in repo.linearize_history("main").revisions] == [a]

    def test_resolve_branch(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n"})
        repo = GitRepo(builder.path)
        assert repo.resolve_branch() == "main"

    def test_missing_repository(self, tmp_path):
        with pytest.raises(MissingRepositoryError):
            GitRepo(tmp_path / "nope")
        plain = tmp_path / "plain"
        plain.mkdir()
        with pytest.raises(MissingRepositoryError):
            GitRepo(plain)

    def test_unknown_branch(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n"})
        repo = GitRepo(builder.path)
        with pytest.raises(UnknownBranchError):
            repo.linearize_history("does-not-exist")

    @pytest.mark.parametrize("name", [
        "HEAD^{tree}", "README.md", "docs", "main~1..main", "main^@", "main^!",
        "--all", "-n1", "--output=out",
    ])
    def test_name_of_no_single_commit_is_unknown_branch(self, repo_factory, name):
        # A tree, which git log lists as nothing with exit 0, is still told
        # apart from an unborn branch. A worktree path, a range, a parent
        # shorthand or an option: git log would list commits for each if it
        # read the name as such.
        builder = repo_factory()
        builder.commit(T, {"README.md": "a\n", "docs/guide.md": "b\n"})
        builder.commit(T + 1, {"README.md": "c\n"})
        repo = GitRepo(builder.path)
        with pytest.raises(UnknownBranchError, match=re.escape(repr(name))):
            repo.linearize_history(name)
        assert not (builder.path / "out").exists()

    def test_unborn_branch_is_empty_history(self, repo_factory):
        builder = repo_factory("empty")
        repo = GitRepo(builder.path)
        with pytest.raises(EmptyHistoryError):
            repo.linearize_history()

    @pytest.mark.parametrize("commits, branch, error, expected", [
        (2, "does-not-exist", UnknownBranchError, ["log", "rev-parse --verify", "symbolic-ref"]),
        (0, None, EmptyHistoryError, ["log", "symbolic-ref", "rev-parse --verify"]),
        (2, "main~1..main", UnknownBranchError, ["rev-parse --verify", "symbolic-ref"]),
    ], ids=["unknown-branch", "unborn-default", "range"])
    def test_failed_listing_costs_a_verify_and_a_symbolic_ref(
        self, repo_factory, monkeypatch, commits, branch, error, expected
    ):
        # Named or the default, a branch that cannot be listed starts one
        # rev-parse --verify and one symbolic-ref; a range is never listed.
        builder = repo_factory()
        for i in range(commits):
            builder.commit(T + i, {"f.txt": f"v{i}\n"})
        repo = GitRepo(builder.path)
        spawned = []

        class Recording(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                spawned.append(" ".join(args[3:5]) if args[3] == "rev-parse" else args[3])
                super().__init__(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", Recording)
        with pytest.raises(error):
            repo.first_parent_history(branch)
        assert spawned == expected


def blobs_at(repo, revision):
    """path -> blob at *revision*, from one tree listing."""
    return dict(oracle_history.tree_entries(repo, revision.sha))


class TestTreeAndBlobs:
    def test_tree_listing_sorted_recursive(self, repo_factory):
        builder = repo_factory()
        sha = builder.commit(T, {
            "README.md": "hi\n",
            "src/deep/mod.py": "x = 1\n",
            "src/a.py": "pass\n",
        })
        repo = GitRepo(builder.path)
        listing = oracle_history.tree_paths(repo, repo.linearize_history().head.sha)
        assert listing == ["README.md", "src/a.py", "src/deep/mod.py"]
        assert sha  # fixture committed

    def test_single_file_commit(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"README.md": "hi\n"})
        repo = GitRepo(builder.path)
        assert list(blobs_at(repo, repo.linearize_history().head)) == ["README.md"]

    def test_read_blob_roundtrip(self, repo_factory):
        builder = repo_factory()
        content = "uniçode line\nand more\n"
        builder.commit(T, {"f.txt": content})
        repo = GitRepo(builder.path)
        blob = blobs_at(repo, repo.linearize_history().head)["f.txt"]
        assert read_blob_bytes(repo, blob) == content.encode("utf-8")

    def test_read_blob_missing_path(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n"})
        repo = GitRepo(builder.path)
        assert "gone.txt" not in blobs_at(repo, repo.linearize_history().head)
        with pytest.raises(UnknownRevisionError):
            read_blob_bytes(repo, "f" * 40)

    def test_read_blob_at_deleted_path(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n", "keep.txt": "k\n"})
        builder.commit(T + 100, {"f.txt": None})
        repo = GitRepo(builder.path)
        first, head = repo.linearize_history().revisions
        assert read_blob_bytes(repo, blobs_at(repo, first)["f.txt"]) == b"a\n"
        assert "f.txt" not in blobs_at(repo, head)

    def test_many_blob_reads_through_batch(self, repo_factory):
        builder = repo_factory()
        files = {f"f{i}.txt": f"content {i}\n" for i in range(30)}
        builder.commit(T, files)
        repo = GitRepo(builder.path)
        blobs = blobs_at(repo, repo.linearize_history().head)
        for i in range(30):
            assert read_blob_bytes(repo, blobs[f"f{i}.txt"]) == f"content {i}\n".encode()

    def test_dead_cat_file_child_is_named_and_replaced(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"a.txt": "a\n", "b.txt": "b\n"})
        repo = GitRepo(builder.path)
        blobs = blobs_at(repo, repo.linearize_history().head)
        with scenarios.catfile_dies_at(blobs["a.txt"]):
            with pytest.raises(GitError, match="cat-file exited before it answered") as info:
                read_blob_bytes(repo, blobs["a.txt"])
            assert not isinstance(info.value, UnknownRevisionError)
            assert read_blob_bytes(repo, blobs["b.txt"]) == b"b\n"
            with pytest.raises(GitError, match="cat-file exited before it answered"):
                read_blob_bytes(repo, blobs["a.txt"])
        assert read_blob_bytes(repo, blobs["a.txt"]) == b"a\n"

    def test_abandoned_stream_leaves_no_answer_behind(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {f"f{i}.txt": f"content {i}\n" for i in range(3)})
        repo = GitRepo(builder.path)
        blobs = blobs_at(repo, repo.linearize_history().head)
        shas = [blobs[f"f{i}.txt"] for i in range(3)]
        stream = repo.read_blobs(shas)
        assert next(stream) == (shas[0], b"content 0\n")
        stream.close()  # two answers unread
        assert read_blob_bytes(repo, shas[2]) == b"content 2\n"
        stream = repo.read_blobs(shas)
        next(stream)
        del stream
        assert list(repo.read_blobs(shas[::-1])) == [
            (sha, f"content {i}\n".encode()) for i, sha in reversed(list(enumerate(shas)))
        ]

    def test_interleaved_streams_read_their_own_answers(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {f"f{i}.txt": f"content {i}\n" for i in range(7)})
        repo = GitRepo(builder.path)
        blobs = blobs_at(repo, repo.linearize_history().head)
        shas = [blobs[f"f{i}.txt"] for i in range(7)]
        expected = [(sha, f"content {i}\n".encode()) for i, sha in enumerate(shas)]
        first, second = repo.read_blobs(shas[:3]), repo.read_blobs(shas[3:6])
        got = [next(first), next(second)]
        # Both streams now have answers outstanding; a one-blob read between
        # them gets its own too.
        assert read_blob_bytes(repo, shas[6]) == b"content 6\n"
        got += [next(first), next(second), next(first), next(second)]
        assert got == [expected[i] for i in (0, 3, 1, 4, 2, 5)]

    def test_last_touch(self, repo_factory):
        # The oracle's last touch, from tree listings, agrees with git log.
        builder = repo_factory()
        first = builder.commit(T, {"README.md": "one\n", "src.py": "a\n", "run.sh": "x\n"})
        builder.commit(T + 100, {"src.py": "b\n"})
        os.chmod(builder.path / "run.sh", 0o755)
        builder.commit(T + 200, {})
        builder.commit(T + 300, {"src.py": "a\n"})
        repo = GitRepo(builder.path)
        sequence = repo.linearize_history()
        for path in ("README.md", "src.py", "run.sh"):
            touched = oracle_history.last_touch(sequence, repo, path)
            logged = builder.git("log", "--first-parent", "-1", "--format=%H", "--", path)
            assert touched.sha == logged.strip(), path
        assert oracle_history.last_touch(sequence, repo, "README.md").sha == first
        assert oracle_history.last_touch(sequence, repo, "absent.md") is None


class TestRevision:
    def test_sha1_and_sha256_names(self):
        assert Revision("a" * 40, T, 0).sha == "a" * 40
        assert Revision("b" * 64, T, 0).sha == "b" * 64
        for sha in ("a" * 39, "a" * 41, "a" * 63, "a" * 65, "A" * 40, "g" * 64):
            with pytest.raises(ValueError, match="not a full commit sha"):
                Revision(sha, T, 0)

    def test_sha256_repository(self, tmp_path):
        try:
            builder = RepoBuilder(tmp_path / "sha256", object_format="sha256")
        except RuntimeError:
            pytest.skip("git cannot create SHA-256 repositories")
        first = builder.commit(T, {"f.txt": "a\n"})
        builder.commit(T + 100, {"f.txt": "b\n"})
        repo = GitRepo(builder.path)
        sequence, changes = repo.first_parent_history()
        assert [len(r.sha) for r in sequence.revisions] == [64, 64]
        assert sequence.revisions[0].sha == first
        assert [[path for path, _, _ in c] for c in changes] == [[b"f.txt"], [b"f.txt"]]
        assert read_blob_bytes(repo, changes[1][0][2]) == b"b\n"


class TestSnapshotLinking:
    def test_strictly_prior(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(doc_rev(150), sources).timestamp == 100

    def test_doc_after_head_links_head(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(doc_rev(300), sources).ordinal == 1

    def test_equal_timestamp_ties_later_ordinal(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(doc_rev(100), sources).timestamp == 100
        tied = seq(100, 100)
        assert snapshot_for_doc(doc_rev(100), tied).ordinal == 1

    def test_doc_before_all_sources_gets_first(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(doc_rev(50), sources).ordinal == 0

    def test_empty_sequence_errors(self):
        empty = RevisionSequence(())
        with pytest.raises(EmptyHistoryError):
            snapshot_for_doc(doc_rev(100), empty)

    def test_monotone_in_doc_time(self):
        sources = seq(100, 200, 300, 400)
        ordinals = [snapshot_for_doc(doc_rev(t), sources).ordinal for t in (50, 150, 250, 999)]
        assert ordinals == sorted(ordinals)

    def test_non_monotone_sequence_max_ts_rule(self):
        # A revert can put an older timestamp later in the walk; the rule is
        # still max timestamp <= doc time, ties to the later ordinal.
        sources = seq(100, 300, 200)
        assert snapshot_for_doc(doc_rev(250), sources).timestamp == 200
        assert snapshot_for_doc(doc_rev(350), sources).ordinal == 1


def _linear_snapshot(doc_ts, sources):
    best = None
    for rev in sources.revisions:
        if rev.timestamp <= doc_ts and (best is None or rev.timestamp >= best.timestamp):
            best = rev
    return best if best is not None else sources.revisions[0]


class TestSnapshotProperty:
    def test_bisect_matches_linear_rule(self):
        rng = random.Random(7)
        for _ in range(500):
            # Few distinct timestamps: out-of-order runs and ties are common.
            timestamps = [rng.randrange(0, 12) * 10 for _ in range(rng.randrange(1, 9))]
            sources = seq(*timestamps)
            for doc_ts in range(-5, 130, 5):
                assert snapshot_for_doc(doc_rev(doc_ts), sources) == _linear_snapshot(
                    doc_ts, sources
                ), (timestamps, doc_ts)


def _replayed_trees(changes):
    """Tree of every revision, rebuilt from its history's *changes* alone."""
    tree: dict[str, str] = {}
    trees = []
    for revision_changes in changes:
        for path, old, new in revision_changes:
            name = path.decode("utf-8", errors="replace")
            assert tree.get(name) == old
            if new is None:
                tree.pop(name, None)
            else:
                tree[name] = new
        trees.append(tuple(sorted(tree.items())))
    return trees


class TestFirstParentChanges:
    def test_replay_matches_tree_entries(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"a.txt": "one\n", "lib/dep.py": "dep\n", "README.md": "r\n"})
        builder.branch("side")
        builder.commit(T + 10, {"side.txt": "s\n", "a.txt": None})
        builder.checkout("main")
        builder.commit(T + 20, {"b.txt": "one\n"})
        builder.merge(T + 30, "side")
        os.symlink("b.txt", builder.path / "link")
        builder.commit(T + 40, {"b.txt": "two\n"})
        # The empty commit still gets an entry; the file becomes a symlink
        # (a type change), and another file becomes a gitlink.
        builder.commit(T + 50, {})
        (builder.path / "README.md").unlink()
        os.symlink("b.txt", builder.path / "README.md")
        builder.git("rm", "-q", "--cached", "lib/dep.py")
        (builder.path / "lib/dep.py").unlink()
        (builder.path / "lib/dep.py").mkdir()
        builder.git("update-index", "--add", "--cacheinfo", f"160000,{'ab' * 20},lib/dep.py")
        builder.commit(T + 60, {})
        repo = GitRepo(builder.path)
        sequence, changes = repo.first_parent_history("main")
        assert len(sequence.revisions) == 6
        listings = [oracle_history.tree_entries(repo, r.sha) for r in sequence.revisions]
        assert _replayed_trees(changes) == listings
        # replay folds any prefix into that revision's tree, and at head
        # names each path's last change.
        for k, listing in enumerate(listings):
            tree = replay(changes[: k + 1])
            assert sorted((p.decode(), blob) for p, (blob, _) in tree.items()) == list(listing)
        assert {
            p.decode(): sequence.revisions[ordinal] for p, (_, ordinal) in tree.items()
        } == {p: oracle_history.last_touch(sequence, repo, p) for p, _ in listings[-1]}
        assert "lib/dep.py" not in blobs_at(repo, sequence.head)

    def test_shallow_graft_is_diffed_as_root(self, repo_factory, tmp_path):
        builder = repo_factory()
        for i in range(3):
            builder.commit(T + i, {f"f{i}.txt": f"{i}\n"})
        clone = tmp_path / "shallow"
        builder.git("clone", "-q", "--depth", "1", f"file://{builder.path}", str(clone))
        repo = GitRepo(clone)
        sequence, (changes,) = repo.first_parent_history(None)
        assert len(sequence.revisions) == 1
        assert sorted(path for path, old, _ in changes if old is None) == [
            b"f0.txt", b"f1.txt", b"f2.txt"
        ]


@pytest.fixture(scope="module")
def scenario_branches(tmp_path_factory):
    """The branch of every repository of every scenario that has commits."""
    branches = []
    for manifest in scenarios.build_all(tmp_path_factory.mktemp("scenarios")):
        for path in filter(None, (manifest["repo"], manifest["wiki"])):
            try:
                branches.append(Branch.open(path, None))
            except EmptyHistoryError:
                pass  # the unborn wiki
    return branches


def _blobs(tree):
    return {path: blob for path, (blob, _) in tree.items()}


class TestBranch:
    def test_history_equals_the_two_call_reader(self, scenario_branches):
        for branch in scenario_branches:
            seq, changes = oracle_revgraph.first_parent_history(branch.repo)
            assert (seq.revisions, changes) == (
                branch.seq.revisions, branch.changes
            ), branch.repo.path

    def test_head_is_the_replayed_history(self, scenario_branches):
        for branch in scenario_branches:
            assert branch.head == replay(branch.changes), branch.repo.path

    def test_nets_rebuild_each_stop(self, scenario_branches):
        # From the empty tree or any revision, applying each move's net
        # gives the stop's tree, over random descending stops that may skip
        # revisions and repeat one.
        rng = random.Random(5)
        for branch in scenario_branches:
            n = len(branch.changes)
            for _ in range(20):
                stops = sorted(
                    (branch.seq.revisions[rng.randrange(n)] for _ in range(rng.randrange(1, 5))),
                    key=lambda r: r.ordinal, reverse=True,
                )
                at = rng.choice([None, branch.seq.revisions[rng.randrange(stops[0].ordinal, n)]])
                tree = {} if at is None else _blobs(replay(branch.changes[: at.ordinal + 1]))
                for stop, net in zip(stops, branch.nets(stops, at)):
                    for path, blob in net.items():
                        if blob is None:
                            tree.pop(path, None)
                        else:
                            tree[path] = blob
                    assert tree == _blobs(replay(branch.changes[: stop.ordinal + 1])), (
                        branch.repo.path, at, stops, stop
                    )

    def test_blob_series_matches_the_tree_listings(self, scenario_branches):
        for branch in scenario_branches:
            paths = branch.paths()
            series = branch.blob_series(paths)
            assert set(series) == paths
            for revision in branch.seq.revisions:
                listing = {
                    path: blob
                    for path, _, blob in oracle_history._ls_tree_raw(branch.repo, revision.sha)
                }
                assert {path: blobs[revision.ordinal] for path, blobs in series.items()} == {
                    path: listing.get(path) for path in paths
                }, (branch.repo.path, revision.ordinal)

    def test_nets_refuse_moves_they_cannot_make(self, scenario_branches):
        for branch in scenario_branches:
            revisions = branch.seq.revisions
            past = Revision(revisions[-1].sha, revisions[-1].timestamp, len(revisions))
            with pytest.raises(ValueError, match="is not one of"):
                branch.nets([past], None)
            if len(revisions) > 1:
                with pytest.raises(ValueError, match="towards older revisions"):
                    branch.nets(revisions[:2], None)
                with pytest.raises(ValueError, match="towards older revisions"):
                    branch.nets([revisions[-1]], revisions[0])


class TestLinkSourceToDocs:
    def test_single_doc_version(self):
        sources = seq(1, 2, 3)
        docs = seq(2)  # between t=1 and t=3, ts greater than first revision
        assert link_source_to_docs(sources, docs) == [docs.head] * 3

    def test_two_doc_versions_split(self):
        sources = seq(1, 2, 3, 4)
        docs = seq(1, 3)
        assert [r.ordinal for r in link_source_to_docs(sources, docs)] == [0, 1, 1, 1]

    def test_empty_doc_sequence_errors(self):
        with pytest.raises(EmptyHistoryError):
            link_source_to_docs(seq(1, 2, 3), RevisionSequence(()))

    def test_partition_property(self):
        sources = seq(10, 20, 30, 40, 50)
        links = link_source_to_docs(sources, seq(15, 35))
        assert [r.ordinal for r in links] == [0, 1, 1, 1, 1]

    def test_round_trip_property(self):
        sources = seq(10, 20, 30, 40)
        docs = seq(25)
        for revision, linked in zip(sources.revisions, link_source_to_docs(sources, docs)):
            assert revision.timestamp <= linked.timestamp or linked is docs.head

    def test_out_of_order_docs_link_by_time_then_ordinal(self):
        # Doc ordinal 2 is older than ordinal 1, and ordinals 0 and 3 tie.
        links = link_source_to_docs(seq(5, 10, 15, 25, 35), seq(10, 30, 20, 10))
        assert [r.ordinal for r in links] == [0, 0, 2, 1, 1]


def _oracle_links(sources, docs):
    """The list-based reference rule over timestamp-sorted document versions."""
    descriptor = DocumentDescriptor(ORIGIN_WIKI, "Home.md", "markdown")
    versions = sorted(
        (oracle_history.DocVersion(descriptor, r, "body") for r in docs.revisions),
        key=lambda v: v.timestamp,
    )
    return [version.revision for _, version in oracle_history.link_source_to_docs(sources, versions)]


class TestLinkProperty:
    def test_bisect_matches_list_rule(self):
        rng = random.Random(11)
        for _ in range(500):
            # Few distinct timestamps: out-of-order runs and ties are common.
            source_ts = [rng.randrange(0, 12) * 10 for _ in range(rng.randrange(1, 9))]
            doc_ts = [rng.randrange(0, 12) * 10 for _ in range(rng.randrange(1, 9))]
            sources, docs = seq(*source_ts), seq(*doc_ts)
            assert link_source_to_docs(sources, docs) == _oracle_links(sources, docs), (
                source_ts, doc_ts
            )


class FakeCatFile:
    """An in-process stand-in for a ``git cat-file --batch`` child.

    It answers requests in order from *objects* (sha -> bytes), and as
    missing for any other sha. At the sha *dies_at* it exits unanswered, and
    at *truncates_at* it writes half the answer and exits. It records every
    request and the most that were ever outstanding: written, with no
    answer begun.
    """

    def __init__(self, objects: dict[str, bytes], dies_at=None, truncates_at=None):
        self.objects, self.dies_at, self.truncates_at = objects, dies_at, truncates_at
        self.requests: list[str] = []
        self.answered = 0
        self.most_outstanding = 0
        self.returncode = None
        self.stdin, self.stdout = _FakeStdin(self), _FakeStdout(self)

    def answer_next(self) -> None:
        if self.returncode is not None or self.answered == len(self.requests):
            return
        sha = self.requests[self.answered]
        self.answered += 1
        data = self.objects.get(sha)
        if sha == self.dies_at:
            self.returncode = 3
        elif data is None:
            self.stdout.pending += f"{sha} missing\n".encode()
        else:
            answer = f"{sha} blob {len(data)}\n".encode() + data + b"\n"
            if sha == self.truncates_at:
                answer, self.returncode = answer[: len(answer) - len(data) // 2 - 1], 3
            self.stdout.pending += answer

    def poll(self):
        return self.returncode

    def terminate(self) -> None:
        if self.returncode is None:
            self.returncode = -15

    def wait(self, timeout=None):
        return self.returncode


class _FakeStdin:
    def __init__(self, child: FakeCatFile):
        self.child, self.buffer = child, b""

    def write(self, data: bytes) -> None:
        self.buffer += data

    def flush(self) -> None:
        child = self.child
        if child.returncode is not None:
            raise BrokenPipeError
        *lines, self.buffer = self.buffer.split(b"\n")
        child.requests += [line.decode() for line in lines]
        child.most_outstanding = max(child.most_outstanding, len(child.requests) - child.answered)

    def close(self) -> None:
        if self.buffer:
            self.flush()


class _FakeStdout:
    def __init__(self, child: FakeCatFile):
        self.child, self.pending = child, b""

    def readline(self) -> bytes:
        if not self.pending:
            self.child.answer_next()
        line, newline, self.pending = self.pending.partition(b"\n")
        return line + newline

    def read(self, size: int) -> bytes:
        data, self.pending = self.pending[:size], self.pending[size:]
        return data

    def close(self) -> None:
        pass


class TestBlobStream:
    """``GitRepo.read_blobs`` against fake cat-file children."""

    SHAS = [f"{i:040x}" for i in range(1, 201)]
    OBJECTS = {sha: f"object {i}\n".encode() * (i % 3) for i, sha in enumerate(SHAS)}

    @pytest.fixture
    def fake_repo(self, repo_factory, monkeypatch):
        """A GitRepo whose cat-file children are FakeCatFile instances made
        by the returned function's keyword arguments; it lists them."""
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n"})
        repo = GitRepo(builder.path)
        children: list[FakeCatFile] = []
        options = {}

        def spawn(args, **kwargs):
            assert args[3:] == ["cat-file", "--batch"]
            children.append(FakeCatFile(self.OBJECTS, **options))
            return children[-1]

        monkeypatch.setattr(subprocess, "Popen", spawn)

        def configure(**kwargs):
            options.update(kwargs)
            return repo, children

        return configure

    def test_keeps_at_most_a_window_outstanding(self, fake_repo):
        repo, children = fake_repo()
        assert list(repo.read_blobs(self.SHAS)) == list(self.OBJECTS.items())
        [child] = children
        assert child.requests == self.SHAS
        assert child.most_outstanding == revgraph._WINDOW == 63
        assert child.returncode == -15  # the stream ended its child

    @pytest.mark.parametrize("fault", ["dies_at", "truncates_at"])
    @pytest.mark.parametrize("index", [0, 31, 62, 63, 199], ids=lambda i: f"sha{i}")
    def test_a_dying_child_fails_one_blob(self, fake_repo, fault, index):
        # 0, 31 and 62 are the first, a middle and the last sha of the first
        # window; 63 opens the second, and 199 is the last of all.
        bad = self.SHAS[index]
        repo, children = fake_repo(**{fault: bad})
        got = list(repo.read_blobs(self.SHAS))
        assert [sha for sha, _ in got] == self.SHAS
        [(_, error)] = [(sha, data) for sha, data in got if sha == bad]
        message = "truncated cat-file output" if fault == "truncates_at" else (
            "git cat-file exited before it answered"
        )
        assert type(error) is GitError and str(error) == f"{repo.path}: {message} for {bad}"
        assert [(sha, data) for sha, data in got if sha != bad] == [
            (sha, data) for sha, data in self.OBJECTS.items() if sha != bad
        ]
        if index == len(self.SHAS) - 1:
            assert len(children) == 1
        else:
            first, second = children
            assert first.requests[: index + 1] == self.SHAS[: index + 1]
            assert second.requests == self.SHAS[index + 1 :]
        assert children[0].returncode == 3
        assert all(child.returncode is not None for child in children)

    def test_a_missing_blob_fails_alone(self, fake_repo):
        repo, children = fake_repo()
        shas = self.SHAS[:20] + ["f" * 40] + self.SHAS[20:40]
        got = list(repo.read_blobs(shas))
        assert [sha for sha, _ in got] == shas
        assert isinstance(got[20][1], UnknownRevisionError)
        assert got[:20] + got[21:] == [(sha, self.OBJECTS[sha]) for sha in shas if sha in self.OBJECTS]
        assert len(children) == 1 and children[0].returncode == -15

    def test_an_abandoned_stream_drops_its_child(self, fake_repo):
        repo, children = fake_repo()
        stream = repo.read_blobs(self.SHAS)
        for _ in range(5):
            next(stream)
        stream.close()
        assert children[0].returncode == -15
        assert read_blob_bytes(repo, self.SHAS[7]) == self.OBJECTS[self.SHAS[7]]
        assert len(children) == 2 and children[1].requests == [self.SHAS[7]]
        assert children[1].returncode == -15
        # An empty stream starts no child.
        assert list(repo.read_blobs([])) == []
        assert len(children) == 2
