"""Tests for git plumbing, history linearization, and snapshot linking."""

from __future__ import annotations

import os
import random

import pytest

from staleref.docdiscovery import DocumentDescriptor, ORIGIN_WIKI
from staleref.revgraph import (
    DocVersion,
    EmptyHistoryError,
    GitRepo,
    KIND_SOURCE,
    MissingPathError,
    MissingRepositoryError,
    Revision,
    RevisionSequence,
    UnknownBranchError,
    UnknownRevisionError,
    link_source_to_docs,
    snapshot_for_doc,
)

T = 1_600_000_000


def rev(ordinal, ts, sha=None):
    return Revision(sha or f"{ordinal:040x}", ts, ordinal)


def seq(*timestamps):
    return RevisionSequence(
        KIND_SOURCE, tuple(rev(i, ts) for i, ts in enumerate(timestamps))
    )


def docv(ts, text="body"):
    descriptor = DocumentDescriptor(ORIGIN_WIKI, "Home.md", "markdown")
    return DocVersion(descriptor, rev(0, ts), text)


class TestLinearize:
    def test_linear_history(self, repo_factory):
        builder = repo_factory()
        shas = [builder.commit(T + i * 100, {"f.txt": f"v{i}\n"}) for i in range(3)]
        with GitRepo(builder.path) as repo:
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
        with GitRepo(builder.path) as repo:
            sequence = repo.linearize_history()
        assert [r.sha for r in sequence.revisions] == [a, b, m]
        assert x not in [r.sha for r in sequence.revisions]

    def test_explicit_branch(self, repo_factory):
        builder = repo_factory()
        a = builder.commit(T, {"f.txt": "a\n"})
        builder.branch("feature")
        b = builder.commit(T + 100, {"f.txt": "b\n"})
        builder.checkout("main")
        with GitRepo(builder.path) as repo:
            assert [r.sha for r in repo.linearize_history("feature").revisions] == [a, b]
            assert [r.sha for r in repo.linearize_history("main").revisions] == [a]

    def test_resolve_branch(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n"})
        with GitRepo(builder.path) as repo:
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
        with GitRepo(builder.path) as repo:
            with pytest.raises(UnknownBranchError):
                repo.linearize_history("does-not-exist")

    def test_unborn_branch_is_empty_history(self, repo_factory):
        builder = repo_factory("empty")
        with GitRepo(builder.path) as repo:
            with pytest.raises(EmptyHistoryError):
                repo.linearize_history()


class TestTreeAndBlobs:
    def test_tree_listing_sorted_recursive(self, repo_factory):
        builder = repo_factory()
        sha = builder.commit(T, {
            "README.md": "hi\n",
            "src/deep/mod.py": "x = 1\n",
            "src/a.py": "pass\n",
        })
        with GitRepo(builder.path) as repo:
            listing = repo.tree_at(repo.linearize_history().head)
        assert listing == ["README.md", "src/a.py", "src/deep/mod.py"]
        assert sha  # fixture committed

    def test_single_file_commit(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"README.md": "hi\n"})
        with GitRepo(builder.path) as repo:
            assert repo.tree_at(repo.linearize_history().head) == ["README.md"]

    def test_read_blob_roundtrip(self, repo_factory):
        builder = repo_factory()
        content = "uniçode line\nand more\n"
        builder.commit(T, {"f.txt": content})
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            assert repo.read_blob(head.sha, "f.txt") == content

    def test_read_blob_missing_path(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n"})
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            with pytest.raises(MissingPathError):
                repo.read_blob(head.sha, "gone.txt")

    def test_read_blob_at_deleted_path(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n", "keep.txt": "k\n"})
        builder.commit(T + 100, {"f.txt": None})
        with GitRepo(builder.path) as repo:
            first, head = repo.linearize_history().revisions
            assert repo.read_blob(first.sha, "f.txt") == "a\n"
            with pytest.raises(MissingPathError):
                repo.read_blob(head.sha, "f.txt")

    def test_unknown_revision(self, repo_factory):
        builder = repo_factory()
        builder.commit(T, {"f.txt": "a\n"})
        with GitRepo(builder.path) as repo:
            with pytest.raises(UnknownRevisionError):
                repo.tree_entries("f" * 40)

    def test_many_blob_reads_through_batch(self, repo_factory):
        builder = repo_factory()
        files = {f"f{i}.txt": f"content {i}\n" for i in range(30)}
        builder.commit(T, files)
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            for i in range(30):
                assert repo.read_blob(head.sha, f"f{i}.txt") == f"content {i}\n"

    def test_last_touch(self, repo_factory):
        builder = repo_factory()
        first = builder.commit(T, {"README.md": "one\n", "src.py": "a\n"})
        builder.commit(T + 100, {"src.py": "b\n"})
        with GitRepo(builder.path) as repo:
            sha, ts = repo.last_touch(None, "README.md")
            assert (sha, ts) == (first, T)
            assert repo.last_touch(None, "absent.md") is None


class TestSnapshotLinking:
    def test_strictly_prior(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(docv(150), sources).timestamp == 100

    def test_doc_after_head_links_head(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(docv(300), sources).ordinal == 1

    def test_equal_timestamp_ties_later_ordinal(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(docv(100), sources).timestamp == 100
        tied = seq(100, 100)
        assert snapshot_for_doc(docv(100), tied).ordinal == 1

    def test_doc_before_all_sources_gets_first(self):
        sources = seq(100, 200)
        assert snapshot_for_doc(docv(50), sources).ordinal == 0

    def test_empty_sequence_errors(self):
        empty = RevisionSequence(KIND_SOURCE, ())
        with pytest.raises(EmptyHistoryError):
            snapshot_for_doc(docv(100), empty)

    def test_monotone_in_doc_time(self):
        sources = seq(100, 200, 300, 400)
        ordinals = [snapshot_for_doc(docv(t), sources).ordinal for t in (50, 150, 250, 999)]
        assert ordinals == sorted(ordinals)

    def test_non_monotone_sequence_max_ts_rule(self):
        # A revert can put an older timestamp later in the walk; the rule is
        # still max timestamp <= doc time, ties to the later ordinal.
        sources = seq(100, 300, 200)
        assert snapshot_for_doc(docv(250), sources).timestamp == 200
        assert snapshot_for_doc(docv(350), sources).ordinal == 1


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
                assert snapshot_for_doc(docv(doc_ts), sources) == _linear_snapshot(
                    doc_ts, sources
                ), (timestamps, doc_ts)

    def test_by_sha(self):
        sources = seq(100, 50, 200)
        assert all(sources.by_sha[r.sha] is r for r in sources.revisions)
        assert "f" * 40 not in sources.by_sha


def _replayed_trees(repo, sequence):
    """Tree of every revision, rebuilt from first_parent_changes alone."""
    tree: dict[str, str] = {}
    trees = []
    for changes in repo.first_parent_changes(sequence):
        for path, old, new in changes:
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
        with GitRepo(builder.path) as repo:
            sequence = repo.linearize_history("main")
            assert len(sequence) == 6
            assert _replayed_trees(repo, sequence) == [
                repo.tree_entries(r.sha) for r in sequence.revisions
            ]
            assert "lib/dep.py" not in repo.tree_at(sequence.head)

    def test_shallow_graft_is_diffed_as_root(self, repo_factory, tmp_path):
        builder = repo_factory()
        for i in range(3):
            builder.commit(T + i, {f"f{i}.txt": f"{i}\n"})
        clone = tmp_path / "shallow"
        builder.git("clone", "-q", "--depth", "1", f"file://{builder.path}", str(clone))
        with GitRepo(clone) as repo:
            sequence = repo.linearize_history(None)
            assert len(sequence) == 1
            (changes,) = repo.first_parent_changes(sequence)
            assert sorted(path for path, old, _ in changes if old is None) == [
                b"f0.txt", b"f1.txt", b"f2.txt"
            ]


class TestLinkSourceToDocs:
    def test_single_doc_version(self):
        sources = seq(1, 2, 3)
        v1 = docv(2)  # between t=1 and t=3, ts greater than first revision
        pairs = link_source_to_docs(sources, [v1])
        assert [p[1] for p in pairs] == [v1, v1, v1]

    def test_two_doc_versions_split(self):
        sources = seq(1, 2, 3, 4)
        v1, v2 = docv(1), docv(3)
        v1 = DocVersion(v1.descriptor, rev(0, 1), "v1")
        v2 = DocVersion(v2.descriptor, rev(1, 3), "v2")
        pairs = link_source_to_docs(sources, [v1, v2])
        assert [p[1].text for p in pairs] == ["v1", "v2", "v2", "v2"]

    def test_no_doc_versions_all_absent(self):
        sources = seq(1, 2, 3)
        pairs = link_source_to_docs(sources, [])
        assert [p[1] for p in pairs] == [None, None, None]
        assert [p[0].ordinal for p in pairs] == [0, 1, 2]

    def test_partition_property(self):
        sources = seq(10, 20, 30, 40, 50)
        versions = [docv(15), docv(35)]
        pairs = link_source_to_docs(sources, versions)
        assert [p[0].ordinal for p in pairs] == [0, 1, 2, 3, 4]

    def test_round_trip_property(self):
        sources = seq(10, 20, 30, 40)
        versions = [docv(25)]
        for revision, version in link_source_to_docs(sources, versions):
            assert revision.timestamp <= version.timestamp or version is versions[-1]

    def test_unsorted_versions_rejected(self):
        with pytest.raises(ValueError):
            link_source_to_docs(seq(1, 2), [docv(5), docv(3)])
