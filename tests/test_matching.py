"""Tests for whole-word instance counting and current-state classification."""

from __future__ import annotations

import random
import re
import subprocess

import pytest

from oracle_history import SourceScanner, _read_source_text, tree_entries
from staleref import matching
from staleref.matching import (
    MAX_FILE_BYTES,
    MAX_MATCHED_PATHS,
    HistoryCounter,
    STATUS_IN_SYNC,
    STATUS_NEVER_MATCHED,
    STATUS_OUTDATED,
    classify_current,
    count_occurrences,
    expand_path_variants,
    matches_exclude,
)
from staleref.revgraph import Branch, GitRepo

T = 1_600_000_000


class TestCountOccurrences:
    def test_word_boundaries_both_sides(self):
        count, first, capped = count_occurrences("foo", "food foo_bar (foo)")
        assert (count, capped) == (1, False)
        assert first == "food foo_bar (foo)".index("(foo)") + 1

    def test_non_word_edge_skips_boundary(self):
        # Only the leading 'r' needs a word boundary; the trailing ')' is
        # non-word, so a following word character does not block the match.
        text = "xrenderFiles('./files') renderFiles('./files')x"
        count, first, _ = count_occurrences("renderFiles('./files')", text)
        assert count == 1
        assert first == text.index(" renderFiles") + 1
        count2, first2, _ = count_occurrences("renderFiles('./files')", text[1:])
        assert count2 == 2
        assert first2 == 0

    def test_case_sensitive(self):
        assert count_occurrences("Foo", "foo FOO Foo")[0] == 1

    def test_adjacent_and_overlapping(self):
        # Occurrences are non-overlapping; '(((' contains two complete '(('
        # only at offsets 0 and... 1 overlaps, so the scan takes 0 then fails.
        assert count_occurrences("((", "(((")[0] == 1
        assert count_occurrences("((", "((((")[0] == 2

    def test_empty_element_rejected(self):
        with pytest.raises(ValueError):
            count_occurrences("", "text")

    def test_cap(self):
        count, _, capped = count_occurrences("ab", "ab " * 50, cap=10)
        assert (count, capped) == (10, True)

    def test_whole_word_property_against_regex(self):
        rng = random.Random(99)
        alphabet = "ab_ 1.x()\n"
        elements = ["ab", "a_1", "x", "ab1", "a"]
        for _ in range(1000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            element = rng.choice(elements)
            expected = len(re.findall(r"\b" + re.escape(element) + r"\b", text))
            got = count_occurrences(element, text)[0]
            assert got == expected, (element, text)


class TestPathVariants:
    def test_two_directory_path_expands_to_exactly_six(self):
        variants = expand_path_variants(["path/to/file.py"])
        assert variants == {
            "/path/to/file.py", "path/to/file.py",
            "/to/file.py", "to/file.py",
            "/file.py", "file.py",
        }

    def test_single_component(self):
        assert expand_path_variants(["a.txt"]) == {"/a.txt", "a.txt"}

    def test_empty_listing(self):
        assert expand_path_variants([]) == set()


class TestExcludeGlobs:
    def test_bare_name_matches_any_segment(self):
        assert matches_exclude("vendor/lib.py", ("vendor",))
        assert matches_exclude("deep/vendor/lib.py", ("vendor",))
        assert not matches_exclude("src/app.py", ("vendor",))

    def test_dir_pattern_matches_subtree(self):
        assert matches_exclude("vendor/lib.py", ("vendor/",))
        assert matches_exclude("vendor/a/b.py", ("vendor/",))
        assert not matches_exclude("src/vendor.py", ("vendor/",))

    def test_anchored_glob(self):
        assert matches_exclude("src/gen/x.py", ("src/gen/*",))
        assert not matches_exclude("other/gen/x.py", ("src/gen/*",))

    def test_star_extension(self):
        assert matches_exclude("a/b/c.min.js", ("*.min.js",))

    def test_star_stops_at_a_slash(self):
        # As in `git check-ignore`: src/*.py leaves out src/a.py only.
        assert matches_exclude("src/a.py", ("src/*.py",))
        assert not matches_exclude("src/sub/b.py", ("src/*.py",))

    def test_double_star_segment_matches_zero_or_more_segments(self):
        for path in ("src/gen.py", "src/a/gen.py", "src/a/b/gen.py"):
            assert matches_exclude(path, ("src/**/gen.py",)), path
        assert not matches_exclude("lib/gen.py", ("src/**/gen.py",))
        assert matches_exclude("deep/x/gen.py", ("**/gen.py",))
        assert matches_exclude("src/a/b.py", ("src/**",))
        assert not matches_exclude("src", ("src/**",))

    def test_dir_pattern_with_a_slash_matches_directories_only(self):
        assert matches_exclude("src/gen/x.py", ("src/gen/",))
        assert not matches_exclude("src/gen", ("src/gen/",))


def build_counting_repo(repo_factory):
    builder = repo_factory("counting")
    builder.commit(T, {
        "src/app.py": "def target_fn():\n    pass\n\ntarget_fn()\n",
        "src/other.py": "target_fn() and target_fn()\n",
        "vendor/gen.py": "target_fn()\n",
        "path/to/file.py": "payload\n",
    })
    return builder


class TestSourceScanner:
    """The oracle that the differential tests trust, pinned by hand."""

    def test_counts_across_files(self, repo_factory):
        # app.py holds two occurrences (the def line ends in "():" which
        # contains the call text, plus the bare call), other.py two, vendor one.
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        scanner = SourceScanner(repo)
        result = scanner.count_instances("target_fn()", head)
        assert result.count == 5
        assert ("src/app.py", 1) in result.matched_paths

    def test_exclude_is_monotone(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        base = SourceScanner(repo).count_instances("target_fn()", head)
        trimmed = SourceScanner(repo, exclude_globs=("vendor/",)).count_instances(
            "target_fn()", head
        )
        assert trimmed.count == base.count - 1
        assert trimmed.count <= base.count

    def test_path_variant_synthetic_instance(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        scanner = SourceScanner(repo)
        result = scanner.count_instances("to/file.py", head)
        assert result.count == 1
        assert result.matched_paths[0][1] == 0  # line 0 marks a path variant

    def test_full_path_floor(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        scanner = SourceScanner(repo)
        assert scanner.count_instances("path/to/file.py", head).count >= 1

    def test_binary_file_skipped(self, repo_factory):
        builder = repo_factory("binary")
        (builder.path / "blob.bin").write_bytes(b"target\x00garbage target")
        (builder.path / "plain.txt").write_text("target\n")
        builder.git("add", "-A")
        builder.git(
            "commit", "-q", "-m", "c",
            env={"GIT_AUTHOR_DATE": f"{T} +0000", "GIT_COMMITTER_DATE": f"{T} +0000"},
        )
        builder.shas.append(builder.git("rev-parse", "HEAD").strip())
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        scanner = SourceScanner(repo)
        assert scanner.count_instances("target", head).count == 1

    def test_oversize_file_skipped_with_warning(self, repo_factory):
        builder = repo_factory("big")
        builder.commit(T, {"big.txt": "needle " * 10, "small.txt": "needle\n"})
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        scanner = SourceScanner(repo, max_file_bytes=20)
        result = scanner.count_instances("needle", head)
        assert result.count == 1
        assert any(w.get("kind") == "oversized_file" for w in scanner.warnings)

    def test_count_cap_warning(self, repo_factory, monkeypatch):
        builder = repo_factory("capped")
        builder.commit(T, {"x.txt": "hit " * 40})
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        monkeypatch.setattr(matching, "MAX_COUNT_PER_FILE", 5)
        scanner = SourceScanner(repo)
        result = scanner.count_instances("hit", head)
        assert result.count == 5
        assert any(w.get("kind") == "count_capped" for w in scanner.warnings)

    def test_determinism(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        head = repo.linearize_history().head
        scanner = SourceScanner(repo)
        first = scanner.count_instances("target_fn()", head)
        second = scanner.count_instances("target_fn()", head)
        assert first == second


def counter_at_head(repo, elements, **settings):
    """A HistoryCounter over the whole first-parent history, at its head,
    with *settings* (``exclude_globs``, ``max_file_bytes``)."""
    branch = Branch.open(repo.path, None)
    counter = HistoryCounter(branch, frozenset(elements), **settings)
    next(counter.walk([branch.seq.head]))
    return counter, branch.seq.head


class TestHistoryCounter:
    def test_counts_across_files(self, repo_factory):
        # app.py holds two occurrences (the def line ends in "():" which
        # contains the call text, plus the bare call), other.py two, vendor one.
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["target_fn()"])
        assert counter.count("target_fn()", head) == 5
        assert ("src/app.py", 1, "text") in counter.evidence("target_fn()")

    def test_exclude_is_monotone(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        base, head = counter_at_head(repo, ["target_fn()"])
        trimmed, _ = counter_at_head(repo, ["target_fn()"], exclude_globs=("vendor/",))
        assert trimmed.count("target_fn()", head) == base.count("target_fn()", head) - 1

    def test_path_variant_synthetic_instance(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["to/file.py"])
        assert counter.count("to/file.py", head) == 1
        assert counter.evidence("to/file.py") == (("path/to/file.py", 0, "path-variant"),)

    def test_full_path_floor(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["path/to/file.py"])
        assert counter.count("path/to/file.py", head) >= 1

    def test_binary_file_skipped(self, repo_factory):
        builder = repo_factory("binary")
        (builder.path / "blob.bin").write_bytes(b"target\x00garbage target")
        (builder.path / "plain.txt").write_text("target\n")
        builder.git("add", "-A")
        builder.git(
            "commit", "-q", "-m", "c",
            env={"GIT_AUTHOR_DATE": f"{T} +0000", "GIT_COMMITTER_DATE": f"{T} +0000"},
        )
        builder.shas.append(builder.git("rev-parse", "HEAD").strip())
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["target"])
        assert counter.count("target", head) == 1
        assert counter.warnings == []

    def test_oversize_file_skipped_with_warning(self, repo_factory):
        builder = repo_factory("big")
        builder.commit(T, {"big.txt": "needle " * 10, "small.txt": "needle\n"})
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["needle"], max_file_bytes=20)
        assert counter.count("needle", head) == 1
        assert counter.warnings == [{"kind": "oversized_file", "path": "big.txt", "size": 70}]

    def test_count_cap_warning(self, repo_factory, monkeypatch):
        builder = repo_factory("capped")
        builder.commit(T, {"x.txt": "hit " * 40})
        repo = GitRepo(builder.path)
        monkeypatch.setattr(matching, "MAX_COUNT_PER_FILE", 5)
        counter, head = counter_at_head(repo, ["hit"])
        assert counter.count("hit", head) == 5
        assert counter.warnings == [
            {"kind": "count_capped", "path": "x.txt", "element": "hit", "cap": 5}
        ]

    def test_determinism(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["target_fn()"])
        first = (counter.count("target_fn()", head), counter.evidence("target_fn()"))
        second = (counter.count("target_fn()", head), counter.evidence("target_fn()"))
        assert first == second

    def test_seeks_newest_first(self, repo_factory):
        builder = repo_factory("moves")
        builder.commit(T, {"a.py": "hop()\n"})
        builder.commit(T + 1, {"b.py": "hop() hop()\n"})
        builder.commit(T + 2, {"a.py": None})
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["hop()"])
        r0, r1, _ = repo.linearize_history().revisions
        assert counter.count("hop()", head) == 2
        stops = counter.walk([r1, r0])
        next(stops)
        assert counter.count("hop()", r1) == 3
        with pytest.raises(ValueError):
            counter.count("hop()", head)
        with pytest.raises(ValueError):
            next(counter.walk([head]))
        with pytest.raises(ValueError):
            next(counter.walk([r0, r1]))
        next(stops)
        assert counter.count("hop()", r0) == 1
        assert counter.evidence("hop()") == (("a.py", 1, "text"),)

    def test_moves_warn_and_counts_only_read(self, repo_factory, monkeypatch):
        # r0 holds an oversized and a capped file that r1 deletes, and r2
        # brings the oversized blob back. The moves warn before anything is
        # counted, once per (path, blob); a count adds no warning.
        builder = repo_factory("warn_by_moves")
        builder.commit(T, {
            "big.txt": "needle " * 10, "hot.txt": "needle " * 6, "keep.txt": "needle\n",
        })
        builder.commit(T + 1, {"big.txt": None, "hot.txt": None})
        builder.commit(T + 2, {"big.txt": "needle " * 10})
        monkeypatch.setattr(matching, "MAX_COUNT_PER_FILE", 5)
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["needle"], max_file_bytes=60)
        big = {"kind": "oversized_file", "path": "big.txt", "size": 70}
        capped = {"kind": "count_capped", "path": "hot.txt", "element": "needle", "cap": 5}
        assert counter.warnings == [big]
        r0, r1, _ = repo.linearize_history().revisions
        stops = counter.walk([r1, r0])
        next(stops)
        next(stops)
        assert counter.warnings == [big, capped]
        assert [list(w) for w in counter.warnings] == [
            ["kind", "path", "size"], ["kind", "path", "element", "cap"]
        ]
        assert counter.count("needle", r0) == 6
        assert counter.warnings == [big, capped]

    def test_git_directories_and_documents_never_count(self, repo_factory):
        # git refuses to add a path under .git, so the tree is made by hand.
        # The documents are the root READMEs, each left out by its exact
        # path: the directory README.rst is named like one, and the file
        # below it still counts, as does a README below the root.
        builder = repo_factory("git_dirs")

        def git_in(args, text):
            return subprocess.run(["git", "-C", str(builder.path), *args], input=text,
                                  capture_output=True, text=True, check=True).stdout.strip()
        blob = git_in(["hash-object", "-w", "--stdin"], "helper_fn()\n")
        inner = git_in(["mktree"], f"100644 blob {blob}\thooks.py\n")
        sub = git_in(["mktree"], f"040000 tree {inner}\t.git\n")
        docs = git_in(["mktree"], f"100644 blob {blob}\tREADME.md\n")
        root = git_in(["mktree"], "".join(
            f"{mode}\t{name}\n" for mode, name in [
                (f"040000 tree {inner}", ".git"), (f"100644 blob {blob}", "README.md"),
                (f"040000 tree {inner}", "README.rst"), (f"100644 blob {blob}", "ReadMe.txt"),
                (f"100644 blob {blob}", "a.py"), (f"040000 tree {docs}", "docs"),
                (f"040000 tree {sub}", "sub"),
            ]
        ))
        commit = git_in(["commit-tree", root, "-m", "c"], "")
        builder.git("update-ref", "refs/heads/main", commit)
        branch = Branch.open(builder.path, None)
        counter = HistoryCounter(branch, frozenset(["helper_fn()"]))
        head = next(counter.walk([branch.seq.head]))
        assert counter.count("helper_fn()", head) == 3
        assert counter.evidence("helper_fn()") == (
            ("README.rst/hooks.py", 1, "text"), ("a.py", 1, "text"),
            ("docs/README.md", 1, "text"),
        )

    def test_a_blob_answered_out_of_order_fails(self, repo_factory, monkeypatch):
        # a.py and c.py share a blob. Read in swapped order, the blobs would
        # count alpha once and beta twice.
        builder = repo_factory("swapped")
        builder.commit(T, {"a.py": "alpha\n", "b.py": "beta\n", "c.py": "alpha\n"})
        read_blobs = GitRepo.read_blobs

        def swapped(self, blobs):
            yield from reversed(list(read_blobs(self, blobs)))

        monkeypatch.setattr(GitRepo, "read_blobs", swapped)
        with pytest.raises(RuntimeError, match="the blob stream answered"):
            counter_at_head(GitRepo(builder.path), ["alpha", "beta"])


def commit_bytes(builder, files: dict[str, bytes]) -> None:
    """Commit *files*, written byte for byte, at time T."""
    for rel, data in files.items():
        target = builder.path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    builder.git("add", "-A")
    builder.git(
        "commit", "-q", "-m", "c",
        env={"GIT_AUTHOR_DATE": f"{T} +0000", "GIT_COMMITTER_DATE": f"{T} +0000"},
    )


def brute_force(repo, revision, elements, exclude_globs=(), max_file_bytes=MAX_FILE_BYTES):
    """element -> (count, evidence) at *revision*: every element is tried on
    every decoded blob, as ``HistoryCounter`` did before its token prefilter."""
    hits = {element: [] for element in elements}
    totals = dict.fromkeys(elements, 0)
    entries = tree_entries(repo, revision.sha)
    for path, blob in entries:
        if matches_exclude(path, exclude_globs):
            continue
        text, _ = _read_source_text(repo, blob, max_file_bytes)
        if not text:
            continue
        for element in elements:
            if element not in text:
                continue
            count, first, _ = count_occurrences(element, text, cap=matching.MAX_COUNT_PER_FILE)
            if count:
                totals[element] += count
                hits[element].append((path, text.count("\n", 0, first) + 1, "text"))
    result = {}
    for element in elements:
        variants = sorted(
            path for path, _ in entries if element in expand_path_variants([path])
        )
        evidence = sorted(hits[element]) + [(path, 0, "path-variant") for path in variants]
        result[element] = (totals[element] + len(variants), tuple(evidence[:MAX_MATCHED_PATHS]))
    return result


# Elements with non-word edges, non-ASCII characters or no word run at all.
ODD_ELEMENTS = [
    "alpha_fn", "alpha_fn()", "naïve", "na", "ve", "café_fn", "caf", "é_fn", "_fn",
    "renderFiles('./files')", "files", "->next", "next", "a.b", "((", "::", "x",
    "\ufffdalpha_fn", "src/odd.c",
]
ODD_FILES = {
    "src/nonascii.py": "éalpha_fn = naïve\n# café_fn() calls alpha_fn\n".encode(),
    "src/crlf.txt": b"alpha_fn()\r\nrenderFiles('./files')\r\n->next\r\nalpha_fn\r\n",
    "src/odd.c": b"\xffalpha_fn\xfe x\xc3alpha_fn \xe2\x82 a.b\xff->next\n",
    "src/edges.js": b"xrenderFiles('./files') renderFiles('./files')x\n"
                    b"node->next->next a.b.c a.bc (( :: ((( std::vector\n",
    "src/cafe.py": "def café_fn():\n    return cafe_fn\ncaf é_fn\n".encode(),
    "src/punct.txt": b"(( :: ::\n",
    "src/bin.dat": "alpha_fn\x00 naïve".encode(),
}
FRAGMENTS = [
    b"alpha", b"_fn", "é".encode(), "ï".encode(), b"\r\n", b"\n", b" ", b" ", b"(", b"'",
    b".", b"/", b"-", b">", b":", b"\xff", b"\xc3", b"a", b"b", b"na", b"ve", b"caf",
    b"next", b"files", b"renderFiles", b"x",
]


class TestTokenPrefilter:
    """The word-token prefilter only narrows the elements a blob is counted
    for: counts and evidence equal trying every element on every blob."""

    @pytest.mark.parametrize("settings, cap", [
        ({}, matching.MAX_COUNT_PER_FILE),
        ({"exclude_globs": ("src/edges.js",), "max_file_bytes": 60}, 2),
    ], ids=["defaults", "cap-exclude-size"])
    def test_equals_brute_force(self, repo_factory, monkeypatch, settings, cap):
        monkeypatch.setattr(matching, "MAX_COUNT_PER_FILE", cap)
        builder = repo_factory("odd")
        rng = random.Random(7)
        files = dict(ODD_FILES)
        for i in range(40):
            files[f"gen/f{i}.txt"] = b"".join(
                rng.choice(FRAGMENTS) for _ in range(rng.randrange(0, 40))
            )
        commit_bytes(builder, files)
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ODD_ELEMENTS, **settings)
        expected = brute_force(repo, head, ODD_ELEMENTS, **settings)
        got = {e: (counter.count(e, head), counter.evidence(e)) for e in ODD_ELEMENTS}
        assert got == expected
        assert got["alpha_fn"][0] > 0 and got["::"][0] > 0 and got["naïve"][0] > 0

    def test_slice_boundaries(self, repo_factory):
        # A blob just under max_file_bytes, several token slices long: one
        # element straddles the first slice boundary, one token fills a whole
        # slice and is followed by an element, and one element ends the blob.
        size = matching._TOKEN_SLICE_BYTES
        max_file_bytes = 4 * size
        head_part = b"ab " * ((size - 4) // 3)
        head_part += b" " * (size - 4 - len(head_part)) + b"straddle_fn ab\n"
        middle = b"z" * (size + 100) + b" after_long_fn\n"
        room = max_file_bytes - 1 - len(head_part) - len(middle) - len(b"last_fn")
        data = head_part + middle + b"cd " * (room // 3) + b" " * (room % 3) + b"last_fn"
        assert len(data) == max_file_bytes - 1
        assert data.index(b"straddle_fn") < size < data.index(b"straddle_fn") + len(b"straddle_fn")
        elements = ["straddle_fn", "after_long_fn", "last_fn", "ab", "cd", "missing_fn"]
        builder = repo_factory("sliced")
        commit_bytes(builder, {"big.txt": data})
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, elements, max_file_bytes=max_file_bytes)
        expected = brute_force(repo, head, elements, max_file_bytes=max_file_bytes)
        got = {e: (counter.count(e, head), counter.evidence(e)) for e in elements}
        assert got == expected
        assert [got[e][0] for e in elements[:3]] == [1, 1, 1]

    def test_held_runs_across_slices(self):
        # Slices are cut only between tokens, also when one token is longer
        # than a slice.
        size = matching._TOKEN_SLICE_BYTES
        runs = frozenset([b"straddle", b"end", b"foo", b"bar", b"q"])
        data = b"q" * (size - 3) + b" straddle " + b"y" * (size - 1) + b"foo bar\xffend"
        assert matching._held_runs(data, runs) == {b"straddle", b"bar", b"end"}
        assert matching._held_runs(b"\xc3\xa9foo\r\n((", runs) == {b"foo"}

    def test_candidates_hold_every_word_run(self):
        counter = HistoryCounter(None, frozenset(["a.b", "c->d", "alpha_fn", "::"]))
        assert sorted(counter._candidates(b"a c alpha_fnx dd")) == ["::"]
        assert sorted(counter._candidates(b"b.a d\xffc")) == ["::", "a.b", "c->d"]

    def test_blob_without_candidates_is_never_decoded(self, repo_factory, monkeypatch):
        decoded = []

        def decode(data):
            decoded.append(data)
            return data.decode("utf-8", errors="replace")

        monkeypatch.setattr(matching, "_decode", decode)
        builder = repo_factory("nodecode")
        commit_bytes(builder, {
            "hit.py": b"alpha_fn()\n",
            "near.py": b"alpha_fnx alpha fn\n",  # holds the text, not the token
            "miss.py": b"nothing to see\n",
            "bin.dat": b"alpha_fn\x00",
            "big.txt": b"alpha_fn " * 20,
            "huge.txt": b"unrelated " * 20,
        })
        repo = GitRepo(builder.path)
        counter, head = counter_at_head(repo, ["alpha_fn"], max_file_bytes=100)
        assert counter.count("alpha_fn", head) == 1
        assert counter.evidence("alpha_fn") == (("hit.py", 1, "text"),)
        assert decoded == [b"alpha_fn()\n"]
        assert counter.warnings == [
            {"kind": "oversized_file", "path": "big.txt", "size": 180},
            {"kind": "oversized_file", "path": "huge.txt", "size": 200},
        ]


class TestClassify:
    def test_table_semantics(self):
        assert classify_current(21, 0) == STATUS_OUTDATED
        assert classify_current(5, 5) == STATUS_IN_SYNC
        assert classify_current(0, 0) == STATUS_NEVER_MATCHED
        assert classify_current(0, 3) == STATUS_NEVER_MATCHED
        assert classify_current(3, 1) == STATUS_IN_SYNC
