"""Tests for whole-word instance counting and current-state classification."""

from __future__ import annotations

import random
import re

import pytest

from oracle_history import SourceScanner
from staleref.matching import (
    HistoryCounter,
    MatchConfig,
    STATUS_IN_SYNC,
    STATUS_NEVER_MATCHED,
    STATUS_OUTDATED,
    classify_current,
    count_occurrences,
    expand_path_variants,
    matches_exclude,
)
from staleref.revgraph import GitRepo

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
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            scanner = SourceScanner(repo, MatchConfig())
            result = scanner.count_instances("target_fn()", head)
        assert result.count == 5
        assert ("src/app.py", 1) in result.matched_paths

    def test_exclude_is_monotone(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            base = SourceScanner(repo, MatchConfig()).count_instances("target_fn()", head)
            trimmed = SourceScanner(
                repo, MatchConfig(exclude_globs=("vendor/",))
            ).count_instances("target_fn()", head)
        assert trimmed.count == base.count - 1
        assert trimmed.count <= base.count

    def test_path_variant_synthetic_instance(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            scanner = SourceScanner(repo, MatchConfig())
            result = scanner.count_instances("to/file.py", head)
        assert result.count == 1
        assert result.matched_paths[0][1] == 0  # line 0 marks a path variant

    def test_full_path_floor(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            scanner = SourceScanner(repo, MatchConfig())
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
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            scanner = SourceScanner(repo, MatchConfig())
            assert scanner.count_instances("target", head).count == 1

    def test_oversize_file_skipped_with_warning(self, repo_factory):
        builder = repo_factory("big")
        builder.commit(T, {"big.txt": "needle " * 10, "small.txt": "needle\n"})
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            scanner = SourceScanner(repo, MatchConfig(max_file_bytes=20))
            result = scanner.count_instances("needle", head)
            assert result.count == 1
            assert any(w.get("kind") == "oversized_file" for w in scanner.warnings)

    def test_count_cap_warning(self, repo_factory):
        builder = repo_factory("capped")
        builder.commit(T, {"x.txt": "hit " * 40})
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            scanner = SourceScanner(repo, MatchConfig(max_count_per_file=5))
            result = scanner.count_instances("hit", head)
            assert result.count == 5
            assert any(w.get("kind") == "count_capped" for w in scanner.warnings)

    def test_determinism(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            head = repo.linearize_history().head
            scanner = SourceScanner(repo, MatchConfig())
            first = scanner.count_instances("target_fn()", head)
            second = scanner.count_instances("target_fn()", head)
        assert first == second


def counter_at_head(repo, elements, config=None):
    """A HistoryCounter over the whole first-parent history, at its head."""
    revisions = repo.linearize_history().revisions
    counter = HistoryCounter(
        repo, config or MatchConfig(), frozenset(elements), revisions,
        repo.first_parent_changes(revisions),
    )
    counter.seek(revisions[-1])
    return counter, revisions[-1]


class TestHistoryCounter:
    def test_counts_across_files(self, repo_factory):
        # app.py holds two occurrences (the def line ends in "():" which
        # contains the call text, plus the bare call), other.py two, vendor one.
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            counter, head = counter_at_head(repo, ["target_fn()"])
            assert counter.count("target_fn()", head) == 5
            assert ("src/app.py", 1) in counter.evidence("target_fn()")

    def test_exclude_is_monotone(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            base, head = counter_at_head(repo, ["target_fn()"])
            trimmed, _ = counter_at_head(
                repo, ["target_fn()"], MatchConfig(exclude_globs=("vendor/",))
            )
            assert trimmed.count("target_fn()", head) == base.count("target_fn()", head) - 1

    def test_path_variant_synthetic_instance(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            counter, head = counter_at_head(repo, ["to/file.py"])
            assert counter.count("to/file.py", head) == 1
            assert counter.evidence("to/file.py")[0][1] == 0  # line 0 marks a path variant

    def test_full_path_floor(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
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
        with GitRepo(builder.path) as repo:
            counter, head = counter_at_head(repo, ["target"])
            assert counter.count("target", head) == 1
            assert counter.warnings == []

    def test_oversize_file_skipped_with_warning(self, repo_factory):
        builder = repo_factory("big")
        builder.commit(T, {"big.txt": "needle " * 10, "small.txt": "needle\n"})
        with GitRepo(builder.path) as repo:
            counter, head = counter_at_head(repo, ["needle"], MatchConfig(max_file_bytes=20))
            assert counter.count("needle", head) == 1
            assert counter.warnings == [{"kind": "oversized_file", "path": "big.txt", "size": 70}]

    def test_count_cap_warning(self, repo_factory):
        builder = repo_factory("capped")
        builder.commit(T, {"x.txt": "hit " * 40})
        with GitRepo(builder.path) as repo:
            counter, head = counter_at_head(repo, ["hit"], MatchConfig(max_count_per_file=5))
            assert counter.count("hit", head) == 5
            assert counter.warnings == [
                {"kind": "count_capped", "path": "x.txt", "element": "hit", "cap": 5}
            ]

    def test_determinism(self, repo_factory):
        builder = build_counting_repo(repo_factory)
        with GitRepo(builder.path) as repo:
            counter, head = counter_at_head(repo, ["target_fn()"])
            first = (counter.count("target_fn()", head), counter.evidence("target_fn()"))
            second = (counter.count("target_fn()", head), counter.evidence("target_fn()"))
        assert first == second

    def test_seeks_newest_first(self, repo_factory):
        builder = repo_factory("moves")
        builder.commit(T, {"a.py": "hop()\n"})
        builder.commit(T + 1, {"b.py": "hop() hop()\n"})
        builder.commit(T + 2, {"a.py": None})
        with GitRepo(builder.path) as repo:
            counter, head = counter_at_head(repo, ["hop()"])
            r0, r1, _ = repo.linearize_history().revisions
            assert counter.count("hop()", head) == 2
            counter.seek(r1)
            assert counter.count("hop()", r1) == 3
            with pytest.raises(ValueError):
                counter.count("hop()", head)
            with pytest.raises(ValueError):
                counter.seek(head)
            counter.seek(r0)
            assert counter.count("hop()", r0) == 1
            assert counter.evidence("hop()") == (("a.py", 1),)


class TestClassify:
    def test_table_semantics(self):
        assert classify_current(21, 0) == STATUS_OUTDATED
        assert classify_current(5, 5) == STATUS_IN_SYNC
        assert classify_current(0, 0) == STATUS_NEVER_MATCHED
        assert classify_current(0, 3) == STATUS_NEVER_MATCHED
        assert classify_current(3, 1) == STATUS_IN_SYNC
