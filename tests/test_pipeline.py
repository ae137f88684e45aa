"""End-to-end pipeline tests over scripted repositories."""

from __future__ import annotations

import json

import pytest

import scenarios
from conftest import RepoBuilder
from oracle_history import run_history_oracle, run_scan_oracle
from staleref import cli, pipeline
from staleref.docdiscovery import DiscoveryConfig
from staleref.matching import HistoryCounter, MatchConfig
from staleref.pipeline import RunConfig, ScanTimeout, run_history, run_scan
from staleref.reporting import parse_report, render_findings
from staleref.revgraph import GitError, GitRepo


def config_for(manifest, **overrides):
    kwargs = dict(
        repo_path=manifest["repo"],
        wiki_path=manifest["wiki"],
        exclude_globs=tuple(manifest["exclude"]),
        scan_time=manifest["scan_time"],
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class _FakeDeadline:
    """Lets *checks* revision checks pass, then times out."""

    def __init__(self, checks: int):
        self.left = checks

    def expired(self) -> bool:
        return self.left <= 0

    def check(self) -> None:
        if self.left <= 0:
            raise ScanTimeout
        self.left -= 1


def cut_after(monkeypatch, checks: int) -> None:
    monkeypatch.setattr(pipeline, "_Deadline", lambda seconds: _FakeDeadline(checks))


def checks_of(monkeypatch, run, config) -> int:
    """How many deadline checks a complete run makes."""
    deadline = _FakeDeadline(10**6)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_Deadline", lambda seconds: deadline)
        assert not run(config).partial
    return 10**6 - deadline.left


def fail_count_at(monkeypatch, ordinal: int) -> None:
    original = HistoryCounter.count

    def count(self, element_text, revision):
        if revision.ordinal == ordinal:
            raise GitError("cat-file died")
        return original(self, element_text, revision)

    monkeypatch.setattr(HistoryCounter, "count", count)


def symbols_by_key(report):
    return {
        (f.document.origin, f.document.path, f.element_text): list(f.timeline.symbols)
        for f in report.findings
    }


def suffixes_by_key(report):
    return {
        (f.document.origin, f.document.path, f.element_text): f.symbols_suffix
        for f in report.findings
    }


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    return scenarios.build_all(tmp_path_factory.mktemp("scenarios"))


class TestScanScenarios:
    def test_ground_truth_exact(self, manifests):
        assert len(manifests) >= 10
        for manifest in manifests:
            report = run_scan(config_for(manifest))
            got = {
                (f.document.origin, f.document.path, f.element_text): f.status
                for f in report.findings
            }
            assert got == manifest["expected"], manifest["name"]

    def test_counts_positive_to_zero(self, manifests):
        for manifest in manifests:
            report = run_scan(config_for(manifest))
            for f in report.findings:
                key = (f.document.origin, f.document.path, f.element_text)
                if manifest["expected"][key] == "outdated":
                    assert f.snapshot_count > 0 and f.current_count == 0
                elif manifest["expected"][key] == "never_matched":
                    assert f.snapshot_count == 0

    @pytest.mark.criterion("scan reports equal the per-document oracle")
    def test_matches_per_document_oracle(self, manifests):
        for manifest in manifests:
            config = config_for(manifest)
            got, expected = run_scan(config), run_scan_oracle(config)
            assert got.warnings == expected.warnings, manifest["name"]
            assert render_findings(got) == render_findings(expected), manifest["name"]

    def test_pinned_evidence(self, manifests):
        pinned = [m for m in manifests if "evidence" in m]
        assert pinned
        for manifest in pinned:
            for run in (run_scan, run_history):
                got = {
                    (f.document.origin, f.document.path, f.element_text): f.evidence
                    for f in run(config_for(manifest)).findings
                }
                for key, evidence in manifest["evidence"].items():
                    assert got[key] == evidence, (manifest["name"], run.__name__)

    def test_diffs_only_revision_zero_snapshots_and_head(self, tmp_path, monkeypatch):
        # The README's snapshot is r1 and both wiki pages' is r2; r3 and r4
        # lie between the snapshots and head, and no scan needs them.
        T0, STEP = scenarios.T0, scenarios.STEP
        repo = RepoBuilder(tmp_path / "proj")
        repo.commit(T0, {"src/a.py": "def a_fn():\n    pass\n"})
        repo.commit(T0 + STEP, {"README.md": "Use `a_fn()` and `b_fn()`.\n",
                                "src/b.py": "def b_fn():\n    pass\n"})
        for i in (2, 3, 4):
            repo.commit(T0 + i * STEP, {f"src/c{i}.py": f"c = {i}\n"})
        repo.commit(T0 + 5 * STEP, {"src/a.py": None})
        wiki = RepoBuilder(tmp_path / "proj.wiki")
        wiki.commit(T0 + 2 * STEP + 10, {"Home.md": "See `a_fn()`.\n"})
        wiki.commit(T0 + 2 * STEP + 20, {"Other.md": "See `b_fn()`.\n"})
        calls = []
        original = GitRepo.first_parent_changes

        def record(self, revisions):
            calls.append([rev.ordinal for rev in revisions])
            return original(self, revisions)

        monkeypatch.setattr(GitRepo, "first_parent_changes", record)
        config = RunConfig(repo_path=str(repo.path), wiki_path=str(wiki.path),
                           scan_time=T0 + 10 * STEP)
        report = run_scan(config)
        assert calls == [[0, 1, 2, 5]]
        assert {(f.document.path, f.element_text): f.status for f in report.findings} == {
            ("README.md", "a_fn()"): "outdated",
            ("README.md", "b_fn()"): "in_sync",
            ("Home.md", "a_fn()"): "outdated",
            ("Other.md", "b_fn()"): "in_sync",
        }
        assert render_findings(report) == render_findings(run_scan_oracle(config))

    def test_scan_report_round_trips(self, manifests):
        manifest = manifests[0]
        report = run_scan(config_for(manifest))
        parsed = parse_report(render_findings(report))
        assert render_findings(parsed) == render_findings(report)


class TestHistoryScenarios:
    def test_readme_symbols_reflect_source_revisions(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "backtick_outdated")
        report = run_history(config_for(manifest))
        f = next(x for x in report.findings if x.element_text == "alpha_fn()")
        assert list(f.timeline.symbols) == [1, 0]
        assert len(f.episodes) == 1 and f.episodes[0].ongoing
        assert f.episodes[0].duration_seconds == manifest["scan_time"] - (
            scenarios.T0 + scenarios.STEP
        )

    def test_first_parent_column_count(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "merge_history")
        report = run_history(config_for(manifest))
        assert len(report.revisions) == manifest["first_parent_revisions"]
        f = next(x for x in report.findings if x.element_text == "merge_me()")
        assert list(f.timeline.symbols) == [1, 1, 0]

    def test_wiki_next_version_linking(self, manifests):
        # The wiki page was committed between the two source revisions; the
        # earlier revision links forward to it, so the element scores 1 there.
        manifest = next(m for m in manifests if m["name"] == "wiki_outdated")
        report = run_history(config_for(manifest))
        f = next(x for x in report.findings if x.element_text == "gamma_fn()")
        assert list(f.timeline.symbols) == [1, 0]
        assert f.episodes[0].ongoing

    def test_history_outdated_relates_to_scan_status(self, manifests):
        # A page edited only after a deletion links forward in history mode,
        # so history may flag strictly more than a scan. Every scan-outdated
        # reference must still show an open episode, and everything history
        # flags must at least be gone at head.
        for manifest in manifests:
            scan = run_scan(config_for(manifest))
            history = run_history(config_for(manifest))
            scan_by_key = {
                (f.document.origin, f.document.path, f.element_text): f
                for f in scan.findings
            }
            history_outdated = {
                (f.document.origin, f.document.path, f.element_text)
                for f in history.findings
                if f.currently_outdated
            }
            for key, f in scan_by_key.items():
                if f.status == "outdated":
                    assert key in history_outdated, manifest["name"]
            for key in history_outdated:
                assert scan_by_key[key].current_count == 0, manifest["name"]
                assert scan_by_key[key].status in ("outdated", "never_matched")

    def test_current_counts_agree_across_modes(self, manifests):
        # Head-revision instance counts are mode-independent even where the
        # outdated verdicts legitimately differ.
        for manifest in manifests:
            scan = run_scan(config_for(manifest))
            history = run_history(config_for(manifest))
            scan_counts = {
                (f.document.origin, f.document.path, f.element_text): f.current_count
                for f in scan.findings
            }
            for f in history.findings:
                key = (f.document.origin, f.document.path, f.element_text)
                last = f.timeline.symbols[-1]
                if isinstance(last, int):
                    assert last == scan_counts[key], manifest["name"]

    def test_doc_newer_than_head_modes_diverge(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "doc_newer_than_head")
        scan = run_scan(config_for(manifest))
        by_element = {f.element_text: f for f in scan.findings}
        assert by_element["delta_fn()"].status == "never_matched"
        assert by_element["delta_fn()"].snapshot_sha == by_element["delta_fn()"].current_sha

        history = run_history(config_for(manifest))
        f = next(x for x in history.findings if x.element_text == "delta_fn()")
        assert list(f.timeline.symbols) == [1, 0]
        assert f.currently_outdated

    def test_pinned_history_symbols(self, manifests):
        pinned = [m for m in manifests if "history" in m]
        assert len(pinned) >= 4
        for manifest in pinned:
            report = run_history(config_for(manifest))
            assert symbols_by_key(report) == manifest["history"], manifest["name"]
            assert report.warnings == [], manifest["name"]
            if "graft_sha" in manifest:
                assert len(report.revisions) == manifest["first_parent_revisions"]
                assert report.revisions[0].sha == manifest["graft_sha"]

    def test_matches_per_cell_oracle(self, manifests):
        for manifest in manifests:
            config = config_for(manifest)
            assert render_findings(run_history(config)) == render_findings(
                run_history_oracle(config)
            ), manifest["name"]

    def test_history_round_trips(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "multi_doc")
        report = run_history(config_for(manifest))
        parsed = parse_report(render_findings(report))
        assert render_findings(parsed) == render_findings(report)


class TestRunBehavior:
    def test_repeat_runs_give_same_results(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "multi_doc")
        for run in (run_scan, run_history):
            first = render_findings(run(config_for(manifest)))
            second = render_findings(run(config_for(manifest)))
            assert first == second, run.__name__

    def test_missing_wiki_is_warning_not_error(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "in_sync")
        report = run_scan(config_for(manifest, wiki_path=manifest["repo"] + ".wiki"))
        assert any(w.get("kind") == "wiki_unavailable" for w in report.warnings)
        assert report.findings

    def test_url_base_fills_finding_urls(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "backtick_outdated")
        report = run_scan(config_for(manifest, url_base="https://github.com/acme/proj"))
        f = report.findings[0]
        assert f.urls and f.urls["document"].startswith("https://github.com/acme/proj/blob/")
        assert "#L" in f.urls["evidence"]

    def test_timeout_produces_wellformed_partial_report(self, manifests):
        manifest = next(m for m in manifests if m["name"] == "multi_doc")
        report = run_history(config_for(manifest, timeout_seconds=0.000001))
        assert report.partial
        text = render_findings(report)
        parsed = json.loads(text)
        assert parsed["partial"] is True
        assert parse_report(text).partial

    def test_extra_doc_globs_flow_through(self, manifests, tmp_path):
        from conftest import RepoBuilder

        builder = RepoBuilder(tmp_path / "extradocs")
        builder.commit(scenarios.T0, {
            "docs/guide.md": "Call `doc_fn()` here.\n",
            "src/app.py": "def doc_fn():\n    pass\n",
        })
        builder.commit(scenarios.T0 + 100, {"src/app.py": "def other():\n    pass\n"})
        config = RunConfig(
            repo_path=str(builder.path),
            discovery=DiscoveryConfig(extra_doc_globs=("docs/*.md",)),
            scan_time=scenarios.T0 + 1000,
        )
        report = run_scan(config)
        statuses = {f.element_text: f.status for f in report.findings}
        assert statuses == {"doc_fn()": "outdated"}


class TestSkippedBlobWarnings:
    def test_every_path_of_an_oversized_blob_warns(self, tmp_path):
        builder = RepoBuilder(tmp_path / "twins")
        body = "def twin_fn():\n    pass\n" + "# padding\n" * 30
        size = len(body.encode())
        builder.commit(scenarios.T0, {
            "README.md": "Call `twin_fn()` now.\n", "a.py": body, "b.py": body,
        })
        config = RunConfig(
            repo_path=str(builder.path), max_file_bytes=100, scan_time=scenarios.T0 + 1000
        )
        expected = [
            {"kind": "oversized_file", "path": "a.py", "size": size},
            {"kind": "oversized_file", "path": "b.py", "size": size},
        ]
        assert run_scan(config).warnings == expected
        assert run_history(config).warnings == expected

    def test_scan_warns_for_snapshot_paths_gone_at_head(self, tmp_path, monkeypatch):
        # The README's snapshot is r0; the oversized and the capped file are
        # gone at head, so only the count at the snapshot can warn about them.
        builder = RepoBuilder(tmp_path / "gone")
        builder.commit(scenarios.T0, {
            "README.md": "Call `gone_fn()` now.\n",
            "big.py": "def gone_fn():\n    pass\n" + "# padding\n" * 30,
            "hot.py": "gone_fn() " * 5 + "\n",
        })
        builder.commit(scenarios.T0 + 10, {"big.py": None, "hot.py": None})
        monkeypatch.setattr(pipeline, "MatchConfig",
                            lambda **kwargs: MatchConfig(max_count_per_file=2, **kwargs))
        config = RunConfig(
            repo_path=str(builder.path), max_file_bytes=100, scan_time=scenarios.T0 + 1000
        )
        report = run_scan(config)
        assert report.warnings == [
            {"kind": "count_capped", "path": "hot.py", "element": "gone_fn()", "cap": 2},
            {"kind": "oversized_file", "path": "big.py", "size": 324},
        ]
        assert render_findings(report) == render_findings(run_scan_oracle(config))


class TestPartialHistory:
    def test_cut_mid_pass_emits_newest_suffix(self, manifests, monkeypatch):
        cuts = 0
        for manifest in manifests:
            full = run_history(config_for(manifest))
            n = len(full.revisions)
            expected = symbols_by_key(full)
            for checks in range(1, n):
                with monkeypatch.context() as m:
                    cut_after(m, checks)
                    report = run_history(config_for(manifest))
                assert report.partial, manifest["name"]
                assert report.covered_from_ordinal == n - checks
                assert suffixes_by_key(report) == {
                    key: symbols[n - checks:] for key, symbols in expected.items()
                }, (manifest["name"], checks)
                cuts += 1
        assert cuts >= 5

    def test_git_error_in_timed_out_run_reports_absent(self, manifests, monkeypatch, tmp_path):
        manifest = next(m for m in manifests if m["name"] == "merge_history")
        cut_after(monkeypatch, 2)
        fail_count_at(monkeypatch, 1)
        report = run_history(config_for(manifest))
        assert report.partial and report.covered_from_ordinal == 1
        assert suffixes_by_key(report) == {("readme", "README.md", "merge_me()"): [".", 0]}

        out = tmp_path / "partial.json"
        code = cli.main([
            "history", "--repo", manifest["repo"], "--wiki", "none",
            "--scan-time", str(manifest["scan_time"]), "--out", str(out),
        ])
        assert code == cli.EXIT_TIMEOUT
        payload = json.loads(out.read_text())
        assert payload["partial"] is True
        assert payload["findings"][0]["symbols_suffix"] == [".", 0]

    def test_git_error_in_full_run_marks_failed_ordinal(self, manifests, monkeypatch):
        manifest = next(m for m in manifests if m["name"] == "merge_history")
        fail_count_at(monkeypatch, 1)
        report = run_history(config_for(manifest))
        assert not report.partial
        (finding,) = json.loads(render_findings(report))["findings"]
        assert finding["symbols"] == [1, ".", 0]
        assert finding["failed_ordinals"] == [1]
        assert finding["timeline_partial"] is True


class TestPartialScan:
    def test_cut_keeps_whole_findings(self, manifests, monkeypatch):
        # Documents take one check each, then head one and each distinct
        # snapshot one; a finding is emitted whole or not at all.
        cuts_with_findings = 0
        for manifest in [m for m in manifests if m["wiki"]]:
            config = config_for(manifest)
            full = json.loads(render_findings(run_scan(config)))
            by_key = {
                (f["document"]["origin"], f["document"]["path"], f["element_text"]): f
                for f in full["findings"]
            }
            total = checks_of(monkeypatch, run_scan, config)
            for checks in range(total + 2):
                with monkeypatch.context() as m:
                    cut_after(m, checks)
                    report = json.loads(render_findings(run_scan(config)))
                assert report["partial"] is (checks < total), (manifest["name"], checks)
                for f in report["findings"]:
                    key = (f["document"]["origin"], f["document"]["path"], f["element_text"])
                    assert f == by_key[key], (manifest["name"], checks)
                if report["partial"] and report["findings"]:
                    cuts_with_findings += 1
            assert report["findings"] == full["findings"]
        assert cuts_with_findings >= 1
