"""Command line interface contract: exit codes, formats, option precedence."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import RepoBuilder

T0 = 1_600_000_000
PIN = str(T0 + 50_000)


def run_cli(*args, env_extra=None, cwd=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("STALEREF_")}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "staleref.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def dirty_repo(tmp_path_factory):
    builder = RepoBuilder(tmp_path_factory.mktemp("cli") / "dirty")
    builder.commit(T0, {
        "README.md": "Use `old_fn()` often and `keep_fn()` sometimes.\n",
        "src/app.py": "def old_fn():\n    pass\n\ndef keep_fn():\n    pass\n",
    })
    builder.commit(T0 + 10_000, {"src/app.py": "def keep_fn():\n    pass\n"})
    return str(builder.path)


@pytest.fixture(scope="module")
def clean_repo(tmp_path_factory):
    builder = RepoBuilder(tmp_path_factory.mktemp("cli") / "clean")
    builder.commit(T0, {
        "README.md": "Use `ok_fn()` as documented.\n",
        "src/app.py": "def ok_fn():\n    pass\n",
    })
    return str(builder.path)


class TestScan:
    def test_outdated_repo_exits_1(self, dirty_repo):
        proc = run_cli("scan", "--repo", dirty_repo, "--scan-time", PIN)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        statuses = {f["element_text"]: f["status"] for f in payload["findings"]}
        assert statuses == {"old_fn()": "outdated", "keep_fn()": "in_sync"}

    def test_clean_repo_exits_0(self, clean_repo):
        proc = run_cli("scan", "--repo", clean_repo, "--scan-time", PIN)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert all(f["status"] == "in_sync" for f in payload["findings"])

    def test_missing_repo_exits_2(self, tmp_path):
        proc = run_cli("scan", "--repo", str(tmp_path / "nope"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_no_repo_anywhere_exits_2(self):
        proc = run_cli("scan")
        assert proc.returncode == 2
        assert "repo" in proc.stderr

    def test_out_writes_file(self, dirty_repo, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("scan", "--repo", dirty_repo, "--out", str(out))
        assert proc.returncode == 1
        assert proc.stdout == ""
        json.loads(out.read_text())

    def test_timeout_exits_3_with_partial_json(self, dirty_repo, tmp_path):
        out = tmp_path / "partial.json"
        proc = run_cli("scan", "--repo", dirty_repo, "--timeout", "0.000001", "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        assert json.loads(out.read_text())["partial"] is True

    def test_issue_draft(self, dirty_repo, tmp_path):
        draft = tmp_path / "issue.md"
        proc = run_cli(
            "scan", "--repo", dirty_repo, "--issue-draft", str(draft),
            "--out", str(tmp_path / "r.json"),
        )
        assert proc.returncode == 1
        text = draft.read_text()
        assert "old_fn()" in text
        assert text.startswith("# Outdated code references in the documentation of dirty")

    def test_markdown_format(self, dirty_repo):
        proc = run_cli("scan", "--repo", dirty_repo, "--format", "md")
        assert proc.returncode == 1
        assert "`old_fn()`" in proc.stdout and "**outdated**" in proc.stdout


class TestHistory:
    def test_csv_emits_symbol_table(self, dirty_repo):
        proc = run_cli("history", "--repo", dirty_repo, "--format", "csv")
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("# R1 ")
        assert lines[1].startswith("# R2 ")
        assert lines[2] == "element,origin,document,R1,R2"
        assert "old_fn(),readme,README.md,1,0" in lines

    def test_timeout_exits_3_with_partial_json(self, dirty_repo):
        proc = run_cli("history", "--repo", dirty_repo, "--timeout", "0.000001")
        assert proc.returncode == 3
        payload = json.loads(proc.stdout)
        assert payload["partial"] is True

    def test_repeat_runs_are_byte_identical(self, dirty_repo, tmp_path):
        # Two processes with different hash seeds catch set-order leaks.
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        a = run_cli("history", "--repo", dirty_repo, "--scan-time", PIN,
                    "--out", str(one), env_extra={"PYTHONHASHSEED": "1"})
        b = run_cli("history", "--repo", dirty_repo, "--scan-time", PIN,
                    "--out", str(two), env_extra={"PYTHONHASHSEED": "2"})
        assert a.returncode == b.returncode == 1
        assert one.read_bytes() == two.read_bytes()

    def test_strict_episodes_flag_accepted(self, dirty_repo):
        proc = run_cli("history", "--repo", dirty_repo, "--strict-episodes")
        assert proc.returncode == 1


class TestFetch:
    def test_clones_local_repo_and_wiki(self, tmp_path):
        origin = RepoBuilder(tmp_path / "origin" / "proj")
        origin.commit(T0, {"README.md": "See `fetched_fn()`.\n",
                           "app.py": "def fetched_fn():\n    pass\n"})
        wiki = RepoBuilder(tmp_path / "origin" / "proj.wiki")
        wiki.commit(T0, {"Home.md": "Wiki home.\n"})

        dest = tmp_path / "work"
        proc = run_cli("fetch", str(origin.path), "--dest", str(dest), "--with-wiki")
        assert proc.returncode == 0
        printed = proc.stdout.splitlines()
        assert printed == [str(dest / "proj"), str(dest / "proj.wiki")]
        assert (dest / "proj" / "README.md").exists()
        assert (dest / "proj.wiki" / "Home.md").exists()

        scan = run_cli("scan", "--repo", str(dest / "proj"))
        assert scan.returncode == 0

    def test_missing_wiki_is_only_a_warning(self, tmp_path):
        origin = RepoBuilder(tmp_path / "solo")
        origin.commit(T0, {"README.md": "hello\n"})
        proc = run_cli("fetch", str(origin.path), "--dest", str(tmp_path / "w"),
                       "--with-wiki")
        assert proc.returncode == 0
        assert "wiki clone failed" in proc.stderr

    def test_bad_url_exits_2(self, tmp_path):
        proc = run_cli("fetch", str(tmp_path / "missing"), "--dest", str(tmp_path / "d"))
        assert proc.returncode == 2
        assert "clone failed" in proc.stderr


class TestStats:
    def make_reports(self, dirty_repo, clean_repo, tmp_path):
        paths = []
        for name, repo in (("a.json", dirty_repo), ("b.json", clean_repo)):
            out = tmp_path / name
            run_cli("scan", "--repo", repo, "--out", str(out))
            paths.append(str(out))
        return paths

    def test_pools_project_rates(self, dirty_repo, clean_repo, tmp_path):
        paths = self.make_reports(dirty_repo, clean_repo, tmp_path)
        proc = run_cli("stats", *paths)
        assert proc.returncode == 0
        agg = json.loads(proc.stdout)
        assert agg["projects_total"] == 2
        assert agg["projects_outdated"] == 1
        assert agg["elements_total"] == 3
        assert agg["elements_outdated"] == 1

    def test_zero_files_is_usage_error(self):
        proc = run_cli("stats")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_schema_mismatch_names_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "findings": []}))
        proc = run_cli("stats", str(bad))
        assert proc.returncode == 2
        assert "bad.json" in proc.stderr

    def test_csv_and_md_formats(self, dirty_repo, clean_repo, tmp_path):
        paths = self.make_reports(dirty_repo, clean_repo, tmp_path)
        csv = run_cli("stats", *paths, "--format", "csv")
        header, row = csv.stdout.splitlines()[:2]
        assert "projects_total" in header and len(header.split(",")) == len(row.split(","))
        md = run_cli("stats", *paths, "--format", "md")
        assert md.stdout.startswith("# Pooled aggregates")


class TestPrecedence:
    def test_env_beats_config(self, dirty_repo, clean_repo, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repo": clean_repo}))
        proc = run_cli("scan", "--config", str(cfg),
                       env_extra={"STALEREF_REPO": dirty_repo})
        assert proc.returncode == 1

    def test_flag_beats_env(self, dirty_repo, clean_repo):
        proc = run_cli("scan", "--repo", clean_repo,
                       env_extra={"STALEREF_REPO": dirty_repo})
        assert proc.returncode == 0

    def test_config_alone_applies(self, dirty_repo, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repo": dirty_repo}))
        proc = run_cli("scan", env_extra={"STALEREF_CONFIG": str(cfg)})
        assert proc.returncode == 1

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        proc = run_cli("scan", "--config", str(cfg))
        assert proc.returncode == 2
        assert "JSON object" in proc.stderr


class TestDumpCatalog:
    def test_stable_and_complete(self, tmp_path):
        first = run_cli("dump-catalog")
        second = run_cli("dump-catalog")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert "template-class" in first.stdout

        out = tmp_path / "catalog.tsv"
        run_cli("dump-catalog", "--out", str(out))
        assert out.read_text() == first.stdout
