"""Shared fixtures: scripted git repositories with pinned commit times."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

import pytest


class RepoBuilder:
    """Builds a git repository commit by commit with fixed timestamps.

    Commit timestamps are pinned through GIT_AUTHOR_DATE/GIT_COMMITTER_DATE so
    tests can assert on snapshot linking and durations exactly.
    """

    def __init__(self, path: Path, branch: str = "main", object_format: str = "sha1"):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.git("init", "-q", "-b", branch, f"--object-format={object_format}")
        self.git("config", "user.email", "dev@example.com")
        self.git("config", "user.name", "Dev")
        self.shas: list[str] = []

    def git(self, *args: str, env: dict | None = None) -> str:
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True,
            text=True,
            env=full_env,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr}")
        return proc.stdout

    def commit(self, timestamp: int, files: dict[str, str | None], message: str = "c") -> str:
        """Write/delete the given files and commit them at *timestamp*.

        A value of None deletes the path. Returns the new commit sha.
        """
        for rel, content in files.items():
            target = self.path / rel
            if content is None:
                target.unlink()
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content, encoding="utf-8")
        self.git("add", "-A")
        stamp = f"{timestamp} +0000"
        self.git(
            "commit",
            "-q",
            "--allow-empty",
            "-m",
            message,
            env={"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp},
        )
        sha = self.git("rev-parse", "HEAD").strip()
        self.shas.append(sha)
        return sha

    def branch(self, name: str, start: str | None = None) -> None:
        args = ["checkout", "-q", "-b", name]
        if start:
            args.append(start)
        self.git(*args)

    def checkout(self, name: str) -> None:
        self.git("checkout", "-q", name)

    def merge(self, timestamp: int, branch: str, message: str = "merge") -> str:
        stamp = f"{timestamp} +0000"
        self.git(
            "merge",
            "--no-ff",
            "-q",
            "-m",
            message,
            branch,
            env={"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp},
        )
        sha = self.git("rev-parse", "HEAD").strip()
        self.shas.append(sha)
        return sha


@pytest.fixture
def repo_factory(tmp_path):
    """Return a callable that creates a fresh RepoBuilder under tmp_path."""

    def make(name: str = "proj", branch: str = "main") -> RepoBuilder:
        return RepoBuilder(tmp_path / name, branch=branch)

    return make


# Tests marked @pytest.mark.criterion(label) are summarized as one PASS/FAIL
# line each at the end of the run.
_criterion_results: list[tuple[str, str]] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(label): acceptance check reported one line per run"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        word = "PASS" if report.passed else "SKIP" if report.skipped else "FAIL"
        _criterion_results.append((word, marker.args[0]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for word, label in _criterion_results:
        terminalreporter.write_line(f"{word}: {label}")
