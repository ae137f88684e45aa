"""Shared fixtures: scripted git repositories with pinned commit times."""

from __future__ import annotations

import pytest

from repo_builder import RepoBuilder


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
