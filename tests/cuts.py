"""Fake deadlines that cut a run after a given number of checks."""

from __future__ import annotations

from staleref import pipeline
from staleref.pipeline import ScanTimeout


class _FakeDeadline:
    """Lets *checks* checks pass, then times out. A check is either call:
    ``check`` asks ``expired``, as ``pipeline._Deadline.check`` does."""

    def __init__(self, checks: int):
        self.left = checks

    def expired(self) -> bool:
        if self.left <= 0:
            return True
        self.left -= 1
        return False

    def check(self) -> None:
        if self.expired():
            raise ScanTimeout


def cut_after(monkeypatch, checks: int) -> None:
    monkeypatch.setattr(pipeline, "_Deadline", lambda seconds: _FakeDeadline(checks))


def checks_of(monkeypatch, run, config) -> int:
    """How many deadline checks a complete run makes."""
    deadline = _FakeDeadline(10**6)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_Deadline", lambda seconds: deadline)
        assert not run(config).partial
    return 10**6 - deadline.left
