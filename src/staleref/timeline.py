"""Symbolic timelines of an element reference across a source history.

Each source revision gets one symbol for a given (element, document) pair:

* ``"."``  the document did not exist at that revision (DocAbsent),
* ``"-"``  the document existed but did not reference the element,
* ``0``    the document referenced the element and nothing in the source
           matched it (the reference was outdated at that revision),
* ``n>0``  the document referenced the element and the source matched n times.

An outdated episode is a maximal run of zeros that has some positive count
anywhere earlier in the timeline. Zeros separated only by DocAbsent symbols
belong to the same episode: a document that briefly vanished and came back
with the reference still dangling was never fixed in between. An episode that
does not reach the final revision ends at the first symbol after its zeros,
and that symbol tells us how it was fixed: the document was deleted, the
document was updated, or matching source code came (back) into existence.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Union

from .revgraph import Revision

DOC_ABSENT = "."
NO_REFERENCE = "-"

Symbol = Union[int, str]

FIX_DOC_DELETE = "doc_delete"
FIX_DOC_UPDATE = "doc_update"
FIX_SOURCE_CHANGE = "source_change"
FIX_KINDS = (FIX_DOC_DELETE, FIX_DOC_UPDATE, FIX_SOURCE_CHANGE)


def is_count(symbol: Symbol) -> bool:
    return isinstance(symbol, int) and not isinstance(symbol, bool)


def validate_symbol(symbol: Symbol) -> None:
    if is_count(symbol):
        if symbol < 0:
            raise ValueError(f"counts cannot be negative: {symbol}")
    elif symbol not in (DOC_ABSENT, NO_REFERENCE):
        raise ValueError(f"not a timeline symbol: {symbol!r}")


@dataclass(frozen=True)
class FixEvent:
    kind: str
    at_ordinal: int
    at_sha: str
    at_timestamp: int

    def __post_init__(self) -> None:
        if self.kind not in FIX_KINDS:
            raise ValueError(f"unknown fix kind: {self.kind!r}")


@dataclass(frozen=True)
class OutdatedEpisode:
    start_ordinal: int
    end_ordinal: int | None
    fix: FixEvent | None = None
    duration_seconds: int | None = None

    @property
    def ongoing(self) -> bool:
        return self.end_ordinal is None


def detect_episodes(
    symbols: tuple[Symbol, ...],
    revisions: tuple[Revision, ...],
    strict: bool = False,
    scan_time: int | None = None,
) -> list[OutdatedEpisode]:
    """Find every outdated episode in a timeline, in one pass over its symbols.

    ``symbols[i]`` belongs to ``revisions[i]``; a fix records the sha and
    timestamp of the revision it happened at.

    By default a zero opens an episode whenever any positive count appears
    anywhere earlier, even across intervening NoReference symbols. With
    ``strict`` the last doc-present symbol before the zero run must itself be
    a positive count, which drops stretches where the reference had already
    been removed from the document and only later re-added.

    An open episode remembers the first DocAbsent of a gap. Zeros after the
    gap resume it; any other symbol closes it, at the gap if there is one.

    Each episode is built when it closes, with its duration in seconds from
    its first zero to its fix: signed, as commit timestamps are not monotone.
    An episode still open at the end lasts until *scan_time*; without one it
    has no duration.
    """
    episodes: list[OutdatedEpisode] = []
    start: int | None = None  # first zero of the open episode
    gap: int | None = None  # first DocAbsent after the open episode's zeros
    seen_positive = last_present_positive = False

    def close(end: int, kind: str) -> None:
        revision = revisions[end]
        episodes.append(OutdatedEpisode(
            start, end, FixEvent(kind, end, revision.sha, revision.timestamp),
            revision.timestamp - revisions[start].timestamp,
        ))

    for i, symbol in enumerate(symbols):
        if symbol == DOC_ABSENT:
            if start is not None and gap is None:
                gap = i
        elif symbol == 0:
            if start is not None:
                gap = None
            elif last_present_positive if strict else seen_positive:
                start = i
        else:
            if gap is not None:
                close(gap, FIX_DOC_DELETE)
            elif start is not None:
                close(i, FIX_DOC_UPDATE if symbol == NO_REFERENCE else FIX_SOURCE_CHANGE)
            start = gap = None
            last_present_positive = symbol != NO_REFERENCE
            seen_positive = seen_positive or last_present_positive
    if gap is not None:
        close(gap, FIX_DOC_DELETE)
    elif start is not None:
        duration = None if scan_time is None else scan_time - revisions[start].timestamp
        episodes.append(OutdatedEpisode(start, None, duration_seconds=duration))
    return episodes


def survival_curve(
    durations: list[int], grid: list[int] | tuple[int, ...]
) -> list[tuple[float, float]]:
    """Fraction of *durations* that exceed each horizon in *grid*.

    A point (d, f) means a fraction f of the durations (seconds each
    episode took to fix) are strictly longer than d seconds. No durations
    yields an empty curve.
    """
    if not durations:
        return []
    durations = sorted(durations)
    total = len(durations)
    return [(float(d), (total - bisect.bisect_right(durations, d)) / total) for d in grid]
