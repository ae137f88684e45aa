"""Extraction without gates, used as a test oracle.

``mask_links_and_urls`` runs the link-destination, backtick-span and URL
passes over every text, and ``matches`` runs every rule of the module's
table over every text, whatever literals or character windows the text
holds.
``extract_elements`` orders and dedupes their matches as
``staleref.extraction.extract_elements`` does, so the production function,
which skips a pass or a rule where a literal or a window it needs is missing,
must return the same references.
"""

from __future__ import annotations

from staleref.extraction import (
    MIN_ELEMENT_LENGTH,
    _BACKTICK_INTERIOR_RE,
    _BARE_URL_RE,
    _LINK_DEST_RE,
    _RULES,
    CodeElementRef,
    _drop_contained,
    _mask_ranges,
    mask_fenced_blocks,
)


def mask_links_and_urls(text: str) -> str:
    masked = _mask_ranges(text, [m.span(1) for m in _LINK_DEST_RE.finditer(text)])
    # Bare URLs are never elements, but URLs kept inside inline backticks
    # still are, so only URLs outside backtick spans get masked.
    backtick_spans = [m.span(1) for m in _BACKTICK_INTERIOR_RE.finditer(masked)]
    url_ranges = []
    for m in _BARE_URL_RE.finditer(masked):
        start, end = m.span()
        inside = any(bs <= start and end <= be for bs, be in backtick_spans)
        if not inside:
            url_ranges.append((start, end))
    return _mask_ranges(masked, url_ranges)


def matches(fenced: str, doc_text: str) -> list[tuple[int, int, int, str, str]]:
    """(start, end, rule index, text, rule id) of every kept rule match."""
    masked = mask_links_and_urls(fenced)
    found: list[tuple[int, int, int, str, str]] = []
    for rule_index, (rule_id, group, pattern, _, _) in enumerate(_RULES):
        for m in pattern.finditer(masked):
            raw = m.group(group)
            if raw is None:
                continue
            text = raw.strip()
            if len(text) < MIN_ELEMENT_LENGTH:
                continue
            start = m.start(group) + (len(raw) - len(raw.lstrip()))
            end = start + len(text)
            if doc_text[start:end] != text:
                continue
            found.append((start, end, rule_index, text, rule_id))
    return _drop_contained(found)


def extract_elements(doc_text: str) -> list[CodeElementRef]:
    """The first span of each distinct element text, in document order."""
    found = matches(mask_fenced_blocks(doc_text), doc_text)
    found.sort(key=lambda item: (item[0], item[1], item[2]))
    refs: list[CodeElementRef] = []
    seen: set[str] = set()
    for start, end, _, text, rule_id in found:
        if text not in seen:
            seen.add(text)
            refs.append(CodeElementRef(text, rule_id, (start, end)))
    return refs
