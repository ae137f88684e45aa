"""Regex-driven extraction of code-element references from documentation text.

Nine regular expressions decide what counts as a code element: identifiers
in camelCase or PascalCase, UPPER_SNAKE constants, dotted names, qualified
and empty-parens calls, template types, file paths, and anything an author
put in inline backticks. Fenced code blocks, markdown link destinations, and bare URLs are
masked out before the rules run, so offsets always refer to the original
document text. A rule, and each mask pass, is skipped on a text that lacks a
literal that every one of its matches contains (a ``/`` for ``path-like``,
``](`` for link destinations). A rule whose literals prose leaves open, or
that has none, is also skipped on a text that lacks its window: two or three
characters that every match holds side by side (a lower-case letter or digit
before a capital for ``camel-case``). So each rule runs only where it could
match.

``extract_elements`` returns each element with its span. ``element_texts``
returns only the set of element texts, and extracts each distinct line once
per run: no rule and no mask crosses a line ending (``\r\n``, ``\r`` or
``\n``), so a document's set is the union of its lines' sets.
"""

from __future__ import annotations

import re
from collections import namedtuple

MIN_ELEMENT_LENGTH = 2

# The rules, in order: (id, capture group, pattern, literals, window). The
# literals are those that every match of the pattern contains: each is a
# mandatory atom of it, so a rule whose literals are not all in a line cannot
# match there. The window, where there is one, is a pattern of two or three
# characters that every match holds side by side, so a rule cannot match a
# line where its window finds nothing. Rules that prose leaves open (a "." or
# a "_" is common) or that have no literal (camel-case, pascal-case) carry one.
# A window starts at its rarest character and looks behind for the one before
# it: "[A-Z](?<=[a-z0-9][A-Z])" finds the pair "[a-z0-9][A-Z]", but the
# engine tries only the capitals of a line, not every lower-case letter.
# Rules that share a window share its compiled pattern. No pattern can match
# "\r" or "\n", so a document may be extracted line by line. There is no rule
# for bare URLs; URLs are only picked up when an author backticks them.
_CAMEL_WINDOW = re.compile(r"[A-Z](?<=[a-z0-9][A-Z])")
_DOT_WINDOW = re.compile(r"\.(?<=[A-Za-z0-9_-]\.)[A-Za-z_]")
_RULES: tuple[tuple[str, int, re.Pattern, tuple[str, ...], re.Pattern | None], ...] = (
    ("backtick", 1, re.compile(r"`([^`\r\n]+)`"), ("`",), None),
    ("template-class", 0, re.compile(r"[A-Z][a-zA-Z]+ ?<[A-Z][a-zA-Z]*>"), ("<", ">"), None),
    ("qualified-call", 0,
     re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+\([^()\r\n]*\)"),
     (".", "(", ")"), _DOT_WINDOW),
    ("function-call", 0, re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\(\)"), ("()",), None),
    ("camel-case", 0, re.compile(r"\b[a-z][a-z0-9]*(?:[A-Z][a-zA-Z0-9]*)+\b"), (), _CAMEL_WINDOW),
    ("pascal-case", 0, re.compile(r"\b[A-Z][a-z0-9]+(?:[A-Z][a-zA-Z0-9]*)+\b"), (), _CAMEL_WINDOW),
    ("upper-snake", 0, re.compile(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b"), ("_",),
     re.compile(r"_(?<=[A-Z0-9]_)[A-Z0-9]")),
    ("dotted-name", 0,
     re.compile(r"\b[A-Za-z_][A-Za-z0-9_-]*\.[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*\b(?!\()"),
     (".",), _DOT_WINDOW),
    ("path-like", 0,
     re.compile(r"\.{0,2}/?[A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)*/[A-Za-z0-9_.-]*[A-Za-z0-9_]"),
     ("/",), re.compile(r"/(?<=[A-Za-z0-9_.-]/)")),
)


class CodeElementRef(namedtuple("CodeElementRef", "text rule_id span")):
    """A code element mentioned in a document, with its source span. Immutable.

    ``span`` is a half-open [start, end) offset pair into the decoded document
    text, so ``doc_text[start:end] == text`` always holds.
    """

    __slots__ = ()

    def __new__(cls, text: str, rule_id: str, span: tuple[int, int]) -> CodeElementRef:
        if not text or text != text.strip():
            raise ValueError(f"element text must be non-empty and trimmed: {text!r}")
        start, end = span
        if not (0 <= start < end) or end - start != len(text):
            raise ValueError(f"span {span} does not fit text of length {len(text)}")
        return tuple.__new__(cls, (text, rule_id, span))


_FENCE_LINE_RE = re.compile(r"^[ \t]*```")
_LINE_END_RE = re.compile(r"(\r\n|\r|\n)")
_LINK_DEST_RE = re.compile(r"\]\(([^)\r\n]*)\)")
_BACKTICK_INTERIOR_RE = re.compile(r"`([^`\r\n]+)`")
_BARE_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://[^\s<>`]+")


def mask_fenced_blocks(text: str) -> str:
    """Replace the interior of triple-backtick fences with spaces.

    Lines end at ``\r\n``, ``\r`` or ``\n``, as CommonMark defines a line
    ending. Only line-anchored fences count; the fence marker lines
    themselves are kept. Line endings are preserved so that every offset
    outside a fence is unchanged, and an unterminated fence masks to the end
    of the text.
    """
    if "```" not in text:
        return text
    parts = _LINE_END_RE.split(text)  # lines at even indices, their endings between
    in_fence = False
    for i in range(0, len(parts), 2):
        if _FENCE_LINE_RE.match(parts[i]):
            in_fence = not in_fence
        elif in_fence:
            parts[i] = " " * len(parts[i])
    return "".join(parts)


def _mask_ranges(text: str, ranges: list[tuple[int, int]]) -> str:
    if not ranges:
        return text
    buf = list(text)
    for start, end in ranges:
        for i in range(start, end):
            if buf[i] not in ("\r", "\n"):
                buf[i] = " "
    return "".join(buf)


def _mask_links_and_urls(text: str) -> str:
    # A pass whose pattern needs a literal that the text lacks ("](" for
    # link destinations, "://" for URLs) is skipped.
    if "](" in text:
        text = _mask_ranges(text, [m.span(1) for m in _LINK_DEST_RE.finditer(text)])
    if "://" not in text:
        return text
    # Bare URLs are never elements, but URLs kept inside inline backticks
    # still are, so only URLs outside backtick spans get masked.
    backtick_spans = [m.span(1) for m in _BACKTICK_INTERIOR_RE.finditer(text)]
    url_ranges = []
    for m in _BARE_URL_RE.finditer(text):
        start, end = m.span()
        inside = any(bs <= start and end <= be for bs, be in backtick_spans)
        if not inside:
            url_ranges.append((start, end))
    return _mask_ranges(text, url_ranges)


def _drop_contained(
    matches: list[tuple[int, int, int, str, str]],
) -> list[tuple[int, int, int, str, str]]:
    """Drop matches whose span lies strictly inside another match's span.

    Equal spans (the same text hit by two rules) are kept; the later text
    dedupe picks the lower-index rule. Sorting by (start, -end) means every
    potential container precedes its containees, so one running maximum-extent
    span is enough to detect a span that lies strictly inside another.
    """
    ordered = sorted(matches, key=lambda item: (item[0], -item[1]))
    kept: list[tuple[int, int, int, str, str]] = []
    cover_start, cover_end = -1, -1
    for item in ordered:
        start, end = item[0], item[1]
        if end < cover_end or (end == cover_end and start > cover_start):
            continue
        kept.append(item)
        if end > cover_end:
            cover_start, cover_end = start, end
    return kept


def _matches(fenced: str, doc_text: str) -> list[tuple[int, int, int, str, str]]:
    """(start, end, rule index, text, rule id) of every kept rule match.

    *fenced* is *doc_text* after ``mask_fenced_blocks``; links and bare URLs
    are masked here. A match must equal the *doc_text* substring at its span,
    and one strictly inside another is dropped.
    """
    masked = _mask_links_and_urls(fenced)
    matches: list[tuple[int, int, int, str, str]] = []
    open_windows: dict[re.Pattern, bool] = {}
    for rule_index, (rule_id, group, pattern, literals, window) in enumerate(_RULES):
        # A rule cannot match text that lacks one of its literals or its
        # window. Plain loops: a generator per rule per line costs more than
        # the checks themselves.
        closed = False
        for literal in literals:
            if literal not in masked:
                closed = True
                break
        if closed:
            continue
        if window is not None:
            is_open = open_windows.get(window)
            if is_open is None:
                is_open = open_windows[window] = window.search(masked) is not None
            if not is_open:
                continue
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
            matches.append((start, end, rule_index, text, rule_id))
    return _drop_contained(matches)


def extract_elements(doc_text: str) -> list[CodeElementRef]:
    """Run every rule over *doc_text* and collect element references.

    Results are ordered by first occurrence and deduplicated by element text,
    keeping the earliest span. A match strictly inside another match's span is
    dropped (`renderFiles` inside `renderFiles('./files')` is not a separate
    element). Matches shorter than MIN_ELEMENT_LENGTH after trimming are also
    dropped, as is anything that only matched because of masking (the emitted
    text must equal the original document substring at its span).
    """
    matches = _matches(mask_fenced_blocks(doc_text), doc_text)
    matches.sort(key=lambda item: (item[0], item[1], item[2]))
    refs: list[CodeElementRef] = []
    seen: set[str] = set()
    for start, end, _, text, rule_id in matches:
        if text in seen:
            continue
        seen.add(text)
        refs.append(CodeElementRef(text, rule_id, (start, end)))
    return refs


def element_texts(doc_text: str, memo: dict) -> frozenset[str]:
    """The texts of ``extract_elements(doc_text)``, as a set.

    Lines end where fence masking ends them, and each line outside a fence
    is extracted on its own by ``extract_elements``, once per *memo*: a dict
    that maps lines to their element sets. A line inside a fence masks to
    blanks, which no rule matches, so it is skipped.
    """
    if "\r" in doc_text:
        doc_text = doc_text.replace("\r\n", "\n").replace("\r", "\n")
    lines = doc_text.split("\n")
    if "```" in doc_text:
        masked = mask_fenced_blocks(doc_text).split("\n")
        lines = [line for line, fenced in zip(lines, masked) if fenced == line]
    lines = set(lines)
    for line in lines.difference(memo):
        memo[line] = frozenset(ref.text for ref in extract_elements(line))
    return frozenset().union(*map(memo.__getitem__, lines))
