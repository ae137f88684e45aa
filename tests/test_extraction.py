"""Tests for the extraction rules and element extraction."""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from importlib.util import find_spec
from pathlib import Path

import pytest

import oracle_extraction
from staleref import extraction
from staleref.extraction import element_texts, extract_elements, mask_fenced_blocks


def texts(refs):
    return [r.text for r in refs]


class TestCatalogParsing:
    def test_default_catalog_loads(self):
        ids = [rule_id for rule_id, *_ in extraction._RULES]
        assert len(ids) == len(set(ids))
        assert "backtick" in ids and "template-class" in ids


class TestMasking:
    def test_fence_interior_masked_same_length(self):
        text = "a\n```\nfoo()\n```\nb"
        masked = mask_fenced_blocks(text)
        assert masked == "a\n```\n     \n```\nb"
        assert len(masked) == len(text)

    def test_no_fences_identity(self):
        text = "plain text with `code`\n"
        assert mask_fenced_blocks(text) == text

    def test_unterminated_fence_masks_to_end(self):
        masked = mask_fenced_blocks("```\nxx")
        assert masked == "```\n  "

    def test_offsets_outside_fences_preserved(self):
        text = "start\n```\nhidden_fn()\n```\nafter `kept_fn()` end\n"
        masked = mask_fenced_blocks(text)
        assert len(masked) == len(text)
        pos = text.index("kept_fn")
        assert masked[pos : pos + 7] == "kept_fn"


class TestExtraction:
    def test_backtick_and_template_examples(self):
        refs = extract_elements("use `Worker<T>` and ArrayList<String>")
        assert texts(refs) == ["Worker<T>", "ArrayList<String>"]
        assert refs[0].rule_id == "backtick"
        assert refs[1].rule_id == "template-class"

    def test_template_with_space_and_nested_name(self):
        refs = extract_elements("returns Callback<SimpleResponse> or Future <Result>")
        assert "Callback<SimpleResponse>" in texts(refs)
        assert "Future <Result>" in texts(refs)

    def test_bare_url_line_yields_nothing(self):
        assert extract_elements("see https://example.com/page") == []

    def test_empty_document(self):
        assert extract_elements("") == []

    def test_dedup_keeps_first_span(self):
        refs = extract_elements("call `renderFiles('./files')` then `renderFiles('./files')` again")
        assert len(refs) == 1
        assert refs[0].text == "renderFiles('./files')"
        assert refs[0].span[0] == len("call `")

    def test_contained_matches_suppressed(self):
        # renderFiles alone must not surface next to the full call, nor
        # ArrayList next to ArrayList<String>.
        refs = extract_elements("use ArrayList<String> here")
        assert texts(refs) == ["ArrayList<String>"]

    def test_fenced_block_fully_excluded(self):
        text = "before\n```\nsecret_fn()\nCamelThing\n```\nafter\n"
        assert extract_elements(text) == []

    def test_link_destination_masked(self):
        refs = extract_elements("read the [guide](path/to/file.py) first")
        assert texts(refs) == []

    def test_url_inside_backticks_kept(self):
        refs = extract_elements("fetch `https://x.io/a/b` quickly")
        assert texts(refs) == ["https://x.io/a/b"]

    def test_identifier_rules(self):
        refs = extract_elements("camelThing and PascalThing and UPPER_CONST and pkg.mod.attr work")
        assert texts(refs) == ["camelThing", "PascalThing", "UPPER_CONST", "pkg.mod.attr"]

    def test_calls_and_paths(self):
        refs = extract_elements("run obj.method(arg) or plain_fn() on src/main.c now")
        assert texts(refs) == ["obj.method(arg)", "plain_fn()", "src/main.c"]

    def test_sentence_terminal_path_keeps_no_period(self):
        refs = extract_elements("Settings live in config/defaults.ini.")
        assert texts(refs) == ["config/defaults.ini"]

    def test_min_length_filter(self):
        assert extract_elements("single `x` char") == []

    def test_backticked_span_trimmed(self):
        refs = extract_elements("see ` spaced_fn() ` here")
        assert len(refs) == 1
        assert refs[0].text == "spaced_fn()"
        start, end = refs[0].span
        assert "see ` spaced_fn() ` here"[start:end] == "spaced_fn()"

    def test_span_fidelity_property(self):
        rng = random.Random(20240814)
        words = ["fooBar", "make_all()", "a/b/c.txt", "X", "`quoted_fn()`", "and", "THE_END"]
        for _ in range(50):
            doc = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 30)))
            for ref in extract_elements(doc):
                start, end = ref.span
                assert doc[start:end] == ref.text


def whole(doc):
    return frozenset(ref.text for ref in extract_elements(doc))


# Pieces of generated Markdown. Fence markers follow a "\n" (plain, indented,
# with an info string, or a closing line that carries text) or another line
# break that only splitlines() knows; the rest are elements, link and URL
# parts, and the line breaks and spaces the rules treat specially.
FRAGMENTS = [
    "\n```", "\n```py", "\n  ```", "\n\t```", "\n``` done fooBar", "```", "\x0c```\x0c",
    "\n", "\r\n", "\r", " ", "\t", "\x0c", "\x1c", "\x85", "\u2028",
    "fooBar", "BazQux", "UPPER_NAME", "run_fn()", "pkg.mod.attr", "obj.call(x)",
    "Worker<T>", "src/app.py", "./a/b", "x", ".", "a.b(", "(", ")", "<", "`", "`kept_fn()`",
    "`https://x.io/a/b`", "https://example.com/p/q", "[guide](src/a.py)", "](",
    "Map <Key>", "()", "( )", ". x", ":/", "://", "] (", "a_", "_B", "/", "../",
]


@pytest.mark.criterion("per-line element sets equal whole-document extraction on generated Markdown")
@pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
def test_element_texts_equal_whole_document_extraction():
    from hypothesis import HealthCheck, given, settings, strategies as st

    shared: dict = {}  # one memo across documents, as in a run

    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.text("`( )\n\x0cab_/.<>]:B", max_size=3)),
        max_size=40,
    ).map("".join))
    def check(doc):
        expected = whole(doc)
        assert expected == {ref.text for ref in oracle_extraction.extract_elements(doc)}
        assert element_texts(doc, {}) == expected
        assert element_texts(doc, shared) == expected

    check()


def gate_rich_text():
    """Text dense in the literals that gate rules and mask passes, and in
    near misses of them."""
    from hypothesis import strategies as st

    pieces = [
        "`", "<", ">", ".", "(", ")", "()", "_", "/", "](", "://", "( )", ". x", ":/", "] (",
        "a.b", "x()", "Foo<Bar>", "Foo <Bar>", "a.b(c)", "a.b()", "A_B", "Z_9", "p/q", "./a",
        "../b/c", "x://y", "[t](u/v)", "`a.b`", "`p/q`", "fooBar", "Baz", "9", " ", "\n",
        # Window near misses.
        "aB", "9Z", "a.B", "a.9", "-.x", "A_9", "A_ ", "_9", "x/", " /",
    ]
    return st.lists(
        st.one_of(st.sampled_from(pieces), st.text("`<>.()_/]:[ aAZ9-", max_size=4)),
        max_size=20,
    ).map("".join)


# One character of each class that the rules, windows and mask passes tell
# apart.
CLASS_ALPHABET = "aZ9_-./()`<>[]: "


def gates():
    """(pattern, literals, window) of every rule and both mask passes."""
    return [
        (pattern, literals, window) for _, _, pattern, literals, window in extraction._RULES
    ] + [(extraction._LINK_DEST_RE, ("](",), None), (extraction._BARE_URL_RE, ("://",), None)]


def closed(text, literals, window):
    return not all(literal in text for literal in literals) or (
        window is not None and window.search(text) is None
    )


@pytest.mark.criterion("a rule or mask pass whose literal or window gate is closed cannot match")
@pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
def test_closed_gate_means_no_match():
    from hypothesis import given, settings

    checks = gates()
    # Seven rules and both mask passes have literals; six rules have a window,
    # so every rule is gated.
    assert sum(bool(literals) for _, literals, _ in checks) == 9
    assert sum(window is not None for _, _, window in checks) == 6
    assert all(literals or window for _, literals, window in checks)

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(gate_rich_text())
    def check(text):
        for pattern, literals, window in checks:
            if closed(text, literals, window):
                assert next(pattern.finditer(text), None) is None, (pattern.pattern, text)

    check()


@pytest.mark.criterion("a closed gate admits no match on any string of up to four characters")
def test_closed_gate_means_no_match_exhaustively():
    checks = gates()
    for n in range(5):
        for text in map("".join, itertools.product(CLASS_ALPHABET, repeat=n)):
            for pattern, literals, window in checks:
                if closed(text, literals, window):
                    assert pattern.search(text) is None, (pattern.pattern, text)


@pytest.mark.criterion("gated extraction equals the ungated oracle in texts, spans and rule ids")
@pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
def test_gated_extraction_equals_ungated_oracle():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(gate_rich_text(), st.sampled_from(FRAGMENTS)), max_size=6)
           .map("".join))
    def check(doc):
        assert extraction._mask_links_and_urls(doc) == oracle_extraction.mask_links_and_urls(doc)
        assert extract_elements(doc) == oracle_extraction.extract_elements(doc)

    check()


@pytest.mark.parametrize("name", ["README.md", "CHANGES.md"])
def test_repository_prose_extracts_as_the_ungated_oracle(name):
    # Real prose, dense with code elements: every line and the whole document.
    doc = (Path(__file__).resolve().parents[1] / name).read_text(encoding="utf-8")
    memo: dict = {}
    for line in doc.split("\n"):
        oracle = oracle_extraction.extract_elements(line)
        assert extract_elements(line) == oracle, line
        assert element_texts(line, memo) == {ref.text for ref in oracle}, line
    oracle = oracle_extraction.extract_elements(doc)
    assert element_texts(doc, memo) == {ref.text for ref in oracle}


class TestGates:
    def test_gate_table_keys_are_the_builtin_patterns(self):
        # Each rule carries its gate. The digest pins every byte of the table:
        # ids, capture groups, patterns, literals and windows, in order.
        table = [
            (rule_id, group, pattern.pattern, literals, window and window.pattern)
            for rule_id, group, pattern, literals, window in extraction._RULES
        ]
        assert len({rule_id for rule_id, *_ in table}) == len(table) == 9
        assert ("template-class", 0, "[A-Z][a-zA-Z]+ ?<[A-Z][a-zA-Z]*>", ("<", ">"), None) in table
        data = repr(table).encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            920, "de746fca0e822b23cc091a900fd86e72a7608b21f23a0c1d7b0747c0da800e9a"
        )

    def test_each_window_finds_exactly_its_character_pair(self):
        # A window is written to start at its rarest character; it must still
        # find the pair of character classes that every match of its rules holds.
        pairs = {
            "camel-case": "[a-z0-9][A-Z]", "pascal-case": "[a-z0-9][A-Z]",
            "dotted-name": r"[A-Za-z0-9_-]\.[A-Za-z_]",
            "qualified-call": r"[A-Za-z0-9_-]\.[A-Za-z_]",
            "upper-snake": "[A-Z0-9]_[A-Z0-9]", "path-like": "[A-Za-z0-9_.-]/",
        }
        windows = {rule_id: window for rule_id, *_, window in extraction._RULES}
        assert {rule_id for rule_id, window in windows.items() if window} == set(pairs)
        # Rules with the same pair share one compiled window.
        assert windows["camel-case"] is windows["pascal-case"]
        assert windows["dotted-name"] is windows["qualified-call"]
        for n in range(4):
            for text in map("".join, itertools.product(CLASS_ALPHABET, repeat=n)):
                for rule_id, pair in pairs.items():
                    found = windows[rule_id].search(text) is not None
                    assert found == (re.search(pair, text) is not None), (rule_id, text)


class TestElementTexts:
    def test_fenced_line_keyed_apart_from_plain_line(self):
        memo: dict = {}
        assert element_texts("```\nfooBar\n```\n", memo) == frozenset()
        assert element_texts("fooBar", memo) == {"fooBar"}
        assert memo[("      ", "fooBar")] == frozenset()
        assert memo["fooBar"] == {"fooBar"}

    def test_plain_line_misses_go_through_extract_elements(self, monkeypatch):
        # Wrapping extract_elements (as perfbench's tracer does) sees each
        # plain line the memo misses, once; fence lines take the private path.
        seen: list[str] = []
        original = extraction.extract_elements

        def counted(doc_text):
            seen.append(doc_text)
            return original(doc_text)

        monkeypatch.setattr(extraction, "extract_elements", counted)
        memo: dict = {}
        doc = "a fooBar\n```\nx_fn()\n```\na fooBar"
        assert element_texts(doc, memo) == {"fooBar"}
        assert element_texts(doc, memo) == {"fooBar"}
        assert seen == ["a fooBar"]

    def test_match_over_a_fenced_part_of_a_line_is_dropped(self):
        # "\x0c" ends a line for the fence scan only: the call's parentheses
        # enclose a fenced part, so its text is not the document's.
        doc = "a.b(\x0c```\x0cSECRET\x0c```\x0c) c.d(e)"
        assert element_texts(doc, {}) == {"c.d(e)"} == whole(doc)
