"""Tests for documentation discovery."""

from __future__ import annotations

from importlib.util import find_spec

import pytest

import oracle_discovery
from staleref.docdiscovery import (
    ALL_FORMATS,
    DiscoveryConfig,
    DocumentDescriptor,
    ORIGIN_README,
    ORIGIN_WIKI,
    discover_documents,
    is_recognized_format,
)


def paths(docs):
    return [(d.origin, d.path) for d in docs]


class TestFormatTable:
    def test_markdown_extensions(self):
        for name in ("README.md", "a.markdown", "b.mdown", "c.mkdn"):
            assert is_recognized_format(name) == "markdown"

    def test_other_markup_extensions(self):
        assert is_recognized_format("doc.rst") == "restructuredtext"
        assert is_recognized_format("doc.adoc") == "asciidoc"
        assert is_recognized_format("doc.textile") == "textile"
        assert is_recognized_format("doc.org") == "org"
        assert is_recognized_format("doc.rdoc") == "rdoc"
        assert is_recognized_format("doc.mediawiki") == "mediawiki"
        assert is_recognized_format("doc.pod") == "pod"
        assert is_recognized_format("notes.txt") == "plaintext"

    def test_case_insensitive_extension(self):
        assert is_recognized_format("README.MD") == "markdown"
        assert is_recognized_format("guide.ASCIIDOC") == "asciidoc"

    def test_unrecognized(self):
        assert is_recognized_format("main.py") is None
        assert is_recognized_format("archive.tar.gz") is None
        assert is_recognized_format("README") is None
        assert is_recognized_format(".gitignore") is None


class TestDiscovery:
    def test_root_readme_case_insensitive(self):
        docs = discover_documents(["readme.md", "src/x.py"], None, DiscoveryConfig())
        assert paths(docs) == [(ORIGIN_README, "readme.md")]

    def test_nested_readme_not_discovered(self):
        docs = discover_documents(["docs/README.md", "x.py"], None, DiscoveryConfig())
        assert docs == []

    def test_extensionless_readme_excluded(self):
        # Without an extension the markup format cannot be derived.
        docs = discover_documents(["README", "x.py"], None, DiscoveryConfig())
        assert docs == []

    def test_readme_format_variants(self):
        docs = discover_documents(["README.rst"], None, DiscoveryConfig())
        assert docs[0].format == "restructuredtext"

    def test_wiki_collects_all_recognized(self):
        docs = discover_documents(
            ["README.md"],
            ["Home.md", "deep/Page.rst", "img/logo.png", "Data.json"],
            DiscoveryConfig(),
        )
        assert paths(docs) == [
            (ORIGIN_README, "README.md"),
            (ORIGIN_WIKI, "Home.md"),
            (ORIGIN_WIKI, "deep/Page.rst"),
        ]

    def test_extra_doc_globs(self):
        config = DiscoveryConfig(extra_doc_globs=("docs/*.md",))
        docs = discover_documents(["docs/guide.md", "docs/img.png", "x.py"], None, config)
        assert paths(docs) == [(ORIGIN_README, "docs/guide.md")]

    def test_extra_glob_does_not_duplicate_readme(self):
        config = DiscoveryConfig(extra_doc_globs=("*.md",))
        docs = discover_documents(["README.md"], None, config)
        assert paths(docs) == [(ORIGIN_README, "README.md")]

    def test_deterministic_order(self):
        docs = discover_documents(
            ["README.md"], ["Zeta.md", "Alpha.md"], DiscoveryConfig()
        )
        assert paths(docs) == [
            (ORIGIN_README, "README.md"),
            (ORIGIN_WIKI, "Alpha.md"),
            (ORIGIN_WIKI, "Zeta.md"),
        ]

    def test_no_wiki_tree(self):
        docs = discover_documents(["README.md"], None, DiscoveryConfig())
        assert paths(docs) == [(ORIGIN_README, "README.md")]


class TestTypes:
    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            DocumentDescriptor("nowhere", "README.md", "markdown")
        with pytest.raises(ValueError):
            DocumentDescriptor(ORIGIN_README, "/abs/path.md", "markdown")
        with pytest.raises(ValueError):
            DocumentDescriptor(ORIGIN_README, "README.md", "docx")

    def test_backslash_is_a_plain_name_character(self):
        doc = DocumentDescriptor(ORIGIN_WIKI, "guides/Back\\slash.md", "markdown")
        assert doc.page_name == "Back\\slash"
        for path in ("", "a//b.md", "./a.md", "a/../b.md", "a/"):
            with pytest.raises(ValueError):
                DocumentDescriptor(ORIGIN_README, path, "markdown")

    def test_root_readme_with_backslash_discovered(self):
        docs = discover_documents(["README\\x.md", "src/app.py"], None, DiscoveryConfig())
        assert paths(docs) == [(ORIGIN_README, "README\\x.md")]

    def test_page_name(self):
        doc = DocumentDescriptor(ORIGIN_WIKI, "guides/Getting-Started.md", "markdown")
        assert doc.page_name == "Getting-Started"

    def test_all_formats_non_empty(self):
        assert "markdown" in ALL_FORMATS


# Names that the rules tell apart: mixed-case READMEs with and without a
# format, glob metacharacters taken literally, dotfiles and unrecognized
# extensions.
NAMES = [
    "README.md", "readme.MD", "ReadMe.rst", "README", "README.py", "README.md.bak",
    "READ.md", "guide.md", "a.md", "b.txt", "[ab].md", "x?.rst", "*.adoc", "Home.wiki",
    ".md", ".readme.md", ".gitignore", "main.py", "archive.tar.gz", "notes.TXT",
]
DIRECTORIES = ["", "docs/", "Docs/", "pkg/", "docs/sub/", "[ab]/"]
README_GLOBS = ["README*", "readme*", "README.md", "Read*.?d", "[Rr]eadme*", "*", "*.rst", "["]
EXTRA_GLOBS = [
    "docs/*", "docs/*.md", "*.md", "*/README*", "docs/?.md", "docs/[ab].md", "docs/[!a]*",
    "*", "pkg/*/*.rst", "[[]ab]/*", "*[.]txt", "README*",
]


@pytest.mark.criterion("one-pass discovery lists the documents of the three-loop oracle")
@pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
def test_one_pass_discovery_equals_three_loop_oracle():
    from hypothesis import given, settings, strategies as st

    segment = st.text("aAR._-[]*?!", min_size=1, max_size=5).filter(lambda s: s not in (".", ".."))
    name = st.one_of(st.sampled_from(NAMES), segment)
    path = st.builds(lambda d, n: d + n, st.sampled_from(DIRECTORIES), name)
    pattern = st.one_of(st.sampled_from(EXTRA_GLOBS), st.text("dR/*?[]!.am", max_size=6))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        st.lists(path, max_size=12),
        st.none() | st.lists(path, max_size=6),
        st.one_of(st.sampled_from(README_GLOBS), st.text("Rr*?[]!.md", max_size=6)),
        st.lists(pattern, max_size=3).map(tuple),
    )
    def check(source, wiki, readme_glob, extra):
        config = DiscoveryConfig(readme_glob, extra)
        expected = oracle_discovery.discover_documents(source, wiki, config)
        assert discover_documents(source, wiki, config) == expected

    check()
