"""Discovery of the documentation corpus: README files and wiki pages.

Only files whose extension maps to a renderable markup format are treated as
documentation; everything else in the tree is plain source as far as the
scanner is concerned.
"""

from __future__ import annotations

from collections import namedtuple

ORIGIN_README = "readme"
ORIGIN_WIKI = "wiki"
ORIGINS = frozenset({ORIGIN_README, ORIGIN_WIKI})

# Extension table for markup formats the scanner recognises as documentation.
FORMAT_BY_EXTENSION: dict[str, str] = {
    ".md": "markdown",
    ".markdown": "markdown",
    ".mdown": "markdown",
    ".mkdn": "markdown",
    ".rst": "restructuredtext",
    ".adoc": "asciidoc",
    ".asciidoc": "asciidoc",
    ".asc": "asciidoc",
    ".textile": "textile",
    ".org": "org",
    ".rdoc": "rdoc",
    ".mediawiki": "mediawiki",
    ".wiki": "mediawiki",
    ".pod": "pod",
    ".txt": "plaintext",
}

ALL_FORMATS = frozenset(FORMAT_BY_EXTENSION.values())


def is_recognized_format(path: str) -> str | None:
    """Return the markup format for *path*, or None when the extension is unknown.

    Matching is on the final extension only and is case-insensitive, so
    ``guide.ASCIIDOC`` is asciidoc while ``archive.tar.gz`` is unrecognised.
    """
    name = path.rsplit("/", 1)[-1]
    dot = name.rfind(".")
    if dot <= 0:
        # No extension (or a dotfile); format cannot be derived.
        return None
    return FORMAT_BY_EXTENSION.get(name[dot:].lower())


def _validate_path(path: str) -> None:
    if not path or path.startswith("/"):
        raise ValueError(f"not a normalized repo-relative path: {path!r}")
    segments = path.split("/")
    if any(seg in ("", ".", "..") for seg in segments):
        raise ValueError(f"not a normalized repo-relative path: {path!r}")


class DocumentDescriptor(namedtuple("DocumentDescriptor", "origin path format")):
    """One documentation file under analysis. Immutable, and ordered by
    origin, then path, then format."""

    __slots__ = ()

    def __new__(cls, origin: str, path: str, format: str) -> DocumentDescriptor:
        if origin not in ORIGINS:
            raise ValueError(f"unknown document origin: {origin!r}")
        _validate_path(path)
        if format not in ALL_FORMATS:
            raise ValueError(f"unknown document format: {format!r}")
        return tuple.__new__(cls, (origin, path, format))

    @property
    def page_name(self) -> str:
        """Wiki-style page name: the file name without its extension."""
        name = self.path.rsplit("/", 1)[-1]
        dot = name.rfind(".")
        return name[:dot] if dot > 0 else name


def readme_format(path: str) -> str | None:
    """The format of the source file at *path* if it is a document, else None.

    A README is a file at the repository root whose name starts with
    ``readme`` in any case, in a recognised format; no deeper file is a
    document. The rule is the same at every revision, and a document never
    counts as source.
    """
    if "/" in path or not path.lower().startswith("readme"):
        return None
    return is_recognized_format(path)


def discover_documents(
    source_tree: list[str], wiki_tree: list[str] | None
) -> list[DocumentDescriptor]:
    """Collect documentation files from a source listing and an optional wiki listing.

    A source file is a document by ``readme_format``; every wiki file with a
    recognised format is one. The result is deduplicated and sorted, so
    repeated calls over the same listings are identical.
    """
    documents = {
        DocumentDescriptor(ORIGIN_README, path, fmt)
        for path in source_tree if (fmt := readme_format(path))
    }
    documents.update(
        DocumentDescriptor(ORIGIN_WIKI, path, fmt)
        for path in wiki_tree or () if (fmt := is_recognized_format(path))
    )
    return sorted(documents)
