"""Discovery of the documentation corpus: README files and wiki pages.

Only files whose extension maps to a renderable markup format are treated as
documentation; everything else in the tree is plain source as far as the
scanner is concerned.
"""

from __future__ import annotations

import fnmatch
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


def discover_documents(
    source_tree: list[str],
    wiki_tree: list[str] | None,
    extra_doc_globs: tuple[str, ...],
) -> list[DocumentDescriptor]:
    """Collect documentation files from a source listing and an optional wiki listing.

    A README is a file at the repository root whose name starts with
    ``readme`` in any case; deeper documentation must be opted in through
    ``extra_doc_globs`` (matched against the full relative path). Every wiki
    file with a recognised format is included. The result is deduplicated and
    sorted, so repeated calls over the same listings are identical.
    """
    pairs = [(ORIGIN_README, path) for path in source_tree]
    pairs += [(ORIGIN_WIKI, path) for path in wiki_tree or ()]
    return sorted({
        DocumentDescriptor(origin, path, fmt)
        for origin, path in pairs
        if (
            origin == ORIGIN_WIKI
            or ("/" not in path and path.lower().startswith("readme"))
            or any(fnmatch.fnmatchcase(path, glob) for glob in extra_doc_globs)
        )
        and (fmt := is_recognized_format(path))
    })
