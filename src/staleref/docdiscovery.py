"""Discovery of the documentation corpus: README files and wiki pages.

Only files whose extension maps to a renderable markup format are treated as
documentation; everything else in the tree is plain source as far as the
scanner is concerned.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass

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


@dataclass(frozen=True, order=True)
class DocumentDescriptor:
    """One documentation file under analysis."""

    origin: str
    path: str
    format: str

    def __post_init__(self) -> None:
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown document origin: {self.origin!r}")
        _validate_path(self.path)
        if self.format not in ALL_FORMATS:
            raise ValueError(f"unknown document format: {self.format!r}")

    @property
    def page_name(self) -> str:
        """Wiki-style page name: the file name without its extension."""
        name = self.path.rsplit("/", 1)[-1]
        dot = name.rfind(".")
        return name[:dot] if dot > 0 else name


@dataclass(frozen=True)
class DiscoveryConfig:
    readme_glob: str = "README*"
    extra_doc_globs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for pattern in (self.readme_glob, *self.extra_doc_globs):
            # fnmatch.translate is total, but compiling surfaces pathological
            # patterns at config-build time rather than mid-scan.
            re.compile(fnmatch.translate(pattern))


def discover_documents(
    source_tree: list[str],
    wiki_tree: list[str] | None,
    config: DiscoveryConfig,
) -> list[DocumentDescriptor]:
    """Collect documentation files from a source listing and an optional wiki listing.

    README files are matched case-insensitively against ``readme_glob`` at the
    repository root only; deeper documentation must be opted in through
    ``extra_doc_globs`` (matched against the full relative path). Every wiki
    file with a recognised format is included. The result is deduplicated and
    sorted, so repeated calls over the same listings are identical.
    """
    found: dict[tuple[str, str], DocumentDescriptor] = {}

    readme_glob = config.readme_glob.lower()
    for path in source_tree:
        if "/" in path or not fnmatch.fnmatchcase(path.lower(), readme_glob):
            continue
        fmt = is_recognized_format(path)
        if fmt:
            desc = DocumentDescriptor(ORIGIN_README, path, fmt)
            found[(desc.origin, desc.path)] = desc

    for glob in config.extra_doc_globs:
        for path in source_tree:
            if not fnmatch.fnmatchcase(path, glob):
                continue
            fmt = is_recognized_format(path)
            if fmt:
                desc = DocumentDescriptor(ORIGIN_README, path, fmt)
                found.setdefault((desc.origin, desc.path), desc)

    if wiki_tree is not None:
        for path in wiki_tree:
            fmt = is_recognized_format(path)
            if fmt:
                desc = DocumentDescriptor(ORIGIN_WIKI, path, fmt)
                found[(desc.origin, desc.path)] = desc

    return sorted(found.values())
