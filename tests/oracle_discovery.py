"""Reference document discovery used as a test oracle.

One loop per kind of listed path, in the order the rules are stated: root
READMEs matching ``README*`` case-insensitively, then every wiki path. Each
keeps a path with a recognized format, keyed by (origin, path).
"""

from __future__ import annotations

import fnmatch

from staleref.docdiscovery import (
    ORIGIN_README,
    ORIGIN_WIKI,
    DocumentDescriptor,
    is_recognized_format,
)


def discover_documents(
    source_tree: list[str],
    wiki_tree: list[str] | None,
) -> list[DocumentDescriptor]:
    found: dict[tuple[str, str], DocumentDescriptor] = {}

    for path in source_tree:
        if "/" in path or not fnmatch.fnmatchcase(path.lower(), "readme*"):
            continue
        fmt = is_recognized_format(path)
        if fmt:
            desc = DocumentDescriptor(ORIGIN_README, path, fmt)
            found[(desc.origin, desc.path)] = desc

    if wiki_tree is not None:
        for path in wiki_tree:
            fmt = is_recognized_format(path)
            if fmt:
                desc = DocumentDescriptor(ORIGIN_WIKI, path, fmt)
                found[(desc.origin, desc.path)] = desc

    return sorted(found.values())
