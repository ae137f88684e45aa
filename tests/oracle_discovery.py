"""Reference document discovery used as a test oracle.

One loop per kind of listed path, in the order the rules are stated: root
READMEs matching ``readme_glob`` case-insensitively, then each
``extra_doc_globs`` pattern over the whole source listing, then every wiki
path. Each keeps a path with a recognized format, keyed by (origin, path).
"""

from __future__ import annotations

import fnmatch

from staleref.docdiscovery import (
    ORIGIN_README,
    ORIGIN_WIKI,
    DiscoveryConfig,
    DocumentDescriptor,
    is_recognized_format,
)


def discover_documents(
    source_tree: list[str],
    wiki_tree: list[str] | None,
    config: DiscoveryConfig,
) -> list[DocumentDescriptor]:
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
