"""Synthetic git scenarios with planted ground truth.

Each builder scripts a source repo (and sometimes a wiki repo) under a base
directory and returns a manifest describing exactly which findings a scan
must produce: a complete mapping of (origin, doc path, element text) to the
expected status. The end-to-end tests assert equality against the whole
mapping, so any false positive or false negative fails.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
from pathlib import Path
from unittest import mock

from conftest import RepoBuilder
from staleref.docdiscovery import DiscoveryConfig
from staleref.pipeline import RunConfig

T0 = 1_600_000_000
STEP = 10_000

OUTDATED = "outdated"
IN_SYNC = "in_sync"
NEVER = "never_matched"


def _manifest(name, repo, wiki=None, exclude=(), expected=None, extra_doc_globs=(), **extra):
    data = {
        "name": name,
        "repo": str(repo.path),
        "wiki": str(wiki.path) if wiki else None,
        "exclude": list(exclude),
        "extra_doc_globs": list(extra_doc_globs),
        "scan_time": T0 + 100_000,
        "expected": expected or {},
    }
    data.update(extra)
    return data


def config_for(manifest, **overrides) -> RunConfig:
    """The run configuration a manifest describes, with *overrides* applied."""
    kwargs = dict(
        repo_path=manifest["repo"],
        wiki_path=manifest["wiki"],
        exclude_globs=tuple(manifest["exclude"]),
        discovery=DiscoveryConfig(extra_doc_globs=tuple(manifest["extra_doc_globs"])),
        scan_time=manifest["scan_time"],
    )
    if "max_file_bytes" in manifest:
        kwargs["max_file_bytes"] = manifest["max_file_bytes"]
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def build_backtick_outdated(base: Path):
    repo = RepoBuilder(base / "backtick_outdated")
    repo.commit(T0, {
        "README.md": "Call `alpha_fn()` to boot the daemon.\n",
        "src/app.py": "def alpha_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def beta_fn():\n    pass\n"})
    return _manifest("backtick_outdated", repo, expected={
        ("readme", "README.md", "alpha_fn()"): OUTDATED,
    })


def build_in_sync(base: Path):
    repo = RepoBuilder(base / "in_sync")
    repo.commit(T0, {
        "README.md": "Call `beta_fn()` after boot.\n",
        "src/app.py": "def beta_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"notes.txt": "unrelated\n"})
    return _manifest("in_sync", repo, expected={
        ("readme", "README.md", "beta_fn()"): IN_SYNC,
    })


def build_never_matched(base: Path):
    repo = RepoBuilder(base / "never_matched")
    repo.commit(T0, {
        "README.md": "Call `ghost_fn()` someday.\n",
        "src/app.py": "def real_fn():\n    pass\n",
    })
    return _manifest("never_matched", repo, expected={
        ("readme", "README.md", "ghost_fn()"): NEVER,
    })


def build_wiki_outdated(base: Path):
    repo = RepoBuilder(base / "wiki_outdated")
    repo.commit(T0, {
        "README.md": "Just a tool.\n",
        "src/app.py": "def gamma_fn():\n    pass\n",
    })
    wiki = RepoBuilder(base / "wiki_outdated.wiki")
    wiki.commit(T0 + STEP, {"Usage.md": "Run `gamma_fn()` twice.\n"})
    repo.commit(T0 + 2 * STEP, {"src/app.py": "def other_fn():\n    pass\n"})
    return _manifest("wiki_outdated", repo, wiki, expected={
        ("wiki", "Usage.md", "gamma_fn()"): OUTDATED,
    })


def build_doc_newer_than_head(base: Path):
    # The wiki page was written after the element had already been deleted,
    # so its snapshot is the deleting head itself: never matched, not outdated.
    repo = RepoBuilder(base / "doc_newer")
    repo.commit(T0, {
        "README.md": "Just a tool.\n",
        "src/app.py": "def delta_fn():\n    pass\n\ndef epsilon_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def epsilon_fn():\n    pass\n"})
    wiki = RepoBuilder(base / "doc_newer.wiki")
    wiki.commit(T0 + 3 * STEP, {"Notes.md": "Try `delta_fn()` and `epsilon_fn()` here.\n"})
    return _manifest("doc_newer_than_head", repo, wiki, expected={
        ("wiki", "Notes.md", "delta_fn()"): NEVER,
        ("wiki", "Notes.md", "epsilon_fn()"): IN_SYNC,
    })


def build_equal_timestamp(base: Path):
    # Two source commits share a timestamp equal to the doc's; the snapshot
    # must be the later ordinal, where tick_fn is already gone.
    repo = RepoBuilder(base / "equal_ts")
    repo.commit(T0, {
        "README.md": "Just a tool.\n",
        "src/a.py": "def tick_fn():\n    pass\n\ndef stable_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"notes.txt": "unrelated\n"})
    repo.commit(T0 + STEP, {"src/a.py": "def stable_fn():\n    pass\n"})
    wiki = RepoBuilder(base / "equal_ts.wiki")
    wiki.commit(T0 + STEP, {"Home.md": "Use `tick_fn()` or `stable_fn()` now.\n"})
    return _manifest("equal_timestamp", repo, wiki, expected={
        ("wiki", "Home.md", "tick_fn()"): NEVER,
        ("wiki", "Home.md", "stable_fn()"): IN_SYNC,
    })


def build_path_variant_only(base: Path):
    # The literal text never appears in any file; only the path variant of
    # path/to/file.py matches, and the rename makes it disappear.
    repo = RepoBuilder(base / "path_variant_only")
    repo.commit(T0, {
        "README.md": "Layout lives in to/file.py today.\n",
        "path/to/file.py": "data only\n",
    })
    repo.commit(T0 + STEP, {
        "path/to/file.py": None,
        "path/to/renamed.py": "data only\n",
    })
    return _manifest("path_variant_only", repo, expected={
        ("readme", "README.md", "to/file.py"): OUTDATED,
    })


def build_path_variant_in_sync(base: Path):
    repo = RepoBuilder(base / "path_variant_in_sync")
    repo.commit(T0, {
        "README.md": "Data sits in lib/data.py still.\n",
        "lib/data.py": "payload\n",
    })
    repo.commit(T0 + STEP, {"notes.txt": "unrelated\n"})
    return _manifest("path_variant_in_sync", repo, expected={
        ("readme", "README.md", "lib/data.py"): IN_SYNC,
    })


def build_fenced_block(base: Path):
    # fenced_fn() exists only inside a fenced code block, so nothing may be
    # extracted even though the source later drops the function.
    repo = RepoBuilder(base / "fenced_block")
    repo.commit(T0, {
        "README.md": "Snippet:\n```\nfenced_fn()\n```\nDone.\n",
        "src/app.py": "def fenced_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def later_fn():\n    pass\n"})
    return _manifest("fenced_block", repo, expected={})


def build_bare_url(base: Path):
    repo = RepoBuilder(base / "bare_url")
    repo.commit(T0, {
        "README.md": "Docs at https://example.com/deep/page now.\n",
        "src/app.py": "def some_fn():\n    pass\n",
    })
    return _manifest("bare_url", repo, expected={})


def build_multi_doc(base: Path):
    # The same element diverges per document: outdated in the README (written
    # while it existed), never matched in the wiki (written after deletion).
    repo = RepoBuilder(base / "multi_doc")
    repo.commit(T0, {
        "README.md": "Start `omega_fn()` here.\n",
        "src/app.py": "def omega_fn():\n    pass\n\ndef kappa_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def kappa_fn():\n    pass\n"})
    wiki = RepoBuilder(base / "multi_doc.wiki")
    wiki.commit(T0 + 2 * STEP, {
        "Guide.md": "Avoid `omega_fn()` henceforth.\n",
        "Extra.md": "Keep `kappa_fn()` handy.\n",
    })
    return _manifest("multi_doc", repo, wiki, expected={
        ("readme", "README.md", "omega_fn()"): OUTDATED,
        ("wiki", "Guide.md", "omega_fn()"): NEVER,
        ("wiki", "Extra.md", "kappa_fn()"): IN_SYNC,
    })


def build_merge_history(base: Path):
    # The deletion arrives through a merged side branch; only the first-parent
    # chain (r1, r2, merge) may appear as revisions.
    repo = RepoBuilder(base / "merge_history")
    repo.commit(T0, {
        "README.md": "Use `merge_me()` daily.\n",
        "src/core.py": "def merge_me():\n    pass\n\ndef anchor_fn():\n    pass\n",
    })
    repo.branch("side")
    repo.commit(T0 + STEP, {"src/core.py": "def anchor_fn():\n    pass\n"})
    repo.checkout("main")
    repo.commit(T0 + 2 * STEP, {"notes.txt": "unrelated\n"})
    repo.merge(T0 + 3 * STEP, "side")
    return _manifest("merge_history", repo, expected={
        ("readme", "README.md", "merge_me()"): OUTDATED,
    }, first_parent_revisions=3)


def build_excluded_dir(base: Path):
    # At head the only remaining instance sits under vendor/, which the scan
    # excludes, so the reference counts as outdated.
    repo = RepoBuilder(base / "excluded_dir")
    repo.commit(T0, {
        "README.md": "Call `vendored_fn()` today and `shared_fn()` too.\n",
        "src/app.py": "def vendored_fn():\n    pass\n\ndef shared_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {
        "src/app.py": "def shared_fn():\n    pass\n",
        "vendor/lib.py": "def vendored_fn():\n    pass\n",
    })
    return _manifest("excluded_dir", repo, exclude=["vendor/"], expected={
        ("readme", "README.md", "vendored_fn()"): OUTDATED,
        ("readme", "README.md", "shared_fn()"): IN_SYNC,
    })


def build_rst_readme(base: Path):
    repo = RepoBuilder(base / "rst_readme")
    repo.commit(T0, {
        "README.rst": "Overview\n========\n\nCall iota_fn() soon.\n",
        "src/app.py": "def iota_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def final_fn():\n    pass\n"})
    return _manifest("rst_readme", repo, expected={
        ("readme", "README.rst", "iota_fn()"): OUTDATED,
    })


def _symlink(repo: RepoBuilder, rel: str, target: str) -> None:
    link = repo.path / rel
    if link.is_symlink() or link.exists():
        link.unlink()
    link.parent.mkdir(parents=True, exist_ok=True)
    os.symlink(target, link)


def _gitlink(repo: RepoBuilder, rel: str, commit_sha: str) -> None:
    # An empty directory keeps `git add -A` from dropping the gitlink.
    (repo.path / rel).mkdir(parents=True)
    repo.git("update-index", "--add", "--cacheinfo", f"160000,{commit_sha},{rel}")


def build_symlink_target(base: Path):
    # A symlink is a blob holding its target path, and that text counts as
    # source: retargeting the link makes launch_impl disappear.
    repo = RepoBuilder(base / "symlink_target")
    _symlink(repo, "bin/run", "launch_impl")
    repo.commit(T0, {
        "README.md": "The launcher resolves to `launch_impl` today.\n",
        "src/app.py": "print('hi')\n",
    })
    _symlink(repo, "bin/run", "other_impl")
    repo.commit(T0 + STEP, {})
    return _manifest("symlink_target", repo, expected={
        ("readme", "README.md", "launch_impl"): OUTDATED,
    }, history={
        ("readme", "README.md", "launch_impl"): [1, 0],
    })


def build_submodule_gitlink(base: Path):
    # Gitlinks (mode 160000) are neither read nor listed: vendor/sub never
    # matches as a path, and a file replaced by a gitlink stops counting.
    repo = RepoBuilder(base / "submodule_gitlink")
    repo.commit(T0, {
        "README.md": "Call `sub_fn()` and `dep_fn` from `vendor/sub`.\n",
        "src/app.py": "def sub_fn():\n    pass\n",
        "lib/dep.py": "def dep_fn():\n    pass\n",
    })
    _gitlink(repo, "vendor/sub", "1234567890abcdef1234567890abcdef12345678")
    repo.commit(T0 + STEP, {})
    repo.git("rm", "-q", "--cached", "lib/dep.py")
    (repo.path / "lib/dep.py").unlink()
    _gitlink(repo, "lib/dep.py", "fedcba0987654321fedcba0987654321fedcba09")
    repo.commit(T0 + 2 * STEP, {})
    return _manifest("submodule_gitlink", repo, expected={
        ("readme", "README.md", "sub_fn()"): IN_SYNC,
        ("readme", "README.md", "dep_fn"): OUTDATED,
        ("readme", "README.md", "vendor/sub"): NEVER,
    }, history={
        ("readme", "README.md", "sub_fn()"): [1, 1, 1],
        ("readme", "README.md", "dep_fn"): [1, 1, 0],
        ("readme", "README.md", "vendor/sub"): [0, 0, 0],
    })


def build_file_becomes_symlink(base: Path):
    # A type change (git status T): the regular file's text goes away and the
    # link's target text takes its place.
    repo = RepoBuilder(base / "file_becomes_symlink")
    repo.commit(T0, {
        "README.md": "Call `shim_fn()`, later found in `real_shim.py`.\n",
        "lib/shim.py": "def shim_fn():\n    pass\n",
    })
    (repo.path / "lib/shim.py").unlink()
    _symlink(repo, "lib/shim.py", "real_shim.py")
    repo.commit(T0 + STEP, {})
    return _manifest("file_becomes_symlink", repo, expected={
        ("readme", "README.md", "shim_fn()"): OUTDATED,
        ("readme", "README.md", "real_shim.py"): NEVER,
    }, history={
        ("readme", "README.md", "shim_fn()"): [1, 0],
        ("readme", "README.md", "real_shim.py"): [0, 1],
    })


def build_shallow_clone(base: Path):
    # A --depth 2 clone: the history starts at the graft, which is diffed as
    # a root commit, so mid_fn counts there although it was added earlier.
    origin = RepoBuilder(base / "shallow_origin")
    origin.commit(T0, {
        "README.md": "Use `old_fn()` or `mid_fn()`.\n",
        "src/app.py": "def old_fn():\n    pass\n\ndef mid_fn():\n    pass\n",
    })
    origin.commit(T0 + STEP, {"src/app.py": "def mid_fn():\n    pass\n"})
    origin.commit(T0 + 2 * STEP, {"notes.txt": "unrelated\n"})
    origin.commit(T0 + 3 * STEP, {"src/app.py": "def new_fn():\n    pass\n"})
    clone = base / "shallow_clone"
    subprocess.run(
        ["git", "clone", "-q", "--depth", "2", f"file://{origin.path}", str(clone)],
        check=True, capture_output=True,
    )
    manifest = _manifest("shallow_clone", origin, expected={
        ("readme", "README.md", "old_fn()"): NEVER,
        ("readme", "README.md", "mid_fn()"): OUTDATED,
    }, history={
        ("readme", "README.md", "old_fn()"): [0, 0],
        ("readme", "README.md", "mid_fn()"): [1, 0],
    }, first_parent_revisions=2, graft_sha=origin.shas[2])
    manifest["repo"] = str(clone)
    return manifest


def build_non_utf8_path(base: Path):
    # A 0xff byte in a file name is no UTF-8: the path reads with U+FFFD in
    # the evidence, and deleting the file makes wide_fn disappear.
    repo = RepoBuilder(base / "non_utf8_path")
    raw = bytes(repo.path / "src") + b"/\xffwide.py"
    os.makedirs(repo.path / "src", exist_ok=True)
    with open(raw, "wb") as handle:
        handle.write(b"def wide_fn():\n    pass\n")
    repo.commit(T0, {"README.md": "Call `wide_fn()` and `calm_fn()`.\n",
                     "src/calm.py": "def calm_fn():\n    pass\n"})
    os.unlink(raw)
    repo.commit(T0 + STEP, {})
    return _manifest("non_utf8_path", repo, expected={
        ("readme", "README.md", "wide_fn()"): OUTDATED,
        ("readme", "README.md", "calm_fn()"): IN_SYNC,
    }, history={
        ("readme", "README.md", "wide_fn()"): [1, 0],
        ("readme", "README.md", "calm_fn()"): [1, 1],
    }, evidence={
        ("readme", "README.md", "wide_fn()"): (("src/\ufffdwide.py", 1, "text"),),
    })


def build_crlf_readme(base: Path):
    # CRLF line endings in the document change neither extraction nor counts.
    repo = RepoBuilder(base / "crlf_readme")
    repo.commit(T0, {
        "README.md": "Intro line.\r\nCall `crlf_fn()` first.\r\nThen `stay_fn()`.\r\n",
        "src/app.py": "def crlf_fn():\n    pass\n\ndef stay_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def stay_fn():\n    pass\n"})
    return _manifest("crlf_readme", repo, expected={
        ("readme", "README.md", "crlf_fn()"): OUTDATED,
        ("readme", "README.md", "stay_fn()"): IN_SYNC,
    }, history={
        ("readme", "README.md", "crlf_fn()"): [1, 0],
        ("readme", "README.md", "stay_fn()"): [1, 1],
    })


def build_wiki_out_of_order(base: Path):
    # Wiki timestamps go backwards: w1 is older than w0, which ties with r1,
    # and w2 ties with r2. Each source revision sees the earliest page
    # version by time at or after it (r0 -> w1, r1 -> w0, r2 and r3 -> w2),
    # and the scan's snapshot of w2 is r2.
    repo = RepoBuilder(base / "wiki_out_of_order")
    repo.commit(T0, {"src/app.py": "def old_fn():\n    pass\n\ndef keep_fn():\n    pass\n"})
    repo.commit(T0 + 2 * STEP, {"src/app.py": "def keep_fn():\n    pass\n"})
    repo.commit(T0 + 4 * STEP, {
        "src/app.py": "def keep_fn():\n    pass\n\ndef new_fn():\n    pass\n",
    })
    repo.commit(T0 + 5 * STEP, {"src/app.py": "def keep_fn():\n    pass\n"})
    wiki = RepoBuilder(base / "wiki_out_of_order.wiki")
    wiki.commit(T0 + 2 * STEP, {"Home.md": "Use `old_fn()` and `keep_fn()`.\n"})
    wiki.commit(T0 + STEP, {"Home.md": "Use `keep_fn()` and `new_fn()`.\n"})
    wiki.commit(T0 + 4 * STEP, {"Home.md": "Use `keep_fn()`, `new_fn()` and `old_fn()`.\n"})
    return _manifest("wiki_out_of_order", repo, wiki, expected={
        ("wiki", "Home.md", "keep_fn()"): IN_SYNC,
        ("wiki", "Home.md", "new_fn()"): OUTDATED,
        ("wiki", "Home.md", "old_fn()"): NEVER,
    }, history={
        ("wiki", "Home.md", "keep_fn()"): [1, 1, 1, 1],
        ("wiki", "Home.md", "new_fn()"): [0, "-", 1, 0],
        ("wiki", "Home.md", "old_fn()"): ["-", 0, 0, 0],
    })


def build_unborn_wiki(base: Path):
    # A wiki that was created but never committed to: both modes warn and
    # still report the README.
    repo = RepoBuilder(base / "unborn_wiki")
    repo.commit(T0, {
        "README.md": "Call `lone_fn()` and `gone_fn()`.\n",
        "src/app.py": "def lone_fn():\n    pass\n\ndef gone_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def lone_fn():\n    pass\n"})
    wiki = RepoBuilder(base / "unborn_wiki.wiki")
    return _manifest("unborn_wiki", repo, wiki, expected={
        ("readme", "README.md", "lone_fn()"): IN_SYNC,
        ("readme", "README.md", "gone_fn()"): OUTDATED,
    }, history={
        ("readme", "README.md", "lone_fn()"): [1, 1],
        ("readme", "README.md", "gone_fn()"): [1, 0],
    }, warnings=["wiki_unavailable"])


def build_readme_same_second(base: Path):
    # c1 deletes the definition in the committer second of c0, as a rebase
    # does. The README's snapshot is c0, the commit that last touched it, not
    # the latest source commit of that second.
    repo = RepoBuilder(base / "readme_same_second")
    repo.commit(T0, {
        "README.md": "Call `fooBar()` to start.\n",
        "src/app.py": "def fooBar():\n    pass\n",
    })
    repo.commit(T0, {"src/app.py": "def other_fn():\n    pass\n"})
    return _manifest("readme_same_second", repo, expected={
        ("readme", "README.md", "fooBar()"): OUTDATED,
    }, history={
        ("readme", "README.md", "fooBar()"): [1, 0],
    }, snapshot={
        ("readme", "README.md", "fooBar()"): repo.shas[0],
    })


def build_readme_merged(base: Path):
    # The README's last edit arrives through a merged side branch, so the
    # first-parent commit that last touched it is the merge. late_fn()
    # exists at the merge and is gone at head: outdated, where an older
    # snapshot would call it never matched.
    repo = RepoBuilder(base / "readme_merged")
    repo.commit(T0, {
        "README.md": "Call `base_fn()` first.\n",
        "src/app.py": "def base_fn():\n    pass\n",
    })
    repo.branch("docs")
    repo.commit(T0 + STEP, {"README.md": "Call `base_fn()`, then `late_fn()`.\n"})
    repo.checkout("main")
    repo.commit(T0 + 2 * STEP, {"src/late.py": "def late_fn():\n    pass\n"})
    merge = repo.merge(T0 + 3 * STEP, "docs")
    repo.commit(T0 + 4 * STEP, {"src/late.py": None})
    return _manifest("readme_merged", repo, expected={
        ("readme", "README.md", "base_fn()"): IN_SYNC,
        ("readme", "README.md", "late_fn()"): OUTDATED,
    }, history={
        ("readme", "README.md", "base_fn()"): [1, 1, 1, 1],
        ("readme", "README.md", "late_fn()"): ["-", "-", 1, 0],
    }, snapshot={
        ("readme", "README.md", "base_fn()"): merge,
        ("readme", "README.md", "late_fn()"): merge,
    }, first_parent_revisions=4)


def build_readme_chmod(base: Path):
    # The README's last change is only chmod +x, which touches it as much
    # as an edit does: its snapshot is c2, where chmod_fn() is already gone.
    repo = RepoBuilder(base / "readme_chmod")
    repo.commit(T0, {
        "README.md": "Call `chmod_fn()` or `still_fn()`.\n",
        "src/app.py": "def chmod_fn():\n    pass\n\ndef still_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def still_fn():\n    pass\n"})
    os.chmod(repo.path / "README.md", 0o755)
    repo.commit(T0 + 2 * STEP, {})
    return _manifest("readme_chmod", repo, expected={
        ("readme", "README.md", "chmod_fn()"): NEVER,
        ("readme", "README.md", "still_fn()"): IN_SYNC,
    }, history={
        ("readme", "README.md", "chmod_fn()"): [1, 0, 0],
        ("readme", "README.md", "still_fn()"): [1, 1, 1],
    }, snapshot={
        ("readme", "README.md", "chmod_fn()"): repo.shas[2],
        ("readme", "README.md", "still_fn()"): repo.shas[2],
    })


def build_glob_named_docs(base: Path):
    # Document paths are literal, never globs. docs/[ab].md counts neither
    # its own reference nor any path the glob would match, and its last
    # touch is c0, not c1, which only adds docs/a.md. The root README.md
    # hides no pkg/README.md from the count, so bar_fn() stays matched.
    repo = RepoBuilder(base / "glob_named_docs")
    repo.commit(T0, {
        "README.md": "Call `bar_fn()` to start.\n",
        "docs/[ab].md": "Use `foo_fn()` here.\n",
        "pkg/README.md": "The entry point is bar_fn().\n",
        "src/app.py": "def foo_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"docs/a.md": "Draft.\n"})
    repo.commit(T0 + 2 * STEP, {"src/app.py": "def other_fn():\n    pass\n"})
    return _manifest("glob_named_docs", repo, extra_doc_globs=["docs/*"], expected={
        ("readme", "README.md", "bar_fn()"): IN_SYNC,
        ("readme", "docs/[ab].md", "foo_fn()"): OUTDATED,
    }, history={
        ("readme", "README.md", "bar_fn()"): [1, 1, 1],
        ("readme", "docs/[ab].md", "foo_fn()"): [1, 1, 0],
    }, snapshot={
        ("readme", "README.md", "bar_fn()"): repo.shas[0],
        ("readme", "docs/[ab].md", "foo_fn()"): repo.shas[0],
    })


def build_detached_head(base: Path):
    # The checkout is a detached HEAD at the tip of main. Both modes read
    # HEAD's first-parent history and give the reports they give on main.
    repo = RepoBuilder(base / "detached_head")
    repo.commit(T0, {
        "README.md": "Call `head_fn()` and `drop_fn()`.\n",
        "src/app.py": "def head_fn():\n    pass\n\ndef drop_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"src/app.py": "def head_fn():\n    pass\n"})
    repo.git("checkout", "-q", "--detach")
    return _manifest("detached_head", repo, expected={
        ("readme", "README.md", "head_fn()"): IN_SYNC,
        ("readme", "README.md", "drop_fn()"): OUTDATED,
    }, history={
        ("readme", "README.md", "head_fn()"): [1, 1],
        ("readme", "README.md", "drop_fn()"): [1, 0],
    }, same_as_branch="main")


def build_readme_moved(base: Path):
    # c1 moves README.md to docs/README.md, where discovery no longer finds
    # it. History reads README.md as absent from c1 on; the scan discovers
    # documents at head, finds none and reports nothing.
    repo = RepoBuilder(base / "readme_moved")
    repo.commit(T0, {
        "README.md": "Call `move_fn()` to start.\n",
        "src/app.py": "def move_fn():\n    pass\n",
    })
    (repo.path / "docs").mkdir()
    repo.git("mv", "README.md", "docs/README.md")
    repo.commit(T0 + STEP, {})
    repo.commit(T0 + 2 * STEP, {"src/app.py": "def other_fn():\n    pass\n"})
    return _manifest("readme_moved", repo, expected={}, history={
        ("readme", "README.md", "move_fn()"): [1, ".", "."],
    })


def build_sha256_repo(base: Path):
    # Source and wiki use SHA-256 object names, 64 hex digits each. Returns
    # None where git cannot create such a repository.
    try:
        repo = RepoBuilder(base / "sha256_repo", object_format="sha256")
        wiki = RepoBuilder(base / "sha256_repo.wiki", object_format="sha256")
    except RuntimeError:
        return None
    repo.commit(T0, {
        "README.md": "Call `wide_hash_fn()` and `keep_hash_fn()`.\n",
        "src/app.py": "def wide_hash_fn():\n    pass\n\ndef keep_hash_fn():\n    pass\n",
    })
    wiki.commit(T0 + STEP, {"Home.md": "Then `keep_hash_fn()` and `wide_hash_fn()`.\n"})
    repo.commit(T0 + 2 * STEP, {"src/app.py": "def keep_hash_fn():\n    pass\n"})
    return _manifest("sha256_repo", repo, wiki, expected={
        ("readme", "README.md", "keep_hash_fn()"): IN_SYNC,
        ("readme", "README.md", "wide_hash_fn()"): OUTDATED,
        ("wiki", "Home.md", "keep_hash_fn()"): IN_SYNC,
        ("wiki", "Home.md", "wide_hash_fn()"): OUTDATED,
    }, history={
        ("readme", "README.md", "keep_hash_fn()"): [1, 1],
        ("readme", "README.md", "wide_hash_fn()"): [1, 0],
        ("wiki", "Home.md", "keep_hash_fn()"): [1, 1],
        ("wiki", "Home.md", "wide_hash_fn()"): [1, 0],
    }, snapshot={
        ("readme", "README.md", "keep_hash_fn()"): repo.shas[0],
        ("readme", "README.md", "wide_hash_fn()"): repo.shas[0],
        ("wiki", "Home.md", "keep_hash_fn()"): repo.shas[0],
        ("wiki", "Home.md", "wide_hash_fn()"): repo.shas[0],
    })


def build_backslash_names(base: Path):
    # Git tracks names with a backslash. The README README\x.md and the wiki
    # page Back\slash.md are documents like any other, and the README still
    # leaves itself out of the count, so its own text never keeps
    # slash_fn() matched.
    repo = RepoBuilder(base / "backslash_names")
    repo.commit(T0, {
        "README\\x.md": "Call `slash_fn()` and `stay_slash_fn()`.\n",
        "src/app.py": "def slash_fn():\n    pass\n\ndef stay_slash_fn():\n    pass\n",
    })
    wiki = RepoBuilder(base / "backslash_names.wiki")
    wiki.commit(T0 + STEP, {"Back\\slash.md": "Use `slash_fn()` here.\n"})
    repo.commit(T0 + 2 * STEP, {"src/app.py": "def stay_slash_fn():\n    pass\n"})
    return _manifest("backslash_names", repo, wiki, expected={
        ("readme", "README\\x.md", "slash_fn()"): OUTDATED,
        ("readme", "README\\x.md", "stay_slash_fn()"): IN_SYNC,
        ("wiki", "Back\\slash.md", "slash_fn()"): OUTDATED,
    }, history={
        ("readme", "README\\x.md", "slash_fn()"): [1, 0],
        ("readme", "README\\x.md", "stay_slash_fn()"): [1, 1],
        ("wiki", "Back\\slash.md", "slash_fn()"): [1, 0],
    })


def build_ambiguous_doc_paths(base: Path):
    # README\xff.md and README\xfe.md decode to one path, and so do the
    # wiki's Page\xff.md and Page\xfe.md: neither of a pair is read, and
    # each pair warns once in both modes. The READMEs are still no source,
    # else README\xfe.md would keep gone_amb_fn() matched.
    repo = RepoBuilder(base / "ambiguous_doc_paths")
    wiki = RepoBuilder(base / "ambiguous_doc_paths.wiki")
    for builder, name in ((repo, b"README"), (wiki, b"Page")):
        for byte, element in ((b"\xff", "keep_amb_fn"), (b"\xfe", "gone_amb_fn")):
            with open(bytes(builder.path) + b"/" + name + byte + b".md", "wb") as handle:
                handle.write(f"Call `{element}()`.\n".encode())
    repo.commit(T0, {
        "README.md": "Call `stay_amb_fn()` and `gone_amb_fn()`.\n",
        "src/app.py": "def gone_amb_fn():\n    pass\n\ndef stay_amb_fn():\n    pass\n",
    })
    wiki.commit(T0 + STEP, {"Home.md": "Use `stay_amb_fn()`.\n"})
    repo.commit(T0 + 2 * STEP, {"src/app.py": "def stay_amb_fn():\n    pass\n"})
    gone = ("readme", "README.md", "gone_amb_fn()")
    stay = ("readme", "README.md", "stay_amb_fn()")
    home = ("wiki", "Home.md", "stay_amb_fn()")
    return _manifest("ambiguous_doc_paths", repo, wiki, expected={
        gone: OUTDATED, stay: IN_SYNC, home: IN_SYNC,
    }, history={
        gone: [1, 0], stay: [1, 1], home: [1, 1],
    }, warnings=["ambiguous_document_path"] * 2, ambiguous=["Page\ufffd.md", "README\ufffd.md"])


def build_oversized_before_readme(base: Path):
    # big.txt, over the 50-byte cap, exists only at r0, before the README is
    # added at r1. History visits r0 and warns about big.txt, though no pair
    # is counted there; the scan visits only r1, where big.txt is gone.
    repo = RepoBuilder(base / "oversized_before_readme")
    repo.commit(T0, {
        "big.txt": "early_big_fn() is defined in src/app.py, not here.\n" * 3,
        "src/app.py": "def early_big_fn():\n    pass\n",
    })
    repo.commit(T0 + STEP, {"README.md": "Call `early_big_fn()`.\n", "big.txt": None})
    key = ("readme", "README.md", "early_big_fn()")
    return _manifest("oversized_before_readme", repo, expected={key: IN_SYNC},
                     history={key: [".", 1]}, warnings=["oversized_file"], max_file_bytes=50)


# A stand-in for "git -C <repo> cat-file --batch" that answers each request
# through git, except that it exits unanswered when asked for blob $1.
_DYING_CAT_FILE = (
    'while read -r sha; do [ "$sha" = "$1" ] && exit 3; '
    'printf "%s\\n" "$sha" | git -C "$2" cat-file --batch; done'
)


@contextlib.contextmanager
def catfile_dies_at(blob: str):
    """Make every git cat-file --batch child exit before it answers a
    request for *blob*; it answers every other request as git does."""
    popen = subprocess.Popen

    def spawn(args, **kwargs):
        if "cat-file" in args:
            args = ["sh", "-c", _DYING_CAT_FILE, "sh", blob, args[args.index("-C") + 1]]
        return popen(args, **kwargs)

    with mock.patch.object(subprocess, "Popen", spawn):
        yield


def build_catfile_death(base: Path):
    # Read normally, this is a plain outdated/in-sync pair in a README and a
    # wiki page. "died" pins what each mode reports when the cat-file child
    # exits at the blob of src/keep.py (source) or of Home.md (document):
    # the unreadable source blob counts nothing, and the unreadable page is
    # skipped; both end in a report with one warning.
    repo = RepoBuilder(base / "catfile_death")
    repo.commit(T0, {
        "README.md": "Call `keep_cat_fn()` and `gone_cat_fn()`.\n",
        "src/keep.py": "def keep_cat_fn():\n    pass\n",
        "src/gone.py": "def gone_cat_fn():\n    pass\n",
    })
    wiki = RepoBuilder(base / "catfile_death.wiki")
    wiki.commit(T0 + STEP, {"Home.md": "Start with `keep_cat_fn()`.\n"})
    repo.commit(T0 + 2 * STEP, {"src/gone.py": None})
    readme_gone = ("readme", "README.md", "gone_cat_fn()")
    readme_keep = ("readme", "README.md", "keep_cat_fn()")
    wiki_keep = ("wiki", "Home.md", "keep_cat_fn()")
    return _manifest("catfile_death", repo, wiki, expected={
        readme_gone: OUTDATED, readme_keep: IN_SYNC, wiki_keep: IN_SYNC,
    }, history={
        readme_gone: [1, 0], readme_keep: [1, 1], wiki_keep: [1, 1],
    }, died={
        "source": {
            "blob": repo.git("rev-parse", "HEAD:src/keep.py").strip(),
            "warning": "unreadable_blob",
            "expected": {readme_gone: OUTDATED, readme_keep: NEVER, wiki_keep: NEVER},
            "history": {readme_gone: [1, 0], readme_keep: [0, 0], wiki_keep: [0, 0]},
        },
        "document": {
            "blob": wiki.git("rev-parse", "HEAD:Home.md").strip(),
            "warning": "unreadable_document",
            "expected": {readme_gone: OUTDATED, readme_keep: IN_SYNC},
            "history": {readme_gone: [1, 0], readme_keep: [1, 1]},
        },
    })


def build_readme_version_death(base: Path):
    # The README has two versions that cite the same two elements: revisions
    # 0 and 1 see the first, 2 and 3 the second. "unreadable_version" pins
    # history when the cat-file child exits at the first version's blob:
    # revisions 0 and 1 read absent, and they are exactly the failed ordinals
    # of both findings. The scan reads only the second version.
    repo = RepoBuilder(base / "readme_version_death")
    repo.commit(T0, {
        "README.md": "Call `old_ver_fn()` and `stay_ver_fn()`.\n",
        "src/app.py": "def old_ver_fn():\n    pass\n\ndef stay_ver_fn():\n    pass\n",
    })
    first_version = repo.git("rev-parse", "HEAD:README.md").strip()
    repo.commit(T0 + STEP, {"src/util.py": "def util_fn():\n    pass\n"})
    repo.commit(T0 + 2 * STEP, {"README.md": "First `old_ver_fn()`, then `stay_ver_fn()`.\n"})
    repo.commit(T0 + 3 * STEP, {"src/app.py": "def stay_ver_fn():\n    pass\n"})
    old = ("readme", "README.md", "old_ver_fn()")
    stay = ("readme", "README.md", "stay_ver_fn()")
    return _manifest("readme_version_death", repo, expected={
        old: OUTDATED, stay: IN_SYNC,
    }, history={
        old: [1, 1, 1, 0], stay: [1, 1, 1, 1],
    }, unreadable_version={
        "blob": first_version,
        "history": {old: [".", ".", 1, 0], stay: [".", ".", 1, 1]},
        "failed_ordinals": [0, 1],
    })


SCENARIO_BUILDERS = [
    build_backtick_outdated,
    build_in_sync,
    build_never_matched,
    build_wiki_outdated,
    build_doc_newer_than_head,
    build_equal_timestamp,
    build_path_variant_only,
    build_path_variant_in_sync,
    build_fenced_block,
    build_bare_url,
    build_multi_doc,
    build_merge_history,
    build_excluded_dir,
    build_rst_readme,
    build_symlink_target,
    build_submodule_gitlink,
    build_file_becomes_symlink,
    build_shallow_clone,
    build_non_utf8_path,
    build_crlf_readme,
    build_wiki_out_of_order,
    build_unborn_wiki,
    build_readme_same_second,
    build_readme_merged,
    build_readme_chmod,
    build_glob_named_docs,
    build_detached_head,
    build_readme_moved,
    build_sha256_repo,
    build_backslash_names,
    build_ambiguous_doc_paths,
    build_oversized_before_readme,
    build_catfile_death,
    build_readme_version_death,
]


def build_all(base: Path) -> list[dict]:
    """Every scenario this git can build; a builder returns None for one it
    cannot."""
    return [m for m in (builder(base) for builder in SCENARIO_BUILDERS) if m is not None]


# Settings that the command line refuses before it starts any git process:
# name -> (extra arguments, environment, config-file entries). The config
# file names the repository too, so a "repo" entry replaces it.
BAD_SETTINGS = {
    "config-repo-number": ([], {}, {"repo": 5}),
    "config-exclude-number": ([], {}, {"exclude": 5}),
    "config-extra-doc-glob-number-item": ([], {}, {"extra_doc_glob": ["docs/*", 1]}),
    "config-out-list": ([], {}, {"out": ["report.json"]}),
    "config-strict-episodes-maybe": ([], {}, {"strict_episodes": "maybe"}),
    "config-strict-episodes-number": ([], {}, {"strict_episodes": 1}),
    "env-strict-episodes-maybe": ([], {"STALEREF_STRICT_EPISODES": "maybe"}, {}),
    "config-format-number": ([], {}, {"format": 5}),
    "env-format-xml": ([], {"STALEREF_FORMAT": "xml"}, {}),
    "scan-time-overflow": (["--scan-time", "100000000000000000000"], {}, {}),
    "scan-time-year-14645": (["--scan-time", "400000000000"], {}, {}),
    "scan-time-before-year-1": (["--scan-time=-100000000000"], {}, {}),
}
