"""Synthetic git scenarios with planted ground truth.

Each builder scripts a source repo (and sometimes a wiki repo) under a base
directory and returns a manifest describing exactly which findings a scan
must produce: a complete mapping of (origin, doc path, element text) to the
expected status. The end-to-end tests assert equality against the whole
mapping, so any false positive or false negative fails.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

from conftest import RepoBuilder

T0 = 1_600_000_000
STEP = 10_000

OUTDATED = "outdated"
IN_SYNC = "in_sync"
NEVER = "never_matched"


def _manifest(name, repo, wiki=None, exclude=(), expected=None, **extra):
    data = {
        "name": name,
        "repo": str(repo.path),
        "wiki": str(wiki.path) if wiki else None,
        "exclude": list(exclude),
        "scan_time": T0 + 100_000,
        "expected": expected or {},
    }
    data.update(extra)
    return data


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
]


def build_all(base: Path) -> list[dict]:
    return [builder(base) for builder in SCENARIO_BUILDERS]
