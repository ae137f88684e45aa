"""Differential test: incremental counting against the per-cell oracles.

Hypothesis scripts random repositories (adds, deletes, renames, edits, the
same content at two paths, symlinks, binary and oversized blobs, non-ASCII
text with CRLF line ends, merged side branches, out-of-order and equal
timestamps, a root README moved to README.rst and back, an optional wiki
whose commits keep the order drawn, so their timestamps may go backwards,
gitlinks and paths that switch between a gitlink and a blob, names whose
bytes are no UTF-8) and random run settings (exclude globs, a small
per-file cap, a small size cap).
Each repository's ``GitRepo.first_parent_history`` must equal the two-call
reader of ``oracle_revgraph``. On each repository
``run_scan`` must render the same report, byte for byte, as
``oracle_history.run_scan_oracle``, and ``run_history`` the same as
``oracle_history.run_history_oracle``, and each README finding of the scan
must hold the counts that the history row of its element and document
holds at the snapshot and at head. Both history runs are then cut by a
fake deadline after a drawn number of checks, from none to all of them, and
must render the same JSON and CSV, warnings included.
A second pass runs both modes and both readers on a local clone of the
source repository: either ``git clone --depth <drawn>``, or a
``--filter=blob:none`` clone, with or without a checkout, whose origin is
then moved away, so that it holds only the blobs of its checkout and cannot
fetch the others.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings, strategies as st  # noqa: E402

from repo_builder import RepoBuilder  # noqa: E402
from cuts import checks_of, cut_after  # noqa: E402
import oracle_revgraph  # noqa: E402
from oracle_history import (  # noqa: E402
    run_history_oracle,
    run_scan_oracle,
    scan_history_disagreements,
)
from staleref import matching  # noqa: E402
from staleref.docdiscovery import ORIGIN_README  # noqa: E402
from staleref.pipeline import RunConfig, run_history, run_scan  # noqa: E402
from staleref.reporting import FORMAT_CSV, render_findings  # noqa: E402
from staleref.revgraph import GitRepo  # noqa: E402

T0 = 1_600_000_000
STEP = 10_000

# The last two names are bytes that are no UTF-8, as os.fsdecode gives them.
PATHS = ["src/a.py", "src/b.py", "lib/util.py", "vendor/dep.py", "docs/n.txt",
         os.fsdecode(b"src/\xffwide.py"), os.fsdecode(b"lib/caf\xe9.py")]
NON_UTF8 = PATHS[-2:]
SIDE_PATH = "src/side.py"
CONTENTS = [
    "def alpha_fn():\n    return 1\n",
    "# hot path\nalpha_fn alpha_fn alpha_fn\n",
    "beta_fn() calls GammaKit\n",
    "import util\n\nGammaKit = 1\n",
    "x = 'lib/util.py'\ny = util.py\n",
    "nothing here\n",
    "def beta_fn():\n    pass\n# padding that makes this blob longer than sixty bytes\n",
    "bin\x00ary alpha_fn\n",
    "# naïve café\r\nx = alpha_fn(GammaKit)\r\néalpha_fn\r\n",
]
LINK_TARGETS = ["alpha_fn", "lib/util.py", "GammaKit"]
GITLINK_COMMITS = ["ab" * 20, "cd" * 20]
CITED = ["alpha_fn", "beta_fn()", "GammaKit", "lib/util.py", "util.py", "/src/a.py", "ghost_fn"]

path_st = st.sampled_from(PATHS)
op_st = st.one_of(
    st.tuples(st.just("write"), path_st, st.sampled_from(CONTENTS)),
    st.tuples(st.just("delete"), path_st),
    st.tuples(st.just("rename"), path_st, path_st),
    st.tuples(st.just("copy"), path_st, path_st),
    st.tuples(st.just("link"), path_st, st.sampled_from(LINK_TARGETS)),
    # Two of the choices make a gitlink: one at a path that starts as a blob.
    st.tuples(st.just("gitlink"), st.sampled_from(PATHS[:4]), st.sampled_from(GITLINK_COMMITS)),
    st.tuples(st.just("gitlink"), path_st, st.sampled_from(GITLINK_COMMITS)),
    st.tuples(st.just("readme"), st.lists(st.sampled_from(CITED), min_size=2, max_size=6)),
    st.tuples(st.just("readme_move")),
    st.tuples(st.just("readme_delete")),
)
commit_st = st.tuples(
    st.just("commit"),
    st.sampled_from([0, 0, 0, -STEP, -2 * STEP - 5]),
    st.lists(op_st, min_size=1, max_size=4),
)
merge_st = st.tuples(
    st.just("merge"),
    st.one_of(st.none(), st.sampled_from(CONTENTS)),
    st.lists(op_st, max_size=3),
)
wiki_st = st.lists(
    st.tuples(
        # Whole steps tie with a source commit.
        st.one_of(st.integers(0, 8 * STEP), st.integers(0, 8).map(lambda k: k * STEP)),
        st.sampled_from(["Home.md", "Other.md"]),
        st.one_of(st.none(), st.lists(st.sampled_from(CITED), max_size=3)),
    ),
    max_size=3,
)


def _remove(target: Path) -> None:
    if target.is_dir() and not target.is_symlink():
        target.rmdir()  # the empty directory that keeps a gitlink
    elif target.is_symlink() or target.exists():
        target.unlink()


def _apply(root: Path, op: tuple) -> None:
    kind = op[0]
    if kind == "write":
        target = root / op[1]
        _remove(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(op[2], encoding="utf-8")
    elif kind == "delete":
        _remove(root / op[1])
    elif kind in ("rename", "copy"):
        source, dest = root / op[1], root / op[2]
        if source == dest or not (source.is_file() or source.is_symlink()):
            return
        _remove(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        if source.is_symlink():
            os.symlink(os.readlink(source), dest)
        else:
            dest.write_bytes(source.read_bytes())
        if kind == "rename":
            _remove(source)
    elif kind == "link":
        target = root / op[1]
        _remove(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.symlink(op[2], target)
    elif kind == "gitlink":
        # An empty directory keeps `git add -A` from dropping the gitlink,
        # and a file written there later turns it back into a blob.
        _remove(root / op[1])
        (root / op[1]).mkdir(parents=True)
        subprocess.run(
            ["git", "-C", str(root), "update-index", "--add", "--cacheinfo",
             f"160000,{op[2]},{op[1]}"],
            check=True, capture_output=True,
        )
    elif kind == "readme":
        cites = " ".join(f"Use `{element}` here." for element in op[1])
        (root / "README.md").write_text(f"Intro.\n{cites}\n", encoding="utf-8")
    elif kind == "readme_delete":
        _remove(root / "README.md")
    elif kind == "readme_move":
        # README.md becomes README.rst, or back: one document vanishes as
        # another appears.
        source, dest = "README.md", "README.rst"
        if not (root / source).exists():
            source, dest = dest, source
        if (root / source).exists():
            for args in (["add", "--", source], ["mv", "-f", source, dest]):
                subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True)


def _build(base: Path, steps: list, wiki_steps: list) -> tuple[str, str | None]:
    repo = RepoBuilder(base / "proj")
    _apply(repo.path, ("readme", CITED))
    for path, content in zip(PATHS, CONTENTS[:4]):
        _apply(repo.path, ("write", path, content))
    repo.commit(T0, {})
    for i, step in enumerate(steps, start=1):
        ts = T0 + i * STEP
        if step[0] == "commit":
            for op in step[2]:
                _apply(repo.path, op)
            repo.commit(ts + step[1], {})
        else:
            _, side_content, main_ops = step
            repo.branch("side")
            _apply(repo.path, ("delete", SIDE_PATH) if side_content is None
                   else ("write", SIDE_PATH, side_content))
            repo.commit(ts, {})
            repo.checkout("main")
            for op in main_ops:
                _apply(repo.path, op)
            repo.commit(ts + 1, {})
            repo.merge(ts + 2, "side")
            repo.git("branch", "-q", "-d", "side")
    if not wiki_steps:
        return str(repo.path), None
    wiki = RepoBuilder(base / "proj.wiki")
    for ts, page, cites in wiki_steps:
        _apply(wiki.path, ("delete", page) if cites is None else ("write", page, " ".join(
            f"See `{element}`." for element in cites) + "\n"))
        wiki.commit(T0 + ts, {})
    return str(repo.path), str(wiki.path)


def _drawn_shapes(steps: list) -> list[str]:
    """The shapes among the drawn operations, for ``hypothesis.event``."""
    ops = [op for step in steps for op in step[2]]
    gitlinked = {op[1] for op in ops if op[0] == "gitlink"}
    blobs = set(PATHS[:4]) | {op[1] for op in ops if op[0] in ("write", "link")} | {
        op[2] for op in ops if op[0] in ("rename", "copy")
    }
    named = {name for op in ops for name in op[1:] if isinstance(name, str)}
    return [shape for shape, drawn in (
        ("gitlink", gitlinked),
        ("gitlink at a path that holds a blob", gitlinked & blobs),
        ("name that is no UTF-8", named & set(NON_UTF8)),
        ("README moved", any(op[0] == "readme_move" for op in ops)),
    ) if drawn]


def _assert_readers_agree(*paths: str | None) -> None:
    for path in filter(None, paths):
        repo = GitRepo(path)
        seq, changes = repo.first_parent_history()
        oracle_seq, oracle_changes = oracle_revgraph.first_parent_history(repo)
        assert (seq.revisions, changes) == (oracle_seq.revisions, oracle_changes), path


def _assert_modes_match_oracles(config: RunConfig):
    """Both modes render what their oracles render, and agree with each
    other on README documents; returns the history report."""
    expected_scan = run_scan_oracle(config)
    got_scan = run_scan(config)
    assert got_scan.warnings == expected_scan.warnings
    assert render_findings(got_scan) == render_findings(expected_scan)

    expected = run_history_oracle(config)
    got = run_history(config)
    assert _symbols(got) == _symbols(expected)
    assert got.warnings == expected.warnings
    assert render_findings(got) == render_findings(expected)
    assert scan_history_disagreements(got_scan, got, ORIGIN_README) == []
    return got


def _symbols(report) -> dict:
    return {
        (f.document.origin, f.document.path, f.element_text): (
            list(f.symbols), list(f.failed_ordinals), f.evidence
        )
        for f in report.findings
    }


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    steps=st.lists(st.one_of(commit_st, commit_st, commit_st, merge_st), min_size=1, max_size=6),
    wiki_steps=wiki_st,
    exclude=st.sampled_from([(), ("vendor/",), ("*.txt",), ("lib/util.py",)]),
    max_file_bytes=st.sampled_from([10 * 1024 * 1024, 60]),
    cap=st.sampled_from([None, 2]),
    data=st.data(),
)
def test_incremental_history_matches_per_cell_oracle(
    steps, wiki_steps, exclude, max_file_bytes, cap, data
):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        repo, wiki = _build(Path(tmp), steps, wiki_steps)
        if cap is not None:
            mp.setattr(matching, "MAX_COUNT_PER_FILE", cap)
        settings = dict(
            wiki_path=wiki,
            exclude_globs=exclude,
            max_file_bytes=max_file_bytes,
            scan_time=T0 + 100 * STEP,
        )
        config = RunConfig(repo, **settings)
        for shape in _drawn_shapes(steps):
            event(shape)
        _assert_readers_agree(repo, wiki)
        got = _assert_modes_match_oracles(config)
        revisions = len(got.revisions)

        total = checks_of(mp, run_history, config)
        # Hypothesis favours small integers: count from both ends.
        checks = data.draw(st.one_of(
            st.integers(0, total), st.integers(0, total).map(lambda k: total - k)
        ), label="checks")
        documents = total - revisions
        event("cut among documents" if checks < documents
              else "cut among revisions" if checks < total else "no cut")
        with mp.context() as m:
            cut_after(m, checks)
            got = run_history(config)
        with mp.context() as m:
            cut_after(m, checks)
            expected = run_history_oracle(config)
        assert got.partial is (checks < total)
        assert got.warnings == expected.warnings
        for fmt in ("json", FORMAT_CSV):
            assert render_findings(got, fmt) == render_findings(expected, fmt), fmt

        clone = Path(tmp) / "clone"
        if data.draw(st.booleans(), label="blob:none"):
            # Without a checkout the clone holds no blob at all.
            checkout = data.draw(st.booleans(), label="checkout")
            event("blob:none clone whose origin moved away"
                  + ("" if checkout else ", without a checkout"))
            subprocess.run(["git", "-C", repo, "config", "uploadpack.allowfilter", "true"],
                           check=True, capture_output=True)
            how = ["--filter=blob:none", *([] if checkout else ["--no-checkout"])]
        else:
            depth = data.draw(st.integers(1, revisions), label="depth")
            event("shallow clone" if depth < revisions else "clone of the whole history")
            how = ["--depth", str(depth)]
        subprocess.run(["git", "clone", "-q", *how, f"file://{repo}", str(clone)],
                       check=True, capture_output=True)
        Path(repo).rename(Path(tmp) / "origin-moved")
        _assert_readers_agree(str(clone))
        _assert_modes_match_oracles(RunConfig(str(clone), **settings))
