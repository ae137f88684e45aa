"""Differential test: incremental counting against the per-cell oracles.

Hypothesis scripts random repositories (adds, deletes, renames, edits, the
same content at two paths, symlinks, binary and oversized blobs, non-ASCII
text with CRLF line ends, merged side branches, out-of-order and equal
timestamps, an optional wiki whose commits keep the order drawn, so their
timestamps may go backwards) and random run
settings (exclude globs, a small per-file cap, a small size cap). On each
repository ``run_scan`` must render the same report, byte for byte, as
``oracle_history.run_scan_oracle``, and ``run_history`` the same as
``oracle_history.run_history_oracle``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from conftest import RepoBuilder  # noqa: E402
from oracle_history import run_history_oracle, run_scan_oracle  # noqa: E402
from staleref import matching  # noqa: E402
from staleref.pipeline import RunConfig, run_history, run_scan  # noqa: E402
from staleref.reporting import render_findings  # noqa: E402

T0 = 1_600_000_000
STEP = 10_000

PATHS = ["src/a.py", "src/b.py", "lib/util.py", "vendor/dep.py", "docs/n.txt"]
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
CITED = ["alpha_fn", "beta_fn()", "GammaKit", "lib/util.py", "util.py", "/src/a.py", "ghost_fn"]

path_st = st.sampled_from(PATHS)
op_st = st.one_of(
    st.tuples(st.just("write"), path_st, st.sampled_from(CONTENTS)),
    st.tuples(st.just("delete"), path_st),
    st.tuples(st.just("rename"), path_st, path_st),
    st.tuples(st.just("copy"), path_st, path_st),
    st.tuples(st.just("link"), path_st, st.sampled_from(LINK_TARGETS)),
    st.tuples(st.just("readme"), st.lists(st.sampled_from(CITED), min_size=2, max_size=6)),
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
    if target.is_symlink() or target.exists():
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
        if source == dest or not (source.exists() or source.is_symlink()):
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
    elif kind == "readme":
        cites = " ".join(f"Use `{element}` here." for element in op[1])
        (root / "README.md").write_text(f"Intro.\n{cites}\n", encoding="utf-8")
    elif kind == "readme_delete":
        _remove(root / "README.md")


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
)
def test_incremental_history_matches_per_cell_oracle(
    steps, wiki_steps, exclude, max_file_bytes, cap
):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        repo, wiki = _build(Path(tmp), steps, wiki_steps)
        if cap is not None:
            mp.setattr(matching, "MAX_COUNT_PER_FILE", cap)
        config = RunConfig(
            repo_path=repo,
            wiki_path=wiki,
            exclude_globs=exclude,
            max_file_bytes=max_file_bytes,
            scan_time=T0 + 100 * STEP,
        )
        expected_scan = run_scan_oracle(config)
        got_scan = run_scan(config)
        assert got_scan.warnings == expected_scan.warnings
        assert render_findings(got_scan) == render_findings(expected_scan)

        expected = run_history_oracle(config)
        got = run_history(config)
        assert _symbols(got) == _symbols(expected)
        assert got.warnings == expected.warnings
        assert render_findings(got) == render_findings(expected)
