"""Acceptance gate.

Each test here pins one shipped guarantee and is reported as a single
PASS/FAIL line in the run summary (see the criterion marker in conftest).
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time

import pytest

import oracle_revgraph
import scenarios
from repo_builder import RepoBuilder
from oracle_episodes import episodes_oracle
from oracle_history import SourceScanner
from staleref import (
    FIX_DOC_DELETE,
    FIX_DOC_UPDATE,
    FIX_SOURCE_CHANGE,
    GitRepo,
    MatchConfig,
    Revision,
    RevisionSequence,
    RunConfig,
    count_occurrences,
    detect_episodes,
    expand_path_variants,
    extract_elements,
    render_findings,
    run_history,
    run_scan,
    survival_curve,
)
from staleref.matching import HistoryCounter
from staleref.revgraph import Branch

# Tests that reach an outside host run only when this variable is "1".
NETWORK_OPT_IN = "STALEREF_TEST_NETWORK"


def revs(n):
    return tuple(Revision(f"{i:040x}", 1_600_000_000 + i * 100, i) for i in range(n))


def tl(symbols):
    """Arguments for ``detect_episodes``: the symbols and their revisions."""
    return tuple(symbols), revs(len(symbols))


def shape(episodes):
    return [(e.start_ordinal, e.end_ordinal, e.fix.kind if e.fix else None) for e in episodes]


@pytest.mark.criterion("regex golden set: template, backtick, and bare-url cases exact (<1s)")
def test_regex_golden_suite():
    start = time.monotonic()
    cases = [
        ("use `Worker<T>` and ArrayList<String>", ["Worker<T>", "ArrayList<String>"]),
        ("returns Callback<SimpleResponse> to the caller", ["Callback<SimpleResponse>"]),
        ("see https://example.com/page for details", []),
        ("", []),
    ]
    for text, expected in cases:
        assert [r.text for r in extract_elements(text)] == expected, text

    text = "run `renderFiles('./files')` after edits"
    refs = extract_elements(text)
    assert [r.text for r in refs] == ["renderFiles('./files')"]
    lo, hi = refs[0].span
    assert text[lo:hi] == "renderFiles('./files')"
    assert time.monotonic() - start < 1.0


@pytest.mark.criterion("path reference expands to exactly six variants")
def test_path_variant_suite():
    assert expand_path_variants(["path/to/file.py"]) == {
        "/path/to/file.py",
        "path/to/file.py",
        "/to/file.py",
        "to/file.py",
        "/file.py",
        "file.py",
    }


@pytest.mark.criterion("scan flags exactly the planted references in >=10 scripted repos (<60s)")
def test_synthetic_end_to_end(tmp_path):
    start = time.monotonic()
    manifests = scenarios.build_all(tmp_path)
    assert len(manifests) >= 10
    names = {m["name"] for m in manifests}
    assert {"doc_newer_than_head", "equal_timestamp", "path_variant_only"} <= names
    for manifest in manifests:
        report = run_scan(scenarios.config_for(manifest))
        got = {
            (f.document.origin, f.document.path, f.element_text): f.status
            for f in report.findings
        }
        assert got == manifest["expected"], manifest["name"]
        for finding in report.findings:
            if finding.status == "outdated":
                assert finding.snapshot_count > 0 and finding.current_count == 0
    assert time.monotonic() - start < 60.0


@pytest.mark.criterion("a detached HEAD reports as its branch does; a moved README ends in a report")
def test_checkout_shapes(tmp_path):
    detached = scenarios.build_detached_head(tmp_path)
    for run in (run_scan, run_history):
        assert render_findings(run(scenarios.config_for(detached))) == render_findings(
            run(scenarios.config_for(detached, branch=detached["same_as_branch"]))
        ), run.__name__
    moved = scenarios.build_readme_moved(tmp_path)
    scan = run_scan(scenarios.config_for(moved))
    assert (scan.findings, scan.warnings) == ([], [])
    history = run_history(scenarios.config_for(moved))
    assert {f.element_text: list(f.symbols) for f in history.findings} == {
        "move_fn()": [1, ".", "."]
    }


@pytest.mark.criterion("a cat-file child that dies mid-read ends in a report and a warning")
def test_catfile_child_death(tmp_path):
    manifest = scenarios.build_catfile_death(tmp_path)
    for target, died in manifest["died"].items():
        for run in (run_scan, run_history):
            with scenarios.catfile_dies_at(died["blob"]):
                report = run(scenarios.config_for(manifest))
            [warning] = report.warnings
            assert warning["kind"] == died["warning"], (target, run.__name__)
            assert "cat-file exited before it answered" in warning["detail"]
            got = {
                (f.document.origin, f.document.path, f.element_text):
                    f.status if run is run_scan else list(f.symbols)
                for f in report.findings
            }
            assert got == died["expected" if run is run_scan else "history"], (
                target, run.__name__
            )


@pytest.mark.criterion("replica fixture yields outdated counts exactly 1->0 and 21->0")
def test_two_element_count_replica(tmp_path):
    repo = RepoBuilder(tmp_path / "replica")
    flag_lines = "".join(f"set(flag_{i} fwrapv)\n" for i in range(21))
    repo.commit(scenarios.T0, {
        "README.md": "Define `BUILD_NAMESPACE` and compile with `fwrapv`.\n",
        "src/config.h": "#define BUILD_NAMESPACE ns\n",
        "make/flags.cmake": flag_lines,
    })
    repo.commit(scenarios.T0 + 1000, {
        "src/config.h": "#define OTHER_NAME ns\n",
        "make/flags.cmake": "set(flag_0 fno-common)\n",
    })
    report = run_scan(
        RunConfig(repo_path=str(repo.path), scan_time=scenarios.T0 + 2000)
    )
    by_element = {f.element_text: f for f in report.findings}
    a = by_element["BUILD_NAMESPACE"]
    b = by_element["fwrapv"]
    assert (a.status, a.snapshot_count, a.current_count) == ("outdated", 1, 0)
    assert (b.status, b.snapshot_count, b.current_count) == ("outdated", 21, 0)


@pytest.mark.criterion("timeline suite: ongoing merge, doc-update fix, all three fix kinds")
def test_timeline_suite():
    merged = detect_episodes(*tl([2, 0, 0, ".", 0, 0, 0]))
    assert shape(merged) == [(1, None, None)]
    assert merged[0].ongoing

    assert shape(detect_episodes(*tl([3, 3, 0, 0, 0, 0, "-"]))) == [(2, 6, FIX_DOC_UPDATE)]

    assert shape(detect_episodes(*tl([1, 0, 2]))) == [(1, 2, FIX_SOURCE_CHANGE)]
    assert shape(detect_episodes(*tl([1, 0, "-"]))) == [(1, 2, FIX_DOC_UPDATE)]
    assert shape(detect_episodes(*tl([1, 0, "."]))) == [(1, 2, FIX_DOC_DELETE)]


@pytest.mark.criterion("episode detection equals the exhaustive oracle on >=500 histories (<30s)")
def test_brute_force_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20260814)
    alphabet = [".", "-", 0, 0, 1, 2, 4]
    cases = 0
    for _ in range(520):
        n_revisions = rng.randint(1, 8)
        for _ in range(rng.randint(1, 5)):
            symbols = [rng.choice(alphabet) for _ in range(n_revisions)]
            assert shape(detect_episodes(*tl(symbols))) == episodes_oracle(symbols), symbols
        cases += 1
    assert cases >= 500
    assert time.monotonic() - start < 30.0


@pytest.mark.criterion("whole-word counts equal a naive regex scanner on 1000 random texts")
def test_whole_word_property():
    rng = random.Random(424242)
    alphabet = "ab _1.x()\n"
    elements = ["ab", "a_1", "x", "ab1", "a"]
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        for element in elements:
            naive = len(re.findall(rf"\b{re.escape(element)}\b", text))
            assert count_occurrences(element, text)[0] == naive, (element, text)


@pytest.mark.criterion("survival curve starts at 1.0, never increases, strictly-greater rule")
def test_survival_curve_properties():
    durations = [10, 20, 30]
    assert survival_curve(durations, [0]) == [(0.0, 1.0)]
    assert survival_curve(durations, [15]) == [(15.0, pytest.approx(2 / 3))]
    assert survival_curve(durations, [30]) == [(30.0, 0.0)]
    assert survival_curve([42] * 4, [41, 42]) == [(41.0, 1.0), (42.0, 0.0)]

    grid = [0, 5, 10, 15, 20, 25, 30, 35]
    fractions = [f for _, f in survival_curve(durations, grid)]
    assert fractions[0] == 1.0
    assert all(x >= y for x, y in zip(fractions, fractions[1:]))


@pytest.mark.criterion("history reports are byte-identical across runs")
def test_history_determinism(tmp_path):
    repo = RepoBuilder(tmp_path / "det")
    repo.commit(scenarios.T0, {
        "README.md": "Use `det_a()` with `det_b()` and `det_c()`.\n",
        "src/a.py": "def det_a():\n    pass\n",
        "src/b.py": "def det_b():\n    pass\n\ndef det_c():\n    pass\n",
    })
    repo.commit(scenarios.T0 + 1000, {"src/a.py": None})
    repo.commit(scenarios.T0 + 2000, {"src/b.py": "def det_b():\n    pass\n"})

    env = {k: v for k, v in os.environ.items() if not k.startswith("STALEREF_")}
    payloads = []
    # Separate processes with different hash seeds catch set-order leaks.
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run{hash_seed}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "staleref.cli", "history",
                "--repo", str(repo.path),
                "--scan-time", str(scenarios.T0 + 5000),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={**env, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 1, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


def count_off_chain(repo, shas, elements, config) -> dict[str, tuple[int, ...]]:
    """Counts of *elements* at commits that need not lie on the first-parent
    chain: the counter runs over a sequence of revision 0 and *shas*, in
    that order, and must agree with the oracle, which counts each commit
    from its own tree listing. The two-call reader of ``oracle_revgraph``
    diffs each of them against the one before it."""
    seq = RevisionSequence((repo.linearize_history().revisions[0],) + tuple(
        Revision(sha, 0, i) for i, sha in enumerate(shas, start=1)
    ))
    counter = HistoryCounter(
        Branch(repo, seq, oracle_revgraph.first_parent_changes(repo, seq)), config,
        frozenset(elements),
    )
    counts = {}
    scanner = SourceScanner(repo, config)
    for revision in counter.walk(seq.revisions[:0:-1]):
        counts[revision.sha] = tuple(counter.count(e, revision) for e in elements)
        assert counts[revision.sha] == tuple(
            scanner.count_instances(e, revision).count for e in elements
        ), revision.sha
    return counts


def test_counts_off_chain_commits(tmp_path):
    # The offline half of the check below: commits of an unmerged branch.
    repo = RepoBuilder(tmp_path / "offchain")
    repo.commit(scenarios.T0, {"README.md": "r\n", "a.c": "fPIC fPIC\n"})
    repo.commit(scenarios.T0 + 10, {"b.c": "NS\n"})
    repo.branch("side")
    first = repo.commit(scenarios.T0 + 20, {"a.c": "fPIC\n", "c.c": "NS NS\n"})
    second = repo.commit(scenarios.T0 + 30, {"b.c": None, "a.c": "none\n"})
    third = repo.commit(scenarios.T0 + 40, {"a.c": "fPIC\n"})
    repo.checkout("main")
    repo.commit(scenarios.T0 + 50, {"d.c": "fPIC NS\n"})
    git_repo = GitRepo(str(repo.path))
    counts = count_off_chain(
        git_repo, (first, second, third), ("NS", "fPIC"), MatchConfig(exclude_globs=("README*",))
    )
    assert counts == {first: (3, 1), second: (2, 0), third: (2, 1)}


@pytest.mark.criterion("pinned real-world repository counts (network, optional)")
def test_pinned_real_world_counts(tmp_path):
    if os.environ.get(NETWORK_OPT_IN) != "1":
        pytest.skip(f"clones github.com/google/glog; set {NETWORK_OPT_IN}=1 to run it")
    snapshot_sha = "921651e97c3892e656287f1cfa923319f0799729"
    namespace_fix_sha = "abce78806c8a93d99cf63a5a44ff09873f46b56f"
    fpic_fix_sha = "b539557b3692c9c68d4e91d3cc920e8d14490d46"
    try:
        clone = subprocess.run(
            ["git", "clone", "--quiet", "https://github.com/google/glog",
             str(tmp_path / "glog")],
            capture_output=True,
            text=True,
            timeout=120,
        )
    except subprocess.TimeoutExpired:
        pytest.skip("network unavailable")
    if clone.returncode != 0:
        pytest.skip("network unavailable")

    repo = GitRepo(str(tmp_path / "glog"))
    counts = count_off_chain(
        repo, (snapshot_sha, namespace_fix_sha, fpic_fix_sha),
        ("DGFLAGS_NAMESPACE", "fPIC"), MatchConfig(exclude_globs=("README*",)),
    )
    assert counts[snapshot_sha] == (1, 21)
    assert counts[namespace_fix_sha][0] == 0
    assert counts[fpic_fix_sha][1] == 0
