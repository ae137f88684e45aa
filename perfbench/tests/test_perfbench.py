"""Tests of the benchmark itself: generator, checker and a smoke run of each workload.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
None of these tests gates on wall-clock time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
from check import check_report  # noqa: E402

WORKLOADS = sorted(corpus.WORKLOADS)


def _heads(built: corpus.Corpus) -> list[str]:
    repos = [built.repo] + ([built.wiki] if built.wiki else [])
    return [
        subprocess.run(
            ["git", "-C", str(r), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for r in repos
    ]


def _cli_report(built: corpus.Corpus, tmp_path: Path) -> tuple[bytes, int]:
    out = tmp_path / "report.json"
    env = corpus.git_env(built.repo.parent / "home")
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-c", run.CLI, *built.cli_args(out)], env=env)
    return out.read_bytes(), done.returncode


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_shas_other_seed_other_shas(workload, tmp_path):
    first = _heads(corpus.build(workload, 7, tmp_path / "a", "smoke"))
    again = _heads(corpus.build(workload, 7, tmp_path / "b", "smoke"))
    other = _heads(corpus.build(workload, 8, tmp_path / "c", "smoke"))
    assert first == again
    assert all(x != y for x, y in zip(first, other))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_accepts_real_report_and_rejects_tampering(workload, tmp_path):
    built = corpus.build(workload, 3, tmp_path / "corpus", "smoke")
    report, code = _cli_report(built, tmp_path)
    manifest = built.manifest
    assert check_report(manifest, report, code) == []
    assert check_report(manifest, report, code + 1)

    data = json.loads(report)
    finding = data["findings"][0]
    if manifest["mode"] == "scan":
        finding["status"] = "in_sync" if finding["status"] != "in_sync" else "outdated"
    else:
        finding["episodes"] = (finding["episodes"] or []) + [
            {"start_ordinal": 0, "end_ordinal": None, "fix": None, "duration_seconds": 1}
        ]
    assert check_report(manifest, json.dumps(data).encode(), code)

    dropped = json.loads(report)
    dropped["findings"].pop()
    assert check_report(manifest, json.dumps(dropped).encode(), code)
    assert check_report(manifest, b"not json", code)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_end_to_end(workload, trace):
    result, lines = run.measure(ROOT, workload, 5, 0.1, trace, size="smoke")
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1 + run.MIN_SAMPLES
    expected = run.PER_LAYER if trace else [name for name, _ in run.END_TO_END]
    assert sorted(result["metrics"]) == sorted(expected)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace:
        assert result["metrics"]["revgraph.git_spawns"]["value"] > 0
        assert result["metrics"]["extraction.calls"]["value"] > 0
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_lists_what_run_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(corpus.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in config["per_layer"]] == list(run.PER_LAYER)
    for metric in config["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]


def test_steady_drops_runs_the_host_stole_from():
    calm = [run.Sample(2.0, 2.0, 30.0, 0.05) for _ in range(4)]
    stolen = [run.Sample(4.0, 2.2, 30.0, 2.0) for _ in range(3)]
    assert run.steady(calm + stolen) == calm
    burst = [run.Sample(4.0 + i, 2.2, 30.0, 3.0 - i * 0.5) for i in range(5)]
    assert run.steady(burst) == burst[-run.MIN_SAMPLES:][::-1]
