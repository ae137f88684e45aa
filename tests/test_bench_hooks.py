"""The names of the package that the bench in ``perfbench/`` calls still work.

The bench runs ``run.SETUP``, which opens each repository and calls
``GitRepo.close``, and ``layertrace.py``, whose per-layer counters wrap
names such as ``extract_elements``. A change that drops one of them passes
every other test here and fails every bench run, so both run once on the
history-wiki smoke corpus.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.append(str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402


def test_bench_setup_and_layer_trace_run(tmp_path):
    built = corpus.build("history-wiki", 1, tmp_path / "corpus", size="smoke")
    env = corpus.git_env(tmp_path / "corpus" / "home")
    env["PYTHONPATH"] = str(ROOT / "src")
    setup = subprocess.run(
        [sys.executable, "-c", run.SETUP, str(built.repo), str(built.wiki)],
        env=env, capture_output=True, text=True,
    )
    assert (setup.returncode, setup.stderr) == (0, "")

    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "layertrace.py"), str(trace),
         *built.cli_args(tmp_path / "report.json")],
        env=env, capture_output=True, text=True,
    )
    assert traced.returncode == built.manifest["expected_exit"], traced.stderr
    metrics = json.loads(trace.read_text(encoding="utf-8"))
    assert metrics["extraction.calls"] > 0
    assert metrics["revgraph.git_spawns"] > 0
