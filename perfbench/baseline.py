"""Measure every workload over a range of seeds and write baseline.json.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1-3 --out perfbench/baseline.json

Run from the repository root. Each seed is one ``run.py`` invocation with the
``run_seconds`` of BENCHMARK.json, so ten seeds on three workloads take about
twenty minutes. For every end-to-end metric the file records the values, the
median, the quartiles from ``statistics.quantiles(values, n=4)``, and the
spread ``(q3 - q1) / median`` that the regression bounds are checked against.
Per-layer metrics are medians over the traced seeds. The environment (Python,
git, CPU count and model) is recorded with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _run(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    print(done.stdout, end="", flush=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    return result


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1-3")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    out = {
        "environment": {
            "python": platform.python_version(),
            "git": git,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
        },
        "run_seconds": config["run_seconds"],
        "seeds": _seeds(args.seeds),
        "traced_seeds": _seeds(args.traced_seeds),
        "workloads": {},
    }
    for workload in config["workloads"]:
        name = workload["name"]
        runs = [_run(config, name, seed, 0) for seed in _seeds(args.seeds)]
        traced = [_run(config, name, seed, 1) for seed in _seeds(args.traced_seeds)]
        end_to_end = {
            metric["name"]: _summary([r["metrics"][metric["name"]]["value"] for r in runs])
            for metric in config["end_to_end"]
        }
        per_layer = {
            metric["name"]: statistics.median(
                [r["metrics"][metric["name"]]["value"] for r in traced]
            )
            for metric in config["per_layer"]
        }
        out["workloads"][name] = {
            "why": workload["why"],
            "params": corpus.WORKLOADS[name]["full"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
