"""Benchmark of the staleref CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload history-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The bench generates the workload's
repositories from the seed under ``.perfbench_work/``, then runs the
checkout's own ``src/staleref`` CLI as a subprocess, one run at a time, and
checks every report against the planted truth. See README.md in this
directory for the workloads and metrics.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the CLI in-process under ``layertrace.py`` as well and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every run was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from check import check_report  # noqa: E402

CLI = "import sys; from staleref.cli import main; sys.exit(main())"

# Fresh-interpreter set-up every run pays before analysis: import the package
# and open each repository with its first-parent history.
SETUP = """\
import sys
import staleref
for path in sys.argv[1:]:
    repo = staleref.GitRepo(path)
    repo.linearize_history(repo.resolve_branch(None))
    repo.close()
"""

SETUP_PROBES = 9
MIN_SAMPLES = 3
MIN_TRACED = 2
RUN_TIMEOUT_S = 100
# A run during which the hypervisor took more than this share of the run's
# wall time from the machine measures the neighbours, not staleref.
STEAL_LIMIT = 0.1

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
COUNT_KEYS = frozenset({
    "revgraph.git_spawns", "revgraph.tree_entries_calls", "revgraph.blob_reads",
    "docdiscovery.documents", "extraction.calls", "extraction.refs",
    "matching.count_instances_calls", "matching.count_occurrences_calls",
    "timeline.build_calls", "timeline.episodes",
})
BYTE_KEYS = frozenset({"revgraph.blob_bytes", "extraction.doc_bytes", "reporting.render_bytes"})
PER_LAYER = (
    "revgraph.git_spawns", "revgraph.git_wait_s", "revgraph.tree_entries_calls",
    "revgraph.tree_entries_s", "revgraph.blob_reads", "revgraph.blob_bytes",
    "revgraph.blob_read_s", "revgraph.self_s", "docdiscovery.documents",
    "docdiscovery.s", "extraction.calls", "extraction.doc_bytes", "extraction.refs",
    "extraction.s", "matching.count_instances_calls", "matching.count_instances_self_s",
    "matching.count_occurrences_calls", "matching.count_occurrences_s",
    "matching.count_hit_ratio", "timeline.build_calls", "timeline.build_self_s",
    "timeline.detect_s", "timeline.episodes", "reporting.aggregate_s",
    "reporting.render_s", "reporting.render_bytes", "pipeline.self_s", "cli.self_s",
    "trace.wall_s", "trace.overhead_ratio",
)


def unit_of(name: str) -> str:
    if name in COUNT_KEYS:
        return "count"
    if name in BYTE_KEYS:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


@dataclass
class Sample:
    wall_s: float  # launch to exit
    cpu_s: float
    peak_rss_mb: float
    steal_s: float  # host steal while the run was alive
    trace: dict | None = None

    @property
    def net_wall_s(self) -> float:
        return self.wall_s - self.steal_s


class Bench:
    """Runs the CLI on one generated corpus and checks every report."""

    def __init__(self, root: Path, built: corpus.Corpus, work: Path):
        self.corpus = built
        self.work = work
        self.env = corpus.git_env(built.repo.parent / "home")
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems[:5]]

    def setup_time(self) -> float | None:
        """Launch-to-exit time of one set-up probe, net of host steal."""
        paths = [str(self.corpus.repo)] + ([str(self.corpus.wiki)] if self.corpus.wiki else [])
        steal0 = _steal_seconds()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP, *paths],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            self.problems.append(f"set-up probe failed: {done.stderr.strip()[-300:]}")
            return None
        return wall - (_steal_seconds() - steal0)

    def invoke(self, traced: bool = False) -> Sample | None:
        """One CLI run from launch to exit; None when it failed a check."""
        self.attempted += 1
        n = self.attempted
        out = self.work / f"report-{n}.json"
        trace_file = self.work / f"trace-{n}.json"
        args = self.corpus.cli_args(out)
        if traced:
            cmd = [sys.executable, str(HERE / "layertrace.py"), str(trace_file), *args]
        else:
            cmd = [sys.executable, "-c", CLI, *args]
        with open(self.work / "stderr.txt", "wb") as err:
            steal0 = _steal_seconds()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            # A hung run is killed, so that the bench still ends in time.
            watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            steal = _steal_seconds() - steal0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        what = f"run {n}{' (traced)' if traced else ''}"
        try:
            report = out.read_bytes()
        except OSError as exc:
            stderr = (self.work / "stderr.txt").read_text(errors="replace").strip()
            self._fail(what, [f"no report ({exc}); exit {code}; {stderr[-300:]}"])
            return None
        finally:
            out.unlink(missing_ok=True)
        problems = check_report(self.corpus.manifest, report, code)
        digest = hashlib.sha256(report).hexdigest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"report sha256 {digest} differs from the first run's {self.reference}")
        trace = None
        if traced:
            try:
                trace = json.loads(trace_file.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"no trace ({exc})")
            else:
                balance = abs(trace["trace.self_sum_s"] - trace["trace.root_s"])
                if balance > 1e-4 * trace["trace.root_s"] + 1e-6:
                    problems.append(
                        f"layer self times sum to {trace['trace.self_sum_s']:.6f} s, "
                        f"traced wall is {trace['trace.root_s']:.6f} s"
                    )
                if trace["trace.orphan_threads"]:
                    problems.append("spans ran in threads outside any pool section")
            trace_file.unlink(missing_ok=True)
        if problems:
            self._fail(what, problems)
            return None
        return Sample(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, steal, trace
        )

    def collect(self, seconds: float, minimum: int, traced: bool = False,
                setups: list[float] | None = None) -> list[Sample]:
        """Run the CLI for *seconds* (at least *minimum* runs), stopping at a failure.

        With *setups*, a set-up probe follows every run, so that set-up time
        is sampled across the same stretch of machine load as the runs.
        """
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < minimum or time.perf_counter() < deadline:
            sample = self.invoke(traced)
            if sample is None:
                break
            samples.append(sample)
            if setups is not None:
                setups.append(self.setup_time())
        return samples


def _steal_seconds() -> float:
    """CPU time the hypervisor took from this machine so far; 0 where Linux does not say."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def steady(samples: list[Sample]) -> list[Sample]:
    """The samples timed while the host left the machine alone.

    Those are the runs whose host steal stayed within STEAL_LIMIT of their
    wall time. When fewer than MIN_SAMPLES qualify, the MIN_SAMPLES least
    affected runs stand in. Every run is still checked for correctness.
    """
    clean = [s for s in samples if s.steal_s <= STEAL_LIMIT * s.wall_s]
    if len(clean) < MIN_SAMPLES:
        clean = sorted(samples, key=lambda s: s.steal_s / s.wall_s)[:MIN_SAMPLES]
    return clean


def _median(values: list[float]) -> float:
    # A run whose samples all failed still prints a parseable result.
    return statistics.median(values) if values else 0.0


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and human-readable lines."""
    work = root / ".perfbench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        built = corpus.build(workload, seed, work / "corpus", size)
        bench = Bench(root, built, work)
        lines = [f"workload {workload} seed {seed} size {size}: staleref {built.mode}"]
        metrics: dict = {}
        bench.invoke()  # warm-up: page cache and bytecode; sets the reference report
        steal_before = _steal_seconds()
        if not trace:
            setups: list = []
            samples = bench.collect(seconds, MIN_SAMPLES, setups=setups)
            setups += [bench.setup_time() for _ in range(SETUP_PROBES - len(setups))]
            setups = [s for s in setups if s is not None]
            kept = steady(samples)
            values = {
                "wall_s": [s.net_wall_s for s in kept],
                "cpu_s": [s.cpu_s for s in kept],
                "peak_rss_mb": [s.peak_rss_mb for s in kept],
                "setup_s": setups,
            }
            lines.append(
                f"  {len(kept)} of {len(samples)} runs timed with host steal within "
                f"{STEAL_LIMIT:.0%} of their wall time (or the {MIN_SAMPLES} least affected)"
            )
            for name, unit in END_TO_END:
                vals = values[name]
                metrics[name] = {"value": _median(vals), "unit": unit}
                if vals:
                    lines.append(
                        f"  {name:<12} {_median(vals):10.4f} {unit:<3} median of {len(vals)}"
                        f" (min {min(vals):.4f}, max {max(vals):.4f})"
                    )
            lines.append(
                f"  wall_s and setup_s are net of host steal; raw wall_s median "
                f"{_median([s.wall_s for s in kept]):.4f} s"
            )
        else:
            plain = steady(bench.collect(seconds / 2, MIN_SAMPLES))
            traced = steady(bench.collect(seconds / 2, MIN_TRACED, traced=True))
            plain_wall = _median([s.net_wall_s for s in plain])
            layers = {
                key: _median([s.trace.get(key, 0.0) for s in traced])
                for key in PER_LAYER
                if not key.startswith("trace.")
            }
            layers["trace.wall_s"] = _median([s.trace["trace.root_s"] for s in traced])
            traced_wall = _median([s.net_wall_s for s in traced])
            layers["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0
            for key in PER_LAYER:
                metrics[key] = {"value": layers[key], "unit": unit_of(key)}
            lines.append(
                f"  per-layer medians of {len(traced)} traced runs; "
                f"untraced wall_s median of {len(plain)}: {plain_wall:.4f} s"
            )
            for key in PER_LAYER:
                lines.append(f"  {key:<34} {layers[key]:14.4f} {unit_of(key)}")
        lines.append(f"  host steal during the measured runs: {_steal_seconds() - steal_before:.2f} s")
        ratio = bench.failed / bench.attempted
        lines.append(
            f"  failed_ratio {ratio:.4f} ({bench.failed} of {bench.attempted} runs failed)"
        )
        lines += [f"  problem: {p}" for p in bench.problems[:20]]
        correct = bench.failed == 0 and not bench.problems
        result = {
            "correct": correct,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
        return result, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "staleref" / "cli.py").is_file():
        print(f"error: no staleref sources under {root / 'src'}", file=sys.stderr)
        return 2
    result, lines = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
