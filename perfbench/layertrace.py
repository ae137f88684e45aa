"""Per-layer tracing of one in-process staleref CLI run.

Run as a script, this module wraps the public functions of each staleref
module, calls ``staleref.cli.main`` with the remaining arguments inside a root
span, writes the per-layer totals as JSON and exits with the CLI's exit
code::

    PYTHONPATH=src python3 perfbench/layertrace.py TRACE.json history --repo ...

Nothing under ``src/`` is changed: every wrapper is installed from here, on
the defining module and on every module that imported the name.

Self time is a span's duration minus the time its child spans cover. Each
wrapped function belongs to one bucket (a layer), and a bucket's self time is
the sum over its spans, so the buckets add up to the root span. Two kinds of
call are aggregated instead of being spans, to keep overhead bounded:
``count_occurrences`` (hundreds of thousands of calls) adds its time and hit
count to its caller's totals, and git launches are counted at
``subprocess.Popen``.

Worker threads: the CLI counts with a thread pool (``--jobs``, default one
thread per CPU). Under the interpreter lock only one thread runs Python at a
time, so a pool thread's wall time also holds its waits for the lock while
another thread works. Spans in pool threads are therefore timed with the
thread's CPU clock, and the wall time of each ``_parallel_map`` call is
apportioned by CPU share: every bucket gets ``its CPU seconds x section wall
/ all CPU seconds spent in the section`` (pool threads plus the main
thread). The CPU the pool threads spend outside spans and the main thread's
share stay with the pipeline. Counts are never scaled.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from collections import defaultdict

# Buckets whose self times partition the root span.
SELF_KEYS = (
    "revgraph.self_s", "docdiscovery.s", "extraction.s",
    "matching.count_instances_self_s", "matching.count_occurrences_s",
    "timeline.build_self_s", "timeline.detect_s", "reporting.aggregate_s",
    "reporting.render_s", "pipeline.self_s", "cli.self_s",
)
# Every per-layer time; pool-thread values of these are scaled.
TIME_KEYS = frozenset(SELF_KEYS) | {
    "revgraph.git_wait_s", "revgraph.tree_entries_s", "revgraph.blob_read_s",
}

_wall = time.perf_counter
_cpu = time.thread_time


class _ThreadState:
    __slots__ = ("clock", "stack", "acc", "top", "first", "last", "in_run")

    def __init__(self, clock):
        self.clock = clock  # wall clock on the main thread, CPU clock in the pool
        self.stack: list[list[float]] = []  # one [child_time] cell per open span
        self.acc: defaultdict = defaultdict(float)
        self.top = 0.0  # summed duration of spans opened with an empty stack
        self.first: float | None = None  # clock at the first top-level span
        self.last = 0.0  # clock at the end of the last top-level span
        self.in_run = False


class Tracer:
    """Span bookkeeping for one traced process."""

    def __init__(self):
        self._local = threading.local()
        self._main = _ThreadState(_wall)
        self._main_ident = threading.get_ident()
        self._lock = threading.Lock()
        self._section: list[_ThreadState] | None = None
        self.orphans = 0  # pool-thread states created outside any pool section
        self.root_totals: dict | None = None
        self.root_s = 0.0

    def state(self) -> _ThreadState:
        if threading.get_ident() == self._main_ident:
            return self._main
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(_cpu)
            with self._lock:
                if self._section is None:
                    self.orphans += 1
                else:
                    self._section.append(st)
        return st

    @staticmethod
    def _close(st: _ThreadState, t0: float, t1: float) -> None:
        """Credit a finished span or leaf of length t1 - t0 to its parent."""
        if st.stack:
            st.stack[-1][0] += t1 - t0
        else:
            st.top += t1 - t0
            if st.first is None:
                st.first = t0
            st.last = t1

    # -- wrappers ---------------------------------------------------------------

    def span(self, fn, bucket, calls=None, inclusive=None, on_result=None):
        def wrapper(*args, **kwargs):
            st = self.state()
            cell = [0.0]
            st.stack.append(cell)
            t0 = st.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = st.clock()
                st.stack.pop()
                acc = st.acc
                acc[bucket] += t1 - t0 - cell[0]
                self._close(st, t0, t1)
                if calls:
                    acc[calls] += 1
                if inclusive:
                    acc[inclusive] += t1 - t0
            if on_result is not None:
                on_result(acc, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_count_occurrences(self, fn):
        def wrapper(*args, **kwargs):
            st = self.state()
            t0 = st.clock()
            result = fn(*args, **kwargs)
            t1 = st.clock()
            acc = st.acc
            acc["matching.count_occurrences_s"] += t1 - t0
            acc["matching.count_occurrences_calls"] += 1
            if result[0] > 0:
                acc["matching.count_occurrences_hits"] += 1
            self._close(st, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def parallel(self, fn):
        """Span around ``_parallel_map`` that folds its pool threads back in."""

        def wrapper(*args, **kwargs):
            st = self._main
            cell = [0.0]
            st.stack.append(cell)
            section: list[_ThreadState] = []
            self._section = section
            t0, c0 = _wall(), _cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, c1 = _wall(), _cpu()
                self._section = None
                st.stack.pop()
                active = [w for w in section if w.first is not None]
                pool_cpu = sum(w.last - w.first for w in active)
                total_cpu = pool_cpu + (c1 - c0)
                scale = (t1 - t0) / total_cpu if total_cpu > 0 else 0.0
                for w in section:
                    for key, value in w.acc.items():
                        st.acc[key] += value * scale if key in TIME_KEYS else value
                cell[0] += sum(w.top for w in active) * scale
                st.acc["pipeline.self_s"] += t1 - t0 - cell[0]
                self._close(st, t0, t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, fn):
        wrapped = self.span(fn, "cli.self_s")

        def wrapper(*args, **kwargs):
            top = self._main.top
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.root_s = self._main.top - top
                self.root_totals = dict(self._main.acc)

        return wrapper

    # -- git launches -------------------------------------------------------------

    def install_subprocess(self) -> None:
        tracer = self
        original_run = subprocess.run

        class CountingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                st = tracer.state()
                st.acc["revgraph.git_spawns"] += 1
                t0 = st.clock()
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    if not st.in_run:
                        st.acc["revgraph.git_wait_s"] += st.clock() - t0

        def run(*args, **kwargs):
            st = tracer.state()
            st.in_run = True
            t0 = st.clock()
            try:
                return original_run(*args, **kwargs)
            finally:
                st.in_run = False
                st.acc["revgraph.git_wait_s"] += st.clock() - t0

        subprocess.Popen = CountingPopen
        subprocess.run = run


def _replace_everywhere(original, replacement) -> None:
    """Rebind every staleref module-level name that refers to *original*."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "staleref" or name.startswith("staleref.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the layer functions of staleref; returns the wrapped ``cli.main``."""
    import staleref.cli as cli
    import staleref.docdiscovery as docdiscovery
    import staleref.extraction as extraction
    import staleref.matching as matching
    import staleref.pipeline as pipeline
    import staleref.reporting as reporting
    import staleref.revgraph as revgraph
    import staleref.timeline as timeline

    def add(key, amount):
        def on_result(acc, args, result):
            acc[key] += amount(args, result)
        return on_result

    def blob_stats(acc, args, result):
        acc["revgraph.blob_reads"] += 1
        acc["revgraph.blob_bytes"] += len(result)

    def extraction_stats(acc, args, result):
        acc["extraction.doc_bytes"] += len(args[0].encode("utf-8"))
        acc["extraction.refs"] += len(result)

    # Names a later refactor removes are skipped; their metrics then read 0.
    def wrap_methods(cls, names, **options):
        for name in names:
            if cls is not None and hasattr(cls, name):
                setattr(cls, name, tracer.span(getattr(cls, name), **options))

    repo_cls = getattr(revgraph, "GitRepo", None)
    wrap_methods(repo_cls, (
        "__init__", "close", "resolve_branch", "linearize_history", "last_touch",
        "remote_url", "tree_at", "_entry_map", "blob_sha", "read_blob",
    ), bucket="revgraph.self_s")
    wrap_methods(repo_cls, ("tree_entries",), bucket="revgraph.self_s",
                 calls="revgraph.tree_entries_calls", inclusive="revgraph.tree_entries_s")
    wrap_methods(repo_cls, ("read_blob_bytes",), bucket="revgraph.self_s",
                 inclusive="revgraph.blob_read_s", on_result=blob_stats)
    wrap_methods(getattr(matching, "SourceScanner", None), ("count_instances",),
                 bucket="matching.count_instances_self_s",
                 calls="matching.count_instances_calls")

    functions = [
        (revgraph, "snapshot_for_doc", lambda f: tracer.span(f, "revgraph.self_s")),
        (revgraph, "link_source_to_docs", lambda f: tracer.span(f, "revgraph.self_s")),
        (docdiscovery, "discover_documents", lambda f: tracer.span(
            f, "docdiscovery.s", on_result=add("docdiscovery.documents", lambda a, r: len(r)))),
        (extraction, "extract_elements", lambda f: tracer.span(
            f, "extraction.s", calls="extraction.calls", on_result=extraction_stats)),
        (extraction, "default_catalog", lambda f: tracer.span(f, "extraction.s")),
        (extraction, "load_catalog", lambda f: tracer.span(f, "extraction.s")),
        (matching, "count_occurrences", tracer.leaf_count_occurrences),
        (timeline, "build_timeline", lambda f: tracer.span(
            f, "timeline.build_self_s", calls="timeline.build_calls")),
        (timeline, "detect_episodes", lambda f: tracer.span(
            f, "timeline.detect_s", on_result=add("timeline.episodes", lambda a, r: len(r)))),
        (timeline, "episode_duration", lambda f: tracer.span(f, "timeline.detect_s")),
        (reporting, "compute_aggregates", lambda f: tracer.span(f, "reporting.aggregate_s")),
        (reporting, "render_findings", lambda f: tracer.span(
            f, "reporting.render_s",
            on_result=add("reporting.render_bytes", lambda a, r: len(r.encode("utf-8"))))),
        (pipeline, "run_scan", lambda f: tracer.span(f, "pipeline.self_s")),
        (pipeline, "run_history", lambda f: tracer.span(f, "pipeline.self_s")),
        (pipeline, "_parallel_map", tracer.parallel),
    ]
    for module, name, make in functions:
        original = getattr(module, name, None)
        if original is not None:
            _replace_everywhere(original, make(original))
    tracer.install_subprocess()
    return tracer.root(cli.main)


def summarize(tracer: Tracer) -> dict:
    """Per-layer totals of the finished root span, plus the self-time balance.

    A metric whose layer never ran is absent; readers take it as 0.
    """
    acc = defaultdict(float, tracer.root_totals or {})
    hits = acc.pop("matching.count_occurrences_hits", 0.0)
    calls = acc["matching.count_occurrences_calls"]
    out = dict(acc)
    out["matching.count_hit_ratio"] = hits / calls if calls else 0.0
    out["trace.root_s"] = tracer.root_s
    out["trace.self_sum_s"] = sum(acc[key] for key in SELF_KEYS)
    out["trace.orphan_threads"] = tracer.orphans
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: layertrace.py TRACE.json STALEREF-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    traced_main = install(tracer)
    code = traced_main(argv[1:])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(summarize(tracer), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
