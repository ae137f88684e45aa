"""The byte manifest: the length and SHA-256 of every output a change must keep.

Each output is one text the program writes, under a key that says where it
comes from. The outputs fall into groups, each built in a directory of its
own:

* one group per scenario of ``scenarios.py``, run in scan and in history:
  the report as JSON and CSV, and the issue draft where a finding is
  currently outdated; JSON and CSV at every fake-deadline cut; and the runs
  whose ``cat-file`` child dies at the blob the scenario names. Every format
  is rendered from one run's report;
* ``corpora``: the bench's smoke corpora of every workload at seeds 1 and 21
  through ``cli.main``, with stdout, stderr and exit code of each run, and
  ``stats`` over their JSON reports;
* ``bad_settings``: each of ``scenarios.BAD_SETTINGS`` in scan and history
  through ``cli.main``, with stdout, stderr and exit code, against a
  repository path that does not exist. Of a refusal by argparse, which
  prints the refusing parser's usage and then one error line, stderr keeps
  the error line, and the usage is kept once per parser under
  ``usage/<prog>``, so renaming an option changes only those keys.

The group's directory reads ``<tmp>`` in every output before it is hashed.
The script needs no pytest, so any supported interpreter can check the
outputs: regenerate the manifest with it, and ``git diff`` shows what differs.

    python3 tests/byte_manifest.py --write    # regenerate byte_manifest.json
    python3 tests/byte_manifest.py --out DIR  # write every output under DIR

``--write`` prints how many keys it added, removed and changed, then each
removed and each changed key, so that a change can list them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "byte_manifest.json"
sys.path[:0] = [p for p in (str(HERE), str(HERE.parent / "src")) if p not in sys.path]
sys.path.append(str(HERE.parent / "perfbench"))

import corpus  # noqa: E402
import scenarios  # noqa: E402
from cuts import checks_of, cut_after  # noqa: E402
from staleref import cli  # noqa: E402
from staleref.pipeline import run_history, run_scan  # noqa: E402
from staleref.reporting import FORMAT_CSV, render_findings, render_issue_draft  # noqa: E402

PLACEHOLDER = "<tmp>"
RUNS = {"scan": run_scan, "history": run_history}
CLI_RUNS = {
    "json": [], "csv": ["--format", "csv"],
    "issue": ["--url-base", "https://example.invalid/proj", "--issue-draft", "-"],
}
SCENARIOS = {b.__name__.removeprefix("build_"): b for b in scenarios.SCENARIO_BUILDERS}
GROUPS = [*SCENARIOS, "corpora", "bad_settings"]


class Patches:
    """The part of ``pytest.MonkeyPatch`` that the outputs need: attributes
    set through ``setattr`` are undone when the ``context()`` that made the
    object exits."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    @classmethod
    @contextlib.contextmanager
    def context(cls):
        patches = cls()
        try:
            yield patches
        finally:
            for target, name, value in reversed(patches._undo):
                setattr(target, name, value)

    def setattr(self, target: object, name: str, value: object) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)


def _renderings(key: str, report, complete: bool) -> dict[str, str]:
    texts = {"json": render_findings(report), "csv": render_findings(report, FORMAT_CSV)}
    if complete and any(f.currently_outdated for f in report.findings):
        texts["issue"] = render_issue_draft(report)
    return {f"{key}/{fmt}": text for fmt, text in texts.items()}


def _dying_blobs(manifest: dict) -> dict[str, str]:
    blobs = {f"died-{target}": died["blob"] for target, died in manifest.get("died", {}).items()}
    if "unreadable_version" in manifest:
        blobs["unreadable-version"] = manifest["unreadable_version"]["blob"]
    return blobs


def _scenario_outputs(builder, base: Path, monkeypatch) -> dict[str, str] | None:
    manifest = builder(base)
    if manifest is None:
        return None
    outputs: dict[str, str] = {}
    config = scenarios.config_for(manifest)
    for mode, run in RUNS.items():
        total = checks_of(monkeypatch, run, config)
        for checks in range(total + 1):
            with monkeypatch.context() as m:
                cut_after(m, checks)
                report = run(config)
            key = mode if checks == total else f"{mode}/cut{checks}"
            outputs.update(_renderings(key, report, checks == total))
        for target, blob in _dying_blobs(manifest).items():
            with scenarios.catfile_dies_at(blob):
                outputs.update(_renderings(f"{mode}/{target}", run(config), True))
    return outputs


def _cli(argv: list[str]) -> dict[str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the terminal's width; any terminal
    # gets the width of none.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exit:  # argparse refused the arguments
            code = exit.code
    return {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": str(code)}


def _corpus_outputs(base: Path) -> dict[str, str]:
    texts: dict[str, str] = {}

    def record(key: str, argv: list[str]) -> None:
        texts.update((f"{key}/{stream}", text) for stream, text in _cli(argv).items())

    reports = []
    for workload in sorted(corpus.WORKLOADS):
        for seed in (1, 21):
            built = corpus.build(workload, seed, base / f"{workload}-{seed}", size="smoke")
            args = ["--repo", str(built.repo), "--wiki", str(built.wiki or "none"),
                    "--scan-time", str(built.scan_time)]
            key = f"{workload}/seed{seed}"
            for mode in ("scan", "history"):
                for name, extra in CLI_RUNS.items():
                    record(f"{key}/{mode}/{name}", [mode, *args, *extra])
            reports.append(base / f"{workload}-{seed}.json")
            reports[-1].write_text(texts[f"{key}/{built.mode}/json/stdout"], encoding="utf-8")
    record("stats/json", ["stats", *map(str, reports)])
    return texts


def _bad_setting_outputs(base: Path) -> dict[str, str]:
    texts: dict[str, str] = {}
    for name, flags in scenarios.BAD_SETTINGS.items():
        for mode in ("scan", "history"):
            run = _cli([mode, "--repo", str(base / "missing"), *flags])
            if run["stderr"].startswith("usage: "):
                # argparse's usage lines, then its one error line.
                usage, error = run["stderr"][:-1].rsplit("\n", 1)
                prog = error.split(": error: ")[0].replace(" ", "-")
                texts[f"usage/{prog}"] = usage + "\n"
                run["stderr"] = error + "\n"
            texts.update((f"{name}/{mode}/{stream}", text) for stream, text in run.items())
    return texts


def outputs(group: str, base: Path) -> dict[str, str] | None:
    """The outputs of *group*, keyed under its name, built under *base*;
    None for a scenario this git cannot build."""
    base.mkdir(parents=True)
    with Patches.context() as monkeypatch:
        if group == "corpora":
            texts = _corpus_outputs(base)
        elif group == "bad_settings":
            texts = _bad_setting_outputs(base)
        else:
            texts = _scenario_outputs(SCENARIOS[group], base, monkeypatch)
    if texts is None:
        return None
    return {f"{group}/{key}": text.replace(str(base), PLACEHOLDER) for key, text in texts.items()}


def digests(texts: dict[str, str]) -> dict[str, list]:
    """Key -> [length, SHA-256] of the output's UTF-8 bytes."""
    digested = {}
    for key, text in texts.items():
        data = text.encode("utf-8")
        digested[key] = [len(data), hashlib.sha256(data).hexdigest()]
    return digested


def load_manifest() -> dict[str, list]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def changes(old: dict[str, list], new: dict[str, list]) -> list[str]:
    """What regenerating manifest *old* as *new* did: the number of keys
    added, removed and changed, then each removed and each changed key."""
    removed = sorted(old.keys() - new.keys())
    changed = sorted(key for key in old.keys() & new.keys() if old[key] != new[key])
    return [
        f"{len(new.keys() - old.keys())} added, {len(removed)} removed, {len(changed)} changed",
        *(f"removed: {key}" for key in removed),
        *(f"changed: {key}" for key in changed),
    ]


def write_outputs(texts: dict[str, str], directory: Path) -> None:
    """One file per output, at its key's path under *directory*."""
    for key, text in texts.items():
        path = directory / key
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help=f"regenerate {MANIFEST.name}")
    action.add_argument("--out", help="write every output under this directory")
    args = parser.parse_args(argv)
    old = load_manifest() if args.write and MANIFEST.exists() else {}
    manifest: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for group in GROUPS:
            texts = outputs(group, Path(tmp) / group)
            if texts is None:
                # Keep what another git recorded for a scenario this one cannot build.
                print(f"skipped: {group}", file=sys.stderr)
                manifest.update((k, v) for k, v in old.items() if k.split("/")[0] == group)
            elif args.out:
                write_outputs(texts, Path(args.out))
            else:
                manifest.update(digests(texts))
    if args.write:
        lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(manifest.items())]
        MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{len(manifest)} outputs in {MANIFEST}", file=sys.stderr)
        print("\n".join(changes(old, manifest)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
