"""Compare one staleref report against the planted truth of its corpus."""

from __future__ import annotations

import json

REPORT_MODE = {"scan": "current", "history": "history"}


def _episodes(finding: dict) -> list:
    return [
        [ep["start_ordinal"], ep["end_ordinal"], (ep["fix"] or {}).get("kind")]
        for ep in finding["episodes"] or []
    ]


def check_report(manifest: dict, report: bytes, exit_code: int) -> list[str]:
    """Problems with one run's exit code and JSON report; empty when all match.

    Scan reports must hold exactly the manifest's (origin, document, element)
    keys with the planted status. History reports must hold exactly the
    manifest's pairs, each with the planted episodes and no others.
    """
    problems = []
    if exit_code != manifest["expected_exit"]:
        problems.append(f"exit code {exit_code}, expected {manifest['expected_exit']}")
    try:
        data = json.loads(report)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if data.get("mode") != REPORT_MODE[manifest["mode"]]:
        problems.append(f"report mode {data.get('mode')!r}")
    if data.get("partial"):
        problems.append("report is partial")
    history = manifest["mode"] == "history"
    got = {}
    for finding in data.get("findings", []):
        doc = finding["document"]
        key = (doc["origin"], doc["path"], finding["element_text"])
        got[key] = _episodes(finding) if history else finding["status"]
    expected = {tuple(row[:3]): row[3] for row in manifest["expected"]}
    for key in sorted(expected.keys() - got.keys()):
        problems.append(f"missing finding {key}")
    for key in sorted(got.keys() - expected.keys()):
        problems.append(f"unexpected finding {key}")
    for key in sorted(expected.keys() & got.keys()):
        if got[key] != expected[key]:
            problems.append(f"{key}: got {got[key]}, expected {expected[key]}")
    return problems
