"""Tests for report serialization, tables, aggregates, and issue drafts."""

from __future__ import annotations

import copy
import json
import re
from importlib.util import find_spec

import pytest

from staleref import reporting
from staleref.docdiscovery import DocumentDescriptor, ORIGIN_README, ORIGIN_WIKI
from staleref.reporting import (
    Aggregates,
    FORMAT_CSV,
    Finding,
    MODE_CURRENT,
    MODE_HISTORY,
    ScanReport,
    aggregate_corpus,
    build_finding_urls,
    compute_aggregates,
    parse_report,
    render_findings,
    render_issue_draft,
    report_to_dict,
    sort_findings,
)
from staleref.revgraph import Revision
from staleref.timeline import (
    DOC_ABSENT,
    FIX_KINDS,
    NO_REFERENCE,
    detect_episodes,
    survival_curve,
)

README = DocumentDescriptor(ORIGIN_README, "README.md", "markdown")
WIKI = DocumentDescriptor(ORIGIN_WIKI, "Home.md", "markdown")
T = 1_600_000_000


def revs(n, start=T, step=100):
    return tuple(Revision(f"{i:040x}", start + i * step, i) for i in range(n))


def finding(element="fPIC", document=README, status="outdated", snap=21, cur=0):
    return Finding(
        element_text=element,
        document=document,
        status=status,
        snapshot_sha="a" * 40,
        snapshot_count=snap,
        current_sha="b" * 40,
        current_count=cur,
        evidence=(("src/x.c", 12, "text"),),
        evidence_sha="a" * 40,
        doc_sha="b" * 40,
    )


def history_finding(element, symbols, document=README, scan_time=None):
    """A finding whose symbols describe ``revs(len(symbols))``."""
    symbols = tuple(symbols)
    revisions = revs(len(symbols))
    episodes = detect_episodes(symbols, revisions, scan_time=scan_time or (T + 10_000))
    return Finding(
        element_text=element,
        document=document,
        status=None,
        symbols=symbols,
        failed_ordinals=(),
        episodes=episodes,
    )


def make_report(findings, mode=MODE_CURRENT, revisions=None, project_id="proj", **fields):
    findings = sort_findings(findings)
    return ScanReport(
        project_id=project_id,
        scan_time=T + 10_000,
        mode=mode,
        findings=findings,
        warnings=[],
        revisions=revisions,
        **fields,
    )


def history_report(findings, n=None, **fields):
    """A history report over ``revs(n)``, by default the revisions that the
    first finding's symbols describe."""
    n = len(findings[0].symbols) if n is None else n
    return make_report(findings, mode=MODE_HISTORY, revisions=revs(n), **fields)


def partial_report(suffixes, n, covered_from):
    """A timed-out history report over ``revs(n)`` that covers the revisions
    from *covered_from* on, where element -> README symbols *suffixes*."""
    findings = [
        Finding(element, README, status=None, symbols_suffix=list(suffix))
        for element, suffix in suffixes.items()
    ]
    return history_report(findings, n=n, partial=True, covered_from_ordinal=covered_from)


def pooled_aggregates(reports):
    """The corpus totals from every finding of every report at once, each
    keyed by its report: the list-then-fold path that ``stats`` had."""
    import statistics

    rows = [(project, f) for project, report in enumerate(reports) for f in report.findings]
    documents = {(p, f.document.origin, f.document.path) for p, f in rows}
    outdated = {(p, f.document.origin, f.document.path) for p, f in rows if f.outdated}
    pairs = {(p, f.document.origin, f.document.path, f.element_text)
             for p, f in rows if f.episodes}
    episodes = [episode for _, f in rows for episode in f.episodes or ()]
    durations = [ep.duration_seconds for ep in episodes if ep.duration_seconds is not None]
    fixed = [ep.duration_seconds for ep in episodes if not ep.ongoing and ep.duration_seconds > 0]
    return {
        "elements_total": len(rows),
        "elements_outdated": sum(f.outdated for _, f in rows),
        "documents_total": len(documents),
        "documents_outdated": len(outdated),
        "projects_total": len(reports),
        "projects_outdated": len({p for p, _, _ in outdated}),
        "fix_kind_counts": {
            kind: sum(ep.fix is not None and ep.fix.kind == kind for ep in episodes)
            for kind in FIX_KINDS
        },
        "reoutdated_count": len(episodes) - len(pairs),
        "duration_stats": {
            "min": min(durations),
            "median": statistics.median(durations),
            "mean": statistics.fmean(durations),
            "max": max(durations),
        } if durations else None,
        "survival_points": [[d, f] for d, f in survival_curve(fixed, sorted({0, *fixed}))],
    }


def per_symbol_check(symbols, count):
    """The check each parsed timeline used to get: the length first, then
    every symbol in order, the first offender naming the error."""
    symbols = list(symbols)
    if len(symbols) != count:
        raise ValueError("one symbol per revision required")
    for symbol in symbols:
        if isinstance(symbol, int) and not isinstance(symbol, bool):
            if symbol < 0:
                raise ValueError(f"counts cannot be negative: {symbol}")
        elif symbol not in (DOC_ABSENT, NO_REFERENCE):
            raise ValueError(f"not a timeline symbol: {symbol!r}")


class TestSerialization:
    def test_json_round_trip_current(self):
        report = make_report([finding(), finding("ok_fn()", status="in_sync", snap=2, cur=2)])
        text = render_findings(report)
        parsed = parse_report(text)
        assert report_to_dict(parsed) == report_to_dict(report)
        assert parsed.findings[0].element_text == report.findings[0].element_text

    def test_json_round_trip_history(self):
        f = history_finding("fPIC", [3, 3, 0, 0, 0, 0, NO_REFERENCE])
        report = history_report([f])
        parsed = parse_report(render_findings(report))
        assert report_to_dict(parsed) == report_to_dict(report)
        assert list(parsed.findings[0].symbols) == [3, 3, 0, 0, 0, 0, NO_REFERENCE]
        assert parsed.findings[0].episodes[0].fix.kind == "doc_update"

    @pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
    def test_symbols_check_equals_per_symbol_check(self):
        from hypothesis import given, settings, strategies as st

        data = json.loads(render_findings(history_report([history_finding("a()", [1, 0, 0])])))
        values = st.one_of(
            st.integers(min_value=-3, max_value=5),
            st.booleans(),
            st.floats(),
            st.sampled_from([DOC_ABSENT, NO_REFERENCE]),
            st.text(max_size=2),
            st.none(),
        )

        @settings(max_examples=500, deadline=None, derandomize=True)
        @given(st.one_of(st.lists(values, min_size=3, max_size=3), st.lists(values, max_size=5)))
        def check(symbols):
            data["findings"][0]["symbols"] = symbols
            text = json.dumps(data)
            symbols = json.loads(text)["findings"][0]["symbols"]
            try:
                per_symbol_check(symbols, 3)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    parse_report(text)
                assert str(raised.value) == str(exc)
            else:
                # Valid symbols parse back from a report whose episodes and
                # aggregates they give.
                text = render_findings(history_report([history_finding("a()", symbols)]))
                assert parse_report(text).findings[0].symbols == tuple(symbols)

        check()

    def test_episodes_must_be_the_ones_the_symbols_give(self):
        # [1, 0, 0] gives one ongoing episode from ordinal 1 and no fix. A
        # doc_update fix at ordinal 0 contradicts it, even with aggregates
        # that agree, and would be pooled as a fix.
        data = json.loads(render_findings(history_report([history_finding("a()", [1, 0, 0])])))
        assert data["findings"][0]["episodes"] == [
            {"start_ordinal": 1, "end_ordinal": None, "fix": None, "duration_seconds": 9_900}
        ]
        data["findings"][0]["episodes"][0]["fix"] = {
            "kind": "doc_update", "at_ordinal": 0, "at_sha": revs(1)[0].sha, "at_timestamp": T,
        }
        data["aggregates"]["fix_kind_counts"]["doc_update"] = 1
        with pytest.raises(ValueError, match="^episodes disagree with the symbols$"):
            parse_report(json.dumps(data))

    @pytest.mark.parametrize("episodes", [None, []], ids=["null", "empty"])
    def test_history_finding_needs_its_episodes(self, episodes):
        data = json.loads(render_findings(history_report([history_finding("a()", [1, 0])])))
        data["findings"][0]["episodes"] = episodes
        with pytest.raises(ValueError, match="^episodes disagree with the symbols$"):
            parse_report(json.dumps(data))

    @pytest.mark.parametrize("symbols", ["...", {"0": "."}], ids=["string", "object"])
    def test_symbols_must_be_an_array(self, symbols):
        data = json.loads(render_findings(history_report([history_finding("a()", [1, 0, 0])])))
        data["findings"][0]["symbols"] = symbols
        with pytest.raises(ValueError, match="^symbols are no array$"):
            parse_report(json.dumps(data))

    @pytest.mark.parametrize("spoil, message", [
        (lambda data: data["findings"][0].update(symbols_suffix="garbage"),
         "symbols are no array"),
        (lambda data: data["findings"][0].update(symbols_suffix=[0, 1]),
         "one symbol per revision required"),
        (lambda data: data["findings"][0]["symbols_suffix"].__setitem__(0, "x"),
         "not a timeline symbol: 'x'"),
        (lambda data: data.update(covered_from_ordinal=-7),
         "covered_from_ordinal is no ordinal of a partial report's revisions: -7"),
        (lambda data: data.update(covered_from_ordinal=6),
         "covered_from_ordinal is no ordinal of a partial report's revisions: 6"),
        (lambda data: data.update(covered_from_ordinal=True),
         "covered_from_ordinal is no ordinal of a partial report's revisions: True"),
        (lambda data: data.update(partial=False),
         "covered_from_ordinal is no ordinal of a partial report's revisions: 2"),
        (lambda data: data.update(revisions=None),
         "covered_from_ordinal is no ordinal of a partial report's revisions: 2"),
        (lambda data: data.update(covered_from_ordinal=None), "history finding without symbols"),
        (lambda data: data["findings"][0].update(status="outdated"),
         "history finding with a status: 'outdated'"),
        (lambda data: data.update(mode="current"), "current finding with symbols_suffix"),
        (lambda data: data.update(mode="current") or data["findings"][0].update(
            symbols=[1, 0, 0, 0, 0]), "current finding with symbols"),
        (lambda data: data.update(mode="current") or data["findings"][0].update(
            failed_ordinals=[0], symbols_suffix=None), "current finding with failed_ordinals"),
        (lambda data: data.update(mode="current") or data["findings"][0].update(
            episodes=[], symbols_suffix=None), "current finding with episodes"),
        (lambda data: data.update(mode="current") or data["findings"][0].update(
            status="stale", symbols_suffix=None), "current finding with status: 'stale'"),
        (lambda data: data.update(mode="current") or data["findings"][0].update(
            symbols_suffix=None), "current finding with status: None"),
    ], ids=["suffix-string", "suffix-short", "suffix-symbol", "covered-from-negative",
            "covered-from-past-revisions", "covered-from-bool", "covered-from-complete",
            "covered-from-without-revisions", "partial-without-covered-from",
            "history-status", "current-suffix", "current-symbols", "current-failed-ordinals",
            "current-episodes", "current-status-unknown",
            "current-status-missing"])
    def test_parse_checks_the_partial_timelines(self, spoil, message):
        data = json.loads(render_findings(partial_report({"a()": [1, 0, 0]}, 5, 2)))
        assert parse_report(json.dumps(data)).findings[0].symbols_suffix == [1, 0, 0]
        spoil(data)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_report(json.dumps(data))

    def test_parse_rejects_a_suffix_in_a_complete_report(self):
        data = json.loads(render_findings(history_report([history_finding("a()", [1, 0])])))
        data["findings"][0]["symbols_suffix"] = [0]
        with pytest.raises(ValueError, match="^symbols_suffix without covered_from_ordinal$"):
            parse_report(json.dumps(data))

    def test_schema_version_check(self):
        report = make_report([finding()])
        data = json.loads(render_findings(report))
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            parse_report(json.dumps(data))

    def test_scan_time_rfc3339(self):
        data = json.loads(render_findings(make_report([])))
        assert data["scan_time"].endswith("+00:00")
        assert data["scan_time_epoch"] == T + 10_000

    def test_glog_shape_fields(self):
        data = json.loads(render_findings(make_report([finding()])))
        item = data["findings"][0]
        assert item["element_text"] == "fPIC"
        assert item["snapshot_count"] == 21
        assert item["current_count"] == 0
        assert item["status"] == "outdated"

    def test_findings_sorted_by_document_then_element(self):
        items = [
            finding("zzz()", WIKI),
            finding("aaa()", README),
            finding("mmm()", README),
        ]
        report = make_report(items)
        ordered = [(f.document.origin, f.document.path, f.element_text) for f in report.findings]
        assert ordered == sorted(ordered)

    def test_zero_findings_render(self):
        report = make_report([])
        assert json.loads(render_findings(report))["findings"] == []
        csv_text = render_findings(report, FORMAT_CSV)
        assert len(csv_text.strip().splitlines()) == 1  # header only

    def test_csv_contains_counts(self):
        report = make_report([finding()])
        csv_text = render_findings(report, FORMAT_CSV)
        assert "fPIC" in csv_text and "21" in csv_text

    def test_scan_csv_columns(self):
        header = render_findings(make_report([finding()]), FORMAT_CSV).split("\n", 1)[0]
        assert header == (
            "element,origin,document,format,status,snapshot_sha,snapshot_count,"
            "current_sha,current_count,evidence"
        )

    def test_records_are_frozen(self):
        f = history_finding("a()", [1, 0])
        report = history_report([f])
        for record, field in ((f, "evidence"), (f, "urls"), (report, "findings"),
                              (compute_aggregates([f]), "elements_total")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_path_variant_evidence_marker(self):
        f = finding()._replace(evidence=(("path/to/file.py", 0, "path-variant"),))
        data = json.loads(render_findings(make_report([f])))
        entry = data["findings"][0]["evidence"][0]
        assert entry["line"] == 0
        assert entry["kind"] == "path-variant"


class TestAggregates:
    def test_fields_are_the_serialized_keys_in_order(self):
        report = history_report([history_finding("a()", [1, 0, 2])])
        data = json.loads(render_findings(report))
        assert list(compute_aggregates(report.findings)._asdict()) == list(data["aggregates"]) == [
            "elements_total", "elements_outdated", "documents_total", "documents_outdated",
            "projects_total", "projects_outdated", "fix_kind_counts", "reoutdated_count",
            "duration_stats", "survival_points",
        ]

    def test_rates_example(self):
        docs = [README] + [
            DocumentDescriptor(ORIGIN_WIKI, f"P{i}.md", "markdown") for i in (1, 2)
        ]
        findings = []
        # 10 elements across 3 documents, 2 outdated, both in the README.
        findings.append(finding("dead_a()", README))
        findings.append(finding("dead_b()", README))
        findings.append(finding("ok_c()", README, status="in_sync", snap=1, cur=1))
        for i, doc in enumerate(docs[1:], start=1):
            for j in range(2 + i):
                findings.append(
                    finding(f"el_{i}_{j}()", doc, status="in_sync", snap=1, cur=1)
                )
        agg = compute_aggregates(findings)
        assert agg.elements_total == 10
        assert agg.elements_outdated == 2
        assert agg.documents_total == 3
        assert agg.documents_outdated == 1
        assert (agg.projects_total, agg.projects_outdated) == (1, 1)

    def test_project_rate_over_corpus(self):
        dirty = make_report([finding()])
        clean = make_report([finding("x()", status="in_sync", snap=1, cur=1)])
        pooled = aggregate_corpus([dirty, clean])
        assert pooled.projects_total == 2
        assert pooled.projects_outdated == 1

    def test_corpus_of_one_report_equals_its_aggregates(self):
        findings = [
            history_finding("a()", [1, 0, 2, 0, NO_REFERENCE]),
            history_finding("b()", [2, 0, 0, 3, DOC_ABSENT], WIKI),
            history_finding("c()", [1, 1, 1, 1, 1]),
        ]
        report = history_report(findings)
        assert aggregate_corpus([report])._asdict() == compute_aggregates(findings)._asdict()

    def test_corpus_keeps_projects_apart(self):
        # The same (document, element) pair in two projects is two documents,
        # two outdated projects and no re-outdated pair; episodes pool.
        reports = [
            make_report([history_finding("a()", [1, 0, 2])], mode=MODE_HISTORY)
            for _ in range(2)
        ]
        pooled = aggregate_corpus(reports)
        assert (pooled.elements_total, pooled.documents_total) == (2, 2)
        assert (pooled.documents_outdated, pooled.projects_outdated) == (2, 2)
        assert pooled.reoutdated_count == 0
        assert pooled.fix_kind_counts["source_change"] == 2

    @pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
    def test_streamed_corpus_equals_the_pooled_oracle(self):
        from hypothesis import given, settings, strategies as st

        element, document = st.sampled_from(["a()", "b()"]), st.sampled_from([README, WIKI])
        symbols = st.lists(st.sampled_from([0, 1, 2, DOC_ABSENT, NO_REFERENCE]), min_size=5,
                           max_size=5)
        current = st.builds(
            lambda e, d, cur: finding(e, d, "in_sync" if cur else "outdated", snap=1, cur=cur),
            element, document, st.integers(0, 1),
        )
        report = st.one_of(
            st.lists(st.builds(history_finding, element, symbols, document), max_size=4).map(
                lambda findings: history_report(findings, n=5)),
            st.lists(current, max_size=4).map(make_report),
        )

        # A generator of reports, as stats passes them, folds to the totals
        # of every report's findings pooled at once.
        @settings(max_examples=200, derandomize=True)
        @given(st.lists(report, max_size=5))
        def check(reports):
            assert aggregate_corpus(iter(reports))._asdict() == pooled_aggregates(reports)

        check()

    def test_fix_kind_distribution(self):
        findings = [
            history_finding("a()", [2, 0, 5]),
            history_finding("b()", [2, 0, 1], WIKI),
            history_finding("c()", [2, 0, NO_REFERENCE]),
            history_finding("d()", [2, 0, DOC_ABSENT], WIKI),
        ]
        agg = compute_aggregates(findings)
        assert agg.fix_kind_counts == {
            "source_change": 2,
            "doc_update": 1,
            "doc_delete": 1,
        }

    def test_reoutdated_count(self):
        findings = [
            history_finding("a()", [1, 0, 2, 0, NO_REFERENCE]),  # two episodes
            history_finding("b()", [1, 0, 2], WIKI),  # one episode
            history_finding("c()", [1, 1, 1]),  # none
        ]
        agg = compute_aggregates(findings)
        assert agg.reoutdated_count == 1

    def test_duration_stats(self):
        findings = [history_finding("a()", [2, 0, 0, NO_REFERENCE])]
        agg = compute_aggregates(findings)
        assert agg.duration_stats["min"] == 200
        assert agg.duration_stats["max"] == 200

    @pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
    def test_median_and_mean_equal_the_statistics_module(self):
        import statistics

        from hypothesis import given, settings, strategies as st

        value = st.one_of(
            st.integers(-1000, 1000), st.integers(2**53, 2**64), st.integers(-(2**64), -(2**53))
        )

        # Each draw is checked at an odd and at an even length.
        @settings(max_examples=300, derandomize=True)
        @given(st.lists(value, min_size=1), value)
        def check(values, extra):
            for data in (values, [*values, extra]):
                for ours, theirs in ((reporting.median, statistics.median),
                                     (reporting.fmean, statistics.fmean)):
                    got, want = ours(data), theirs(data)
                    assert (type(got), got) == (type(want), want), (ours.__name__, data)

        check()

    def test_aggregates_recompute_from_serialized(self):
        # Both findings must describe the same source sequence, as in a real
        # history report.
        f1 = history_finding("a()", [1, 0, 2, 0, NO_REFERENCE])
        f2 = history_finding("b()", [2, 0, 0, 0, 0], WIKI)
        report = history_report([f1, f2])
        parsed = parse_report(render_findings(report))
        recomputed = compute_aggregates(parsed.findings)
        assert recomputed._asdict() == compute_aggregates(report.findings)._asdict()

    @pytest.mark.parametrize("spoil", [
        lambda agg: agg.update(elements_outdated=agg["elements_outdated"] + 5),
        lambda agg: agg["fix_kind_counts"].update(doc_update=9),
        lambda agg: agg["duration_stats"].update(max=agg["duration_stats"]["max"] + 1),
        lambda agg: agg["survival_points"][0].__setitem__(1, 0.5),
    ], ids=["total", "fix-kind-count", "duration-stats", "survival-point"])
    def test_parse_rejects_aggregates_that_disagree_with_the_findings(self, spoil):
        report = history_report([
            history_finding("a()", [1, 0, 2, 0, NO_REFERENCE]),
            history_finding("b()", [2, 0, 0, 0, 0], WIKI),
        ])
        data = json.loads(render_findings(report))
        spoiled = copy.deepcopy(data)
        spoil(spoiled["aggregates"])
        assert spoiled["aggregates"] != data["aggregates"]
        with pytest.raises(ValueError, match="^aggregates disagree with the findings$"):
            parse_report(json.dumps(spoiled))

    def test_outdated_leveling_invariant(self):
        findings = [finding(), finding("x()", WIKI, status="in_sync", snap=1, cur=1)]
        agg = compute_aggregates(findings)
        assert agg.elements_outdated <= agg.elements_total
        assert agg.documents_outdated <= agg.documents_total
        assert agg.projects_outdated == (agg.documents_outdated > 0)


class TestHistoryTable:
    def test_render_files_row(self):
        f = history_finding("renderFiles('./files')", (3, 3, 0, 0, 0, 0, NO_REFERENCE))
        table = render_findings(history_report([f]), FORMAT_CSV)
        lines = table.strip().splitlines()
        assert lines[0].startswith("# R1 ")
        header = lines[7].split(",")
        assert header[:3] == ["element", "origin", "document"]
        assert header[3:] == [f"R{i}" for i in range(1, 8)]
        row = lines[8].split(",")
        assert row[3:] == ["3", "3", "0", "0", "0", "0", "-"]

    def test_vue_row(self):
        f = history_finding("vue", (198, 205, 205, 205, 205, 210, 210))
        table = render_findings(history_report([f]), FORMAT_CSV)
        assert "198,205,205,205,205,210,210" in table.replace('"', "")

    def test_cell_by_cell_matches_symbols(self):
        f = history_finding("elem", (DOC_ABSENT, NO_REFERENCE, 2, 0, 1))
        table = render_findings(history_report([f]), FORMAT_CSV)
        data_row = table.strip().splitlines()[-1].split(",")
        assert data_row[3:] == [".", "-", "2", "0", "1"]

    def test_empty_set_header_only(self):
        table = render_findings(history_report([], n=3), FORMAT_CSV)
        assert table.strip().splitlines() == ["element,origin,document"]

    def test_no_column_cap(self):
        f = history_finding("a", [1] * 2001)
        lines = render_findings(history_report([f]), FORMAT_CSV).splitlines()
        assert len(lines) == 2001 + 2
        assert lines[2001] == "element,origin,document," + ",".join(
            f"R{i}" for i in range(1, 2002)
        )
        assert lines[2002] == "a,readme,README.md," + ",".join(["1"] * 2001)

    @pytest.mark.parametrize("covered_from", [2, 5])
    def test_partial_table_covers_the_revisions_reached(self, covered_from):
        # Columns keep the names the complete table gives them; with no
        # revision covered, each finding read still gets its row.
        suffixes = {"a()": [1, 0, 0][covered_from - 2:], "b()": [2, 2, 2][covered_from - 2:]}
        table = render_findings(partial_report(suffixes, 5, covered_from), FORMAT_CSV)
        names = [f"R{i + 1}" for i in range(covered_from, 5)]
        assert table.splitlines() == [
            *(f"# {name} {r.sha} {r.timestamp}" for name, r in zip(names, revs(5)[covered_from:])),
            ",".join(["element", "origin", "document", *names]),
            ",".join(["a(),readme,README.md", *map(str, suffixes["a()"])]),
            ",".join(["b(),readme,README.md", *map(str, suffixes["b()"])]),
        ]


class TestUrls:
    base = "https://github.com/acme/proj"

    def test_blob_url_with_line(self):
        url = build_finding_urls(finding(), self.base, None)["evidence"]
        assert url == f"https://github.com/acme/proj/blob/{'a' * 40}/src/x.c#L12"

    def test_blob_url_without_line(self):
        f = finding()._replace(evidence=(("src/x.c", 0, "path-variant"),))
        url = build_finding_urls(f, self.base, None)["evidence"]
        assert url == f"https://github.com/acme/proj/blob/{'a' * 40}/src/x.c"

    def test_wiki_url_uses_page_name(self):
        f = finding(document=WIKI)._replace(doc_sha="c" * 40)
        url = build_finding_urls(f, self.base, None)["document"]
        assert url == f"https://github.com/acme/proj/wiki/Home/{'c' * 40}"

    def test_document_path_is_percent_encoded(self):
        f = finding(document=DocumentDescriptor(ORIGIN_README, "docs/My Guide.md", "markdown"))
        url = build_finding_urls(f, self.base, None)["document"]
        assert url == f"https://github.com/acme/proj/blob/{'b' * 40}/docs/My%20Guide.md"

    def test_evidence_path_is_percent_encoded(self):
        f = finding()._replace(evidence=(("src/a#b.py", 3, "text"),))
        url = build_finding_urls(f, self.base, None)["evidence"]
        assert url == f"https://github.com/acme/proj/blob/{'a' * 40}/src/a%23b.py#L3"

    def test_wiki_page_name_is_percent_encoded(self):
        f = finding(document=DocumentDescriptor(ORIGIN_WIKI, "Set up?.md", "markdown"))
        url = build_finding_urls(f, self.base, None)["document"]
        assert url == f"https://github.com/acme/proj/wiki/Set%20up%3F/{'b' * 40}"

    def test_commit_url(self):
        revisions = (Revision("c" * 40, T, 0), Revision("d" * 40, T + 100, 1))
        f = Finding("gone_fn()", README, None, symbols=(2, 0), failed_ordinals=(),
                    episodes=detect_episodes((2, 0), revisions))
        report = make_report([f], mode=MODE_HISTORY, revisions=revisions)
        url = build_finding_urls(f, self.base, report.revisions)["deleting_commit"]
        assert url.endswith("/commit/" + "d" * 40)

    def test_no_base_no_urls(self):
        for f in (finding(), finding(document=WIKI), history_finding("gone_fn()", [2, 0, 0])):
            assert build_finding_urls(f, None, revs(3)) is None
            assert build_finding_urls(f, "", revs(3)) is None


class TestIssueDraft:
    def test_outdated_findings_listed(self):
        findings = [
            f._replace(urls=build_finding_urls(f, "https://github.com/google/glog", None))
            for f in (finding("DGFLAGS_NAMESPACE"), finding())
        ]
        drafts = render_issue_draft(make_report(findings, project_id="glog"))
        assert "`DGFLAGS_NAMESPACE`" in drafts
        assert "`fPIC`" in drafts
        assert "/blob/" in drafts
        assert "glog" in drafts.splitlines()[0]

    def test_links_come_from_each_findings_urls(self):
        f = history_finding("gone_fn()", [2, 0, 0])._replace(
            doc_sha="b" * 40, evidence=(("src/x.c", 12, "text"),), evidence_sha="a" * 40
        )
        bare = history_report([f])
        f = f._replace(urls=build_finding_urls(f, "https://example.com/o/p", bare.revisions))
        report = history_report([f])
        parsed = parse_report(render_findings(report))
        draft = render_issue_draft(parsed)
        assert draft == render_issue_draft(report)
        for url in f.urls.values():
            assert f"]({url})" in draft
        assert "](" not in render_issue_draft(bare)

    def test_single_finding_single_bullet(self):
        draft = render_issue_draft(make_report([finding()]))
        assert sum(1 for ln in draft.splitlines() if ln.startswith("- ")) == 1

    def test_no_outdated_raises(self):
        with pytest.raises(ValueError):
            render_issue_draft(make_report([finding("x()", status="in_sync", snap=1, cur=1)]))

    def test_path_variant_evidence_links_file_not_line(self):
        f = finding()._replace(evidence=(("path/to/file.py", 0, "path-variant"),))
        draft = render_issue_draft(make_report([f]))
        assert "path/to/file.py (referenced as a path)" in draft
        assert "#L0" not in draft

    def test_deleting_commit_from_timeline(self):
        report = history_report([history_finding("gone_fn()", [2, 0, 0])])
        draft = render_issue_draft(report)
        deleting = report.revisions[1].sha
        assert deleting[:10] in draft
