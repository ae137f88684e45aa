"""Seeded synthetic corpora with planted ground truth for the staleref bench.

Each workload generator scripts a source repository (and for ``history-wiki`` a
wiki repository) from an in-memory model and writes it with one
``git fast-import`` stream. Committer identity and dates are pinned, so the
same seed gives the same commit SHAs for a given git version.

The model knows, at every revision, which code elements exist in the source
and which elements every document references. The manifest written next to
the repositories is derived from that model alone:

* ``scan`` workloads list the expected status of every (origin, document,
  element) the README references;
* ``history`` workloads list, for every (origin, document, element) pair, the
  planted outdated episodes as ``[start_ordinal, end_ordinal, fix_kind]``
  (``end_ordinal`` and ``fix_kind`` are null for an ongoing episode); an
  empty list means the pair must have no episode.

Every element is written so that the built-in extraction catalog picks it
up: backticked calls and constants, bare PascalCase class names, and
backticked ``dir/file.py`` paths in their full, suffix and ``/``-prefixed
forms. Prose uses lowercase words only, so no rule matches it by accident.
"""

from __future__ import annotations

import os
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

T0 = 1_600_000_000
STEP = 3_600
SCAN_TIME = 1_700_000_000
COMMITTER = "Bench Corpus <corpus@example.invalid>"

ORIGIN_README = "readme"
ORIGIN_WIKI = "wiki"

OUTDATED = "outdated"
IN_SYNC = "in_sync"
NEVER = "never_matched"

SOURCE_CHANGE = "source_change"
DOC_UPDATE = "doc_update"
DOC_DELETE = "doc_delete"

VERBS = (
    "load", "parse", "build", "render", "fetch", "merge", "split", "flush",
    "open", "close", "scan", "index", "resolve", "encode", "decode", "sync",
)
NOUNS = (
    "index", "header", "cache", "config", "entry", "table", "stream", "block",
    "record", "token", "buffer", "layout", "schema", "bundle", "packet", "queue",
)
CLASS_NOUNS = (
    "Loader", "Parser", "Builder", "Renderer", "Reader", "Writer", "Store",
    "Client", "Handler", "Planner", "Mapper", "Cursor",
)
WORDS = (
    "the", "a", "this", "each", "every", "tool", "value", "module", "option",
    "list", "file", "path", "result", "runs", "keeps", "returns", "reads",
    "writes", "with", "from", "into", "after", "before", "when", "then",
    "and", "or", "not", "only", "also", "small", "large", "fast", "slow",
    "current", "old", "new", "default", "user", "project", "data", "step",
    "order", "first", "last", "next", "stage", "input", "output", "check",
)

# Generator parameters per workload. ``smoke`` sizes are for the tests of the
# bench itself and run in well under a second.
WORKLOADS: dict[str, dict[str, dict]] = {
    "history-deep": {
        "full": {
            "commits": 200, "files": 32, "filler_lines": 70, "churn_files": 3,
            "in_sync": 36, "never": 4, "ongoing": 4, "source_change": 4,
            "doc_update": 4, "doc_delete": 4, "txt_in_sync": 6,
            "path_in_sync": 3, "path_ongoing": 2, "readme_edits": 12,
        },
        "smoke": {
            "commits": 24, "files": 8, "filler_lines": 6, "churn_files": 2,
            "in_sync": 6, "never": 1, "ongoing": 1, "source_change": 1,
            "doc_update": 1, "doc_delete": 1, "txt_in_sync": 2,
            "path_in_sync": 1, "path_ongoing": 1, "readme_edits": 2,
        },
    },
    "scan-wide": {
        "full": {
            "files": 1200, "dirs": 40, "filler_lines": 240, "defs_per_file": 3,
            "churn_files": 40, "in_sync": 90, "outdated": 30, "never": 10,
            "never_removed": 6, "path_full": 6, "path_suffix": 6,
            "path_slash": 4, "path_outdated": 6, "path_never": 2,
        },
        "smoke": {
            "files": 40, "dirs": 4, "filler_lines": 6, "defs_per_file": 2,
            "churn_files": 4, "in_sync": 6, "outdated": 3, "never": 1,
            "never_removed": 1, "path_full": 1, "path_suffix": 1,
            "path_slash": 1, "path_outdated": 2, "path_never": 1,
        },
    },
    "history-wiki": {
        "full": {
            "commits": 12, "files": 16, "filler_lines": 20, "vocabulary": 20,
            "never": 2, "ongoing": 3, "source_change": 1, "readme_refs": 3,
            "pages": 24, "page_paragraphs": 50, "refs_per_page": 4,
            "wiki_commits": 200, "toggle_rate": 0.3,
        },
        "smoke": {
            "commits": 6, "files": 5, "filler_lines": 4, "vocabulary": 5,
            "never": 1, "ongoing": 1, "source_change": 1, "readme_refs": 1,
            "pages": 3, "page_paragraphs": 4, "refs_per_page": 2,
            "wiki_commits": 8, "toggle_rate": 0.3,
        },
    },
}

MODES = {"history-deep": "history", "scan-wide": "scan", "history-wiki": "history"}


@dataclass
class Corpus:
    """A generated workload: where its repositories are and what must be found."""

    workload: str
    mode: str
    repo: Path
    wiki: Path | None
    scan_time: int
    manifest: dict
    params: dict = field(default_factory=dict)

    def cli_args(self, out: Path) -> list[str]:
        """Arguments for ``staleref``: defaults except the pinned ones."""
        return [
            self.mode,
            "--repo", str(self.repo),
            "--wiki", str(self.wiki) if self.wiki else "none",
            "--scan-time", str(self.scan_time),
            "--out", str(out),
        ]


# -- text helpers ---------------------------------------------------------------


def _prose(rng: random.Random, words: int) -> str:
    chosen = [rng.choice(WORDS) for _ in range(words)]
    chosen[0] = chosen[0].capitalize()
    return " ".join(chosen) + "."


def _filler_line(rng: random.Random) -> str:
    kind = rng.randrange(4)
    a, b = rng.randrange(1000), rng.randrange(1000)
    if kind == 0:
        return f"    total_{a} = total_{b} * {rng.randrange(97)}\n"
    if kind == 1:
        return f"    # {_prose(rng, rng.randrange(5, 12)).lower()}\n"
    if kind == 2:
        return f"    if flag_{a} > {b}:\n        return state_{b}\n"
    return f"    items_{a}.append(value_{b})\n"


class _Element:
    """One code element: the text a document cites and the source that defines it."""

    def __init__(self, kind: str, stem: str, tag: str, k: int):
        if kind == "call":
            name = f"{stem}_{tag}{k:04d}"
            self.text = f"{name}()"
            self.define = f"def {name}():\n    return {k}\n\n"
            self.use = f"    result_{k} = {name}()\n"
            self.cite = f"`{self.text}`"
        elif kind == "class":
            name = f"{stem}{tag.capitalize()}{k:04d}"
            self.text = name
            self.define = f"class {name}:\n    size = {k}\n\n"
            self.use = f"    handle_{k} = {name}()\n"
            self.cite = name
        else:
            name = f"{stem.upper()}_{tag.upper()}{k:04d}"
            self.text = name
            self.define = f"{name} = {k}\n\n"
            self.use = f"    limit_{k} = {name} + 1\n"
            self.cite = f"`{name}`"


def _make_elements(rng: random.Random, tag: str, count: int, start: int) -> list[_Element]:
    elements = []
    for k in range(start, start + count):
        kind = rng.choices(("call", "class", "const"), weights=(7, 2, 1))[0]
        if kind == "call":
            stem = f"{rng.choice(VERBS)}_{rng.choice(NOUNS)}"
        elif kind == "class":
            stem = rng.choice(NOUNS).capitalize() + rng.choice(CLASS_NOUNS)
        else:
            stem = f"max_{rng.choice(NOUNS)}"
        elements.append(_Element(kind, stem, tag, k))
    return elements


class _SourceFile:
    """Definitions, call sites and filler lines of one source file.

    A definition or call site is rendered only while its element is present,
    so presence in the model is exactly presence in the repository.
    """

    def __init__(self, rng: random.Random, filler_lines: int):
        self.items: list[tuple[_Element | None, str]] = [
            (None, f'"""{_prose(rng, rng.randrange(6, 14))}"""\n\n')
        ]
        self.items += [(None, _filler_line(rng)) for _ in range(filler_lines)]

    def add(self, rng: random.Random, element: _Element | None, text: str) -> None:
        self.items.insert(rng.randrange(1, len(self.items) + 1), (element, text))

    def churn(self, rng: random.Random, lines: int) -> None:
        filler = [i for i, (el, _) in enumerate(self.items) if el is None and i > 0]
        for i in rng.sample(filler, min(lines, len(filler))):
            self.items[i] = (None, _filler_line(rng))

    def render(self, present: set) -> str:
        return "".join(
            text for el, text in self.items if el is None or el in present
        )


# -- git fast-import ----------------------------------------------------------


def git_env(home: Path) -> dict:
    """Environment for every git the bench starts: no user or system config."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GIT_", "STALEREF_"))}
    env.update(
        HOME=str(home),
        XDG_CONFIG_HOME=str(home),
        GIT_CONFIG_NOSYSTEM="1",
        TMPDIR=str(home),
    )
    return env


def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


def write_repo(path: Path, commits: list[tuple[int, dict]], env: dict) -> None:
    """Create *path* holding one branch ``main`` with the given commits.

    ``commits`` is oldest first; each holds a committer timestamp and the
    changed paths, mapped to new text or to None for a deletion.
    """
    path.mkdir(parents=True)
    subprocess.run(
        ["git", "init", "-q", "-b", "main", str(path)], check=True, env=env
    )
    chunks = []
    for i, (ts, changes) in enumerate(commits):
        chunks.append(b"commit refs/heads/main\n")
        chunks.append(f"committer {COMMITTER} {ts} +0000\n".encode())
        chunks.append(_data(f"change {i}".encode()))
        for rel, text in sorted(changes.items()):
            if text is None:
                chunks.append(f"D {rel}\n".encode())
            else:
                chunks.append(f"M 100644 inline {rel}\n".encode())
                chunks.append(_data(text.encode("utf-8")))
        chunks.append(b"\n")
    subprocess.run(
        ["git", "-C", str(path), "fast-import", "--quiet"],
        input=b"".join(chunks),
        check=True,
        env=env,
    )


def _diff(before: dict, after: dict) -> dict:
    changes = {p: t for p, t in after.items() if before.get(p) != t}
    changes.update({p: None for p in before if p not in after})
    return changes


# -- workloads ------------------------------------------------------------------


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("bcdfghjkmnpqrstvwxz") for _ in range(2))


def _readme(rng: random.Random, title: str, cites: list[str], extra: int = 0) -> str:
    lines = [f"# {title}", "", _prose(rng, 12), ""]
    for cite in cites:
        lines.append(f"{_prose(rng, rng.randrange(4, 9))[:-1]} {cite} {_prose(rng, 5).lower()}")
    lines += ["", _prose(rng, 10 + extra), ""]
    return "\n".join(lines)


def _build_deep(rng: random.Random, p: dict) -> tuple[list, dict]:
    """A long first-parent history of a small tree with a README.md and README.txt.

    README.md is present at every revision. README.txt is deleted once and
    never comes back, which ends its outdated references with doc_delete.
    """
    tag = _tag(rng)
    n = p["commits"]
    files = {f"pkg{j % 6}/mod_{j:02d}.py": _SourceFile(rng, p["filler_lines"]) for j in range(p["files"])}
    paths = sorted(files)
    # Files that only hold filler; deleting one ends a path reference.
    doomed = paths[-p["path_ongoing"]:] if p["path_ongoing"] else []
    hosts = [q for q in paths if q not in doomed]

    groups = ("in_sync", "never", "ongoing", "source_change", "doc_update", "doc_delete", "txt_in_sync")
    elements: dict[str, list[_Element]] = {}
    k = 0
    for g in groups:
        elements[g] = _make_elements(rng, tag, p[g], k)
        k += p[g]
    for g in groups:
        if g == "never":
            continue
        for el in elements[g]:
            files[rng.choice(hosts)].add(rng, el, el.define)
            if g in ("in_sync", "txt_in_sync"):
                for host in rng.sample(hosts, rng.randrange(0, 3)):
                    files[host].add(rng, el, el.use)

    lo, hi = max(1, n // 6), n - max(2, n // 6)
    removed: dict[_Element, tuple[int, int | None]] = {}
    expected_md: dict[str, list] = {}
    expected_txt: dict[str, list] = {}
    doc_update_at: dict[_Element, int] = {}
    delete_txt_at = rng.randrange((lo + hi) // 2, hi + 1)
    for el in elements["ongoing"]:
        start = rng.randrange(lo, hi)
        removed[el] = (start, None)
        expected_md[el.text] = [[start, None, None]]
    for el in elements["source_change"]:
        start = rng.randrange(lo, hi - 2)
        end = rng.randrange(start + 1, hi)
        removed[el] = (start, end)
        expected_md[el.text] = [[start, end, SOURCE_CHANGE]]
    for el in elements["doc_update"]:
        start = rng.randrange(lo, hi - 2)
        end = rng.randrange(start + 1, hi)
        removed[el] = (start, None)
        doc_update_at[el] = end
        expected_md[el.text] = [[start, end, DOC_UPDATE]]
    for el in elements["doc_delete"]:
        start = rng.randrange(lo, delete_txt_at)
        removed[el] = (start, None)
        expected_txt[el.text] = [[start, delete_txt_at, DOC_DELETE]]
    for el in elements["in_sync"] + elements["never"]:
        expected_md[el.text] = []
    for el in elements["txt_in_sync"]:
        expected_txt[el.text] = []

    path_cites = []
    for q in rng.sample(hosts, p["path_in_sync"]):
        path_cites.append(f"`{q}`")
        expected_md[q] = []
    doomed_at = {}
    for q in doomed:
        start = rng.randrange(lo, hi)
        doomed_at[q] = start
        path_cites.append(f"`{q}`")
        expected_md[q] = [[start, None, None]]

    md_elements = [
        el for g in ("in_sync", "never", "ongoing", "source_change", "doc_update")
        for el in elements[g]
    ]
    rng.shuffle(md_elements)
    txt_elements = elements["txt_in_sync"] + elements["doc_delete"]
    rng.shuffle(txt_elements)
    readme_edits = set(rng.sample(range(1, n), p["readme_edits"]))

    def readme_md(i: int, salt: int) -> str:
        cites = [el.cite for el in md_elements if doc_update_at.get(el, n) > i]
        return _readme(random.Random(salt), f"Project {tag}", cites + path_cites)

    txt = _readme(rng, f"Notes {tag}", [el.cite for el in txt_elements])

    commits = []
    state: dict[str, str] = {}
    md_salt = rng.randrange(1 << 30)
    for i in range(n):
        present = {
            el for g in elements.values() for el in g
            if el not in removed
            or not (removed[el][0] <= i and (removed[el][1] is None or i < removed[el][1]))
        }
        if i > 0:
            for q in rng.sample(paths, p["churn_files"]):
                files[q].churn(rng, 3)
        if i in readme_edits:
            md_salt = rng.randrange(1 << 30)
        tree = {q: f.render(present) for q, f in files.items() if doomed_at.get(q, n) > i}
        tree["README.md"] = readme_md(i, md_salt)
        if i < delete_txt_at:
            tree["README.txt"] = txt
        commits.append((T0 + i * STEP, _diff(state, tree)))
        state = tree

    expected = [[ORIGIN_README, "README.md", t, v] for t, v in expected_md.items()]
    expected += [[ORIGIN_README, "README.txt", t, v] for t, v in expected_txt.items()]
    return commits, {"expected": sorted(expected, key=_key)}


def _build_wide(rng: random.Random, p: dict) -> tuple[list, dict]:
    """Thousands of files, four commits, and a README with hundreds of citations.

    The README is last written at revision 1, its snapshot. Revisions 2 and 3
    remove definitions and delete files, which makes references outdated.
    """
    tag = _tag(rng)
    dirs = p["dirs"]
    files = {
        f"d{j % dirs:02d}/m{j:04d}.py": _SourceFile(rng, p["filler_lines"])
        for j in range(p["files"])
    }
    paths = sorted(files)
    doomed = rng.sample(paths, p["path_outdated"])
    hosts = [q for q in paths if q not in doomed]

    groups = ("in_sync", "outdated", "never", "never_removed", "helpers")
    counts = dict(p, helpers=p["files"] * p["defs_per_file"])
    elements: dict[str, list[_Element]] = {}
    k = 0
    for g in groups:
        elements[g] = _make_elements(rng, tag, counts[g], k)
        k += counts[g]
    for g in groups:
        if g == "never":
            continue
        for el in elements[g]:
            files[rng.choice(hosts)].add(rng, el, el.define)
            if g == "in_sync":
                for host in rng.sample(hosts, rng.randrange(0, 3)):
                    files[host].add(rng, el, el.use)

    expected: list = []
    cites = []
    for g, status in (("in_sync", IN_SYNC), ("outdated", OUTDATED), ("never", NEVER), ("never_removed", NEVER)):
        for el in elements[g]:
            cites.append(el.cite)
            expected.append([ORIGIN_README, "README.md", el.text, status])
    # Path citations in each form the path-variant matcher understands.
    for q in rng.sample(hosts, p["path_full"]):
        cites.append(f"`{q}`")
        expected.append([ORIGIN_README, "README.md", q, IN_SYNC])
    for q in rng.sample(hosts, p["path_suffix"]):
        name = q.split("/")[-1]
        cites.append(f"`{name}`")
        expected.append([ORIGIN_README, "README.md", name, IN_SYNC])
    for q in rng.sample(hosts, p["path_slash"]):
        cites.append(f"`/{q}`")
        expected.append([ORIGIN_README, "README.md", "/" + q, IN_SYNC])
    for i, q in enumerate(doomed):
        text = q.split("/")[-1] if i % 2 else q
        cites.append(f"`{text}`")
        expected.append([ORIGIN_README, "README.md", text, OUTDATED])
    for i in range(p["path_never"]):
        q = f"d{dirs + i:02d}/gone{i:03d}.py"
        cites.append(f"`{q}`")
        expected.append([ORIGIN_README, "README.md", q, NEVER])
    rng.shuffle(cites)

    every = {el for g in elements.values() for el in g}
    never_removed = set(elements["never_removed"])
    outdated = set(elements["outdated"])
    readme_v0 = _readme(rng, f"Wide {tag}", cites[: len(cites) // 2])
    readme = _readme(rng, f"Wide {tag}", cites, extra=3)
    revisions = [
        (every, {"README.md": readme_v0}, ()),
        (every - never_removed, {"README.md": readme}, ()),
        (every - never_removed - outdated, {"README.md": readme}, ()),
        (every - never_removed - outdated, {"README.md": readme}, doomed),
    ]
    commits = []
    state: dict[str, str] = {}
    for i, (present, docs, deleted) in enumerate(revisions):
        if i > 0:
            for q in rng.sample(hosts, p["churn_files"]):
                files[q].churn(rng, 4)
        tree = {q: f.render(present) for q, f in files.items() if q not in deleted}
        tree.update(docs)
        commits.append((T0 + i * STEP, _diff(state, tree)))
        state = tree
    return commits, {"expected": sorted(expected, key=_key)}


def _build_wiki(rng: random.Random, p: dict) -> tuple[list, list, dict]:
    """A short source history and a wiki of long pages with a long edit history.

    Every page exists from the first wiki commit on and keeps its planted
    citations in every version; edits rewrite prose and add or drop
    citations of elements that never leave the source.
    """
    tag = _tag(rng)
    n = p["commits"]
    files = {f"lib/part_{j:02d}.py": _SourceFile(rng, p["filler_lines"]) for j in range(p["files"])}
    paths = sorted(files)
    vocab = _make_elements(rng, tag, p["vocabulary"], 0)
    never = _make_elements(rng, tag, p["never"], 100)
    ongoing = _make_elements(rng, tag, p["ongoing"], 200)
    source_change = _make_elements(rng, tag, p["source_change"], 300)
    for el in vocab + ongoing + source_change:
        files[rng.choice(paths)].add(rng, el, el.define)
    for el in vocab:
        for host in rng.sample(paths, rng.randrange(0, 3)):
            files[host].add(rng, el, el.use)

    removed: dict[_Element, tuple[int, int | None]] = {}
    planted: dict[_Element, list] = {}
    for el in ongoing:
        start = rng.randrange(1, n - 1)
        removed[el] = (start, None)
        planted[el] = [[start, None, None]]
    for el in source_change:
        start = rng.randrange(1, n - 2)
        end = rng.randrange(start + 1, n)
        removed[el] = (start, end)
        planted[el] = [[start, end, SOURCE_CHANGE]]

    readme_refs = rng.sample(vocab, p["readme_refs"])
    readme = _readme(rng, f"Library {tag}", [el.cite for el in readme_refs])
    expected = [[ORIGIN_README, "README.md", el.text, []] for el in readme_refs]

    source_commits = []
    state: dict[str, str] = {}
    for i in range(n):
        present = {
            el for el in vocab + ongoing + source_change
            if el not in removed
            or not (removed[el][0] <= i and (removed[el][1] is None or i < removed[el][1]))
        }
        if i > 0:
            for q in rng.sample(paths, 2):
                files[q].churn(rng, 2)
        tree = {q: f.render(present) for q, f in files.items()}
        tree["README.md"] = readme
        source_commits.append((T0 + i * STEP, _diff(state, tree)))
        state = tree

    # Wiki pages: fixed citations (vocabulary, never-defined and planted
    # elements) plus citations that edits switch on and off.
    pages = [f"Topic-{j:02d}.md" for j in range(p["pages"])]
    fixed: dict[str, list[_Element]] = {}
    for page in pages:
        fixed[page] = rng.sample(vocab, p["refs_per_page"])
    for el in never + ongoing + source_change:
        for page in rng.sample(pages, 2):
            fixed[page].append(el)
    toggled: dict[str, list[_Element]] = {page: [] for page in pages}
    cited: dict[str, set] = {page: set(fixed[page]) for page in pages}
    paragraphs: dict[str, list[str]] = {
        page: [_paragraph(rng) for _ in range(p["page_paragraphs"])] for page in pages
    }

    step_words = [rng.choice(WORDS) for _ in range(16)]

    def render_page(page: str) -> str:
        body = list(paragraphs[page])
        for i, el in enumerate(fixed[page] + toggled[page]):
            slot = (i * 7919) % len(body)
            body[slot] += f"\n\nSee {el.cite} for the {step_words[i % len(step_words)]} step.\n"
        return f"# {page[:-3]}\n\n" + "\n\n".join(body) + "\n"

    wiki_commits = []
    span = n * STEP
    wiki_state: dict[str, str] = {}
    for j in range(p["wiki_commits"]):
        ts = T0 - STEP // 2 + (j * span) // p["wiki_commits"]
        if j == 0:
            tree = {page: render_page(page) for page in pages}
        else:
            page = rng.choice(pages)
            for _ in range(3):
                paragraphs[page][rng.randrange(len(paragraphs[page]))] = _paragraph(rng)
            if rng.random() < p["toggle_rate"]:
                if toggled[page] and rng.random() < 0.5:
                    toggled[page].pop(rng.randrange(len(toggled[page])))
                else:
                    choices = [el for el in vocab if el not in fixed[page] and el not in toggled[page]]
                    if choices:
                        el = rng.choice(choices)
                        toggled[page].append(el)
                        cited[page].add(el)
            tree = dict(wiki_state)
            tree[page] = render_page(page)
        wiki_commits.append((ts, _diff(wiki_state, tree)))
        wiki_state = tree

    for page in pages:
        for el in cited[page]:
            expected.append([ORIGIN_WIKI, page, el.text, planted.get(el, [])])
    return source_commits, wiki_commits, {"expected": sorted(expected, key=_key)}


def _paragraph(rng: random.Random) -> str:
    return " ".join(_prose(rng, rng.randrange(8, 16)) for _ in range(rng.randrange(2, 5)))


def _key(row: list) -> tuple:
    return (row[0], row[1], row[2])


def build(workload: str, seed: int, dest: Path, size: str = "full") -> Corpus:
    """Generate *workload* from *seed* under *dest*, which must not exist yet."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    params = WORKLOADS[workload][size]
    rng = random.Random(f"{workload}:{seed}")
    dest.mkdir(parents=True)
    home = dest / "home"
    home.mkdir()
    env = git_env(home)
    repo = dest / "proj"
    wiki = None
    if workload == "history-wiki":
        source_commits, wiki_commits, manifest = _build_wiki(rng, params)
        wiki = dest / "proj.wiki"
        write_repo(wiki, wiki_commits, env)
    elif workload == "history-deep":
        source_commits, manifest = _build_deep(rng, params)
    else:
        source_commits, manifest = _build_wide(rng, params)
    write_repo(repo, source_commits, env)
    mode = MODES[workload]
    manifest.update(workload=workload, seed=seed, size=size, mode=mode, expected_exit=1)
    return Corpus(workload, mode, repo, wiki, SCAN_TIME, manifest, dict(params))
