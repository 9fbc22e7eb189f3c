"""The docs honesty gate: the guides must not drift from the code.

Four mechanical checks over README.md, ``docs/*.md``, and every other
markdown file in the repository:

* every fenced ``python`` block must **compile** (no pseudo-code with
  ``...`` placeholders masquerading as runnable examples), and the
  self-contained quickstart blocks are **executed**;
* every ``python -m repro ...`` command shown in a fenced block must
  parse against the real argparse CLI — a renamed or removed flag
  fails here, not in a reader's terminal;
* every backticked ``repro.x.y`` dotted path must resolve to a real
  module or attribute;
* every relative markdown link must point at a file that exists.

Plus a curated anchor list: claims the docs make by name (flags,
routes, classes) that must keep existing verbatim.
"""

from __future__ import annotations

import importlib
import os
import re
import shlex

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _markdown_files():
    paths = []
    for name in sorted(os.listdir(REPO)):
        if name.endswith(".md"):
            paths.append(os.path.join(REPO, name))
    docs = os.path.join(REPO, "docs")
    for name in sorted(os.listdir(docs)):
        if name.endswith(".md"):
            paths.append(os.path.join(docs, name))
    return paths


MARKDOWN_FILES = _markdown_files()
#: The pages the gate holds to executable standards (ISSUE/CHANGES are
#: working notes; EXPERIMENTS.md is generated output).
GUIDE_FILES = [
    path
    for path in MARKDOWN_FILES
    if os.path.basename(path) == "README.md" or os.sep + "docs" + os.sep in path
]


def _rel(path):
    return os.path.relpath(path, REPO)


def _fenced_blocks(path):
    """(language, source, first_line_number) for every fenced block."""
    blocks = []
    language = None
    buffer = []
    start = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            stripped = line.strip()
            if language is None and stripped.startswith("```"):
                language = stripped[3:].strip() or "text"
                buffer = []
                start = lineno + 1
            elif language is not None and stripped.startswith("```"):
                blocks.append((language, "".join(buffer), start))
                language = None
            elif language is not None:
                buffer.append(line)
    return blocks


def _python_blocks():
    cases = []
    for path in GUIDE_FILES:
        for language, source, lineno in _fenced_blocks(path):
            if language in ("python", "py"):
                cases.append(
                    pytest.param(
                        path, source, lineno, id=f"{_rel(path)}:{lineno}"
                    )
                )
    return cases


class TestPythonSnippets:
    @pytest.mark.parametrize("path,source,lineno", _python_blocks())
    def test_block_compiles(self, path, source, lineno):
        try:
            compile(source, f"{_rel(path)}:{lineno}", "exec")
        except SyntaxError as error:
            pytest.fail(
                f"{_rel(path)}:{lineno}: fenced python block does not "
                f"compile: {error}"
            )

    # (file, identifying substring) -> the block is executed end to end.
    EXECUTED = [
        ("README.md", "characterize(program"),
        (os.path.join("docs", "service.md"), "ServiceClient(service)"),
        (os.path.join("docs", "branch-prediction.md"), "LdbpReclamation()"),
    ]

    @pytest.mark.parametrize("relpath,marker", EXECUTED,
                             ids=[m[0] for m in EXECUTED])
    def test_quickstart_blocks_execute(self, relpath, marker):
        from repro import obs

        path = os.path.join(REPO, relpath)
        matching = [
            (source, lineno)
            for language, source, lineno in _fenced_blocks(path)
            if language in ("python", "py") and marker in source
        ]
        assert matching, f"{relpath}: no python block contains {marker!r}"
        for source, lineno in matching:
            try:
                exec(  # noqa: S102 - executing our own documentation
                    compile(source, f"{_rel(path)}:{lineno}", "exec"), {}
                )
            finally:
                obs.disable()


def _repro_cli_lines():
    cases = []
    for path in GUIDE_FILES:
        for language, source, lineno in _fenced_blocks(path):
            if language not in ("bash", "sh", "shell", "console"):
                continue
            joined = source.replace("\\\n", " ")
            for offset, line in enumerate(joined.split("\n")):
                line = line.split("#", 1)[0].strip()
                if "python -m repro" not in line:
                    continue
                argv = shlex.split(line[line.index("python -m repro"):])[3:]
                for stop, token in enumerate(argv):
                    if token in ("|", ">", ">>", "&&", ";"):
                        argv = argv[:stop]
                        break
                if argv:
                    cases.append(
                        pytest.param(
                            path, argv, lineno + offset,
                            id=f"{_rel(path)}:{lineno + offset}:{argv[0]}",
                        )
                    )
    return cases


class TestCliSnippets:
    @pytest.mark.parametrize("path,argv,lineno", _repro_cli_lines())
    def test_documented_command_parses(self, path, argv, lineno, capsys):
        from repro.cli import _build_parser

        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            stderr = capsys.readouterr().err.strip().splitlines()
            detail = stderr[-1] if stderr else "unknown argparse error"
            pytest.fail(
                f"{_rel(path)}:{lineno}: documented command "
                f"`python -m repro {' '.join(argv)}` does not parse: {detail}"
            )


_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")


def _dotted_references():
    seen = {}
    for path in GUIDE_FILES:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                for match in _DOTTED.finditer(line):
                    seen.setdefault(match.group(1), (path, lineno))
    return [
        pytest.param(name, path, lineno, id=name)
        for name, (path, lineno) in sorted(seen.items())
    ]


class TestDottedPaths:
    @pytest.mark.parametrize("name,path,lineno", _dotted_references())
    def test_reference_resolves(self, name, path, lineno):
        parts = name.split(".")
        for split in range(len(parts), 0, -1):
            module_name = ".".join(parts[:split])
            try:
                target = importlib.import_module(module_name)
            except ImportError:
                continue
            for attribute in parts[split:]:
                if not hasattr(target, attribute):
                    pytest.fail(
                        f"{_rel(path)}:{lineno}: `{name}` names a missing "
                        f"attribute {attribute!r} on {module_name}"
                    )
                target = getattr(target, attribute)
            return
        pytest.fail(f"{_rel(path)}:{lineno}: `{name}` does not import")


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links():
    cases = []
    for path in MARKDOWN_FILES:
        in_fence = False
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if line.strip().startswith("```"):
                    in_fence = not in_fence
                if in_fence:
                    continue
                for match in _LINK.finditer(line):
                    target = match.group(1)
                    if target.startswith(("http://", "https://", "mailto:", "#")):
                        continue
                    cases.append(
                        pytest.param(
                            path, target, lineno,
                            id=f"{_rel(path)}:{lineno}:{target}",
                        )
                    )
    return cases


class TestRelativeLinks:
    @pytest.mark.parametrize("path,target,lineno", _relative_links())
    def test_link_target_exists(self, path, target, lineno):
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), target.split("#", 1)[0])
        )
        if not os.path.exists(resolved):
            pytest.fail(
                f"{_rel(path)}:{lineno}: dead relative link ({target})"
            )


#: Facts the docs state by name; renaming the thing must fail here.
REQUIRED_ANCHORS = {
    "README.md": ["Session(", "switch reference engine", "python -m repro serve",
                  "docs/service.md", "FailedCell"],
    os.path.join("docs", "architecture.md"): [
        "repro.api.Session", "workload_fingerprint", "/runs/",
        "Session.run", "429 queue_full", "shared run cache",
    ],
    os.path.join("docs", "service.md"): [
        "--max-queue", "`--jobs 2` or more", "requests ahead", "--deadline",
        "/healthz", "/metrics", "/v1/characterize", "/v1/submit",
        "queue_full", "deadline_exceeded", "task_failed",
        "ServiceClient", "retry_after_s", "serve.singleflight_hits",
        "X-Repro-Request-Id", "--access-log", "--flightrec-dir",
        "--no-telemetry", "format=prometheus", "coalesced_into",
    ],
    os.path.join("docs", "robustness.md"): [
        "FailedCell", "WorkerCrash", "--checkpoint", "quarantine",
    ],
    os.path.join("docs", "performance.md"): [
        "The reference engine", "test_fuzz.py", "test_timed_path.py",
    ],
    os.path.join("docs", "observability.md"): [
        "--trace", "perfbench/run.py", "X-Repro-Request-Id",
        "format=prometheus", "obs tail", "repro-flightrec-v1",
        "serve `wall_s`",
    ],
    os.path.join("docs", "parallel.md"): ["--jobs", "cache"],
    os.path.join("docs", "traces.md"): [
        "Session", "analyze", "trace record", "trace replay", "trace ls",
        "--tools", "/v1/analyze", 'tool_config="trace"',
        "test_differential.py", "ldbp",
    ],
    os.path.join("docs", "branch-prediction.md"): [
        "make_predictor", "access_branch", "precompute_coverage",
        "--platform ldbp", "`ldbp.reclaims`", "EXPERIMENTS.md",
        "needs_values=True", "arXiv:2009.09064",
    ],
    os.path.join("docs", "timing-model.md"): [
        "--platform ldbp", "LoadDrivenBranchPredictor", "ldbp=True",
    ],
    os.path.join("docs", "fidelity.md"): [
        "Perfect timeliness", "correct by construction",
    ],
}


class TestAnchors:
    @pytest.mark.parametrize(
        "relpath,anchors", sorted(REQUIRED_ANCHORS.items()),
        ids=[p for p, _ in sorted(REQUIRED_ANCHORS.items())],
    )
    def test_page_keeps_its_claims(self, relpath, anchors):
        with open(os.path.join(REPO, relpath), encoding="utf-8") as handle:
            text = handle.read()
        missing = [anchor for anchor in anchors if anchor not in text]
        assert not missing, f"{relpath}: lost anchors {missing}"

    def test_fidelity_page_cites_exactly_the_ledger(self):
        """docs/fidelity.md summarizes the claims ledger: it cites every
        row of ``repro.core.claims`` by id, and no id the ledger lacks."""
        from repro.core.claims import CLAIMS

        with open(
            os.path.join(REPO, "docs", "fidelity.md"), encoding="utf-8"
        ) as handle:
            cited = set(re.findall(r"`([a-z0-9]+\.[a-z0-9-]+)`", handle.read()))
        assert cited == {claim.id for claim in CLAIMS}

    def test_every_docs_page_links_the_architecture_map(self):
        docs = os.path.join(REPO, "docs")
        for name in sorted(os.listdir(docs)):
            if not name.endswith(".md") or name == "architecture.md":
                continue
            with open(os.path.join(docs, name), encoding="utf-8") as handle:
                text = handle.read()
            assert "architecture.md" in text, (
                f"docs/{name}: missing cross-link to the architecture map"
            )

    def test_every_package_is_on_the_architecture_map(self):
        """docs/architecture.md is *the* map: a src/repro package that
        is not on it is invisible to readers, so adding a package means
        adding its line (and, ideally, its docs page) there."""
        src = os.path.join(REPO, "src", "repro")
        with open(
            os.path.join(REPO, "docs", "architecture.md"), encoding="utf-8"
        ) as handle:
            text = handle.read()
        missing = [
            name
            for name in sorted(os.listdir(src))
            if os.path.isdir(os.path.join(src, name))
            and not name.startswith("__")
            and f"{name}/" not in text
        ]
        assert not missing, (
            f"docs/architecture.md module map is missing packages: {missing}"
        )
