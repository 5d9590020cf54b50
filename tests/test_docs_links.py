"""The docs tree must not rot: every relative link and cited path resolves.

Scans README.md, docs/*.md, the verify skill and the CI workflow for
markdown links, inline-code path references and the paths handed to
``python`` / ``pytest`` on a command line, and fails if any target does
not exist.  This is the CI docs gate: renaming or deleting a module,
test file or script without updating the documents -- or the workflow
steps -- that name it breaks here, not in a reader's browser or on the
runner.  The same goes for a removed backend: every name a recipe hands
to ``--executor`` must still be one.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = (
    [REPO_ROOT / "README.md"]
    + sorted((REPO_ROOT / "docs").glob("*.md"))
    + [
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        REPO_ROOT / ".github" / "workflows" / "ci.yml",
    ]
)

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_REPO_PATH = r"(?:src|tests|docs|benchmarks|perf|examples)/[A-Za-z0-9_\-./*]+"
#: Inline-code references like ``src/repro/fl/engine.py`` or
#: ``tests/nn/test_stacked.py`` -- docs cite source paths constantly,
#: and a stale citation is as bad as a dead link.
CODE_PATH = re.compile(rf"`({_REPO_PATH})`")
#: A command line that runs something, and a path argument on it: what
#: a workflow step or a quoted recipe hands to ``python`` / ``pytest``
#: (``python perf/bench.py``, ``pytest tests/distributed -q``,
#: ``for f in examples/*.py; do python "$f"``).
COMMAND_LINE = re.compile(r"\b(?:python[\d.]*|pytest)\b")
COMMAND_PATH = re.compile(_REPO_PATH)
#: ``--executor process`` / ``--executor batched|process|distributed``;
#: an upper-case placeholder (``--executor E``) names nothing.
EXECUTOR_FLAG = re.compile(r"--executor[ =]([a-z_]+(?:\|[a-z_]+)*)")


def iter_targets(doc: Path):
    text = doc.read_text()
    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0], "link"
    for match in CODE_PATH.finditer(text):
        yield match.group(1), "code-path"
    # A trailing backslash continues the command onto the next line.
    for line in text.replace("\\\n", " ").splitlines():
        if COMMAND_LINE.search(line):
            for token in line.split():
                token = token.strip("`'\";,()")
                if COMMAND_PATH.fullmatch(token):
                    yield token, "command-path"


def _resolves(base: Path, target: str) -> bool:
    """``target`` exists under ``base``; with a ``*`` it is a glob that
    must match something."""
    if "*" in target:
        return any(base.glob(target))
    return (base / target).exists()


def test_doc_files_exist():
    assert (REPO_ROOT / "docs").is_dir()
    for doc in DOC_FILES:
        assert doc.is_file(), doc


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for target, kind in iter_targets(doc):
        # Links are relative to their document; cited paths are
        # repo-root-relative wherever they appear.
        if not _resolves(doc.parent if kind == "link" else REPO_ROOT, target):
            broken.append(f"{kind}: {target}")
    assert not broken, f"{doc.name} has dead references:\n" + "\n".join(broken)


def test_readme_links_the_docs_tree():
    text = (REPO_ROOT / "README.md").read_text()
    for name in ("architecture", "numerics", "benchmarks"):
        assert f"docs/{name}.md" in text, f"README does not link docs/{name}.md"


def test_executor_flags_name_real_backends():
    from repro.execution import EXECUTOR_BACKENDS

    stale = [
        f"{doc.name}: --executor {name}"
        for doc in DOC_FILES
        for match in EXECUTOR_FLAG.finditer(doc.read_text())
        for name in match.group(1).split("|")
        if name not in EXECUTOR_BACKENDS
    ]
    assert not stale, "docs name backends that do not exist:\n" + "\n".join(stale)
