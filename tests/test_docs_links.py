"""The docs tree must not rot: every relative link and cited path resolves.

Scans README.md, docs/*.md, the verify skill and the CI workflow for
markdown links, inline-code path references and the paths handed to
``python`` / ``pytest`` on a command line, and fails if any target does
not exist.  This is the CI docs gate: renaming or deleting a module,
test file or script without updating the documents -- or the workflow
steps -- that name it breaks here, not in a reader's browser or on the
runner.  The same goes for a removed backend or codec: every name a
recipe hands to ``--executor`` or ``--codec`` must still be one, and
``docs/architecture.md``'s frame table must be the rendering of the
protocol's frame rows.

The same file holds the census of public names: every public
module-level ``def`` / ``class`` and every public method under
``src/repro`` must be *used* -- loaded as a name or an attribute outside
its own definition -- somewhere in ``src/``, ``benchmarks/``,
``examples/`` or ``perf/`` (where a wrap-target string such as
``"repro.fl.server:fedavg"`` counts), or sit on :data:`CENSUS_ALLOWLIST`
with its reason.  Tests are not users: a name only tests call is dead
code with a test attached.
"""

import ast
import importlib.util
import re
import struct
import sys
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
#: README's flag-table row for ``--codec`` (its choices cell) and the
#: verify skill's ``--codec {raw,delta}`` spelling.
CODEC_ROW = re.compile(r"^\| `--codec` \|([^|]*)\|", re.M)
CODEC_CHOICES = re.compile(r"--codec \{([a-z_,]+)\}")


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


#: A markdown file a source docstring or comment cites, e.g.
#: ``docs/numerics.md`` or ``CHANGES.md``; always repo-root-relative.
SOURCE_MD = re.compile(r"[A-Za-z0-9_\-./]*[A-Za-z0-9_\-]\.md\b")


def test_markdown_cited_in_source_resolves():
    broken = [
        f"{path.relative_to(REPO_ROOT)}: {target}"
        for root in ("src/repro", "benchmarks", "examples")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        for target in SOURCE_MD.findall(path.read_text())
        if not (REPO_ROOT / target).is_file()
    ]
    assert not broken, "the code cites markdown files that do not exist:\n" + "\n".join(broken)


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


def test_codec_flags_name_real_codecs():
    from repro.codec import CODEC_NAMES

    rows = CODEC_ROW.findall((REPO_ROOT / "README.md").read_text())
    assert len(rows) == 1, "README must have one `--codec` flag row"
    assert tuple(re.findall(r"`([a-z_]+)`", rows[0])) == CODEC_NAMES
    skill = (REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md").read_text()
    spelled = CODEC_CHOICES.findall(skill)
    assert spelled, "the verify skill no longer spells out the --codec choices"
    assert all(tuple(choices.split(",")) == CODEC_NAMES for choices in spelled)


#: ``docs/architecture.md``'s frame table, between its two markers.
FRAME_TABLE = re.compile(r"<!-- frame table: rendered from FRAMES -->\n(.*?)<!-- end -->", re.S)


def render_frame_table():
    """``protocol.FRAMES`` as the markdown table ``docs/architecture.md``
    prints, then the count of pickle sites on the wire."""
    from repro.distributed.protocol import FRAMES

    lines = ["| type | frame | direction | layout | fields | purpose |", "|---" * 6 + "|"]
    pickled = []
    for spec in FRAMES:
        if spec.layout == "struct":  # header fields hold struct codes
            fields = [(name, f"u{8 * struct.calcsize(code)}") for name, code in spec.fields]
        else:
            fields = list(spec.fields)
        cell = ", ".join(f"`{name}` {kind}" for name, kind in fields + list(spec.tail)) or "—"
        lines.append(
            f"| {spec.type.value} | {spec.type.name} | {spec.direction} | {spec.layout} "
            f"| {cell} | {spec.purpose} |"
        )
        if spec.layout == "pickle":
            pickled.append(spec.type.name)
        pickled += [f"{spec.type.name}'s `{name}`" for name, how in spec.tail if how == "pickle"]
    lines += ["", f"Pickle sites on the wire: **{len(pickled)}** ({', '.join(pickled)})."]
    return "\n".join(lines) + "\n"


def test_frame_table_is_rendered_from_the_rows():
    blocks = FRAME_TABLE.findall((REPO_ROOT / "docs" / "architecture.md").read_text())
    assert len(blocks) == 1, "docs/architecture.md must hold one rendered frame table"
    expected = render_frame_table()
    assert blocks[0] == expected, "the frame table in docs/architecture.md is stale:\n" + expected


#: ``docs/benchmarks.md``'s table of the paper's figure entries.
FIGURE_TABLE = re.compile(
    r"<!-- figure table: rendered from FIGURES -->\n(.*?)<!-- end -->", re.S
)


def render_figure_table():
    """``benchmarks/figures.py``'s ``FIGURES`` as the markdown table
    ``docs/benchmarks.md`` prints: one row per entry, in registry order."""
    name = "benchmarks_figures"
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "benchmarks" / "figures.py")
    figures = importlib.util.module_from_spec(spec)
    sys.modules[name] = figures  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(figures)
    finally:
        del sys.modules[name]
    lines = ["| test id | artifact | the paper's claim |", "|---|---|---|"]
    lines += [f"| `{f.name}` | `{f.artifact}.txt` | {f.claim} |" for f in figures.FIGURES]
    return "\n".join(lines) + "\n"


def test_figure_table_is_rendered_from_the_registry():
    blocks = FIGURE_TABLE.findall((REPO_ROOT / "docs" / "benchmarks.md").read_text())
    assert len(blocks) == 1, "docs/benchmarks.md must hold one rendered figure table"
    expected = render_figure_table()
    assert blocks[0] == expected, "the figure table in docs/benchmarks.md is stale:\n" + expected


#: Where a public name may find its user.
CENSUS_ROOTS = ("src", "benchmarks", "examples", "perf")
#: A ``perf/`` string naming what it wraps: ``"module:attr.path"`` or a
#: bare attribute handed to ``getattr``.
WRAP_TARGET = re.compile(r"[A-Za-z_][\w.]*(?::[\w.]+)?")
#: ``path:qualname`` -> why a name only tests use stays public.
CENSUS_ALLOWLIST = {
    "src/repro/distributed/coordinator.py:PoolExecutor.worker_pid":
        "test hook: the worker process a SIGKILL test kills",
    "src/repro/simcluster/client.py:SimClient.mean_response_latency":
        "closed-form reference the profiler and server tests check against",
    "src/repro/simcluster/client.py:SimClient.train_data":
        "the gathered train split the materialise and train-step pins hash",
    "src/repro/simcluster/population.py:PopulationStore.evict_all":
        "test hook: forces cold re-materialisation under the pins",
    "src/repro/simcluster/population.py:PopulationStore.set_available":
        "the one public writer behind the read-only availability column",
}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree):
    """``(qualname, node)``: public module-level defs / classes and public
    methods (of any class)."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEFS[:2]) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _uses(tree, wrap_targets):
    """``(name, definitions enclosing the use)`` of every loaded name and
    attribute; with ``wrap_targets``, of every part of a wrap-target
    string too.  Imports and ``__all__`` are neither, so they do not
    count."""
    found = []

    def walk(node, inside):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, inside))
        elif (
            wrap_targets
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and WRAP_TARGET.fullmatch(node.value)
        ):
            found.extend((part, inside) for part in re.split("[:.]", node.value))
        if isinstance(node, _DEFS):
            inside = inside | {node}
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return found


def unused_public_names():
    """``path:qualname`` of every public definition under ``src/repro``
    with no use outside itself in :data:`CENSUS_ROOTS`."""
    trees = {
        path: ast.parse(path.read_text())
        for root in CENSUS_ROOTS
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
    }
    uses = {}
    for path, tree in trees.items():
        in_perf = path.is_relative_to(REPO_ROOT / "perf")
        for name, inside in _uses(tree, wrap_targets=in_perf):
            uses.setdefault(name, []).append(inside)
    return [
        f"{path.relative_to(REPO_ROOT)}:{qualname}"
        for path, tree in trees.items()
        if path.is_relative_to(REPO_ROOT / "src" / "repro")
        for qualname, node in _public_definitions(tree)
        if all(node in inside for inside in uses.get(node.name, ()))
    ]


def test_every_public_name_has_a_user():
    unused = set(unused_public_names())
    unexplained = sorted(unused - set(CENSUS_ALLOWLIST))
    assert not unexplained, (
        "public names nothing outside tests uses -- delete them (and the "
        "tests that only exercise them) or allowlist them with a reason:\n"
        + "\n".join(unexplained)
    )
    stale = sorted(set(CENSUS_ALLOWLIST) - unused)
    assert not stale, "allowlisted names that now have a user:\n" + "\n".join(stale)
    assert len(CENSUS_ALLOWLIST) <= 15
