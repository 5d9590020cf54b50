"""Tests for the reach census collector (``tests/reach_census.py``).

A throwaway package is run under the recorder the way the census runs
the repository's entry points: a function entered only in a forked
child that leaves through ``os._exit``, only on a thread, or only in a
subprocess must read as reached; one nobody calls must be reported by
``path:qualname``; a stale allowlist entry must fail the census.
"""

import os
import sys
import textwrap

import pytest

from tests.reach_census import (
    ALLOWLIST,
    ALLOWLIST_CAP,
    REPRO,
    ROOT,
    census,
    definitions,
    load_hits,
    problems,
    record,
)

MODULE = '''
def forked():
    return 1


def threaded():
    return 2


def in_subprocess():
    return 3


def never():
    return 4


class Shape:
    def area(self):
        raise NotImplementedError("subclasses say how")


def cosmetic():  # pragma: no cover
    return 5
'''

ENTRY = '''
import os
import subprocess
import sys
import threading

from census_pkg import mod

thread = threading.Thread(target=mod.threaded)
thread.start()
thread.join()
pid = os.fork()
if pid == 0:
    mod.forked()
    os._exit(0)
os.waitpid(pid, 0)
subprocess.run(
    [sys.executable, "-c", "from census_pkg import mod; mod.in_subprocess()"], check=True
)
'''

NEVER = "src/census_pkg/mod.py:never"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``(definitions, hits, root)`` of one recorded run of ``ENTRY``."""
    root = tmp_path_factory.mktemp("census")
    package = root / "src" / "census_pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    (root / "entry.py").write_text(textwrap.dedent(ENTRY))
    out = root / "hits"
    out.mkdir()
    record([[sys.executable, "entry.py"]], src=str(package), out=str(out),
           cwd=str(root), pythonpath=[str(root / "src")])
    return definitions(str(package)), load_hits(str(out)), str(root)


def test_fork_thread_and_subprocess_calls_are_recorded(recorded):
    defs, hits, root = recorded
    table, unreached, stale = census(defs, hits, {}, root)
    # forked / threaded / in_subprocess reached; never, area and cosmetic not.
    assert table == [("src/census_pkg/mod.py", 3, 6, 2 + 2 + 2)]
    assert unreached == [NEVER]
    assert stale == []
    assert problems(unreached, stale, {}) and NEVER in problems(unreached, stale, {})[0]


def test_an_allowlisted_function_passes(recorded):
    defs, hits, root = recorded
    allow = {NEVER: "kept for a reason"}
    _, unreached, stale = census(defs, hits, allow, root)
    assert (unreached, stale) == ([], [])
    assert problems(unreached, stale, allow) == []


@pytest.mark.parametrize("entry", [
    "src/census_pkg/mod.py:threaded",        # reached
    "src/census_pkg/mod.py:Shape.area",      # exempt: only raises NotImplementedError
    "src/census_pkg/mod.py:cosmetic",        # exempt: pragma
    "src/census_pkg/mod.py:gone",            # no such function
])
def test_a_stale_allowlist_entry_fails(recorded, entry):
    defs, hits, root = recorded
    allow = {NEVER: "kept for a reason", entry: "stale"}
    _, unreached, stale = census(defs, hits, allow, root)
    assert unreached == []
    assert stale == [entry]
    assert problems(unreached, stale, allow)


def test_definitions_name_nested_functions_and_start_at_the_decorator(tmp_path):
    (tmp_path / "nested.py").write_text(textwrap.dedent('''
        import functools


        class Box:
            @functools.lru_cache()
            def size(self):
                def inner():
                    return 1
                return inner()


        def todo():
            """Not yet."""
            raise NotImplementedError
    '''))
    found = {q: (first, last, exempt) for _, q, first, last, exempt in definitions(str(tmp_path))}
    assert found == {
        "Box.size": (6, 10, False),
        "Box.size.<locals>.inner": (8, 9, False),
        "todo": (13, 15, True),
    }


def test_an_allowlist_over_the_cap_fails():
    allow = {f"src/pkg/mod.py:f{i}": "a reason" for i in range(ALLOWLIST_CAP + 1)}
    found = problems([], [], allow)
    assert len(found) == 1 and f"the cap is {ALLOWLIST_CAP}" in found[0]
    del allow["src/pkg/mod.py:f0"]
    assert problems([], [], allow) == []


def test_the_allowlist_names_defined_functions_with_reasons():
    """Statically, without running an entry point: every entry is a
    function under ``src/repro`` that no rule exempts, and says why."""
    defined = {
        f"{os.path.relpath(path, ROOT)}:{qualname}": exempt
        for path, qualname, _, _, exempt in definitions(REPRO)
    }
    assert len(ALLOWLIST) <= ALLOWLIST_CAP
    for key, reason in ALLOWLIST.items():
        assert defined.get(key) is False, key
        assert reason.strip(), key
