"""What a cold process loads: numpy and the package, nothing else.

Every CLI call, test / bench child and remote TCP worker pays for
whatever ``import repro`` pulls in, and a remote worker pays it on the
coordinator's critical path (registration waits for it; local workers
are forked with the imports done).  These are import-*set*
tests, not timing tests: each runs a fresh interpreter and reads
``sys.modules``, so a heavy import that creeps back to module scope
fails here in seconds and by name.
"""

import json
import subprocess
import sys

import pytest

from tests.conftest import subprocess_env

#: Runs in the child: import ``argv[1]``, optionally run ``argv[2]``,
#: report the third-party top-level packages and ``repro`` subpackages
#: that arrived (anything already loaded at interpreter start-up, e.g.
#: by a site ``.pth`` hook, is not the package's doing).
_PROBE = """
import importlib, json, sys
before = set(sys.modules)
importlib.import_module(sys.argv[1])
if len(sys.argv) > 2:
    exec(sys.argv[2])
third_party = set()
for name in set(sys.modules) - before:
    path = getattr(sys.modules[name], "__file__", None) or ""
    if "site-packages" in path or "dist-packages" in path:
        third_party.add(name.split(".")[0])
repro = {n for n in sys.modules if n.startswith("repro.") and n.count(".") == 1}
print(json.dumps({"third_party": sorted(third_party), "repro": sorted(repro)}))
"""


def _loaded(module, then=None):
    argv = [sys.executable, "-c", _PROBE, module] + ([then] if then else [])
    out = subprocess.run(
        argv, env=subprocess_env(), capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.distributed.worker"]
)
def test_a_cold_import_loads_numpy_and_the_package_only(module):
    loaded = _loaded(module)
    assert loaded["third_party"] == ["numpy"], (
        f"`import {module}` loads {loaded['third_party']} at module scope; "
        "import heavy optional dependencies inside the function that uses them"
    )


def test_import_repro_leaves_the_networking_stack_unloaded():
    """The promise in ``repro.execution.create_executor``: the pools load
    when one is asked for, not before."""
    assert "repro.distributed" not in _loaded("repro")["repro"]
    assert "repro.distributed" in _loaded(
        "repro", then="sys.modules['repro'].create_executor('process').close()"
    )["repro"]


def test_the_planner_loads_scipy_on_first_call():
    pytest.importorskip("scipy")
    call = (
        "plan = sys.modules['repro'].tifl.plan_fairest_probs([1.0, 2.0, 3.0], 10, 20.0)\n"
        "assert plan.feasible and 'scipy' in sys.modules"
    )
    assert "scipy" in _loaded("repro", then=call)["third_party"]
