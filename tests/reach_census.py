"""The reach census: does every function under ``src/repro`` run?

The static census (``tests/test_docs_links.py``) asks whether a public
name is *referenced* outside tests.  This one asks whether a function is
*called* when the entry points a claim rests on run.  It records every
``repro`` code object entered, in every process those entry points
start -- forked pool workers, ``python -m repro.cli worker`` and
``perf/child.py`` subprocesses, threads -- and fails on a function under
``src/repro`` that none of them entered, unless a stated rule exempts it
or :data:`ALLOWLIST` names it with a reason.

Run from the repository root (about two minutes on two cores)::

    python tests/reach_census.py                  # every entry class
    python tests/reach_census.py --only examples cli
    python tests/reach_census.py --summary "$GITHUB_STEP_SUMMARY"

It prints, per module, the functions reached out of those defined and
the lines of the unreached ones, then every offender as
``path:qualname``.  Exempt without a list entry: a function whose body
only raises ``NotImplementedError``, and a ``def`` line marked
``# pragma: no cover``.

How it records: the driver puts a directory on ``PYTHONPATH`` whose
``sitecustomize.py`` is a copy of this file, so every Python process the
entry points start imports it at start-up and installs a
``sys.setprofile`` / ``threading.setprofile`` hook.  A process writes
what it entered at exit; a forked child leaves through ``os._exit``,
which skips ``atexit``, so ``os._exit`` is wrapped to write first.  A
process killed by a signal records nothing -- another process must
reach what it ran.

Standard library only (Python 3.9+); pytest does not collect this file.
Its own tests are ``tests/test_reach_census.py``.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading

#: Set in every recorded process: the directory whose code objects count
#: (with a trailing separator) and where each process writes its hits.
SRC_ENV = "REACH_CENSUS_SRC"
OUT_ENV = "REACH_CENSUS_OUT"

#: ``path:qualname`` -> why a function no entry point runs stays.
ALLOWLIST = {
    "src/repro/nn/zoo.py:build_cifar10_cnn":
        "paper CIFAR-10 model; ROADMAP item 19 trains it",
    "src/repro/nn/zoo.py:build_femnist_cnn":
        "paper FEMNIST model; ROADMAP item 19 trains it",
    "src/repro/simcluster/client.py:SimClient.evaluate":
        "perf/spans.py wraps it; ROADMAP item 1 retires that target",
    "src/repro/simcluster/client.py:SimClient.mean_response_latency":
        "closed-form reference the profiler and server tests check against",
    "src/repro/simcluster/client.py:SimClient.train_data":
        "the gathered train split the materialise and train-step pins hash",
    "src/repro/simcluster/latency.py:LatencyModel.mean_compute":
        "closed-form reference the latency tests check against",
    "src/repro/simcluster/network.py:CommModel.mean_round_trip":
        "closed-form reference the latency tests check against",
    "src/repro/simcluster/population.py:PopulationStore.evict_all":
        "test hook: forces cold re-materialisation under the pins",
    "src/repro/simcluster/population.py:PopulationStore.set_available":
        "test hook: the one writer behind the availability column",
    "src/repro/distributed/protocol.py:encode_trainfail":
        "a worker's failed train job; test_distributed_executor.py raises one",
    "src/repro/distributed/worker.py:WorkerAgent._handle_train.<locals>.fail":
        "a worker's failed train job; test_distributed_executor.py raises one",
    "src/repro/fl/server.py:FLServer.exclude_clients":
        "Sec. 4.2 profiling dropouts; no entry's federation has one",
    "src/repro/tifl/scheduler.py:TierPolicy.record_tier_accuracies":
        "a static policy ignores tier feedback; adaptive is the entries' one",
}
ALLOWLIST_CAP = 15


# -- the recorder: runs in every process, as ``sitecustomize`` ------------

_hits = set()
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_src):
                _hits.add((code.co_filename, code.co_firstlineno))


def _dump():
    if _hits:
        path = os.path.join(os.environ[OUT_ENV], f"{os.getpid()}.hits")
        with open(path, "a") as fh:
            fh.writelines(f"{line}\t{name}\n" for name, line in _hits)
        _hits.clear()


def _install():
    global _src
    _src = os.environ[SRC_ENV]
    real_exit = os._exit

    def _exit(status):
        _dump()
        real_exit(status)

    os._exit = _exit
    atexit.register(_dump)
    # A forked child starts with its parent's hits; the parent writes
    # those itself, so the child writes only what it enters.
    os.register_at_fork(after_in_child=_hits.clear)
    threading.setprofile(_profile)
    sys.setprofile(_profile)


_src = None
if __name__ == "sitecustomize" and os.environ.get(SRC_ENV):
    _install()


# -- the driver ------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPRO = os.path.join(ROOT, "src", "repro")
#: Per-command wall-clock limit: a hang fails the census, not the job.
COMMAND_TIMEOUT = 300


def _cli(*args):
    return [sys.executable, "-m", "repro.cli", *args]


#: A reduced scenario for the documented CLI lines: same code paths,
#: seconds instead of minutes.
_SMALL = ("--rounds", "3", "--num-clients", "20", "--clients-per-round", "2",
          "--train-size", "400", "--test-size", "100")


def entry_classes(tmp):
    """``class -> [command]``: what a claim or a reader runs.  A command
    is an argv list, or a callable taking the environment to run with
    (for the multi-process distributed line)."""
    import glob

    trace = os.path.join(tmp, "trace.jsonl")
    return {
        "examples": [
            [sys.executable, path]
            for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
        ],
        "paper": [[
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            *sorted(glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py"))),
        ]],
        "perf": [[sys.executable, os.path.join("perf", "bench.py"), "--smoke",
                  "--out", os.path.join(tmp, "perf-out")]],
        "cli": [
            _cli("run", "--dataset", "mnist", "--policy", "vanilla", *_SMALL),
            _cli("run", *_SMALL),
            _cli("compare", *_SMALL),
            _cli("run", "--executor", "process", "--workers", "2", *_SMALL),
            _distributed_run,
            _cli("run", *_SMALL, "--trace-out", trace),
            _cli("report", trace),
            _cli("report", trace, "--validate"),
            _cli("estimate", "--dataset", "mnist", "--rounds", "500"),
            _cli("privacy", "--pool", "50", "--cohort", "5", "--eps", "0.5"),
            _cli("scale", "--num-clients", "20000", "--rounds", "2", "--seed", "1",
                 "--duty-cycle", "0.25"),
        ],
        "faults": [[
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            os.path.join("tests", "distributed", "test_reconnect.py"),
            os.path.join("tests", "distributed", "test_collector.py"),
            os.path.join("tests", "distributed", "test_protocol.py"),
        ]],
    }


def _distributed_run(env):
    """README's distributed recipe: a coordinator on an ephemeral port and
    two ``worker`` processes that dial the port it prints."""
    import subprocess
    import tempfile
    import time

    with tempfile.TemporaryFile("w+") as log:
        procs = [subprocess.Popen(
            _cli("run", "--executor", "distributed", "--workers", "2",
                 "--connect", "127.0.0.1:0", *_SMALL),
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
        )]
        try:
            deadline = time.monotonic() + 60
            while True:
                log.seek(0)
                words = log.read().split("listening on ")
                if len(words) > 1:
                    endpoint = words[1].split(";")[0]
                    break
                if procs[0].poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("distributed coordinator never listened")
                time.sleep(0.05)
            procs += [
                subprocess.Popen(_cli("worker", "--connect", endpoint), cwd=ROOT,
                                 env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
                for _ in range(2)
            ]
            codes = [p.wait(COMMAND_TIMEOUT) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
    if any(codes):
        raise RuntimeError(f"distributed run exited {codes}")


def record(commands, *, src, out, cwd=ROOT, pythonpath=()):
    """Run ``commands`` with the recorder installed in every process,
    counting code under ``src``; each process writes into ``out``."""
    import shutil
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory() as site:
        shutil.copy(os.path.abspath(__file__), os.path.join(site, "sitecustomize.py"))
        env = dict(os.environ)
        env[SRC_ENV] = os.path.join(os.path.abspath(src), "")
        env[OUT_ENV] = out
        env["PYTHONPATH"] = os.pathsep.join(
            [site, *pythonpath, *filter(None, [env.get("PYTHONPATH")])]
        )
        for command in commands:
            if callable(command):
                command(env)
                continue
            done = subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT)
            if done.returncode:
                tail = (done.stdout + done.stderr).splitlines()[-40:]
                raise RuntimeError(
                    f"exited {done.returncode}: {' '.join(command)}\n" + "\n".join(tail)
                )


def load_hits(out):
    """Every ``(file, first line)`` any recorded process entered."""
    hits = set()
    for name in os.listdir(out):
        with open(os.path.join(out, name)) as fh:
            for row in fh:
                line, path = row.rstrip("\n").split("\t", 1)
                hits.add((os.path.realpath(path), int(line)))
    return hits


def definitions(src):
    """``[(path, qualname, first line, last line, exempt)]`` for every
    ``def`` under ``src``, nested ones too.  ``first line`` is where the
    code object starts: the first decorator, else the ``def``."""
    import ast

    found = []

    def walk(node, path, lines, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                exempt = (_only_raises_not_implemented(child)
                          or "# pragma: no cover" in lines[child.lineno - 1])
                found.append((path, qualname, first, child.end_lineno, exempt))
                walk(child, path, lines, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, lines, prefix + child.name + ".")
            else:
                walk(child, path, lines, prefix)

    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.realpath(os.path.join(directory, name))
                with open(path) as fh:
                    text = fh.read()
                walk(ast.parse(text), path, text.splitlines(), "")
    return found


def _only_raises_not_implemented(node):
    import ast

    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def census(defs, hits, allowlist, root):
    """``(rows, unreached, stale)``.  ``rows`` is ``(module, reached,
    defined, unreached lines)`` per file; ``unreached`` the offenders and
    ``stale`` the allowlist entries that are reached, exempt or gone, both
    as ``path:qualname``."""
    rows = {}
    unreached, listed = [], set()
    for path, qualname, first, last, exempt in defs:
        key = f"{os.path.relpath(path, root)}:{qualname}"
        reached = (path, first) in hits
        row = rows.setdefault(os.path.relpath(path, root), [0, 0, set()])
        row[0] += reached
        row[1] += 1
        if reached:
            continue
        row[2].update(range(first, last + 1))
        if key in allowlist and not exempt:
            listed.add(key)
        elif not exempt:
            unreached.append(key)
    table = [(module, r, d, len(lines)) for module, (r, d, lines) in sorted(rows.items())]
    stale = sorted(set(allowlist) - listed)
    return table, unreached, stale


def render(table, markdown=False):
    reached = sum(r for _, r, _, _ in table)
    defined = sum(d for _, _, d, _ in table)
    lines = sum(n for _, _, _, n in table)
    width = max(len(m) for m, _, _, _ in table)
    out = [f"{'module':<{width}}  reached/defined  unreached lines"]
    out += [f"{m:<{width}}  {r:>7}/{d:<7}  {n:>15}" for m, r, d, n in table if r < d]
    out.append(f"{'total':<{width}}  {reached:>7}/{defined:<7}  {lines:>15}")
    out.append(f"({len(table) - sum(r < d for _, r, d, _ in table)} fully reached "
               f"modules not listed)")
    if markdown:
        return "### Reach census\n```\n" + "\n".join(out) + "\n```\n"
    return "\n".join(out)


def main(argv=None):
    import argparse
    import tempfile
    import time

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    classes = list(entry_classes(""))
    ap.add_argument("--only", nargs="+", choices=classes, default=classes,
                    help="entry classes to run (a subset reports more "
                         "unreached functions; only all of them gate)")
    ap.add_argument("--summary", metavar="PATH",
                    help="also append the per-module table, as markdown, here")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "hits")
        os.mkdir(out)
        entries = entry_classes(tmp)
        for name in args.only:
            start = time.monotonic()
            record(entries[name], src=REPRO, out=out,
                   pythonpath=[os.path.join(ROOT, "src")])
            print(f"[reach] {name}: {time.monotonic() - start:.0f} s", file=sys.stderr)
        hits = load_hits(out)

    table, unreached, stale = census(definitions(REPRO), hits, ALLOWLIST, ROOT)
    print(render(table))
    if args.summary:
        with open(args.summary, "a") as fh:
            fh.write(render(table, markdown=True))
    found = problems(unreached, stale, ALLOWLIST)
    if found:
        print("\n".join(found))
    return 1 if found else 0


def problems(unreached, stale, allowlist):
    """What fails the census, one paragraph each; empty when it passes."""
    found = []
    if unreached:
        found.append("\nfunctions no entry point runs -- delete them (with the options "
                     "that only feed them) or allowlist them with a reason:\n"
                     + "\n".join(f"  {key}" for key in unreached))
    if stale:
        found.append("\nallowlisted functions that now run, are exempt or are gone:\n"
                     + "\n".join(f"  {key}" for key in stale))
    if len(allowlist) > ALLOWLIST_CAP:
        found.append(f"\nthe allowlist has {len(allowlist)} entries; the cap is {ALLOWLIST_CAP}")
    return found


if __name__ == "__main__":
    sys.exit(main())
