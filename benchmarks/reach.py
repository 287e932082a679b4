"""Entry-point reachability audit: the ``src/`` functions no entry point runs.

Runs every user-facing entry point in this process under a
``sys.setprofile`` hook (``threading.setprofile`` too) and lists each
function under ``src/`` that none of them called:

- every ``examples/*.py``;
- every ``python -m repro`` / ``python -m repro.experiments`` call in
  ``.github/workflows/ci.yml``, plus its inline ``validate_perfetto``
  check;
- one ``serve`` per system, per router and per fleet or obs flag;
- the surfaces ``.claude/skills/verify/SKILL.md`` lists;
- ``forensics``: a blame report, a request story, and ``--diff`` both
  ways round;
- ``python -m repro.experiments all --scale 0.05``;
- the serving benchmark's 25 seed-1 episodes
  (``perfbench.workloads.WORKLOADS``), each checked with
  ``perfbench.outcomes.request_ledger``.

Each entry point starts from the process-wide id counters a fresh
``python -m`` starts from (``COUNTERS``), so a CLI call that names a
request by id (``forensics --request 0``) finds the one its serve drew.

Tests and benchmarks are not entry points: a function only they call is
what this audit exists to find.  A function counts as reached when a
code object with its file and first line (its first decorator's line,
if it has one) was called.

Output: the unreached functions by file (line, name, length), then the
totals.  The exit status is 1 when the unreached count differs from
``RECORDED_UNREACHED``: delete what only tests use, or record the new
count here when an entry point legitimately stops reaching a function.

Run from the repository root (about two minutes on a 2-core x86 VM)::

    PYTHONPATH=src PYTHONHASHSEED=0 python benchmarks/reach.py

Without ``PYTHONHASHSEED=0`` the script re-executes itself with it, so
set iteration order, hence every run's path, is the same each time.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import itertools
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Unreached functions at the last audit; a change to it is a deliberate edit.
# At 98 of 870 since ``ElasticInstance.free_slots`` is deleted.
# ``EventQueue.push`` is no longer reached (every post goes through
# ``push_entry``) but stays, as ``perfbench/layers.py`` wraps it.
RECORDED_UNREACHED = 98

QOS_MIX = "interactive:0.3,standard:0.5,batch:0.2"

# The process-wide id counters, (module, name): each starts at 0 in a
# new process.
COUNTERS = (
    ("repro.types", "_request_ids"),
    ("repro.core.batch", "_batch_ids"),
    ("repro.sessions.workload", "_session_ids"),
)

# The CLI's choices, spelled out: importing ``repro`` before the hook is
# armed would hide the calls its modules make at import time.
SYSTEMS = (
    "loongserve", "loongserve-no-scaleup", "vllm", "splitfuse",
    "deepspeed-mii", "distserve", "static-sp", "replicated-tp2",
)
ROUTERS = (
    "round-robin", "least-outstanding", "least-kv", "length-aware",
    "affinity", "slo",
)


def serve_runs(tmp: Path) -> list[list[str]]:
    """``python -m repro serve`` argument lists: per system, router and flag."""
    fleet = ["serve", "--dataset", "mixed", "--rate", "10", "-n", "30",
             "--seed", "3", "--replicas", "3", "--router", "least-kv"]
    runs = [
        ["serve", "--system", system, "--dataset", "mixed", "--rate", "4",
         "-n", "16", "--seed", "1"]
        for system in SYSTEMS
    ]
    runs += [
        ["serve", "--replicas", "3", "--router", router, "--prefix-cache",
         "--dataset", "sessions", "--rate", "8", "-n", "40", "--seed", "2",
         "--qos-mix", QOS_MIX]
        for router in ROUTERS
    ]
    runs += [
        ["serve", "--router", "length-aware", "--long-threshold", "8000",
         "--replicas", "2", "--dataset", "mixed", "--rate", "6", "-n", "20"],
        ["serve", "--dataset", "leval", "--rate", "4", "-n", "12", "--timeline"],
        ["serve", "--dataset", "sessions", "--closed-loop", "-n", "6", "--seed", "5"],
        fleet + ["--autoscale"],
        fleet + ["--autoscale-predictive", "--standby", "1"],
        fleet + ["--steal", "--control-interval", "0.25"],
        fleet + ["--prefix-cache", "--steal", "--migrate-kv", "--autoscale"],
        fleet + ["--prefix-cache", "--disagg", "1"],
        fleet + ["--fault-at", "1.0:1", "--fault-at", "3.0:2"],
        fleet + ["--fault-mtbf", "4", "--fault-downtime", "2", "--fault-seed", "1"],
        fleet + ["--qos", "--admission", "--qos-mix", QOS_MIX],
        fleet + ["--telemetry-interval", "0.25", "--qos-mix", QOS_MIX,
                 "--slo-monitor"],
        fleet + ["--trace-out", str(tmp / "fleet.json")],
        ["serve", "--dataset", "mixed", "--rate", "6", "-n", "20", "--qos",
         "--admission", "--qos-mix", QOS_MIX, "--trace-out",
         str(tmp / "single.json"), "--slo-monitor"],
        # Error paths: one of these LV-Eval prompts outgrows two GPUs'
        # pool and is aborted; SplitFuse on two GPUs preempts decodes.
        ["serve", "--num-gpus", "2", "--dataset", "lveval", "--rate", "1",
         "-n", "12", "--seed", "1"],
        ["serve", "--system", "splitfuse", "--num-gpus", "2", "--dataset",
         "lveval", "--rate", "4", "-n", "24", "--seed", "1"],
    ]
    return runs


def skill_runs(tmp: Path) -> list[list[str]]:
    """The serving surfaces the verify skill lists."""
    trace = str(tmp / "t.jsonl")
    return [
        ["serve", "--system", "loongserve", "--dataset", "sharegpt",
         "--rate", "5", "-n", "10"],
        ["serve", "--system", "loongserve", "--replicas", "4", "--router",
         "least-kv", "--dataset", "mixed", "--rate", "20", "-n", "200"],
        ["gen-trace", "--dataset", "mixed", "--rate", "4", "-n", "30", "-o", trace],
        ["serve", "--trace", trace],
        ["serve", "--replicas", "4", "--disagg", "2", "--prefix-cache",
         "--router", "round-robin", "--dataset", "sharegpt", "--rate", "20",
         "-n", "120"],
        # The skill's 160 sessions take ~45 s; 110 is the fewest that
        # still fill the 2-GPU pool and offload to the host tier.
        ["serve", "--replicas", "1", "--num-gpus", "2", "--prefix-cache",
         "--kv-tiers", "lru", "--dataset", "sessions", "--rate", "8", "-n", "110"],
        ["serve", "--replicas", "2", "--standby", "1", "--autoscale",
         "--router", "least-kv", "--dataset", "leval", "--rate", "30", "-n", "24"],
        ["serve", "--replicas", "5", "--router", "least-kv", "--prefix-cache",
         "--disagg", "2", "--dataset", "mixed", "--rate", "40", "-n", "250",
         "--seed", "7"],
    ]


def ci_runs(tmp: Path) -> list[tuple[str, list[str], int]]:
    """Every CLI call in the CI workflow: (module, argv, expected exit)."""
    trace, run_a, run_b = (str(tmp / n) for n in ("trace.json", "runA.json", "runB.json"))
    qos_trace = str(tmp / "qos-trace.jsonl")
    return [
        ("repro", ["serve", "-n", "40", "--rate", "20", "--seed", "5",
                   "--replicas", "2", "--router", "least-kv", "--steal",
                   "--trace-out", trace], 0),
        ("repro.experiments", ["forensics", "--trace-in", trace, "--request", "0"], 0),
        ("repro", ["serve", "-n", "60", "--rate", "20", "--seed", "5",
                   "--replicas", "4", "--router", "round-robin", "--prefix-cache",
                   "--disagg", "1", "--steal", "--migrate-kv", "--kv-tiers", "lru",
                   "--qos", "--qos-mix", QOS_MIX, "--fault-at", "2.0:2",
                   "--slo-monitor", "--trace-out", run_a], 0),
        ("repro", ["serve", "-n", "60", "--rate", "20", "--seed", "5",
                   "--replicas", "4", "--router", "round-robin", "--prefix-cache",
                   "--qos", "--qos-mix", QOS_MIX, "--trace-out", run_b], 0),
        ("repro.experiments", ["forensics", "--trace-in", run_a], 0),
        ("repro.experiments", ["forensics", "--trace-in", run_a, "--diff", run_b], 0),
        ("repro.experiments", ["forensics", "--trace-in", run_b, "--diff", run_a], 0),
        ("repro", ["serve", "--system", "vllm", "--dataset", "sessions",
                   "--closed-loop", "-n", "12", "--seed", "5"], 0),
        ("repro", ["serve", "--replicas", "2", "--dataset", "sessions",
                   "--closed-loop", "-n", "8", "--seed", "5", "--prefix-cache",
                   "--router", "affinity", "--steal"], 0),
        ("repro", ["serve", "--replicas", "2", "--disagg", "1"], 2),
        ("repro", ["serve", "--num-gpus", "1"], 2),
        ("repro", ["gen-trace", "--dataset", "sharegpt", "--rate", "1", "-n", "4",
                   "-o", qos_trace], 0),
        ("repro", ["serve", "--trace", qos_trace, "--qos-mix", "interactive:1.0"], 2),
        ("repro", ["serve", "--dataset", "sharegpt", "-n", "4", "--rate", "nan"], 2),
        ("repro", ["serve", "--dataset", "sharegpt", "-n", "4",
                   "--telemetry-interval", "nan"], 2),
        ("repro", ["serve", "--dataset", "sharegpt", "-n", "4", "--replicas", "2",
                   "--steal", "--control-interval", "nan"], 2),
        ("repro", ["gen-trace", "--dataset", "sharegpt", "-n", "4", "--qos-mix",
                   "bogus:1", "-o", str(tmp / "bogus-trace.jsonl")], 2),
        ("repro.experiments", ["figure10", "--scale", "nan", "--datasets",
                               "sharegpt"], 2),
        ("repro.experiments", ["figure10", "--scale", "-1", "--datasets",
                               "sharegpt"], 2),
        ("repro.experiments", ["all", "--scale", "0.05"], 0),
    ]


def run_cli(module: str, argv: list[str], expected: int = 0) -> None:
    """``python -m module *argv`` in this process; check its exit status."""
    saved = sys.argv
    sys.argv = [module, *argv]
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        sys.argv = saved
    if code != expected:
        raise RuntimeError(f"exit {code}, expected {expected}")


def check_perfetto(path: Path) -> None:
    """CI's inline check: the exported trace is schema-valid Perfetto JSON."""
    import json

    from repro.obs import validate_perfetto

    errors = validate_perfetto(json.loads(path.read_text()))
    if errors:
        raise RuntimeError(f"invalid Perfetto export: {errors[:3]}")


def serve_episodes() -> None:
    """The serving benchmark's 25 seed-1 episodes, each ledger-checked."""
    from perfbench.outcomes import request_ledger
    from perfbench.workloads import WORKLOADS

    for workload in WORKLOADS.values():
        for episode in range(workload.episodes):
            system, trace = workload.build(1, episode)
            request_ledger(trace, system.run(trace))


def steps(tmp: Path) -> list[tuple[str, object]]:
    """Every entry point, as (label, zero-argument callable)."""
    out: list[tuple[str, object]] = [
        (f"examples/{path.name}",
         lambda path=path: runpy.run_path(str(path), run_name="__main__"))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    out += [
        (f"{module} {' '.join(argv)}",
         lambda m=module, a=argv, e=expected: run_cli(m, a, e))
        for module, argv, expected in ci_runs(tmp)
    ]
    # CI's inline check, on the trace its first serve exported.
    out.append(("validate_perfetto", lambda: check_perfetto(tmp / "trace.json")))
    for argv in serve_runs(tmp) + skill_runs(tmp):
        out.append((f"repro {' '.join(argv)}", lambda a=argv: run_cli("repro", a)))
    out.append(("perfbench seed-1 episodes", serve_episodes))
    return out


def fresh_counters() -> None:
    """Restart every id counter in ``COUNTERS`` at 0."""
    for module, name in COUNTERS:
        setattr(importlib.import_module(module), name, itertools.count())


def reached_code(tmp: Path) -> set:
    """The code objects called while every entry point ran."""
    codes: set = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    for label, step in steps(tmp):
        sink = io.StringIO()
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                fresh_counters()
                step()
        except BaseException:
            sys.stderr.write(f"entry point failed: {label}\n{sink.getvalue()}")
            raise
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return codes


def defined_functions(src: Path) -> list[tuple[Path, int, int, str]]:
    """Every function under ``src``: (file, first line, length, qualified name)."""
    found: list[tuple[Path, int, int, str]] = []

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = prefix + child.name
                found.append((path, first, child.end_lineno - first + 1, name))
                walk(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.resolve(), "")
    return found


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(SRC), str(ROOT)]
    with tempfile.TemporaryDirectory() as tmp:
        codes = reached_code(Path(tmp))
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}

    functions = defined_functions(SRC)
    unreached = [f for f in functions if (str(f[0]), f[1]) not in reached]
    current = None
    for path, line, length, name in unreached:
        if path != current:
            current = path
            print(path.relative_to(ROOT))
        print(f"  {line:5d}  {name}  ({length} lines)")
    lines = sum(f[2] for f in unreached)
    print(
        f"\nreached {len(functions) - len(unreached)} of {len(functions)} "
        f"functions; {len(unreached)} unreached ({lines} lines)"
    )
    if len(unreached) != RECORDED_UNREACHED:
        print(
            f"unreached count {len(unreached)} differs from RECORDED_UNREACHED "
            f"{RECORDED_UNREACHED}"
        )
        return 1
    print(f"matches RECORDED_UNREACHED {RECORDED_UNREACHED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
