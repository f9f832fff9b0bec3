#!/usr/bin/env python
"""Which ``src/repro`` functions does no product entry point call?

Runs every product entry point in its own subprocess under
``sys.setprofile`` and records each ``src/repro`` function that starts
executing: the ``examples/*.py`` scripts, every ``examples/specs/*.json``
through ``run-spec`` (``run-matrix`` for a file with ``axes``), every
end-to-end benchmark workload at ``--smoke``, and ``durable_everything.json``
cut after its first checkpoint and resumed in-process (the e2e ``resume``
workload's cut), so the restore side of every module's snapshot is reached.
It then prints each function defined under ``src/repro`` that none of them
called, with its line count, grouped by module, and the total.

A worker process an entry point forks (the pool that runs shards and
matrix cells) inherits the profiler and writes what it called when it
exits; those sets join the entry point's. Tests are not entry points, so
a function only tests call is listed. Stdlib only; takes a few minutes:

    python scripts/product_reach.py

It exits 1 when an entry point exits with a non-zero status or leaves no
profile, since a failed entry point does not reach what it would have run.
With ``--max-lines N`` it also exits 1 when the unreached total exceeds
``N``, so CI can hold a ceiling that only goes down.
"""

from __future__ import annotations

import argparse
import ast
import json
import multiprocessing.process
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
E2E_RUN = REPO / "benchmarks" / "e2e" / "run.py"
WORKLOADS = ("plain", "polite", "chaos", "durable", "resume", "sharded")


def entry_points() -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` per entry point; argv[0] is a script, ``-m`` or
    ``--cut-and-resume``."""
    points = [
        (f"examples/{path.name}", [str(path)])
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    for path in sorted((REPO / "examples" / "specs").glob("*.json")):
        command = "run-matrix" if "axes" in json.loads(path.read_text()) else "run-spec"
        points.append((f"{command} {path.name}", ["-m", "repro", command, str(path)]))
    for workload in WORKLOADS:
        points.append((
            f"e2e {workload} --smoke",
            [str(E2E_RUN), "--workload", workload, "--smoke"],
        ))
    resumed = REPO / "examples" / "specs" / "durable_everything.json"
    points.append((f"cut and resume {resumed.name}", ["--cut-and-resume", str(resumed)]))
    return points


def _cut_and_resume(spec_path: str) -> None:
    """Run the spec into a store, cut it after its first checkpoint as the
    e2e ``resume`` workload's ``prepare_resume`` does, and resume it."""
    from repro.api.runner import run
    from repro.api.specs import ExperimentSpec
    from repro.storage.checkpoint import CrawlCheckpointer

    class Cut(Exception):
        pass

    def save_then_cut(checkpointer, state, at):
        save(checkpointer, state, at)
        raise Cut

    spec = ExperimentSpec.from_dict(json.loads(Path(spec_path).read_text()))
    save = CrawlCheckpointer.save
    with tempfile.TemporaryDirectory() as scratch:
        store = os.path.join(scratch, "crawl.db")
        CrawlCheckpointer.save = save_then_cut
        try:
            run(spec, store=store)
        except Cut:
            pass
        finally:
            CrawlCheckpointer.save = save
        run(spec, store=store, resume=True)


def _child(out_path: str, argv: List[str]):
    """Run one entry point in this process, dump what it called and return
    the entry point's exit status (a ``SystemExit`` code).

    A forked worker keeps the profiler and its copy of the called set, and
    dumps that set beside this one (``out_path.<pid>``) as it exits.
    """
    status = 0
    src_prefix = str(SRC) + os.sep
    called: Set[Tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src_prefix):
                called.add((code.co_filename, code.co_firstlineno))

    bootstrap = multiprocessing.process.BaseProcess._bootstrap

    def profiled_bootstrap(process, *args, **kwargs):
        try:
            return bootstrap(process, *args, **kwargs)
        finally:
            sys.setprofile(None)
            Path(f"{out_path}.{os.getpid()}").write_text(json.dumps(sorted(called)))

    multiprocessing.process.BaseProcess._bootstrap = profiled_bootstrap
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        elif argv[0] == "--cut-and-resume":
            _cut_and_resume(argv[1])
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exit_request:
        status = exit_request.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        Path(out_path).write_text(json.dumps(sorted(called)))
    return status


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` for every
    function under ``src/repro``; the first line is the first decorator's,
    as in ``co_firstlineno``."""
    found: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return found


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        return _child(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(
        description="List the src/repro functions no product entry point calls."
    )
    parser.add_argument(
        "--max-lines", type=int, metavar="N",
        help="exit 1 when more than N lines are unreached",
    )
    args = parser.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    called: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        for index, (label, argv) in enumerate(entry_points()):
            out = os.path.join(scratch, f"{index}.json")
            print(f"running {label}", file=sys.stderr, flush=True)
            child = subprocess.run(
                [sys.executable, __file__, "--child", out, *argv],
                cwd=REPO, env=env, stdout=subprocess.DEVNULL, check=False,
            )
            if child.returncode != 0:
                failures.append(f"{label} exited with status {child.returncode}")
            if not os.path.exists(out):
                failures.append(f"{label} left no profile")
                continue
            for profile in [out, *Path(scratch).glob(f"{index}.json.*")]:
                called.update(
                    (path, line) for path, line in json.loads(Path(profile).read_text())
                )
    by_module: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for (path, line), (name, length) in defined_functions().items():
        if (path, line) not in called:
            module = str(Path(path).relative_to(SRC.parent))
            by_module[module].append((f"{name}:{line}", length))
    total = 0
    for module in sorted(by_module):
        print(module)
        for name, length in by_module[module]:
            print(f"  {name:60s} {length:5d}")
            total += length
    count = sum(len(rows) for rows in by_module.values())
    print(f"{count} functions, {total} lines no entry point calls")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.max_lines is not None and total > args.max_lines:
        print(f"FAIL: {total} unreached lines exceed the ceiling of {args.max_lines}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
