"""Command-line interface.

The CLI is a thin shim over the declarative experiment API
(:mod:`repro.api`): every experiment enters as an
:class:`~repro.api.specs.ExperimentSpec` JSON file and runs through
:func:`repro.api.runner.run`. The paper's experiments each have a spec kind
— ``monitor`` for the Sections 2-3 study, ``scenario`` for the Section 4
design choices, ``crawl`` for the Section 5 crawler — and
``examples/specs/`` ships one file per kind.

``python -m repro run-spec FILE.json``
    Run a JSON-defined experiment end to end and emit the JSON result
    (with seed and spec-hash provenance).
``python -m repro run-matrix FILE.json``
    Run a JSON scenario matrix (a base spec crossed with axes of values),
    optionally across worker processes, and emit every cell's JSON result.
``python -m repro list-scenarios``
    List the registered scenarios, revisit policies, estimators and change
    models available to specs.
``python -m repro list-backends``
    List the registered storage backends a crawl spec can persist into.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.api.registry import (
    CHANGE_MODELS,
    ESTIMATORS,
    REVISIT_POLICIES,
    SCENARIOS,
    STORAGE_BACKENDS,
)
from repro.api.runner import (
    ExperimentResult,
    MatrixResult,
    ScenarioMatrix,
    run,
    run_matrix,
)
from repro.api.specs import ExperimentSpec


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Cho & Garcia-Molina, VLDB 2000 "
                    "(incremental crawler and web-evolution study).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_spec = subparsers.add_parser(
        "run-spec", help="run a JSON experiment spec and print the JSON result"
    )
    run_spec.add_argument("spec", help="path to an ExperimentSpec JSON file ('-' = stdin)")
    run_spec.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON result to FILE",
    )
    run_spec.add_argument(
        "--compact", action="store_true",
        help="emit compact JSON instead of indented",
    )
    run_spec.add_argument(
        "--store", default=None, metavar="PATH",
        help="SQLite file for the spec's store (in memory without it); "
             "requires crawler.storage in the spec",
    )
    run_spec.add_argument(
        "--resume", action="store_true",
        help="continue a killed run from its last checkpoint in the store "
             "(requires --store and crawler.checkpoint_every in the spec)",
    )

    run_matrix = subparsers.add_parser(
        "run-matrix",
        help="run a JSON scenario matrix (base spec x axes) and print the "
             "JSON results",
    )
    run_matrix.add_argument(
        "matrix",
        help="path to a matrix JSON file ('-' = stdin) with a 'base' "
             "ExperimentSpec and an 'axes' mapping of field paths to value "
             "lists",
    )
    run_matrix.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes to spread the cells over (1 = in-process); "
             "results are identical to a serial sweep",
    )
    run_matrix.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON matrix result to FILE",
    )
    run_matrix.add_argument(
        "--compact", action="store_true",
        help="emit compact JSON instead of indented",
    )

    subparsers.add_parser(
        "list-scenarios",
        help="list registered scenarios, policies, estimators and change models",
    )

    subparsers.add_parser(
        "list-backends",
        help="list registered storage backends for persistent crawls",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands: Dict[str, Callable[[argparse.Namespace], int]] = {
        "run-spec": _cmd_run_spec,
        "run-matrix": _cmd_run_matrix,
        "list-scenarios": _cmd_list_scenarios,
        "list-backends": _cmd_list_backends,
    }
    return commands[args.command](args)


# --------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------- #
def _read_input(path: str) -> Optional[str]:
    """The text of ``path``, or of stdin when ``path`` is ``'-'``; ``None``
    once it has reported a file that cannot be read."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        print(f"cannot read {path!r}: {error.strerror or error}", file=sys.stderr)
        return None


def _emit(
    result: Union[ExperimentResult, MatrixResult], args: argparse.Namespace
) -> int:
    """Print a result's JSON (and write it to ``--out`` when given)."""
    payload = result.to_json(indent=None if args.compact else 2)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    return 0


def _cmd_run_spec(args: argparse.Namespace) -> int:
    text = _read_input(args.spec)
    if text is None:
        return 2
    try:
        spec = ExperimentSpec.from_json(text)
    except (TypeError, ValueError, json.JSONDecodeError) as error:
        # TypeError covers wrongly-typed field values (e.g. a quoted number)
        # surfacing from the spec/config validators.
        print(f"invalid experiment spec: {error}", file=sys.stderr)
        return 2
    try:
        result = run(spec, store=args.store, resume=args.resume)
    except (TypeError, ValueError) as error:
        # e.g. scenario/monitor parameters rejected at call time.
        print(f"experiment failed: {error}", file=sys.stderr)
        return 2
    return _emit(result, args)


def _cmd_run_matrix(args: argparse.Namespace) -> int:
    text = _read_input(args.matrix)
    if text is None:
        return 2
    try:
        document = json.loads(text)
        if not isinstance(document, dict) or "base" not in document:
            raise ValueError("a matrix file needs a 'base' experiment spec")
        axes = document.get("axes")
        if not isinstance(axes, dict):
            raise ValueError("a matrix file needs an 'axes' mapping of "
                             "field paths to value lists")
        base = ExperimentSpec.from_dict(document["base"])
        if "name" in document:
            base = base.replace(name=str(document["name"]))
        matrix = ScenarioMatrix(base=base, axes=axes)
    except (TypeError, ValueError, json.JSONDecodeError) as error:
        print(f"invalid scenario matrix: {error}", file=sys.stderr)
        return 2
    try:
        result = run_matrix(matrix, workers=args.workers)
    except (TypeError, ValueError) as error:
        print(f"matrix sweep failed: {error}", file=sys.stderr)
        return 2
    return _emit(result, args)


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    import repro.api.scenarios  # noqa: F401  (registration side effect)

    registries = (
        ("scenario", SCENARIOS),
        ("revisit policy", REVISIT_POLICIES),
        ("estimator", ESTIMATORS),
        ("change model", CHANGE_MODELS),
    )
    rows = []
    for kind, registry in registries:
        for name in registry.names():
            factory = registry.get(name)
            doc = (factory.__doc__ or "").strip().splitlines()
            rows.append((kind, name, doc[0] if doc else ""))
    print(format_table(["kind", "name", "description"], rows,
                       title="registered experiment building blocks"))
    return 0


def _cmd_list_backends(args: argparse.Namespace) -> int:
    import repro.storage.backends  # noqa: F401  (registration side effect)

    rows = []
    for name in STORAGE_BACKENDS.names():
        doc = (STORAGE_BACKENDS.get(name).__doc__ or "").strip().splitlines()
        rows.append((name, doc[0] if doc else ""))
    print(format_table(["name", "description"], rows,
                       title="registered storage backends"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
