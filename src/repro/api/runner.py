"""The unified experiment runner: ``run(spec) -> ExperimentResult``.

One entry point executes any :class:`~repro.api.specs.ExperimentSpec` —
full crawler runs, canned scenarios and the Sections 2-3 monitoring
experiment — and returns a structured, JSON-serializable
:class:`ExperimentResult` carrying metric time series, summary scalars and
provenance (seed, spec hash, wall time, package version). Heavy in-memory
objects (the generated web, the crawler, the observation log) ride along in
``result.artifacts`` for callers that want to dig deeper, and are excluded
from serialization.

:class:`ScenarioMatrix` executes crossed parameter sweeps over a base spec.
Every cell runs through :func:`run` on its own spec, so a cell's result is
exactly what running that spec alone returns; the matrix runner only
generates each distinct synthetic web once (cells that share a web spec
share the web) and can spread the cells over worker processes.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import __version__
from repro.api.registry import SCENARIOS, STORAGE_BACKENDS
from repro.api.specs import ExperimentSpec, PolicySpec, WebSpec
from repro.api import scenarios as _scenarios  # noqa: F401  (registration side effect)
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.periodic_crawler import PeriodicCrawler
from repro.core.sharded_crawler import ShardedCrawler
from repro.core.worker_pool import Job, run_jobs
from repro.storage.backends import SqliteBackend  # also registers "sqlite"
from repro.storage.checkpoint import (
    RESULT_STATE_KEY,
    CollectionJournal,
    CrawlCheckpointer,
)
from repro.experiment.change_interval import analyze_change_intervals
from repro.experiment.lifespan_analysis import analyze_lifespans
from repro.experiment.monitor import ActiveMonitor
from repro.experiment.site_selection import select_sites
from repro.experiment.survival import analyze_survival
from repro.simweb.generator import generate_web
from repro.simweb.shared import SharedWeb
from repro.simweb.web import SimulatedWeb


@dataclass
class ExperimentResult:
    """Structured outcome of :func:`run`.

    Attributes:
        name: The spec's experiment name.
        kind: The spec's experiment kind.
        spec_hash: Content hash of the spec that produced this result.
        seed: Effective seed (``None`` when the experiment has no single
            governing seed).
        wall_time_seconds: Wall-clock execution time.
        series: Metric time series, ``label -> list of floats``.
        summary: Scalar metrics and counters.
        tables: Nested mappings (e.g. per-policy freshness values).
        artifacts: Heavy in-memory objects (web, crawler, observation log);
            never serialized.
    """

    name: str
    kind: str
    spec_hash: str
    seed: Optional[int]
    wall_time_seconds: float
    series: Dict[str, List[float]] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)
    tables: Dict[str, Any] = field(default_factory=dict)
    artifacts: Dict[str, Any] = field(default_factory=dict, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (artifacts excluded)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "provenance": {
                "spec_hash": self.spec_hash,
                "seed": self.seed,
                "wall_time_seconds": self.wall_time_seconds,
                "repro_version": __version__,
            },
            "summary": self.summary,
            "tables": self.tables,
            "series": self.series,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The result as JSON text.

        Raises:
            TypeError: When a non-serializable object leaked into ``series``,
                ``summary`` or ``tables`` — named by its dotted path, so the
                failure points at the offending entry instead of surfacing as
                an opaque error deep inside ``json.dumps``. Heavy in-memory
                objects belong in ``result.artifacts`` (never serialized).
        """
        payload = self.to_dict()
        try:
            return json.dumps(payload, sort_keys=True, indent=indent)
        except (TypeError, ValueError) as error:
            path = _first_unserializable(payload)
            location = path if path is not None else "an unknown entry"
            raise TypeError(
                f"ExperimentResult is not JSON-serializable at {location}; "
                "heavy in-memory objects belong in result.artifacts, which "
                "is never serialized"
            ) from error


def _first_unserializable(value: Any, path: str = "result") -> Optional[str]:
    """Dotted path of the first JSON-unserializable entry, or ``None``.

    Walks the payload exactly as ``json.dumps`` would (mappings, sequences,
    scalars), tracking the container stack so circular references are
    reported rather than recursed into.
    """
    return _walk_unserializable(value, path, set())


def _walk_unserializable(value: Any, path: str, stack: set) -> Optional[str]:
    if value is None or isinstance(value, (str, int, float, bool)):
        return None
    if id(value) in stack:
        return f"{path} (circular reference)"
    if isinstance(value, Mapping):
        stack.add(id(value))
        try:
            for key, item in value.items():
                if key is not None and not isinstance(key, (str, int, float, bool)):
                    return f"{path} key {key!r} ({type(key).__name__})"
                found = _walk_unserializable(item, f"{path}.{key}", stack)
                if found is not None:
                    return found
        finally:
            stack.discard(id(value))
        return None
    if isinstance(value, (list, tuple)):
        stack.add(id(value))
        try:
            for index, item in enumerate(value):
                found = _walk_unserializable(item, f"{path}[{index}]", stack)
                if found is not None:
                    return found
        finally:
            stack.discard(id(value))
        return None
    return f"{path} ({type(value).__name__})"


def build_web(spec: WebSpec, seed: Optional[int] = None) -> SimulatedWeb:
    """Generate the synthetic web described by ``spec``.

    ``seed``, when given, replaces the spec's seed (an
    :class:`ExperimentSpec`'s run-level seed).
    """
    return generate_web(spec if seed is None else spec.replace(seed=seed))


def run(
    spec: ExperimentSpec,
    web: Optional[SimulatedWeb] = None,
    *,
    store: Optional[str] = None,
    resume: bool = False,
) -> ExperimentResult:
    """Execute an experiment spec end to end.

    Args:
        spec: The experiment to run.
        web: Optional pre-generated web to crawl/monitor instead of
            generating one from ``spec.web`` (used by the matrix runner to
            share webs across cells; ignored for scenario experiments).
        store: Optional SQLite file for the store ``spec.crawler.storage``
            names. Without it the store is an in-memory database that dies
            with the run.
        resume: Continue a killed run from the last checkpoint in the
            store (requires ``store`` and ``spec.crawler.checkpoint_every``).
            When the store already holds the run's final result, it is
            returned without re-running anything; the resumed run is
            bit-identical to an uninterrupted one.

    Returns:
        A structured :class:`ExperimentResult` with provenance.
    """
    started = time.perf_counter()
    backend = _open_backend(spec, store, resume)
    try:
        if backend is not None and resume:
            saved = backend.load_state(RESULT_STATE_KEY)
            if saved is not None:
                if saved.get("spec_hash") != spec.spec_hash():
                    raise ValueError(
                        "the store holds a result for a different spec "
                        f"(stored {str(saved.get('spec_hash'))[:12]}..., expected "
                        f"{spec.spec_hash()[:12]}...)"
                    )
                return _result_from_document(saved, time.perf_counter() - started)
        closed_for_fork = backend is not None and spec.crawler.engine == "sharded"
        if closed_for_fork:
            # The shards run in forked workers, and SQLite forbids carrying
            # an open connection into a child: the base store, which only
            # receives the merged result, stays closed while they run.
            backend.close()
            backend = None
        if spec.kind == "crawl":
            payload = _run_crawl(
                spec, web, backend=backend, resume=resume, store=store
            )
        elif spec.kind == "monitor":
            payload = _run_monitor(spec, web)
        elif spec.kind == "scenario":
            payload = _run_scenario(spec)
        else:  # pragma: no cover - ExperimentSpec already validates the kind
            raise ValueError(f"unknown experiment kind {spec.kind!r}")
        result = _result_for_spec(spec, payload, time.perf_counter() - started)
        if closed_for_fork:
            backend = _open_backend(spec, store, resume)
        if backend is not None:
            backend.save_state(RESULT_STATE_KEY, _result_document(result))
            backend.flush()
        return result
    finally:
        if backend is not None:
            backend.close()


def _open_backend(
    spec: ExperimentSpec, store: Optional[str], resume: bool
) -> Optional[SqliteBackend]:
    """Instantiate the spec's storage backend, or ``None`` when unset."""
    storage = spec.crawler.storage if spec.crawler is not None else None
    if storage is None:
        if store is not None:
            raise ValueError(
                "store= was given but the spec names no storage backend; "
                "set crawler.storage (e.g. 'sqlite')"
            )
        if resume:
            raise ValueError(
                "resume requires a storage backend; set crawler.storage "
                "and crawler.checkpoint_every in the spec"
            )
        return None
    if resume and store is None:
        raise ValueError(
            "resume reads the checkpoint from a store file; pass store= "
            "(--store PATH on the command line), since a store without a "
            "path is in memory and holds no checkpoint"
        )
    return STORAGE_BACKENDS.create(storage, path=store)


def _result_for_spec(
    spec: ExperimentSpec, payload: _RunPayload, wall_time_seconds: float
) -> ExperimentResult:
    """The result of running ``spec``: its provenance around a run payload."""
    series, summary, tables, artifacts = payload
    return ExperimentResult(
        name=spec.name,
        kind=spec.kind,
        spec_hash=spec.spec_hash(),
        seed=spec.effective_seed(),
        wall_time_seconds=wall_time_seconds,
        series=series,
        summary=summary,
        tables=tables,
        artifacts=artifacts,
    )


def _result_document(result: ExperimentResult) -> Dict[str, Any]:
    """What of a result outlives its process: the document stored under
    ``RESULT_STATE_KEY`` and shipped back from matrix pool workers. Wall
    time (a property of one execution) and artifacts stay behind."""
    return {
        "name": result.name,
        "kind": result.kind,
        "spec_hash": result.spec_hash,
        "seed": result.seed,
        "series": result.series,
        "summary": result.summary,
        "tables": result.tables,
    }


def _result_from_document(
    document: Mapping[str, Any], wall_time_seconds: float
) -> ExperimentResult:
    """Inverse of :func:`_result_document`; ``artifacts`` come back empty."""
    return ExperimentResult(
        name=document["name"],
        kind=document["kind"],
        spec_hash=document["spec_hash"],
        seed=document.get("seed"),
        wall_time_seconds=wall_time_seconds,
        series=dict(document.get("series", {})),
        summary=dict(document.get("summary", {})),
        tables=dict(document.get("tables", {})),
    )


# --------------------------------------------------------------------- #
# Experiment kinds
# --------------------------------------------------------------------- #
_RunPayload = Tuple[Dict[str, List[float]], Dict[str, Any], Dict[str, Any], Dict[str, Any]]


def _run_sharded_crawl(
    spec: ExperimentSpec,
    web: SimulatedWeb,
    policy: PolicySpec,
    store: Optional[str],
    resume: bool,
) -> _RunPayload:
    """The ``engine="sharded"`` crawl path: fan out, merge, summarize.

    Per-shard persistence (checkpoints, final images, shard results) lives in
    the coordinator's sibling stores; the base backend opened by
    :func:`run` only holds the merged result document, and is closed while
    the shards run.
    """
    crawler_spec = spec.crawler
    crawler = ShardedCrawler(
        web, crawler_spec, policy, store_path=store, spec_hash=spec.spec_hash()
    )
    outcome = crawler.run(resume=resume)
    summary = _crawl_summary(
        crawler_spec.kind,
        outcome,
        outcome.collection_size,
        None if outcome.failures is None else dict(outcome.failures),
        shards=outcome.shards,
        workers=outcome.workers,
    )
    tables = {"per_shard": outcome.per_shard}
    artifacts = {"web": web, "crawler": crawler, "outcome": outcome}
    return _crawl_series(outcome), summary, tables, artifacts


def _crawl_series(outcome: Any) -> Dict[str, List[float]]:
    """The metric time series every crawl result carries."""
    times, freshness = outcome.freshness.as_series()
    series = {
        "times": [float(t) for t in times],
        "freshness": [float(f) for f in freshness],
    }
    if outcome.quality:
        series["quality_times"] = [float(t) for t in outcome.quality_times]
        series["quality"] = [float(q) for q in outcome.quality]
    return series


def _crawl_summary(
    mode: str,
    outcome: Any,
    collection_size: int,
    failures: Optional[Dict[str, int]] = None,
    **engine_extras: Any,
) -> Dict[str, Any]:
    """The summary scalars every crawl result carries (``mode`` is the
    crawler kind; ``failures`` the tracker's counters when one ran)."""
    summary: Dict[str, Any] = {
        "mode": mode,
        "pages_crawled": outcome.pages_crawled,
        "collection_size": collection_size,
        "mean_freshness": outcome.mean_freshness(),
        "final_quality": outcome.final_quality(),
        "duration_days": outcome.duration_days,
    }
    if mode == "incremental":
        summary["pages_failed"] = outcome.pages_failed
        summary["changes_detected"] = outcome.changes_detected
        summary["pages_replaced"] = outcome.pages_replaced
    else:
        summary["cycles_completed"] = outcome.cycles_completed
    summary.update(engine_extras)
    if failures is not None:
        summary["failures"] = failures
    return summary


def _run_crawl(
    spec: ExperimentSpec,
    web: Optional[SimulatedWeb],
    backend: Optional[SqliteBackend] = None,
    resume: bool = False,
    store: Optional[str] = None,
) -> _RunPayload:
    assert spec.web is not None and spec.crawler is not None
    if web is None:
        web = build_web(spec.web, seed=spec.seed)
    crawler_spec = spec.crawler
    policy = spec.policy if spec.policy is not None else PolicySpec()
    if crawler_spec.engine == "sharded":
        return _run_sharded_crawl(spec, web, policy, store, resume)
    if crawler_spec.kind == "incremental":
        crawler = IncrementalCrawler(web, crawler_spec, policy)
    else:
        crawler = PeriodicCrawler(web, crawler_spec)
    journal = None
    checkpointer = None
    resume_state = None
    if backend is not None:
        journal = CollectionJournal(backend)
        if crawler_spec.checkpoint_every is not None:
            checkpointer = CrawlCheckpointer(
                backend, crawler_spec.checkpoint_every, spec_hash=spec.spec_hash()
            )
        if resume:
            if checkpointer is None:
                raise ValueError(
                    "resume requires crawler.checkpoint_every in the spec"
                )
            resume_state = checkpointer.load()
            if resume_state is None:
                raise ValueError(
                    "the store holds no checkpoint to resume from; run the "
                    "spec without resume first"
                )
    if journal is not None or checkpointer is not None:
        outcome = crawler.run(
            journal=journal, checkpointer=checkpointer, resume_state=resume_state
        )
    else:
        outcome = crawler.run()

    summary = _crawl_summary(
        crawler_spec.kind,
        outcome,
        len(crawler.collection.current_records()),
        crawler.failure_counters() if crawler_spec.kind == "incremental" else None,
    )
    artifacts = {"web": web, "crawler": crawler, "outcome": outcome}
    return _crawl_series(outcome), summary, {}, artifacts


#: The ``params`` a ``monitor`` experiment reads.
MONITOR_PARAMS = (
    "start_day", "end_day", "n_candidates", "consent_rate", "selection_seed",
)


def _run_monitor(spec: ExperimentSpec, web: Optional[SimulatedWeb]) -> _RunPayload:
    assert spec.web is not None
    if web is None:
        web = build_web(spec.web, seed=spec.seed)
    params = dict(spec.params)
    start_day = int(params.pop("start_day", 0))
    end_day = params.pop("end_day", None)
    end_day = int(web.horizon_days) - 1 if end_day is None else int(end_day)
    selection_params = {
        key: params.pop(key)
        for key in ("n_candidates", "consent_rate", "selection_seed")
        if key in params
    }
    selection = None
    site_ids = None
    if selection_params:
        selection = select_sites(
            web,
            n_candidates=int(selection_params.get("n_candidates", web.n_sites)),
            consent_rate=float(selection_params.get("consent_rate", 1.0)),
            seed=int(selection_params.get("selection_seed", 0)),
        )
        site_ids = selection.selected_site_ids
    if params:
        raise ValueError(
            f"unknown monitor parameter(s) {sorted(params)}; valid: "
            f"{', '.join(MONITOR_PARAMS)}"
        )

    log = ActiveMonitor(web, site_ids=site_ids).run(start_day=start_day, end_day=end_day)
    change = analyze_change_intervals(log)
    lifespan = analyze_lifespans(log)
    survival = analyze_survival(log)

    summary = {
        "n_pages": log.n_pages,
        "duration_days": log.duration_days,
        "mean_change_interval_days": change.mean_interval_estimate_days,
    }
    tables = {
        "change_interval_fractions": dict(change.overall_fractions()),
        "lifespan_fractions": dict(lifespan.method1_overall.labelled_fractions()),
        "half_change_days": dict(survival.half_change_days()),
        "monitored_sites_per_domain": (
            dict(selection.domain_counts) if selection is not None else None
        ),
    }
    artifacts = {
        "web": web,
        "log": log,
        "selection": selection,
        "change": change,
        "lifespan": lifespan,
        "survival": survival,
    }
    return {}, summary, tables, artifacts


def _run_scenario(spec: ExperimentSpec) -> _RunPayload:
    assert spec.scenario is not None
    function = SCENARIOS.get(spec.scenario)
    kwargs = _scenario_kwargs(spec, function)
    try:
        payload = function(**kwargs)
    except TypeError as error:
        raise ValueError(
            f"scenario {spec.scenario!r} rejected parameters {sorted(kwargs)}: {error}"
        ) from error
    if not isinstance(payload, Mapping):
        raise TypeError(
            f"scenario {spec.scenario!r} must return a mapping with optional "
            f"'series'/'summary'/'tables' keys, got {type(payload).__name__}"
        )
    return (
        dict(payload.get("series", {})),
        dict(payload.get("summary", {})),
        dict(payload.get("tables", {})),
        {},
    )


# --------------------------------------------------------------------- #
# Crossed parameter sweeps
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioMatrix:
    """A crossed parameter sweep over a base experiment spec.

    Axes are ``dotted.path -> values`` overrides applied to copies of
    ``base``: the first path segment names a spec field (``params``,
    ``crawler``, ``web``, ``policy``, ``seed``, ...), the optional second
    segment a field inside that nested spec or params mapping. A mapping
    value on a field that holds a nested spec (``crawler.faults``,
    ``crawler.retry``) is built with that spec's ``from_dict``; ``None``
    clears the field. Every value is applied to ``base`` on construction,
    so a bad one is refused before any cell runs: a ``params.*`` key must
    be a parameter of the base's scenario or monitor. The matrix expands
    to the full cross product, one cell per combination, named by its
    axis values in compact JSON (``crawler.faults=null``).

    Example::

        ScenarioMatrix(
            base=ExperimentSpec(name="sweep", kind="scenario",
                                scenario="revisit-policies"),
            axes={"params.policy": ["uniform", "proportional", "optimal"]},
        )
    """

    base: ExperimentSpec
    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a ScenarioMatrix needs at least one axis")
        for path, values in self.axes.items():
            if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
                raise ValueError(f"axis {path!r} must map to a sequence of values")
            if len(values) == 0:
                raise ValueError(f"axis {path!r} has no values")
            for value in values:  # validate the path and every value
                self._apply(self.base, path, value)

    def cells(self) -> List[Tuple[Dict[str, Any], ExperimentSpec]]:
        """Expand the cross product into ``(axis assignment, spec)`` cells."""
        paths = list(self.axes)
        out: List[Tuple[Dict[str, Any], ExperimentSpec]] = []
        for combination in itertools.product(*(self.axes[path] for path in paths)):
            assignment = dict(zip(paths, combination))
            spec = self.base
            for path, value in assignment.items():
                spec = self._apply(spec, path, value)
            label = ", ".join(
                f"{path}={json.dumps(value, sort_keys=True, separators=(',', ':'))}"
                for path, value in assignment.items()
            )
            spec = spec.replace(name=f"{self.base.name}[{label}]")
            out.append((assignment, spec))
        return out

    @staticmethod
    def _apply(spec: ExperimentSpec, path: str, value: Any) -> ExperimentSpec:
        head, _, rest = path.partition(".")
        if head == "params":
            if not rest:
                raise ValueError("axis 'params' needs a key, e.g. 'params.rate'")
            if spec.kind == "monitor" and rest not in MONITOR_PARAMS:
                raise ValueError(f"axis {path!r}: monitor parameters are "
                                 f"{', '.join(MONITOR_PARAMS)}")
            if spec.kind == "scenario":
                signature = inspect.signature(SCENARIOS.get(spec.scenario))
                try:
                    signature.bind_partial(**{rest: value})
                except TypeError as error:
                    raise ValueError(f"axis {path!r}: scenario "
                                     f"{spec.scenario!r} {error}") from error
            params = dict(spec.params)
            params[rest] = value
            return spec.replace(params=params)
        if head in ("web", "crawler", "policy"):
            nested = getattr(spec, head)
            if nested is None:
                raise ValueError(f"axis {path!r} targets {head!r} but the base "
                                 f"spec has no {head} spec")
            if not rest:
                raise ValueError(f"axis {head!r} needs a field, e.g. '{head}.seed'")
            nested_cls = type(nested)._nested_spec_fields().get(rest)
            if nested_cls is not None and isinstance(value, Mapping):
                value = nested_cls.from_dict(value)
            return spec.replace(**{head: nested.replace(**{rest: value})})
        if rest:
            raise ValueError(f"unknown axis path {path!r}")
        return spec.replace(**{head: value})


@dataclass
class MatrixResult:
    """All cell results of a :func:`run_matrix` sweep."""

    name: str
    cells: List[ExperimentResult]
    wall_time_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view of every cell."""
        return {
            "name": self.name,
            "wall_time_seconds": self.wall_time_seconds,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The matrix result as JSON text."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def run_matrix(matrix: ScenarioMatrix, *, workers: int = 1) -> MatrixResult:
    """Execute every cell of the matrix through :func:`run`.

    Each cell's result equals :func:`run` of that cell's spec, wall time
    aside. Cells whose web spec and effective seed coincide share one
    generated :class:`SimulatedWeb` (web generation dominates small crawl
    runs).

    Args:
        workers: Number of worker processes to spread the cells over.
            ``1`` (the default) runs everything in-process. With more,
            cells run in :mod:`repro.core.worker_pool`; each distinct web
            is generated once in the parent and published before the pool
            forks, so every worker inherits it copy-on-write instead of
            re-generating or unpickling it. A cell whose worker dies is
            re-run. Per-cell results are identical to a serial sweep
            except that heavy in-memory ``artifacts`` (web, crawler,
            outcome) cannot cross the process boundary and come back
            empty.

    Returns:
        The :class:`MatrixResult`; ``cells`` is ordered by cell index in
        both modes.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    started = time.perf_counter()
    specs = [spec for _, spec in matrix.cells()]
    if workers > 1 and len(specs) > 1:
        shared_webs: Dict[str, SharedWeb] = {}
        jobs = []
        try:
            for spec in specs:
                cache_key = _web_cache_key(spec)
                key = None
                if cache_key is not None:
                    if cache_key not in shared_webs:
                        shared_webs[cache_key] = SharedWeb(
                            build_web(spec.web, seed=spec.seed)
                        )
                    key = shared_webs[cache_key].key
                jobs.append(Job(_run_cell, spec, key))
            documents = run_jobs(jobs, workers)
        finally:
            for shared in shared_webs.values():
                shared.close()
        cells = [
            _result_from_document(document, wall_time_seconds)
            for document, wall_time_seconds in documents
        ]
    else:
        web_cache: Dict[str, SimulatedWeb] = {}
        cells = []
        for spec in specs:
            web = None
            cache_key = _web_cache_key(spec)
            if cache_key is not None:
                web = web_cache.get(cache_key)
                if web is None:
                    web = build_web(spec.web, seed=spec.seed)
                    web_cache[cache_key] = web
            cells.append(run(spec, web=web))
    return MatrixResult(
        name=matrix.base.name,
        cells=cells,
        wall_time_seconds=time.perf_counter() - started,
    )


def _web_cache_key(spec: ExperimentSpec) -> Optional[str]:
    """The shared-web cache key of a cell, or ``None`` when it needs no web."""
    if spec.kind in ("crawl", "monitor") and spec.web is not None:
        return spec.web.spec_hash() + f"/{spec.effective_seed()}"
    return None


def _run_cell(spec: ExperimentSpec, web: Optional[SimulatedWeb]) -> tuple:
    """Pool job of one matrix cell: its result document and wall time."""
    result = run(spec, web=web)
    return _result_document(result), result.wall_time_seconds


def _scenario_kwargs(spec: ExperimentSpec, function: Any) -> Dict[str, Any]:
    """The scenario call's kwargs: explicit params, plus the run-level seed
    when the scenario actually accepts a ``seed`` parameter."""
    kwargs = dict(spec.params)
    if spec.seed is not None and _accepts_parameter(function, "seed"):
        kwargs.setdefault("seed", spec.seed)
    return kwargs


def _accepts_parameter(function: Any, name: str) -> bool:
    try:
        signature = inspect.signature(function)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return True
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in signature.parameters.values()
    ):
        return True
    return name in signature.parameters
