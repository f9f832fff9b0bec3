"""Outside-in layer tracing for the traced round of the benchmark.

:class:`Tracer` is a context manager that wraps the public entry points of
each layer (the ``TARGETS`` table) *from the benchmark's side* — nothing in
``src/`` knows it exists — records one span per call in memory, and puts
every attribute back on exit. A span is ``[name, start, end, parent, op,
units]``: ``parent`` is the index of the span that caused it (``-1`` for
the op's root), ``op`` numbers the ``run()`` call all of its spans belong
to, and ``units`` is the batch size for batched entry points (1 otherwise)
so ratios such as fetches per ``fetch_many`` are counted where the work
happens.

A layer's *self time* is its spans' duration minus the part their child
spans cover; :func:`summarise` folds the spans into per-op, per-name totals.
End-to-end numbers are never taken with the tracer installed.

(Named ``tracing`` rather than ``trace`` so that having this directory on
``sys.path`` — pytest puts it there — cannot shadow the stdlib module.)
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: ``(module, class, attribute, span name, sized)``. ``sized`` entry points
#: take their batch as the first argument; its length is the span's units.
TARGETS: Tuple[Tuple[str, str, str, str, bool], ...] = (
    # Containers: their self time is loop glue no layer owns.
    ("repro.core.incremental_crawler", "IncrementalCrawler", "run", "engine:crawler_run", False),
    ("repro.core.sharded_crawler", "ShardedCrawler", "run", "engine:sharded_run", False),
    ("repro.core.incremental_crawler", "IncrementalCrawler", "__init__",
     "core.incremental_crawler:init", False),
    # The tick-window replay and the batched observe pipeline.
    ("repro.core.update_module", "UpdateModule", "process_slots",
     "core.update_module:process_slots", True),
    ("repro.core.update_module", "UpdateModule", "process_batch",
     "core.update_module:process_batch", True),
    ("repro.core.update_module", "UpdateModule", "_maybe_reallocate",
     "core.update_module:reallocate", False),
    ("repro.core.collurls", "CollUrls", "pop_due", "core.collurls:pop_due", False),
    ("repro.core.collurls", "CollUrls", "pop", "core.collurls:pop", False),
    ("repro.core.collurls", "CollUrls", "schedule_many", "core.collurls:schedule_many", True),
    ("repro.core.collurls", "CollUrls", "schedule", "core.collurls:schedule", False),
    ("repro.core.collurls", "CollUrls", "schedule_front", "core.collurls:schedule_front", False),
    ("repro.core.collurls", "CollUrls", "restore", "core.collurls:restore", True),
    ("repro.core.crawl_module", "CrawlModule", "crawl_many", "core.crawl_module:crawl_many", True),
    ("repro.core.crawl_module", "CrawlModule", "crawl", "core.crawl_module:crawl", False),
    ("repro.fetch.fetcher", "SimulatedFetcher", "fetch_many", "fetch.fetcher:fetch_many", True),
    ("repro.fetch.fetcher", "SimulatedFetcher", "fetch", "fetch.fetcher:fetch", False),
    ("repro.simweb.web", "OracleArrays", "lookup", "simweb.web:lookup", True),
    ("repro.simweb.web", "OracleArrays", "exists", "simweb.web:exists", True),
    ("repro.simweb.web", "OracleArrays", "versions", "simweb.web:versions", True),
    ("repro.simweb.web", "OracleArrays", "next_change_relative",
     "simweb.web:next_change_relative", True),
    ("repro.fetch.politeness", "PolitenessPolicy", "earliest_allowed_many",
     "fetch.politeness:earliest_allowed_many", True),
    ("repro.fetch.politeness", "PolitenessPolicy", "earliest_allowed_many_indexed",
     "fetch.politeness:earliest_allowed_many_indexed", True),
    ("repro.fetch.politeness", "PolitenessPolicy", "record_requests",
     "fetch.politeness:record_requests", True),
    ("repro.fetch.politeness", "PolitenessPolicy", "record_requests_indexed",
     "fetch.politeness:record_requests_indexed", True),
    ("repro.fetch.politeness", "PolitenessPolicy", "earliest_allowed",
     "fetch.politeness:earliest_allowed", False),
    ("repro.fetch.politeness", "PolitenessPolicy", "record_request",
     "fetch.politeness:record_request", False),
    ("repro.faults", "FaultLayer", "resolve", "faults:resolve", True),
    ("repro.faults", "FaultLayer", "resolve_one", "faults:resolve_one", False),
    ("repro.faults", "FaultLayer", "latency_factors", "faults:latency_factors", True),
    ("repro.faults", "FaultLayer", "latency_factor_one", "faults:latency_factor_one", False),
    ("repro.faults", "FailureTracker", "quarantined", "faults.tracker:quarantined", False),
    ("repro.faults", "FailureTracker", "defer", "faults.tracker:defer", False),
    ("repro.faults", "FailureTracker", "on_success", "faults.tracker:on_success", False),
    ("repro.faults", "FailureTracker", "on_failure", "faults.tracker:on_failure", False),
    ("repro.estimation.rate_estimators", "PoissonRateStrategy", "update_batch",
     "estimation:update_batch", True),
    ("repro.estimation.rate_estimators", "PoissonRateStrategy", "update",
     "estimation:update", False),
    ("repro.core.ranking_module", "RankingModule", "refine", "core.ranking_module:refine", False),
    ("repro.simulation.freshness_tracker", "FreshnessTracker", "sample",
     "simulation.freshness_tracker:sample", False),
    ("repro.core.incremental_crawler", "IncrementalCrawler", "_sample_quality",
     "core.quality:sample", False),
    # Storage: journal write-behind, checkpoint write side, then read side.
    ("repro.storage.checkpoint", "CollectionJournal", "on_batch",
     "storage.journal:on_batch", False),
    ("repro.storage.checkpoint", "CollectionJournal", "on_outcome",
     "storage.journal:on_outcome", False),
    ("repro.storage.checkpoint", "CollectionJournal", "on_discard",
     "storage.journal:on_discard", False),
    ("repro.storage.checkpoint", "CollectionJournal", "refresh_records",
     "storage.journal:refresh_records", True),
    ("repro.storage.checkpoint", "CrawlCheckpointer", "save", "storage.checkpoint:save", False),
    ("repro.storage.checkpoint", "CrawlCheckpointer", "load", "storage.checkpoint:load", False),
    ("repro.core.incremental_crawler", "IncrementalCrawler", "_snapshot_state",
     "storage.checkpoint:snapshot", False),
    ("repro.core.incremental_crawler", "IncrementalCrawler", "_restore_state",
     "storage.checkpoint:restore", False),
    ("repro.storage.backends", "SqliteBackend", "__init__", "storage.backends:open", False),
    # Sharding: what the coordinator does around its (untraceable) workers.
    ("repro.core.sharding", "ShardView", "split", "core.sharded_crawler:init", False),
    ("repro.simweb.shared", "SharedWeb", "__init__", "simweb.shared:export", False),
    ("repro.core.sharded_crawler", "ShardedCrawler", "_run_workers",
     "core.sharded_crawler:workers", False),
    ("repro.core.sharded_crawler", "ShardedCrawler", "_merge",
     "core.sharded_crawler:merge", False),
)

#: The root span the harness opens around each traced ``run()`` call.
ROOT = "api.runner:run"


class Tracer:
    """Wraps the ``TARGETS`` while active and records their spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = 0
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, class_name, attr, name, sized in TARGETS:
                owner = getattr(importlib.import_module(module_name), class_name)
                original = owner.__dict__[attr]
                if isinstance(original, staticmethod):
                    patched = staticmethod(self._wrap(original.__func__, name, sized, 0))
                else:
                    patched = self._wrap(original, name, sized, 1)
                setattr(owner, attr, patched)
                self._patched.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, function, name: str, sized: bool, batch_position: int):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            units = 1
            if sized:
                batch = (
                    args[batch_position]
                    if len(args) > batch_position
                    else next(iter(kwargs.values()))
                )
                units = len(batch)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, units]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def root(self) -> Iterator[None]:
        """Open the root span of the next op (one ``run()`` call)."""
        self.op += 1
        record = [ROOT, 0.0, 0.0, -1, self.op, 1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        """Dump every recorded span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, units) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "units": units,
                }) + "\n")


def summarise(spans: List[list]) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Per op and span name: ``self_s``, ``calls`` and ``units``.

    Parents always precede their children in ``spans``, so one pass that
    charges each span's duration to its parent yields every self time.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _op, _units in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[int, Dict[str, Dict[str, float]]] = {}
    for index, (name, start, end, _parent, op, units) in enumerate(spans):
        entry = totals.setdefault(op, {}).setdefault(
            name, {"self_s": 0.0, "calls": 0, "units": 0})
        entry["self_s"] += (end - start) - child_time[index]
        entry["calls"] += 1
        entry["units"] += units
    return totals
