"""The metric catalogue, and how one traced op yields the per-layer part.

``PER_LAYER`` lists every layer metric with its unit and direction, in the
order ``BENCHMARK.json`` declares them. Timings are self time (see
``tracing.summarise``) per completed fetch of the op, in microseconds,
unless the unit is in the name; the harness host-normalises them like the
end-to-end timings. Counts repeat exactly from op to op and are the only
layer numbers a later change may make a claim on. README.md says which
end-to-end metric, on which workload, each one should move.

``sharded`` runs its crawl in spawned workers the tracer cannot reach, so
on that workload the in-crawl layers read zero and the coordinator-side
``core.sharded_crawler.*`` metrics carry the run.
"""

from __future__ import annotations

from typing import Dict, Tuple

import tracing

#: The end-to-end metrics, ``(name, unit)``; README.md defines them and
#: ``BENCHMARK.json`` holds their bounds.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("norm_us_per_fetch", "us"),
    ("peak_rss_mb", "MB"),
    ("final_freshness", "fraction"),
)

#: ``(name, unit, better)``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.update_module.slots_us_per_fetch", "us", "lower"),
    ("core.update_module.batch_us_per_fetch", "us", "lower"),
    ("core.update_module.realloc_us_per_fetch", "us", "lower"),
    ("core.update_module.windows", "count", "lower"),
    ("core.update_module.batches", "count", "lower"),
    ("core.update_module.fetches_per_batch", "count", "higher"),
    ("core.collurls.us_per_fetch", "us", "lower"),
    ("core.collurls.calls", "count", "lower"),
    ("core.collurls.fetches_per_pop", "count", "higher"),
    ("core.crawl_module.us_per_fetch", "us", "lower"),
    ("fetch.fetcher.us_per_fetch", "us", "lower"),
    ("fetch.fetcher.batched_share", "fraction", "higher"),
    ("simweb.web.oracle_us_per_fetch", "us", "lower"),
    ("simweb.web.oracle_calls", "count", "lower"),
    ("simweb.generator.build_web_s", "s", "lower"),
    ("fetch.politeness.us_per_fetch", "us", "lower"),
    ("fetch.politeness.calls", "count", "lower"),
    ("fetch.politeness.scalar_share", "fraction", "lower"),
    ("faults.resolve_us_per_fetch", "us", "lower"),
    ("faults.resolve_calls", "count", "lower"),
    ("faults.urls_per_resolve", "count", "higher"),
    ("faults.tracker_us_per_fetch", "us", "lower"),
    ("faults.failed_fetch_share", "fraction", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.retry_drops", "count", "lower"),
    ("faults.breaker_trips", "count", "lower"),
    ("faults.breaker_skips", "count", "lower"),
    ("estimation.us_per_fetch", "us", "lower"),
    ("estimation.calls", "count", "lower"),
    ("core.ranking_module.refine_ms", "ms", "lower"),
    ("core.ranking_module.refines", "count", "lower"),
    ("core.ranking_module.pages_replaced", "count", "higher"),
    ("simulation.freshness_tracker.sample_ms", "ms", "lower"),
    ("core.quality.sample_ms", "ms", "lower"),
    ("core.incremental_crawler.init_ms", "ms", "lower"),
    ("storage.checkpoint.journal_us_per_fetch", "us", "lower"),
    ("storage.checkpoint.save_ms", "ms", "lower"),
    ("storage.checkpoint.saves", "count", "lower"),
    ("storage.checkpoint.snapshot_ms", "ms", "lower"),
    ("storage.checkpoint.state_bytes", "bytes", "lower"),
    ("storage.backends.store_mb", "MB", "lower"),
    ("storage.checkpoint.load_ms", "ms", "lower"),
    ("storage.checkpoint.restore_ms", "ms", "lower"),
    ("storage.backends.open_ms", "ms", "lower"),
    ("core.sharded_crawler.init_ms", "ms", "lower"),
    ("simweb.shared.export_ms", "ms", "lower"),
    ("core.sharded_crawler.workers_wall_s", "s", "lower"),
    ("core.sharded_crawler.child_cpu_s", "s", "lower"),
    ("core.sharded_crawler.merge_ms", "ms", "lower"),
    ("core.sharded_crawler.overhead_s", "s", "lower"),
    ("core.sharding.fetch_skew", "ratio", "lower"),
    ("api.runner.overhead_ms", "ms", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
    ("trace.layer_share", "fraction", "higher"),
)

#: Unit of every metric, end-to-end and per-layer.
UNITS: Dict[str, str] = {
    **dict(END_TO_END), **{name: unit for name, unit, _better in PER_LAYER}}

#: Durations taken inside the traced op; the harness scales these (and
#: only these) by the op's host-normalisation factor.
HOST_SCALED = frozenset(
    name for name, unit, _better in PER_LAYER
    if unit in ("us", "ms", "s") and name not in (
        "simweb.generator.build_web_s", "setup.import_s",
        "core.sharded_crawler.overhead_s", "core.sharded_crawler.child_cpu_s",
    )
)

#: Spans that contain layers rather than being one: their self time is
#: engine-loop glue no layer owns (``trace.unattributed_share``). The root
#: span's self time is the runner's own overhead.
_CONTAINER = "engine:"


def from_spans(totals: Dict[str, Dict[str, float]], fetches: int, result) -> Dict[str, float]:
    """The span-derived layer metrics of one traced op.

    Args:
        totals: ``tracing.summarise`` output for the op.
        fetches: Fetches completed inside the op.
        result: The ``ExperimentResult`` of the op's (last) ``run()`` call.
    """
    def total(field: str, names: Tuple[str, ...]) -> float:
        # A name ending in ":" selects a whole layer, any other one span.
        return sum(
            entry[field] for name, entry in totals.items()
            if any(name == wanted or (wanted.endswith(":") and name.startswith(wanted))
                   for wanted in names)
        )

    def self_s(*names: str) -> float:
        return total("self_s", names)

    def calls(*names: str) -> int:
        return total("calls", names)

    def units(*names: str) -> int:
        return total("units", names)

    def per_fetch_us(*names: str) -> float:
        return self_s(*names) / fetches * 1e6

    def mean_ms(name: str) -> float:
        return ratio(self_s(name) * 1e3, calls(name))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wall = sum(entry["self_s"] for entry in totals.values())  # self times partition it
    summary = result.summary
    failures = summary.get("failures") or {}
    slots = units("core.update_module:process_batch")
    batched_fetches = units("fetch.fetcher:fetch_many")
    scalar_polite = calls("fetch.politeness:earliest_allowed")
    batched_polite = units("fetch.politeness:earliest_allowed_many",
                           "fetch.politeness:earliest_allowed_many_indexed")
    per_shard = [shard["fetch_count"] for shard in result.tables.get("per_shard", ())]
    return {
        "core.update_module.slots_us_per_fetch": per_fetch_us("core.update_module:process_slots"),
        "core.update_module.batch_us_per_fetch": per_fetch_us("core.update_module:process_batch"),
        "core.update_module.realloc_us_per_fetch": per_fetch_us("core.update_module:reallocate"),
        "core.update_module.windows": calls("core.update_module:process_slots"),
        "core.update_module.batches": calls("core.update_module:process_batch"),
        "core.update_module.fetches_per_batch": ratio(
            slots, calls("core.update_module:process_batch")),
        "core.collurls.us_per_fetch": per_fetch_us("core.collurls:"),
        "core.collurls.calls": calls("core.collurls:"),
        "core.collurls.fetches_per_pop": ratio(
            slots, calls("core.collurls:pop_due", "core.collurls:pop")),
        "core.crawl_module.us_per_fetch": per_fetch_us("core.crawl_module:"),
        "fetch.fetcher.us_per_fetch": per_fetch_us("fetch.fetcher:"),
        "fetch.fetcher.batched_share": ratio(
            batched_fetches, batched_fetches + calls("fetch.fetcher:fetch")),
        "simweb.web.oracle_us_per_fetch": per_fetch_us("simweb.web:"),
        "simweb.web.oracle_calls": calls("simweb.web:"),
        "fetch.politeness.us_per_fetch": per_fetch_us("fetch.politeness:"),
        "fetch.politeness.calls": calls("fetch.politeness:"),
        "fetch.politeness.scalar_share": ratio(scalar_polite, scalar_polite + batched_polite),
        "faults.resolve_us_per_fetch": per_fetch_us("faults:"),
        "faults.resolve_calls": calls("faults:resolve"),
        "faults.urls_per_resolve": ratio(units("faults:resolve"), calls("faults:resolve")),
        "faults.tracker_us_per_fetch": per_fetch_us("faults.tracker:"),
        "faults.failed_fetch_share": ratio(
            sum(failures.get(key, 0)
                for key in ("timeouts", "server_errors", "rate_limited", "soft_404s")),
            slots),
        "faults.retries": failures.get("retries", 0),
        "faults.retry_drops": failures.get("retry_drops", 0),
        "faults.breaker_trips": failures.get("breaker_trips", 0),
        "faults.breaker_skips": failures.get("breaker_skips", 0),
        "estimation.us_per_fetch": per_fetch_us("estimation:"),
        "estimation.calls": calls("estimation:"),
        "core.ranking_module.refine_ms": mean_ms("core.ranking_module:refine"),
        "core.ranking_module.refines": calls("core.ranking_module:refine"),
        "core.ranking_module.pages_replaced": summary.get("pages_replaced", 0),
        "simulation.freshness_tracker.sample_ms": mean_ms("simulation.freshness_tracker:sample"),
        "core.quality.sample_ms": mean_ms("core.quality:sample"),
        "core.incremental_crawler.init_ms": mean_ms("core.incremental_crawler:init"),
        "storage.checkpoint.journal_us_per_fetch": per_fetch_us("storage.journal:"),
        "storage.checkpoint.save_ms": mean_ms("storage.checkpoint:save"),
        "storage.checkpoint.saves": calls("storage.checkpoint:save"),
        "storage.checkpoint.snapshot_ms": mean_ms("storage.checkpoint:snapshot"),
        "storage.checkpoint.load_ms": mean_ms("storage.checkpoint:load"),
        "storage.checkpoint.restore_ms": mean_ms("storage.checkpoint:restore"),
        "storage.backends.open_ms": mean_ms("storage.backends:open"),
        "core.sharded_crawler.init_ms": mean_ms("core.sharded_crawler:init"),
        "simweb.shared.export_ms": mean_ms("simweb.shared:export"),
        "core.sharded_crawler.workers_wall_s": self_s("core.sharded_crawler:workers"),
        "core.sharded_crawler.merge_ms": mean_ms("core.sharded_crawler:merge"),
        "core.sharding.fetch_skew": ratio(
            max(per_shard, default=0) * len(per_shard), sum(per_shard)),
        "api.runner.overhead_ms": mean_ms(tracing.ROOT),
        "trace.unattributed_share": ratio(self_s(_CONTAINER), wall),
        "trace.layer_share": ratio(wall - self_s(_CONTAINER, tracing.ROOT), wall),
    }
