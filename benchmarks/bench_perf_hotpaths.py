#!/usr/bin/env python
"""Perf trajectory of the vectorized hot paths vs. the reference loops.

Times each NumPy-batched kernel against the retained ``*_reference``
implementation on the same inputs and seeds, checks the results agree, and
writes the measurements to ``BENCH_perf.json`` at the repository root so
the speedup trajectory is tracked from PR to PR.

Kernels covered:

* ``simulate_revisit_allocation`` — the Figure 9/10 Monte-Carlo simulator;
* ``simulate_crawl_policy`` — the Table 2 / Figures 7-8 policy simulator;
* ``optimal_revisit_frequencies`` — the KKT water-level allocation solver;
* ``collection_freshness`` + ``collection_age`` — the batched-oracle
  measurement path used by every crawler measurement event;
* ``incremental_crawler_run`` — the end-to-end Figure 12 crawl loop:
  the batched tick-window engine against the pinned per-URL reference
  engine on the same web, with bit-identical counters and freshness
  series required.
* ``crawler_run_faulty`` — the cost of the fault-injection hooks when no
  fault fires: the batched engine plain vs. with a zero-rate fault layer
  and retry policy armed; the runs must be bit-identical and the armed
  run at most 2% slower. A real chaos run is timed alongside (µs per
  fetch and its ratio to the plain run, recorded not gated) and, at the
  quick sizes, checked against the reference engine.
* ``incremental_crawler_run_polite`` — the same crawl loop with the
  paper's politeness constraints on (10 s per-site minimum delay plus
  the nightly crawl window) over a multi-site web; the batched engine
  resolves politeness inside its one tick-window replay and must
  additionally reproduce every fetch timestamp bit-for-bit.
* ``collection_store_io`` — storage-backend write/scan throughput: the
  columnar backend against SQLite (with the plain in-memory backend's
  time recorded alongside) on a crawl-shaped record/event workload, with
  exact invariant agreement required across all three backends.
* ``ranking_power_iteration`` — one PageRank solve: the sparse CSR kernel
  (including its CSR build) against the pinned dense reference on the
  same heavy-tailed graph; in full mode the sparse kernel additionally
  solves a million-page graph, with its build/solve times recorded in
  ``params``.
* ``ranking_refinement_scan`` — the RankingModule steady state: a scan
  that applies a small edge churn to a live ``LinkGraph`` and
  warm-starts power iteration from the previous fixed point, against a
  cold recompute that re-interns the whole collection adjacency into a
  fresh graph and iterates from the uniform prior.
* ``incremental_crawler_run_sharded`` — the multi-process sharded crawl:
  the same end-to-end crawl run through ``ShardedCrawler`` at 1/2/4
  shards against the single-process batched baseline on one web. The
  1-shard configuration must be bit-identical to the baseline; the
  multi-shard timings carry their worker counts in ``params``.
* ``scenario_matrix_parallel`` — a crawl-cell parameter sweep run through
  ``run_matrix`` serially vs. across worker processes, with per-cell
  result equality required.

The two multi-process kernels record honest wall times for the host they
run on; when the machine has fewer CPUs than the requested workers the
entry is marked ``"gated": false`` (with the reason in ``params``) and the
speedup gate skips it — a 1-CPU container cannot show a parallel speedup,
but the result-equality checks still apply. The payload's ``environment``
block records the CPU count and library versions the numbers were taken
under.

Usage::

    python benchmarks/bench_perf_hotpaths.py            # full sizes
    python benchmarks/bench_perf_hotpaths.py --quick    # CI smoke sizes

Exits non-zero when any vectorized kernel fails to beat its reference
implementation, which is what the CI smoke invocation gates on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.incremental_crawler import (  # noqa: E402
    IncrementalCrawler,
    IncrementalCrawlerConfig,
)
from repro.faults import RetryPolicy  # noqa: E402
from repro.freshness.metrics import (  # noqa: E402
    collection_age,
    collection_age_reference,
    collection_freshness,
    collection_freshness_reference,
)
from repro.freshness.optimal_allocation import (  # noqa: E402
    optimal_revisit_frequencies,
    optimal_revisit_frequencies_reference,
)
from repro.simulation.crawler_sim import (  # noqa: E402
    simulate_crawl_policy,
    simulate_crawl_policy_reference,
    simulate_revisit_allocation,
    simulate_revisit_allocation_reference,
)
from repro.ranking.pagerank import pagerank_reference  # noqa: E402
from repro.ranking.sparse import LinkGraph, pagerank_scores  # noqa: E402
from repro.simulation.scenarios import paper_table2_policies  # noqa: E402
from repro.simweb.change_models import PoissonChangeProcess  # noqa: E402
from repro.simweb.page import SimulatedPage  # noqa: E402
from repro.simweb.site import SimulatedSite  # noqa: E402
from repro.simweb.web import SimulatedWeb  # noqa: E402
from repro.storage.backends import (  # noqa: E402
    ColumnarBackend,
    MemoryBackend,
    SqliteBackend,
)
from repro.storage.records import PageRecord  # noqa: E402


def _timed(fn: Callable[[], object]) -> tuple:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_revisit_allocation(n_pages: int, n_samples: int) -> Dict:
    rng = np.random.default_rng(101)
    rates = rng.exponential(0.15, size=n_pages)
    rates[: n_pages // 20] = 0.0
    intervals = rng.exponential(15.0, size=n_pages)
    intervals[: n_pages // 50] = np.inf

    vec_seconds, vec = _timed(
        lambda: simulate_revisit_allocation(rates, intervals, n_samples=n_samples, seed=7)
    )
    ref_seconds, ref = _timed(
        lambda: simulate_revisit_allocation_reference(
            rates, intervals, n_samples=n_samples, seed=7
        )
    )
    delta = max(abs(a - b) for a, b in zip(vec.freshness, ref.freshness))
    return {
        "kernel": "simulate_revisit_allocation",
        "params": {"n_pages": n_pages, "n_samples": n_samples},
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def bench_crawl_policy(n_pages: int, n_cycles: int) -> Dict:
    rng = np.random.default_rng(103)
    rates = rng.exponential(0.1, size=n_pages)
    policy = paper_table2_policies()["batch / shadowing"]

    vec_seconds, vec = _timed(
        lambda: simulate_crawl_policy(rates, policy, n_cycles=n_cycles, seed=7)
    )
    ref_seconds, ref = _timed(
        lambda: simulate_crawl_policy_reference(rates, policy, n_cycles=n_cycles, seed=7)
    )
    delta = max(abs(a - b) for a, b in zip(vec.freshness, ref.freshness))
    return {
        "kernel": "simulate_crawl_policy",
        "params": {"n_pages": n_pages, "n_cycles": n_cycles},
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def bench_optimal_allocation(n_pages: int) -> Dict:
    rng = np.random.default_rng(107)
    rates = rng.exponential(0.2, size=n_pages)
    rates[: n_pages // 20] = 0.0
    budget = n_pages / 15.0

    vec_seconds, vec = _timed(lambda: optimal_revisit_frequencies(rates, budget))
    ref_seconds, ref = _timed(
        lambda: optimal_revisit_frequencies_reference(list(rates), budget)
    )
    delta = max(abs(a - b) for a, b in zip(vec, ref))
    return {
        "kernel": "optimal_revisit_frequencies",
        "params": {"n_pages": n_pages, "budget": budget},
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def _build_synthetic_web(
    n_pages: int, horizon: float = 200.0, n_sites: int = 1
) -> SimulatedWeb:
    """Flat Poisson-page sites — cheap to build at any scale.

    ``n_sites`` spreads the pages over that many sites, which is what the
    politeness kernel needs: per-site minimum delays only constrain fetches
    within one site, so a single-site web would serialize the whole crawl.
    """
    rng = np.random.default_rng(109)
    web = SimulatedWeb(horizon_days=horizon)
    per_site = n_pages // n_sites
    remainder = n_pages - per_site * n_sites
    for s in range(n_sites):
        site_id = f"site{s:03d}.com"
        site_pages = per_site + (1 if s < remainder else 0)
        site = SimulatedSite(site_id, "com", window_size=site_pages)
        for i in range(site_pages):
            process = PoissonChangeProcess(float(rng.exponential(0.2)))
            process.materialise(horizon, rng)
            if i == 0:
                created, lifespan = 0.0, None
            else:
                created = float(rng.uniform(0.0, 20.0))
                lifespan = float(rng.uniform(50.0, horizon)) if i % 7 == 0 else None
            page = SimulatedPage(
                url=f"http://{site_id}/p{i}",
                site_id=site_id,
                domain="com",
                depth=0 if i == 0 else 1,
                created_at=created,
                lifespan=lifespan,
                change_process=process,
            )
            site.add_page(page, is_root=(i == 0))
        web.add_site(site)
    return web


def bench_collection_metrics(n_records: int, n_instants: int) -> Dict:
    web = _build_synthetic_web(n_records)
    rng = np.random.default_rng(113)
    records = [
        PageRecord(
            url=url,
            content="x",
            checksum="c",
            fetched_at=(fetched := float(rng.uniform(0.0, 140.0))),
            first_fetched_at=fetched,
        )
        for url in web.urls()
    ]
    instants = np.linspace(1.0, 199.0, n_instants)
    web.oracle_arrays()  # build the cache outside the timed region, like a crawl run

    def run_vec() -> List[float]:
        return [
            collection_freshness(records, web, float(t))
            + collection_age(records, web, float(t))
            for t in instants
        ]

    def run_ref() -> List[float]:
        return [
            collection_freshness_reference(records, web, float(t))
            + collection_age_reference(records, web, float(t))
            for t in instants
        ]

    vec_seconds, vec = _timed(run_vec)
    ref_seconds, ref = _timed(run_ref)
    delta = max(abs(a - b) for a, b in zip(vec, ref))
    return {
        "kernel": "collection_freshness+age",
        "params": {"n_records": n_records, "n_instants": n_instants},
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def bench_incremental_crawler(n_pages: int, duration_days: float) -> Dict:
    """End-to-end Figure 12 crawl loop: batched engine vs per-URL reference.

    Both engines run the full incremental crawler — steady crawl events,
    EP estimation, optimal revisit reallocation, freshness measurement —
    over the same synthetic web and must produce bit-identical counters
    and freshness series. Ranking is configured out of the steady state
    (one initial scan) so the kernel isolates the crawl loop itself.
    """

    def run(engine: str):
        # The helper draws page lifespans from uniform(50, horizon), so the
        # horizon must clear that even for short quick-mode runs.
        web = _build_synthetic_web(n_pages, horizon=max(duration_days + 20.0, 60.0))
        config = IncrementalCrawlerConfig(
            collection_capacity=n_pages,
            crawl_budget_per_day=2.0 * n_pages,
            revisit_policy="optimal",
            estimator="ep",
            engine=engine,
            ranking_interval_days=duration_days * 10.0,
            measurement_interval_days=0.5,
            track_quality=False,
        )
        crawler = IncrementalCrawler(web, config, seed_urls=list(web.urls()))
        return crawler.run(duration_days)

    vec_seconds, vec = _timed(lambda: run("batched"))
    ref_seconds, ref = _timed(lambda: run("reference"))
    counters_match = (
        vec.pages_crawled == ref.pages_crawled
        and vec.pages_failed == ref.pages_failed
        and vec.changes_detected == ref.changes_detected
        and vec.pages_replaced == ref.pages_replaced
    )
    series_match = (
        vec.freshness.times == ref.freshness.times
        and vec.freshness.freshness == ref.freshness.freshness
    )
    # Bit-identical or bust: report a sentinel delta the gate trips on.
    delta = 0.0 if (counters_match and series_match) else 1.0
    return {
        "kernel": "incremental_crawler_run",
        "params": {
            "n_pages": n_pages,
            "duration_days": duration_days,
            "pages_crawled": ref.pages_crawled,
        },
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def bench_crawler_run_faulty(
    n_pages: int, duration_days: float, repeats: int = 3, check_reference: bool = False
) -> Dict:
    """No-fault overhead of the fault-injection hooks, gated at < 2%.

    The batched engine runs the same crawl twice: plain, and with a
    zero-rate fault layer plus a retry policy armed — every failure-aware
    hook on the hot path live (bulk fault resolution, breaker checks,
    tracker bookkeeping), with no fault ever firing. The two runs must be
    bit-identical and the armed run at most 2% slower (best-of-``repeats``
    wall times); either violation trips the ``max_abs_delta`` sentinel.
    A real-weather chaos run (the fault stack of
    ``examples/specs/chaos_crawl.json``) is timed alongside: its cost per
    fetch and its ratio to the plain run are recorded, not gated (they are
    workload-dependent). With ``check_reference`` the same chaos crawl also
    runs on the reference engine and any difference trips the sentinel.
    """
    zero_models = (
        ("transient", {"rate": 0.0}),
        ("site_outage", {"rate": 0.0}),
        ("rate_limit", {"rate": 0.0}),
        ("soft_404", {"rate": 0.0}),
    )
    chaos_models = (
        ("transient", {"rate": 0.05}),
        ("site_outage", {"rate": 0.2, "period_days": 7.0, "duration_days": 0.5}),
        ("rate_limit", {"rate": 0.03, "retry_after_days": 0.25}),
        ("soft_404", {"rate": 0.03}),
        ("latency", {"factor": 3.0, "rate": 0.25}),
    )

    def run(fault_models, engine="batched"):
        web = _build_synthetic_web(n_pages, horizon=max(duration_days + 20.0, 60.0))
        config = IncrementalCrawlerConfig(
            collection_capacity=n_pages,
            crawl_budget_per_day=2.0 * n_pages,
            revisit_policy="optimal",
            estimator="ep",
            engine=engine,
            ranking_interval_days=duration_days * 10.0,
            measurement_interval_days=0.5,
            track_quality=False,
            fault_models=fault_models,
            fault_seed=5,
            retry=None if fault_models is None else RetryPolicy(),
        )
        crawler = IncrementalCrawler(web, config, seed_urls=list(web.urls()))
        return crawler.run(duration_days), crawler

    # Interleave the plain and armed timed runs (pairwise, best-of): on a
    # noisy shared host, timing each variant in a consecutive block lets a
    # load spike land entirely on one side and fake a >2% overhead.
    plain_seconds = armed_seconds = float("inf")
    plain = armed = armed_crawler = None
    for _ in range(repeats):
        seconds, (result, _) = _timed(lambda: run(None))
        if seconds < plain_seconds:
            plain_seconds, plain = seconds, result
        seconds, (result, crawler) = _timed(lambda: run(zero_models))
        if seconds < armed_seconds:
            armed_seconds, armed, armed_crawler = seconds, result, crawler
    chaos_seconds, (chaos, chaos_crawler) = _timed(lambda: run(chaos_models))

    identical = (
        armed.pages_crawled == plain.pages_crawled
        and armed.pages_failed == plain.pages_failed
        and armed.changes_detected == plain.changes_detected
        and armed.pages_replaced == plain.pages_replaced
        and armed.freshness.times == plain.freshness.times
        and armed.freshness.freshness == plain.freshness.freshness
        and all(v == 0 for v in armed_crawler.failure_counters().values())
    )
    overhead = armed_seconds / plain_seconds - 1.0
    chaos_counters = chaos_crawler.failure_counters()
    chaos_matches_reference = None
    if check_reference:
        reference, reference_crawler = run(chaos_models, engine="reference")
        chaos_matches_reference = (
            chaos.pages_crawled == reference.pages_crawled
            and chaos.pages_failed == reference.pages_failed
            and chaos.changes_detected == reference.changes_detected
            and chaos.freshness.times == reference.freshness.times
            and chaos.freshness.freshness == reference.freshness.freshness
            and chaos_counters == reference_crawler.failure_counters()
            and chaos_crawler.collurls.snapshot()
            == reference_crawler.collurls.snapshot()
        )
    delta = (
        0.0
        if identical and overhead < 0.02 and chaos_matches_reference is not False
        else 1.0
    )
    chaos_us_per_fetch = chaos_seconds / (chaos.pages_crawled + chaos.pages_failed) * 1e6
    plain_us_per_fetch = plain_seconds / (plain.pages_crawled + plain.pages_failed) * 1e6
    return {
        "kernel": "crawler_run_faulty",
        "params": {
            "n_pages": n_pages,
            "duration_days": duration_days,
            "repeats": repeats,
            "overhead_fraction": overhead,
            "zero_rate_identical": identical,
            "chaos_seconds": chaos_seconds,
            "chaos_us_per_fetch": chaos_us_per_fetch,
            "chaos_over_plain": chaos_us_per_fetch / plain_us_per_fetch,
            "chaos_matches_reference": chaos_matches_reference,
            "chaos_transient_failures": sum(
                chaos_counters[k]
                for k in ("timeouts", "server_errors", "rate_limited", "soft_404s")
            ),
            "chaos_retries": chaos_counters["retries"],
            "chaos_breaker_trips": chaos_counters["breaker_trips"],
            "chaos_pages_crawled": chaos.pages_crawled,
            "gate_exemption": "overhead kernel: gated on max|delta| "
            "(bit-identity plus < 2% no-fault overhead), not on speedup",
        },
        "ref_seconds": plain_seconds,
        "vec_seconds": armed_seconds,
        "speedup": plain_seconds / armed_seconds,
        "max_abs_delta": delta,
        "gated": False,
    }


def bench_incremental_crawler_polite(
    n_pages: int, duration_days: float, n_sites: int
) -> Dict:
    """The crawl-loop kernel with politeness on: batched vs reference.

    Same end-to-end crawl as :func:`bench_incremental_crawler`, but over a
    multi-site web with the paper's politeness constraints enabled — a
    10-second per-site minimum delay plus the nightly crawl window. The
    batched engine resolves each popped entry's start instant inside its
    tick-window replay (``UpdateModule.process_slots``) and must stay
    bit-identical to the reference engine's one-fetch-at-a-time
    resolution.
    """

    def run(engine: str):
        web = _build_synthetic_web(
            n_pages, horizon=max(duration_days + 20.0, 60.0), n_sites=n_sites
        )
        config = IncrementalCrawlerConfig(
            collection_capacity=n_pages,
            # Twice the plain kernel's crawl rate: politeness compresses
            # every fetch into the nightly window, and the production
            # regime this kernel models is a crawler saturating that
            # window. The higher rate also makes the tick windows dense,
            # which is exactly the case the batched resolution targets.
            crawl_budget_per_day=4.0 * n_pages,
            revisit_policy="optimal",
            estimator="ep",
            engine=engine,
            ranking_interval_days=duration_days * 10.0,
            measurement_interval_days=0.5,
            track_quality=False,
            use_politeness=True,
            politeness_min_delay_seconds=10.0,
            politeness_night_window=True,
        )
        crawler = IncrementalCrawler(web, config, seed_urls=list(web.urls()))
        return crawler.run(duration_days), crawler

    vec_seconds, (vec, vec_crawler) = _timed(lambda: run("batched"))
    ref_seconds, (ref, ref_crawler) = _timed(lambda: run("reference"))
    counters_match = (
        vec.pages_crawled == ref.pages_crawled
        and vec.pages_failed == ref.pages_failed
        and vec.changes_detected == ref.changes_detected
        and vec.pages_replaced == ref.pages_replaced
    )
    series_match = (
        vec.freshness.times == ref.freshness.times
        and vec.freshness.freshness == ref.freshness.freshness
    )
    # Politeness shifts every fetch instant, so also pin the per-record
    # fetch timestamps — the politeness chains themselves.
    records_match = {
        r.url: (r.fetched_at, r.visit_count, r.change_count)
        for r in vec_crawler.collection.current_records()
    } == {
        r.url: (r.fetched_at, r.visit_count, r.change_count)
        for r in ref_crawler.collection.current_records()
    }
    # Bit-identical or bust: report a sentinel delta the gate trips on.
    delta = 0.0 if (counters_match and series_match and records_match) else 1.0
    return {
        "kernel": "incremental_crawler_run_polite",
        "params": {
            "n_pages": n_pages,
            "duration_days": duration_days,
            "n_sites": n_sites,
            "pages_crawled": ref.pages_crawled,
        },
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def bench_incremental_crawler_sharded(
    n_pages: int, duration_days: float, n_sites: int, shard_counts: tuple
) -> Dict:
    """Sharded multi-process crawl vs. the single-process batched baseline.

    One web, one config; the baseline is the plain batched
    ``IncrementalCrawler`` and every sharded configuration runs through
    ``ShardedCrawler`` with ``workers=min(shards, cpu_count)``. The
    1-shard run must be bit-identical to the baseline (series, counters,
    records, estimator snapshot); the headline speedup compares the
    largest shard count against the baseline. On a host with fewer CPUs
    than shards the entry is marked ungated — the equality checks still
    hold, but no parallel speedup is physically possible.
    """
    from repro.core.sharded_crawler import ShardedCrawler
    from repro.storage.records import record_to_dict

    cpu_count = os.cpu_count() or 1
    web = _build_synthetic_web(
        n_pages, horizon=max(duration_days + 20.0, 60.0), n_sites=n_sites
    )
    config = IncrementalCrawlerConfig(
        collection_capacity=n_pages,
        crawl_budget_per_day=2.0 * n_pages,
        revisit_policy="optimal",
        estimator="ep",
        engine="batched",
        ranking_interval_days=duration_days * 10.0,
        measurement_interval_days=0.5,
        track_quality=False,
    )

    def run_baseline():
        crawler = IncrementalCrawler(web, config, seed_urls=list(web.urls()))
        return crawler.run(duration_days), crawler

    ref_seconds, (ref, ref_crawler) = _timed(run_baseline)

    timings = {}
    delta = 0.0
    max_shards = max(shard_counts)
    vec_seconds = None
    for shards in shard_counts:
        workers = min(shards, cpu_count)
        sharded = ShardedCrawler(
            web, config, seed_urls=list(web.urls()),
            shards=shards, workers=workers,
        )
        seconds, merged = _timed(lambda: sharded.run(duration_days))
        timings[f"shards_{shards}_seconds"] = seconds
        timings[f"shards_{shards}_workers"] = workers
        if shards == 1:
            identical = (
                list(merged.freshness.times) == list(ref.freshness.times)
                and list(merged.freshness.freshness)
                == list(ref.freshness.freshness)
                and merged.pages_crawled == ref.pages_crawled
                and merged.changes_detected == ref.changes_detected
                and merged.records
                == [
                    record_to_dict(r)
                    for r in ref_crawler.collection.working_records()
                ]
                and merged.estimator_state
                == ref_crawler.update_module.snapshot()
            )
            # Bit-identical or bust: sentinel delta the gate trips on.
            delta = max(delta, 0.0 if identical else 1.0)
        if shards == max_shards:
            vec_seconds = seconds

    gated = cpu_count >= max_shards
    result = {
        "kernel": "incremental_crawler_run_sharded",
        "params": {
            "n_pages": n_pages,
            "duration_days": duration_days,
            "n_sites": n_sites,
            "shard_counts": list(shard_counts),
            "cpu_count": cpu_count,
            "pages_crawled": ref.pages_crawled,
            **timings,
        },
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }
    if not gated:
        result["gated"] = False
        result["params"]["gate_exemption"] = (
            f"host has {cpu_count} CPU(s) for {max_shards} shards; no "
            "parallel speedup is physically possible here"
        )
    return result


def bench_scenario_matrix_parallel(n_cells: int, workers: int) -> Dict:
    """A crawl-cell sweep through ``run_matrix``: serial vs. process pool.

    Per-cell results must be identical between the two modes (the pool
    ships each distinct web once through shared memory, so workers crawl
    the very same ground truth). Marked ungated when the host has fewer
    CPUs than workers.
    """
    from repro.api.runner import ScenarioMatrix, run_matrix
    from repro.api.specs import CrawlerSpec, ExperimentSpec, WebSpec

    cpu_count = os.cpu_count() or 1
    budgets = [100.0 + 50.0 * i for i in range(n_cells)]
    matrix = ScenarioMatrix(
        base=ExperimentSpec(
            name="bench/matrix",
            kind="crawl",
            web=WebSpec(
                site_counts={"com": 12, "edu": 6, "gov": 4, "net": 4},
                pages_per_site=20,
                horizon_days=40.0,
                seed=29,
            ),
            crawler=CrawlerSpec(
                kind="incremental",
                collection_capacity=260,
                crawl_budget_per_day=400.0,
                duration_days=8.0,
            ),
        ),
        axes={"crawler.crawl_budget_per_day": budgets},
    )
    ref_seconds, serial = _timed(lambda: run_matrix(matrix))
    vec_seconds, parallel = _timed(lambda: run_matrix(matrix, workers=workers))
    identical = len(serial.cells) == len(parallel.cells) and all(
        ours.series == theirs.series
        and ours.summary == theirs.summary
        and ours.spec_hash == theirs.spec_hash
        for ours, theirs in zip(serial.cells, parallel.cells)
    )
    gated = cpu_count >= workers
    result = {
        "kernel": "scenario_matrix_parallel",
        "params": {
            "n_cells": n_cells,
            "workers": workers,
            "cpu_count": cpu_count,
        },
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": 0.0 if identical else 1.0,
    }
    if not gated:
        result["gated"] = False
        result["params"]["gate_exemption"] = (
            f"host has {cpu_count} CPU(s) for {workers} workers; no "
            "parallel speedup is physically possible here"
        )
    return result


def bench_collection_store_io(n_records: int) -> Dict:
    """Storage-backend write/scan throughput: columnar vs SQLite.

    Drives each backend through the same crawl-shaped workload —
    ``process_batch``-sized ``put_records``/``append_events`` bursts
    followed by a full scan plus a column aggregation — and checks all
    backends agree on exact integer invariants (record count, total visit
    count, a sampled record). SQLite runs in its in-memory form so the
    kernel measures engine cost, not disk noise; the ``memory`` backend's
    time rides along in ``params`` as the floor.
    """
    rng = np.random.default_rng(127)
    fetched = rng.uniform(0.0, 100.0, size=n_records)
    records = [
        PageRecord(
            url=f"http://bench.example/p{i}",
            content=f"body of page {i}",
            checksum=f"ck{i:08d}",
            fetched_at=float(t),
            first_fetched_at=float(t),
            outlinks=(f"http://bench.example/p{(i + 1) % n_records}",),
            importance=float(i % 97) / 97.0,
            visit_count=1 + i % 5,
            change_count=i % 2,
        )
        for i, t in enumerate(fetched)
    ]
    events = [
        (record.url, record.fetched_at, i % 3 == 0, True)
        for i, record in enumerate(records)
    ]
    batch = 2048  # a plausible process_batch tick-window size

    def drive(backend) -> tuple:
        for start in range(0, n_records, batch):
            backend.put_records(records[start:start + batch])
            backend.append_events(events[start:start + batch])
        scanned = backend.scan_records()
        sample = scanned[n_records // 2]
        return (
            backend.record_count(),
            backend.event_count(),
            sum(record.visit_count for record in scanned),
            (sample.url, sample.fetched_at, sample.visit_count),
        )

    memory = MemoryBackend()
    memory_seconds, memory_invariants = _timed(lambda: drive(memory))
    sqlite_backend = SqliteBackend()
    ref_seconds, sqlite_invariants = _timed(lambda: drive(sqlite_backend))
    sqlite_backend.close()
    columnar = ColumnarBackend()
    vec_seconds, columnar_invariants = _timed(lambda: drive(columnar))

    # Exact-invariant parity or bust: report a sentinel delta the gate
    # trips on (counts and sampled fields are integers/IEEE doubles, so
    # equality is the right comparison).
    agree = memory_invariants == sqlite_invariants == columnar_invariants
    delta = 0.0 if agree else 1.0
    return {
        "kernel": "collection_store_io",
        "params": {
            "n_records": n_records,
            "batch": batch,
            "memory_seconds": memory_seconds,
        },
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def _synthetic_link_arrays(
    n_pages: int, out_degree: int, seed: int
) -> tuple:
    """A heavy-tailed random link graph as pre-interned id arrays.

    Targets are drawn with density ``~ 3 * (1 - rank)**2`` over the node
    ids, so low ids accumulate most in-links — the same rich-get-richer
    skew the synthetic web's cross-site preferential attachment produces.
    About 5% of the pages state no out-links at all (dangling pages), which
    keeps the kernels honest about the dangling-mass term.
    """
    rng = np.random.default_rng(seed)
    urls = [f"http://bench.example/p{i}" for i in range(n_pages)]
    src = np.repeat(np.arange(n_pages, dtype=np.int64), out_degree)
    dst = (n_pages * rng.random(n_pages * out_degree) ** 3).astype(np.int64)
    dangling = rng.random(n_pages) < 0.05
    keep = ~dangling[src]
    return urls, src[keep], dst[keep]


def bench_ranking_power_iteration(
    n_pages: int, out_degree: int = 8, large_n_pages: int = 0
) -> Dict:
    """One PageRank solve: sparse CSR kernel vs the dense dict reference.

    The sparse side is timed from a freshly-loaded :class:`LinkGraph`
    whose CSR view has not been built yet, so its time covers compaction
    and CSR assembly — the cost a refinement scan actually pays. When
    ``large_n_pages`` is set, the sparse kernel additionally builds and
    solves a graph of that size (reference skipped — the dense loop does
    not finish at that scale) and records the times in ``params``.
    """
    urls, src, dst = _synthetic_link_arrays(n_pages, out_degree, seed=131)
    counts = np.bincount(src, minlength=n_pages)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    dense = {
        urls[i]: [urls[j] for j in dst[offsets[i]:offsets[i + 1]]]
        for i in range(n_pages)
    }
    graph = LinkGraph.from_arrays(
        urls, src, dst, sources=np.arange(n_pages, dtype=np.int64)
    )

    vec_seconds, (ids, scores) = _timed(lambda: pagerank_scores(graph))
    ref_seconds, ref = _timed(lambda: pagerank_reference(dense))
    sparse_by_url = {graph.url_of(int(i)): s for i, s in zip(ids, scores)}
    assert set(sparse_by_url) == set(ref)
    delta = max(abs(sparse_by_url[url] - ref[url]) for url in ref)

    params = {"n_pages": n_pages, "out_degree": out_degree}
    if large_n_pages:
        large = _synthetic_link_arrays(large_n_pages, out_degree, seed=137)
        build_seconds, large_graph = _timed(
            lambda: LinkGraph.from_arrays(
                large[0], large[1], large[2],
                sources=np.arange(large_n_pages, dtype=np.int64),
            )
        )
        solve_seconds, (large_ids, large_scores) = _timed(
            lambda: pagerank_scores(large_graph)
        )
        assert len(large_ids) == large_n_pages
        assert abs(float(large_scores.sum()) - 1.0) < 1e-9
        params.update(
            large_n_pages=large_n_pages,
            large_build_seconds=build_seconds,
            large_solve_seconds=solve_seconds,
        )
    return {
        "kernel": "ranking_power_iteration",
        "params": params,
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def bench_ranking_refinement_scan(
    n_pages: int, churn_nodes: int, out_degree: int = 8
) -> Dict:
    """One steady-state ranking scan: incremental warm path vs cold recompute.

    Setup (untimed) builds a collection-sized ``LinkGraph`` and converges
    it once — the state the RankingModule carries between scans. A scan
    then re-states the out-links of ``churn_nodes`` pages (the
    admissions/replacements since the last scan). The warm path applies
    those deltas to the live graph and warm-starts power iteration from
    the previous fixed point; the cold recompute re-interns the entire
    post-churn adjacency into a fresh graph and iterates from the uniform
    prior — what every scan cost before the graph became persistent.
    Both paths run at ``tolerance=1e-11`` so their fixed points agree to
    well under the harness's mismatch gate.
    """
    tolerance = 1e-11
    urls, src, dst = _synthetic_link_arrays(n_pages, out_degree, seed=139)
    graph = LinkGraph.from_arrays(
        urls, src, dst, sources=np.arange(n_pages, dtype=np.int64)
    )
    _, previous = pagerank_scores(graph, tolerance=tolerance)

    rng = np.random.default_rng(149)
    churned = rng.choice(n_pages, size=churn_nodes, replace=False)
    deltas = [
        (int(node), (n_pages * rng.random(out_degree) ** 3).astype(np.int64))
        for node in churned
    ]

    def warm_scan() -> np.ndarray:
        for node, targets in deltas:
            graph.set_outlinks_ids(node, targets)
        _, scores = pagerank_scores(graph, tolerance=tolerance, x0=previous)
        return scores

    vec_seconds, warm_scores = _timed(warm_scan)

    # The cold path sees the same post-churn adjacency, as URL lists — the
    # form the collection's records hold it in.
    new_targets = dict(deltas)
    counts = np.bincount(src, minlength=n_pages)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    adjacency = [
        [urls[j] for j in new_targets[i]]
        if i in new_targets
        else [urls[j] for j in dst[offsets[i]:offsets[i + 1]]]
        for i in range(n_pages)
    ]

    def cold_scan() -> tuple:
        rebuilt = LinkGraph()
        for url, targets in zip(urls, adjacency):
            rebuilt.set_outlinks(url, targets)
        _, scores = pagerank_scores(rebuilt, tolerance=tolerance)
        return rebuilt, scores

    ref_seconds, (rebuilt, cold_scores) = _timed(cold_scan)

    # Align the cold solve's scores (interned in rebuild order) with the
    # warm graph's id order before comparing.
    url_index = {url: i for i, url in enumerate(urls)}
    order = np.array([url_index[u] for u in rebuilt.active_urls()])
    cold_aligned = np.empty(n_pages)
    cold_aligned[order] = cold_scores
    assert len(cold_scores) == n_pages == len(warm_scores)
    delta = float(np.max(np.abs(warm_scores - cold_aligned)))
    return {
        "kernel": "ranking_refinement_scan",
        "params": {
            "n_pages": n_pages,
            "churn_nodes": churn_nodes,
            "out_degree": out_degree,
        },
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for the CI smoke run (seconds instead of minutes)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="where to write the JSON results (default: BENCH_perf.json at the "
             "repo root, or BENCH_perf_quick.json with --quick so smoke runs "
             "never clobber the tracked full-size trajectory)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        name = "BENCH_perf_quick.json" if args.quick else "BENCH_perf.json"
        args.output = REPO_ROOT / name

    if args.quick:
        jobs = [
            lambda: bench_revisit_allocation(n_pages=1200, n_samples=120),
            lambda: bench_crawl_policy(n_pages=600, n_cycles=4),
            lambda: bench_optimal_allocation(n_pages=400),
            lambda: bench_collection_metrics(n_records=2000, n_instants=5),
            lambda: bench_incremental_crawler(n_pages=1500, duration_days=12.0),
            lambda: bench_crawler_run_faulty(
                n_pages=1500, duration_days=12.0, repeats=6, check_reference=True
            ),
            lambda: bench_incremental_crawler_polite(
                n_pages=1500, duration_days=12.0, n_sites=30
            ),
            lambda: bench_collection_store_io(n_records=20_000),
            lambda: bench_ranking_power_iteration(n_pages=4000),
            lambda: bench_ranking_refinement_scan(n_pages=30_000, churn_nodes=10),
            lambda: bench_incremental_crawler_sharded(
                n_pages=2000, duration_days=8.0, n_sites=24, shard_counts=(1, 2)
            ),
            lambda: bench_scenario_matrix_parallel(n_cells=4, workers=2),
        ]
    else:
        jobs = [
            lambda: bench_revisit_allocation(n_pages=10_000, n_samples=400),
            lambda: bench_crawl_policy(n_pages=10_000, n_cycles=10),
            lambda: bench_optimal_allocation(n_pages=10_000),
            lambda: bench_collection_metrics(n_records=20_000, n_instants=20),
            lambda: bench_incremental_crawler(n_pages=10_000, duration_days=100.0),
            lambda: bench_crawler_run_faulty(
                n_pages=10_000, duration_days=100.0, repeats=3
            ),
            lambda: bench_incremental_crawler_polite(
                n_pages=10_000, duration_days=100.0, n_sites=250
            ),
            lambda: bench_collection_store_io(n_records=100_000),
            lambda: bench_ranking_power_iteration(
                n_pages=100_000, large_n_pages=1_000_000
            ),
            lambda: bench_ranking_refinement_scan(
                n_pages=300_000, churn_nodes=100
            ),
            lambda: bench_incremental_crawler_sharded(
                n_pages=10_000, duration_days=30.0, n_sites=64,
                shard_counts=(1, 2, 4),
            ),
            lambda: bench_scenario_matrix_parallel(n_cells=8, workers=4),
        ]

    results = []
    for job in jobs:
        result = job()
        results.append(result)
        print(
            f"{result['kernel']:32s} ref {result['ref_seconds']:8.3f}s  "
            f"vec {result['vec_seconds']:8.3f}s  speedup {result['speedup']:7.1f}x  "
            f"max|delta| {result['max_abs_delta']:.2e}"
        )

    import scipy

    payload = {
        "benchmark": "bench_perf_hotpaths",
        "mode": "quick" if args.quick else "full",
        "generated_unix": time.time(),
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    # Entries marked "gated": false measured a parallelism the host cannot
    # express (see their params.gate_exemption); their timings are recorded
    # but only correctness gates them.
    failures = [
        r for r in results if r["speedup"] < 1.0 and r.get("gated", True)
    ]
    mismatches = [r for r in results if r["max_abs_delta"] > 1e-9]
    for result in results:
        if result.get("gated") is False:
            print(f"note: {result['kernel']} speedup not gated "
                  f"({result['params']['gate_exemption']})")
    for result in failures:
        print(f"FAIL: {result['kernel']} is slower than its reference "
              f"({result['speedup']:.2f}x)")
    for result in mismatches:
        print(f"FAIL: {result['kernel']} diverges from its reference "
              f"(max|delta| {result['max_abs_delta']:.2e})")
    return 1 if failures or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
