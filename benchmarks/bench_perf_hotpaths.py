#!/usr/bin/env python
"""Vectorized kernels vs. their reference loops, and engine identity.

**Timed and gated.** Six NumPy/sparse kernels, each timed once against
its reference loop (``tests/reference/kernels.py``) on the same inputs and
seeds; the results must agree (``max_abs_delta`` ≤ 1e-9) and the kernel
must beat its reference (``speedup`` ≥ 1). The ratios are 2-56×, far enough from 1 that
a single raw wall-clock reading resolves them on any host:

* ``simulate_revisit_allocation`` — the Figure 9/10 Monte-Carlo simulator;
* ``simulate_crawl_policy`` — the Table 2 / Figures 7-8 policy simulator;
* ``optimal_revisit_frequencies`` — the KKT water-level allocation solver;
* ``collection_freshness+age`` — the batched-oracle measurement path used
  by every crawler measurement event;
* ``ranking_power_iteration`` — one PageRank solve: the sparse CSR kernel
  (including its CSR build) against the pinned dense reference on the
  same heavy-tailed graph; in full mode the sparse kernel additionally
  solves a million-page graph, with its build/solve times recorded in
  ``params``;
* ``ranking_refinement_scan`` — the RankingModule steady state: a scan
  that applies a small edge churn to a live ``LinkGraph`` and
  warm-starts power iteration from the previous fixed point, against a
  cold recompute that re-interns the whole collection adjacency into a
  fresh graph and iterates from the uniform prior.

**Untimed.** ``crawl_identity/*`` rows (:func:`check_crawl_identity`): the
batched crawl engine against the per-URL reference engine
(``tests/reference/crawl.py``), a zero-rate fault layer against none, one
shard against the batched engine, a parallel matrix sweep against the
serial one. Each row reads
``identical: true/false`` and carries no time. The crawl engine's *speed*
is not measured here at all: ``benchmarks/e2e`` is the one referee for
that (host-normalised µs per fetch, A/A-verified bounds, golden digests).

Results go to ``BENCH_perf.json`` at the repository root (the tracked
full-size trajectory) or ``BENCH_perf_quick.json`` with ``--quick``; the
payload's ``environment`` block records the CPU count and library versions
the numbers were taken under.

Usage::

    python benchmarks/bench_perf_hotpaths.py            # full sizes
    python benchmarks/bench_perf_hotpaths.py --quick    # CI smoke sizes

Exits non-zero when :func:`gate_failures` names a row: a timed kernel
slower than or diverging from its reference, or an identity row that
reads ``false``. This is what the CI perf step gates on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
# The reference loops and the per-URL crawl engine are test oracles.
sys.path.insert(0, str(REPO_ROOT / "tests"))

import numpy as np  # noqa: E402

from repro.api.runner import ScenarioMatrix, run_matrix  # noqa: E402
from repro.api.scenarios import paper_table2_policies  # noqa: E402
from repro.api.specs import (  # noqa: E402
    CrawlerSpec,
    ExperimentSpec,
    FaultModelSpec,
    FaultsSpec,
    PolicySpec,
    RetrySpec,
    WebSpec,
)
from repro.core.incremental_crawler import IncrementalCrawler  # noqa: E402
from repro.core import sharded_crawler  # noqa: E402
from repro.core.sharded_crawler import ShardedCrawler  # noqa: E402
from repro.freshness.metrics import collection_age, collection_freshness  # noqa: E402
from repro.freshness.optimal_allocation import (  # noqa: E402
    optimal_revisit_frequencies,
)
from repro.simulation.crawler_sim import (  # noqa: E402
    simulate_crawl_policy,
    simulate_revisit_allocation,
)
from repro.ranking.sparse import LinkGraph, pagerank_scores  # noqa: E402
from repro.simweb.change_models import PoissonChangeProcess  # noqa: E402
from repro.simweb.page import SimulatedPage  # noqa: E402
from repro.simweb.site import SimulatedSite  # noqa: E402
from repro.simweb.web import SimulatedWeb  # noqa: E402
from repro.storage.records import PageRecord  # noqa: E402

from reference.crawl import ReferenceIncrementalCrawler  # noqa: E402
from reference.kernels import (  # noqa: E402
    collection_age_reference,
    collection_freshness_reference,
    optimal_revisit_frequencies_reference,
    pagerank_reference,
    simulate_crawl_policy_reference,
    simulate_revisit_allocation_reference,
)


def _timed(fn: Callable[[], object]) -> tuple:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _timed_row(
    kernel: str, params: Dict, ref_seconds: float, vec_seconds: float, delta: float
) -> Dict:
    """A timed kernel's result row; ``speedup`` and ``max_abs_delta`` gate it."""
    return {
        "kernel": kernel,
        "params": params,
        "ref_seconds": ref_seconds,
        "vec_seconds": vec_seconds,
        "speedup": ref_seconds / vec_seconds,
        "max_abs_delta": delta,
    }


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
    params = {"n_pages": n_pages, "n_samples": n_samples}
    return _timed_row(
        "simulate_revisit_allocation", params, ref_seconds, vec_seconds, delta
    )


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
    params = {"n_pages": n_pages, "n_cycles": n_cycles}
    return _timed_row("simulate_crawl_policy", params, ref_seconds, vec_seconds, delta)


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
    params = {"n_pages": n_pages, "budget": budget}
    return _timed_row(
        "optimal_revisit_frequencies", params, ref_seconds, vec_seconds, delta
    )


def _build_synthetic_web(
    n_pages: int, horizon: float = 200.0, n_sites: int = 1
) -> SimulatedWeb:
    """Flat Poisson-page sites — cheap to build at any scale.

    ``n_sites`` spreads the pages over that many sites, which is what a
    polite crawl needs: per-site minimum delays only constrain fetches
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
            version=0,
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
    params = {"n_records": n_records, "n_instants": n_instants}
    return _timed_row(
        "collection_freshness+age", params, ref_seconds, vec_seconds, delta
    )


#: Fault stacks for the identity check: every status model armed at rate
#: zero (hooks live, no fault ever fires), and the real weather of
#: ``examples/specs/chaos_crawl.json``.
ZERO_RATE_WEATHER = FaultsSpec(
    models=(
        FaultModelSpec("transient", {"rate": 0.0}),
        FaultModelSpec("site_outage", {"rate": 0.0}),
        FaultModelSpec("rate_limit", {"rate": 0.0}),
        FaultModelSpec("soft_404", {"rate": 0.0}),
    ),
    seed=5,
)
CHAOS_WEATHER = FaultsSpec(
    models=(
        FaultModelSpec("transient", {"rate": 0.05}),
        FaultModelSpec(
            "site_outage", {"rate": 0.2, "period_days": 7.0, "duration_days": 0.5}
        ),
        FaultModelSpec("rate_limit", {"rate": 0.03, "retry_after_days": 0.25}),
        FaultModelSpec("soft_404", {"rate": 0.03}),
        FaultModelSpec("latency", {"factor": 3.0, "rate": 0.25}),
    ),
    seed=5,
)


def _identity_row(check: str, ours: Dict, theirs: Dict, params: Dict) -> Dict:
    """Compare two run fingerprints field by field (the fields both have)."""
    differs = sorted(
        name for name in ours.keys() & theirs.keys() if ours[name] != theirs[name]
    )
    return {
        "kernel": f"crawl_identity/{check}",
        "params": params,
        "identical": not differs,
        "differs": differs,
    }


def check_crawl_identity(
    n_pages: int, duration_days: float, n_sites: int, n_cells: int, workers: int
) -> List[Dict]:
    """Untimed: every way of running one crawl gives the same crawl.

    One multi-site web, one crawl config (the Figure 12 loop: steady crawl
    events, EP estimation, optimal reallocation, freshness measurement;
    ranking configured out of the steady state) run through each engine
    and compared on everything a run leaves behind: counters, freshness
    series, failure counters, the queue, every record (so every fetch
    timestamp) and the estimator state. Rows: batched ≡ per-URL reference
    for the plain, polite (10 s per-site delay + night window) and chaos
    crawls; a zero-rate fault layer ≡ no layer; ``shards=1`` ≡ batched; and
    a ``run_matrix`` sweep across worker processes ≡ the serial sweep.

    One size in both modes: identity does not get truer at 10k pages, and
    the per-URL reference runs were minutes of the full-size harness.
    """
    # The helper draws page lifespans from uniform(50, horizon), so the
    # horizon must clear that even for a short run.
    web = _build_synthetic_web(
        n_pages, horizon=max(duration_days + 20.0, 60.0), n_sites=n_sites
    )
    seed_urls = list(web.urls())

    def run(
        engine: str = "batched", shards: Optional[int] = None, **overrides
    ) -> Dict:
        spec = CrawlerSpec(
            collection_capacity=n_pages,
            crawl_budget_per_day=2.0 * n_pages,
            duration_days=duration_days,
            ranking_interval_days=duration_days * 10.0,
            measurement_interval_days=0.5,
            track_quality=False,
            **overrides,
        )
        policy = PolicySpec(revisit_policy="optimal", estimator="ep")
        if shards is None:
            crawler_class = (
                ReferenceIncrementalCrawler if engine == "reference"
                else IncrementalCrawler
            )
            crawler = crawler_class(web, spec, policy, seed_urls=seed_urls)
            result = crawler.run()
            failures = crawler.failure_counters()
        else:
            # One shard runs inline: catch its crawler, whose collection and
            # estimator state stay out of the sharded result.
            inline = []

            def catching(*args, **kwargs):
                inline.append(IncrementalCrawler(*args, **kwargs))
                return inline[-1]

            sharded = spec.replace(engine="sharded", shards=shards, workers=1)
            sharded_crawler.IncrementalCrawler = catching
            try:
                result = ShardedCrawler(
                    web, sharded, policy, seed_urls=seed_urls
                ).run()
            finally:
                sharded_crawler.IncrementalCrawler = IncrementalCrawler
            (crawler,) = inline
            failures = result.failures
        # Each snapshot with the URL table it built, so equal pairs mean
        # equal URL-keyed snapshots.
        estimator_ids, queue_ids = {}, {}
        estimator = crawler.update_module.snapshot(estimator_ids)
        # The tracker's own state is compared through its counters.
        estimator.pop("failures", None)
        return {
            "counters": (
                result.pages_crawled, result.pages_failed,
                result.changes_detected, result.pages_replaced,
            ),
            "freshness": (
                list(result.freshness.times), list(result.freshness.freshness)
            ),
            # Non-zero counters only, so "no tracker" and "a tracker that
            # never saw a failure" compare equal: that is the zero-rate claim.
            "failures": {k: v for k, v in (failures or {}).items() if v},
            "records": crawler.collection.working_records(),
            "estimator": (estimator, list(estimator_ids)),
            "queue": (crawler.collurls.snapshot(queue_ids), list(queue_ids)),
        }

    polite = dict(
        use_politeness=True,
        politeness_min_delay_seconds=10.0,
        politeness_night_window=True,
    )
    chaos = dict(faults=CHAOS_WEATHER, retry=RetrySpec())
    armed = dict(faults=ZERO_RATE_WEATHER, retry=RetrySpec())
    def crawl_row(check: str, ours: Dict, theirs: Dict) -> Dict:
        # The failures ride along as evidence that the weather really fired.
        params = {
            "n_pages": n_pages,
            "duration_days": duration_days,
            "n_sites": n_sites,
            "pages_crawled": ours["counters"][0],
            "failures": ours["failures"],
        }
        return _identity_row(check, ours, theirs, params)

    plain = run()
    rows = [
        crawl_row("plain_batched_vs_reference", plain, run("reference")),
        crawl_row(
            "polite_batched_vs_reference", run(**polite), run("reference", **polite)
        ),
        crawl_row(
            "chaos_batched_vs_reference", run(**chaos), run("reference", **chaos)
        ),
        crawl_row("zero_rate_faults_vs_none", run(**armed), plain),
        crawl_row("one_shard_vs_batched", run(shards=1), plain),
    ]

    budgets = [100.0 + 50.0 * i for i in range(n_cells)]
    matrix = ScenarioMatrix(
        base=ExperimentSpec(
            name="bench/matrix",
            kind="crawl",
            web=WebSpec(
                site_counts={"com": 12, "edu": 6, "gov": 4},
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

    def sweep(n_workers: int) -> Dict:
        cells = run_matrix(matrix, workers=n_workers).cells
        return {"cells": [(c.spec_hash, c.series, c.summary) for c in cells]}

    rows.append(
        _identity_row(
            "matrix_parallel_vs_serial", sweep(workers), sweep(1),
            {"n_cells": n_cells, "workers": workers},
        )
    )
    return rows


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
    return _timed_row(
        "ranking_power_iteration", params, ref_seconds, vec_seconds, delta
    )


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
    adjacency = {
        urls[i]: [urls[j] for j in new_targets[i]]
        if i in new_targets
        else [urls[j] for j in dst[offsets[i]:offsets[i + 1]]]
        for i in range(n_pages)
    }

    def cold_scan() -> tuple:
        rebuilt = LinkGraph.from_graph(adjacency)
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
    params = {"n_pages": n_pages, "churn_nodes": churn_nodes, "out_degree": out_degree}
    return _timed_row(
        "ranking_refinement_scan", params, ref_seconds, vec_seconds, delta
    )


def gate_failures(results: List[Dict]) -> List[str]:
    """Why the run fails, one line per offending row; empty when it passes.

    A timed row fails by being slower than its reference or by diverging
    from it. An identity row fails only by reading ``identical: false`` —
    it is never judged on time, whatever else it carries.
    """
    reasons = []
    for row in results:
        if "identical" in row:
            if not row["identical"]:
                reasons.append(
                    f"{row['kernel']} runs disagree on "
                    f"{', '.join(row['differs']) or 'their results'}"
                )
            continue
        if row["speedup"] < 1.0:
            reasons.append(
                f"{row['kernel']} is slower than its reference "
                f"({row['speedup']:.2f}x)"
            )
        if row["max_abs_delta"] > 1e-9:
            reasons.append(
                f"{row['kernel']} diverges from its reference "
                f"(max|delta| {row['max_abs_delta']:.2e})"
            )
    return reasons


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
            lambda: bench_ranking_power_iteration(n_pages=4000),
            lambda: bench_ranking_refinement_scan(n_pages=30_000, churn_nodes=10),
        ]
    else:
        jobs = [
            lambda: bench_revisit_allocation(n_pages=10_000, n_samples=400),
            lambda: bench_crawl_policy(n_pages=10_000, n_cycles=10),
            lambda: bench_optimal_allocation(n_pages=10_000),
            lambda: bench_collection_metrics(n_records=20_000, n_instants=20),
            lambda: bench_ranking_power_iteration(
                n_pages=100_000, large_n_pages=1_000_000
            ),
            lambda: bench_ranking_refinement_scan(
                n_pages=300_000, churn_nodes=100
            ),
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
    for result in check_crawl_identity(
        n_pages=1500, duration_days=12.0, n_sites=30, n_cells=4, workers=2
    ):
        results.append(result)
        print(f"{result['kernel']:42s} identical: {str(result['identical']).lower()}")

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

    failures = gate_failures(results)
    for reason in failures:
        print(f"FAIL: {reason}")
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
