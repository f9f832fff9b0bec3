"""Reference kernels: the scalar loops the vectorized kernels replaced.

Each function here is the original per-element implementation of a kernel
that ``src/repro`` now computes with NumPy or sparse matrices. They exist
only as oracles: ``tests/test_vectorized_parity.py``,
``tests/test_ranking_sparse.py``, ``tests/test_simweb_web_generator.py``
and ``tests/test_faults.py`` hold the product kernels to them, and
``benchmarks/bench_perf_hotpaths.py`` times the product against them.
Helpers the product and its reference share (input validation, the random
draws) are imported from the product modules, so both consume identical
random streams.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.ranking_module import RankingModule
from repro.faults import (
    _GOLDEN,
    _MASK,
    STATUS_RATE_LIMITED,
    STATUS_SERVER_ERROR,
    STATUS_SOFT_404,
    STATUS_TIMEOUT,
    FaultModel,
    _hash64,
    _splitmix,
    _time_bits,
    _uniform01,
)
from repro.freshness.analytic import CrawlMode, CrawlPolicy, UpdateMode
from repro.freshness.optimal_allocation import (
    _BISECTION_ITERS,
    _FREQ_CAP,
    _FREQ_LOW,
    _RATE_EPSILON,
    _validate_budget,
    marginal_freshness,
)
from repro.ranking.pagerank import pagerank
from repro.simulation.crawler_sim import (
    ArrayLike,
    PolicySimulationResult,
    _as_rates,
    _as_rates_and_intervals,
    _build_result,
    _default_warmup,
    _sample_change_times,
    _sample_phases,
    _validate_allocation_args,
    _validate_policy_args,
)
from repro.simweb.web import SimulatedWeb
from repro.storage.records import PageRecord

from reference.oracle import next_change_after, page_changed_between

Graph = Mapping[str, Sequence[str]]


def collection_freshness_reference(
    records: Iterable[PageRecord],
    web: SimulatedWeb,
    at: float,
) -> float:
    """Per-record loop of :func:`repro.freshness.metrics.collection_freshness`."""
    records = list(records)
    if not records:
        return 0.0
    fresh = 0
    for record in records:
        page = web.page(record.url) if record.url in web else None
        if page is None or not page.exists_at(at):
            continue
        if not page_changed_between(page, record.fetched_at, at):
            fresh += 1
    return fresh / len(records)


def collection_age_reference(
    records: Iterable[PageRecord],
    web: SimulatedWeb,
    at: float,
) -> float:
    """Per-record loop of :func:`repro.freshness.metrics.collection_age`."""
    records = list(records)
    if not records:
        return 0.0
    total_age = 0.0
    for record in records:
        total_age += _record_age(record, web, at)
    return total_age / len(records)


def _record_age(record: PageRecord, web: SimulatedWeb, at: float) -> float:
    if record.url not in web:
        return max(0.0, at - record.fetched_at)
    page = web.page(record.url)
    if not page.exists_at(at):
        deleted_at = page.deleted_at if page.deleted_at is not None else record.fetched_at
        stale_since = min(max(record.fetched_at, deleted_at), at)
        return max(0.0, at - stale_since)
    relative_fetch = max(0.0, record.fetched_at - page.created_at)
    relative_now = max(0.0, at - page.created_at)
    next_change = next_change_after(page.change_process, relative_fetch)
    if next_change is None or next_change > relative_now:
        return 0.0
    return relative_now - next_change


def _frequency_for_marginal(rate: float, weight: float, mu: float) -> float:
    """Solve ``weight * dF/df(rate, f) = mu`` for ``f`` (0 when impossible).

    ``dF/df`` decreases from ``1/rate`` (at ``f -> 0``) to 0, so a positive
    solution exists iff ``mu < weight / rate``; otherwise the page is not
    worth visiting at all.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if rate <= _RATE_EPSILON or weight <= 0:
        return 0.0
    if mu >= weight / rate:
        return 0.0
    target = mu / weight

    def gap(frequency: float) -> float:
        return marginal_freshness(rate, frequency) - target

    low = _FREQ_LOW
    high = max(rate, 1.0)
    while gap(high) > 0:
        high *= 2.0
        if high > _FREQ_CAP:
            break
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (low + high)
        if mid == low or mid == high:
            # Bracket collapsed to adjacent floats; the remaining
            # iterations could not change the result.
            break
        if gap(mid) > 0:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def optimal_revisit_frequencies_reference(
    rates: Sequence[float],
    budget: float,
    weights: Optional[Sequence[float]] = None,
    tolerance: float = 1e-9,
) -> List[float]:
    """Scalar bisection: one 200-step solve per page, per water-level step."""
    _validate_budget(rates, budget)
    n = len(rates)
    if n == 0:
        return []
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ValueError("weights must have the same length as rates")
    if any(weight < 0 for weight in weights):
        raise ValueError("weights must be non-negative")

    changing = [
        index for index in range(n)
        if rates[index] > _RATE_EPSILON and weights[index] > 0
    ]
    if not changing:
        return [0.0] * n

    mu_high = max(weights[index] / rates[index] for index in changing)
    mu_low = 0.0

    def allocation_for(mu: float) -> List[float]:
        frequencies = [0.0] * n
        for index in changing:
            frequencies[index] = _frequency_for_marginal(
                rates[index], weights[index], mu
            )
        return frequencies

    def total_for(mu: float) -> float:
        return sum(allocation_for(mu))

    for _ in range(_BISECTION_ITERS):
        mu_mid = 0.5 * (mu_low + mu_high)
        if mu_mid <= 0:
            break
        total = total_for(mu_mid)
        if abs(total - budget) <= tolerance * max(1.0, budget):
            mu_low = mu_high = mu_mid
            break
        if total > budget:
            mu_low = mu_mid
        else:
            mu_high = mu_mid

    frequencies = allocation_for(mu_high if mu_high > 0 else mu_low)
    leftover = budget - sum(frequencies)
    if leftover > tolerance * max(1.0, budget) and mu_low > 0:
        generous = allocation_for(mu_low)
        jumps = sorted(
            range(n), key=lambda i: generous[i] - frequencies[i], reverse=True
        )
        for index in jumps:
            if leftover <= 0:
                break
            extra = min(leftover, generous[index] - frequencies[index])
            if extra > 0:
                frequencies[index] += extra
                leftover -= extra

    total = sum(frequencies)
    if total > 0:
        scale = budget / total
        frequencies = [frequency * scale for frequency in frequencies]
    return frequencies


def simulate_crawl_policy_reference(
    rates: ArrayLike,
    policy: CrawlPolicy,
    n_cycles: int = 12,
    samples_per_cycle: int = 40,
    warmup_cycles: int = 2,
    seed: int = 0,
) -> PolicySimulationResult:
    """Pure-Python loop of :func:`~repro.simulation.crawler_sim.simulate_crawl_policy`."""
    rates = _as_rates(rates)
    _validate_policy_args(n_cycles, samples_per_cycle, warmup_cycles)
    rng = np.random.default_rng(seed)
    n_pages = len(rates)
    cycle = policy.cycle_days
    total_days = (warmup_cycles + n_cycles) * cycle

    change_times = _sample_change_times(rates, total_days, rng)
    phases = rng.uniform(0.0, policy.active_duration_days, size=n_pages)

    measure_start = warmup_cycles * cycle
    sample_times = np.linspace(
        measure_start, total_days, n_cycles * samples_per_cycle, endpoint=False
    )

    freshness_values: List[float] = []
    for t in sample_times:
        copy_times = _copy_times_at(float(t), phases, policy)
        fresh = 0
        for page_index in range(n_pages):
            copy_time = copy_times[page_index]
            if copy_time is None:
                continue
            if _changes_between(change_times[page_index], copy_time, float(t)) == 0:
                fresh += 1
        freshness_values.append(fresh / n_pages)

    return _build_result(sample_times, np.asarray(freshness_values), measure_start)


def simulate_revisit_allocation_reference(
    rates: ArrayLike,
    intervals: ArrayLike,
    duration_days: float = 360.0,
    n_samples: int = 400,
    warmup_days: Optional[float] = None,
    seed: int = 0,
) -> PolicySimulationResult:
    """Pure-Python loop of :func:`~repro.simulation.crawler_sim.simulate_revisit_allocation`."""
    rates, intervals = _as_rates_and_intervals(rates, intervals)
    _validate_allocation_args(duration_days, n_samples)
    rng = np.random.default_rng(seed)
    n_pages = len(rates)
    warmup_days = _default_warmup(intervals, warmup_days)
    total_days = warmup_days + duration_days

    change_times = _sample_change_times(rates, total_days, rng)
    phases = _sample_phases(intervals, rng)

    sample_times = np.linspace(warmup_days, total_days, n_samples, endpoint=False)
    freshness_values: List[float] = []
    for t in sample_times:
        fresh = 0
        for page_index in range(n_pages):
            interval = float(intervals[page_index])
            copy_time = _periodic_copy_time(float(t), float(phases[page_index]), interval)
            if copy_time is None:
                # Never fetched on its own schedule: count the initial fetch
                # at time zero as the stored copy.
                copy_time = 0.0
            if _changes_between(change_times[page_index], copy_time, float(t)) == 0:
                fresh += 1
        freshness_values.append(fresh / n_pages)

    return _build_result(sample_times, np.asarray(freshness_values), warmup_days)


def _changes_between(times: np.ndarray, t0: float, t1: float) -> int:
    """Number of change events in ``(t0, t1]``."""
    if t1 < t0:
        return 0
    return int(np.searchsorted(times, t1, side="right") - np.searchsorted(times, t0, side="right"))


def _copy_times_at(
    t: float, phases: np.ndarray, policy: CrawlPolicy
) -> List[Optional[float]]:
    """When was the user-visible copy of each page fetched, as of time ``t``?

    Returns ``None`` for pages whose copy is not yet visible (only possible
    during the very first cycle of a shadowing crawler, which the warm-up
    excludes from measurement).
    """
    cycle = policy.cycle_days
    cycle_index = math.floor(t / cycle)
    cycle_start = cycle_index * cycle
    copy_times: List[Optional[float]] = []
    for phase in phases:
        fetch_this_cycle = cycle_start + float(phase)
        fetch_previous_cycle = fetch_this_cycle - cycle
        if policy.update_mode is UpdateMode.IN_PLACE:
            if fetch_this_cycle <= t:
                copy_times.append(fetch_this_cycle)
            elif fetch_previous_cycle >= 0:
                copy_times.append(fetch_previous_cycle)
            else:
                copy_times.append(None)
            continue
        # Shadowing: the visible copy comes from the most recent *completed*
        # crawl. A steady crawl completes at the cycle boundary; a batch
        # crawl completes at cycle_start + batch_duration.
        completion_offset = (
            cycle
            if policy.crawl_mode is CrawlMode.STEADY
            else policy.batch_duration_days
        )
        if t >= cycle_start + completion_offset:
            copy_times.append(fetch_this_cycle)
        elif fetch_previous_cycle >= 0:
            copy_times.append(fetch_previous_cycle)
        else:
            copy_times.append(None)
    return copy_times


def _periodic_copy_time(t: float, phase: float, interval: float) -> Optional[float]:
    """Most recent fetch time at or before ``t`` for a periodic schedule."""
    if not math.isfinite(interval) or interval <= 0:
        return None
    if t < phase:
        return None
    periods = math.floor((t - phase) / interval)
    return phase + periods * interval


def pagerank_reference(
    graph: Graph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> Dict[str, float]:
    """The dense per-node power iteration :func:`repro.ranking.pagerank` replaced."""
    if not 0.0 <= damping <= 1.0:
        raise ValueError("damping must be within [0, 1]")
    nodes = _collect_nodes(graph)
    if not nodes:
        return {}
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    out_links: list = [[] for _ in range(n)]
    for source, targets in graph.items():
        source_index = index[source]
        for target in targets:
            out_links[source_index].append(index[target])

    scores = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        new_scores = np.full(n, teleport)
        dangling_mass = 0.0
        for i in range(n):
            targets = out_links[i]
            if not targets:
                dangling_mass += scores[i]
                continue
            share = damping * scores[i] / len(targets)
            for j in targets:
                new_scores[j] += share
        new_scores += damping * dangling_mass / n
        if float(np.abs(new_scores - scores).sum()) < tolerance:
            scores = new_scores
            break
        scores = new_scores
    total = float(scores.sum())
    if total > 0:
        scores = scores / total
    return {node: float(scores[index[node]]) for node in nodes}


def hits_reference(
    graph: Graph,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The edge-list ``np.add.at`` loop :func:`repro.ranking.hits` replaced."""
    nodes = _collect_nodes(graph)
    if not nodes:
        return {}, {}
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    edges = [
        (index[source], index[target])
        for source, targets in graph.items()
        for target in targets
    ]
    hubs = np.full(n, 1.0 / n)
    authorities = np.full(n, 1.0 / n)
    if not edges:
        zero = {node: 0.0 for node in nodes}
        return dict(zero), dict(zero)

    sources = np.array([edge[0] for edge in edges])
    targets = np.array([edge[1] for edge in edges])
    for _ in range(max_iterations):
        new_authorities = np.zeros(n)
        np.add.at(new_authorities, targets, hubs[sources])
        new_hubs = np.zeros(n)
        np.add.at(new_hubs, sources, new_authorities[targets])
        new_authorities = _normalise(new_authorities)
        new_hubs = _normalise(new_hubs)
        delta = float(np.abs(new_hubs - hubs).sum() + np.abs(new_authorities - authorities).sum())
        hubs, authorities = new_hubs, new_authorities
        if delta < tolerance:
            break
    return (
        {node: float(hubs[index[node]]) for node in nodes},
        {node: float(authorities[index[node]]) for node in nodes},
    )


def _normalise(vector: np.ndarray) -> np.ndarray:
    total = float(vector.sum())
    if total == 0.0:
        return vector
    return vector / total


def compute_importance_reference(module: RankingModule) -> Tuple[np.ndarray, np.ndarray]:
    """The dense path ``RankingModule._compute_importance`` replaced.

    Rebuilds the dict graph and iterates cold; install it with
    ``monkeypatch.setattr(RankingModule, "_compute_importance", ...)``. The
    scan reads scores by node id, so the live graph is synced (interning
    every ranked URL) and the dense scores are mapped onto its ids.
    """
    records = module._collection.working_records()
    module._sync_graph(records)
    graph = {record.url: tuple(record.outlinks) for record in records}
    if not graph:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if module._metric == "hits":
        _hubs, scores = hits_reference(graph)
    else:
        scores = pagerank_reference(graph, damping=0.85)
    ids = module.graph.ids_of(scores)
    assert (ids >= 0).all(), "a ranked URL is missing from the live graph"
    return ids, np.array(list(scores.values()))


def true_importance_reference(web: SimulatedWeb) -> Dict[str, float]:
    """The dict path ``SimulatedWeb.true_importance`` replaced.

    Builds the whole web's dict adjacency (out-links leaving the page set
    dropped) and ranks it with the dict entry point
    :func:`repro.ranking.pagerank.pagerank`.
    """
    pages = list(web.pages())
    urls = {page.url for page in pages}
    graph = {
        page.url: tuple(link for link in page.outlinks if link in urls)
        for page in pages
    }
    return pagerank(graph, damping=0.85)


def _collect_nodes(graph: Graph) -> list:
    """All nodes: sources plus any link target not listed as a source."""
    nodes = list(graph.keys())
    seen = set(nodes)
    for targets in graph.values():
        for target in targets:
            if target not in seen:
                seen.add(target)
                nodes.append(target)
    return nodes


def _mix(z: np.ndarray, v) -> np.ndarray:
    """Fold ``v`` (scalar int or uint64 array) into the hash state."""
    if not isinstance(v, np.ndarray):
        v = np.uint64(int(v) & _MASK)
    return _splitmix((z + _GOLDEN) + v)


def _keyed(keys: np.ndarray, seed: int, salt: int) -> np.ndarray:
    """Seed + per-model salt folded into a uint64 key array."""
    z = _splitmix((np.asarray(keys, dtype=np.uint64) + _GOLDEN) + np.uint64(seed & _MASK))
    return _splitmix((z + _GOLDEN) + np.uint64(salt & _MASK))


def fault_resolve_reference(
    models: Sequence[FaultModel],
    seed: int,
    urls: Sequence[str],
    sites: Sequence[Optional[str]],
    times: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """What ``FaultLayer(models, seed).resolve`` returned before its key memo.

    Every call hashes every URL and site, and each status model in stack
    order re-derives its seeded key (``_keyed``), mixes in time (``_mix``)
    and thresholds the uniform, claiming only still-OK entries. Latency
    and zero-rate models claim nothing.
    """
    seed = int(seed) & _MASK
    n = len(urls)
    codes = np.zeros(n, dtype=np.int64)
    retry_after = np.zeros(n, dtype=np.float64)
    url_hashes = np.asarray([_hash64(url) for url in urls], dtype=np.uint64)
    site_hashes = np.asarray(
        [0 if site is None else _hash64(site) for site in sites], dtype=np.uint64
    )
    times = np.asarray(times, dtype=np.float64)
    time_bits = _time_bits(times)
    for model in models:
        if model.is_latency or model.rate <= 0.0:
            continue
        if model.kind == "transient":
            z = _mix(_keyed(url_hashes, seed, model.SALT), time_bits)
            hit = (codes == 0) & (_uniform01(z) < model.rate)
            if hit.any():
                split = _uniform01(_splitmix(z + _GOLDEN))
                codes[hit] = np.where(
                    split[hit] < model.timeout_fraction,
                    STATUS_TIMEOUT,
                    STATUS_SERVER_ERROR,
                )
        elif model.kind == "site_outage":
            window = np.floor(times / model.period_days)
            z = _mix(_keyed(site_hashes, seed, model.SALT), window.astype(np.uint64))
            in_window = times - window * model.period_days < model.duration_days
            dark = (codes == 0) & in_window & (_uniform01(z) < model.rate)
            codes[dark] = STATUS_SERVER_ERROR
        elif model.kind == "rate_limit":
            z = _mix(_keyed(url_hashes, seed, model.SALT), time_bits)
            hit = (codes == 0) & (_uniform01(z) < model.rate)
            codes[hit] = STATUS_RATE_LIMITED
            retry_after[hit] = model.retry_after_days
        elif model.kind == "soft_404":
            window = np.floor(times / model.flap_period_days).astype(np.uint64)
            z = _mix(_keyed(url_hashes, seed, model.SALT), window)
            hit = (codes == 0) & (_uniform01(z) < model.rate)
            codes[hit] = STATUS_SOFT_404
        else:
            raise ValueError(f"no reference for fault model {model.kind!r}")
    return codes, retry_after
