"""Site-affine sharding of the crawl: partitioner, shard views, shard engine.

The paper's architecture (Section 5.2) is explicitly built to crawl at
scale with *multiple* crawl processes. This module provides the pieces that
let one logical crawl decompose into independent, site-affine shards:

* :class:`SitePartitioner` — a deterministic, seed-independent mapping from
  site id to shard index. Partitioning by *site* (never by URL) means every
  page of a site lands on one shard, so the :class:`~repro.fetch.politeness.
  PolitenessPolicy` per-site last-request state never crosses a shard
  boundary and each shard can resolve its politeness delays locally.
* :class:`ShardView` — one shard's slice of the crawl problem: the sites it
  owns, the seed URLs it starts from, and its share of the collection
  capacity and crawl budget.
* :class:`ShardEngine` — the batched tick-window loop, extracted from
  ``IncrementalCrawler._run_batched`` so the same code drives both the
  single-process crawler and every worker of a
  :class:`~repro.core.sharded_crawler.ShardedCrawler`. The loop is moved,
  not rewritten: every float addition, sequence claim and tie-break is the
  one the monolithic engine performed, which is what keeps the single-shard
  configuration bit-identical to the pre-shard crawler.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.simulation.events import StreamScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ranking_module import RankingModule
    from repro.core.update_module import UpdateModule
    from repro.simulation.freshness_tracker import FreshnessTracker
    from repro.simweb.web import SimulatedWeb
    from repro.storage.checkpoint import CrawlCheckpointer


class SitePartitioner:
    """Deterministic site -> shard assignment.

    The mapping hashes the site id with BLAKE2b (never Python's builtin
    ``hash``, which is salted per process: two workers must agree on the
    assignment without coordination). It is therefore:

    * **total** — every site id maps to a shard in ``[0, n_shards)``;
    * **deterministic** — the same site id always maps to the same shard,
      across processes, hash seeds and platforms;
    * **site-affine** — URLs are assigned through their owning site, so all
      pages of one site share a shard by construction;
    * **insertion-order independent** — the assignment is a pure function
      of the site id string.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = n_shards

    def shard_of(self, site_id: str) -> int:
        """The shard index owning ``site_id``."""
        if self.n_shards == 1:
            return 0
        digest = hashlib.blake2b(site_id.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_shards

    def assign(self, site_ids: Sequence[str]) -> Dict[str, int]:
        """Bulk :meth:`shard_of` over many site ids."""
        return {site_id: self.shard_of(site_id) for site_id in site_ids}


@dataclass(frozen=True)
class ShardView:
    """One shard's slice of a crawl: owned sites, seeds, capacity, budget.

    Attributes:
        index: This shard's index in ``[0, n_shards)``.
        n_shards: Total number of shards in the partition.
        site_ids: Site ids owned by this shard, in web registration order.
        seed_urls: Seed URLs owned by this shard, in seed order.
        capacity: This shard's slice of the collection capacity.
        budget_per_day: This shard's slice of the crawl budget.
    """

    index: int
    n_shards: int
    site_ids: Tuple[str, ...]
    seed_urls: Tuple[str, ...]
    capacity: int
    budget_per_day: float

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.n_shards:
            raise ValueError("shard index must be in [0, n_shards)")
        if self.capacity < 1:
            raise ValueError("shard capacity must be at least 1")
        if self.budget_per_day <= 0:
            raise ValueError("shard budget must be positive")
        # Frozen-dataclass-compatible cache of the membership set.
        object.__setattr__(self, "_site_set", frozenset(self.site_ids))

    @property
    def is_total(self) -> bool:
        """Whether this view covers the whole URL space (single shard)."""
        return self.n_shards == 1

    def owns_site(self, site_id: str) -> bool:
        """Whether ``site_id`` belongs to this shard."""
        return site_id in self._site_set  # type: ignore[attr-defined]

    @staticmethod
    def split(
        web: "SimulatedWeb",
        n_shards: int,
        *,
        capacity: int,
        budget_per_day: float,
        seed_urls: Optional[Sequence[str]] = None,
    ) -> List["ShardView"]:
        """Partition a web's crawl problem into site-affine shard views.

        Sites are assigned by :class:`SitePartitioner`; capacity is split by
        largest remainder over per-shard *page* counts (every non-empty
        shard gets at least one slot) and the budget proportionally to page
        counts. Shards that own no sites are dropped — the returned list
        holds only non-empty shards, in shard-index order. With
        ``n_shards=1`` the single view carries the capacity, budget and
        seed list through unchanged.

        Args:
            web: The web being crawled.
            n_shards: Number of shards to partition into.
            capacity: Total collection capacity to split.
            budget_per_day: Total crawl budget to split.
            seed_urls: Seed URLs (defaults to every site root). Every seed
                must be a URL the web knows, so it can be routed to the
                shard owning its site.

        Returns:
            Non-empty :class:`ShardView` objects in shard-index order.
        """
        partitioner = SitePartitioner(n_shards)
        seeds = list(seed_urls) if seed_urls is not None else web.seed_urls()
        if n_shards == 1:
            all_sites = tuple(site.site_id for site in web.sites)
            return [
                ShardView(
                    index=0,
                    n_shards=1,
                    site_ids=all_sites,
                    seed_urls=tuple(seeds),
                    capacity=capacity,
                    budget_per_day=budget_per_day,
                )
            ]

        shard_sites: Dict[int, List[str]] = {k: [] for k in range(n_shards)}
        shard_pages = [0] * n_shards
        for site in web.sites:
            shard = partitioner.shard_of(site.site_id)
            shard_sites[shard].append(site.site_id)
            shard_pages[shard] += len(site.all_pages)
        shard_seeds: Dict[int, List[str]] = {k: [] for k in range(n_shards)}
        for url in seeds:
            if url not in web:
                raise ValueError(
                    f"seed URL {url!r} is not in the web and cannot be routed "
                    "to a shard (site-affine sharding needs the owning site)"
                )
            shard_seeds[partitioner.shard_of(web.page(url).site_id)].append(url)

        occupied = [k for k in range(n_shards) if shard_sites[k]]
        if not occupied:
            raise ValueError("the web has no sites to shard")
        if capacity < len(occupied):
            raise ValueError(
                f"collection capacity {capacity} cannot give each of the "
                f"{len(occupied)} non-empty shards at least one slot; lower "
                "the shard count or raise the capacity"
            )
        total_pages = sum(shard_pages[k] for k in occupied)
        capacities = _largest_remainder_split(
            capacity, [shard_pages[k] for k in occupied], minimum=1
        )
        views: List[ShardView] = []
        for slot, shard in enumerate(occupied):
            views.append(
                ShardView(
                    index=shard,
                    n_shards=n_shards,
                    site_ids=tuple(shard_sites[shard]),
                    seed_urls=tuple(shard_seeds[shard]),
                    capacity=capacities[slot],
                    budget_per_day=budget_per_day * shard_pages[shard] / total_pages,
                )
            )
        return views


def _largest_remainder_split(
    total: int, weights: Sequence[int], minimum: int = 0
) -> List[int]:
    """Split integer ``total`` proportionally to ``weights``, deterministically.

    Uses the largest-remainder method with ties broken by position, then
    tops up entries below ``minimum`` by taking slots from the largest
    allocations (again position-deterministic).
    """
    n = len(weights)
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must sum to a positive value")
    quotas = [total * w / weight_sum for w in weights]
    shares = [int(q) for q in quotas]
    remainder = total - sum(shares)
    by_fraction = sorted(
        range(n), key=lambda i: (shares[i] - quotas[i], i)
    )  # most negative fractional loss first
    for i in by_fraction[:remainder]:
        shares[i] += 1
    # Enforce the per-entry minimum by pulling from the largest shares.
    for i in range(n):
        while shares[i] < minimum:
            donor = max(range(n), key=lambda j: (shares[j], -j))
            if shares[donor] <= minimum:
                raise ValueError("total is too small for the per-entry minimum")
            shares[donor] -= 1
            shares[i] += 1
    return shares


class ShardEngine:
    """The batched tick-window loop, runnable for one shard or the whole web.

    This is ``IncrementalCrawler._run_batched``'s loop body, extracted so a
    :class:`~repro.core.sharded_crawler.ShardedCrawler` worker drives the
    exact same code over its :class:`ShardView`. The :class:`StreamScheduler`
    carries the three recurring streams with the reference engine's exact
    ``(time, sequence)`` ordering. When a crawl event pops, every follow-up
    crawl slot that would have run before the next ranking/measurement event
    is folded into one ``process_slots`` call; each folded slot claims the
    sequence number its per-event counterpart would have consumed, so every
    tie-break — now and later in the run — resolves identically. Slot times
    are accumulated with the same float additions the reference engine
    performs, keeping fetch timestamps bit-identical.

    Checkpoints are taken at the top of the loop, *before* the head event
    pops: the snapshot reads state only (no sequence numbers are consumed,
    no float is recomputed), so a checkpointed run is the same run — and a
    resume restores the scheduler with the head event still pending,
    replaying it exactly as the uninterrupted run would have.

    Args:
        update_module: The shard's :class:`~repro.core.update_module.UpdateModule`.
        ranking_module: The shard's :class:`~repro.core.ranking_module.RankingModule`.
        crawl_budget_per_day: Crawl-slot rate (slots per virtual day).
        ranking_interval_days: Refinement-scan cadence.
        measurement_interval_days: Freshness-sampling cadence.
        track_quality: Whether measurement events also sample quality.
        sample_quality: Callback invoked with the measurement instant when
            ``track_quality`` is set.
        refresh_journal: Callback invoked after each ranking scan (mirrors
            rewritten records into the journal, when one is attached).
    """

    def __init__(
        self,
        *,
        update_module: "UpdateModule",
        ranking_module: "RankingModule",
        crawl_budget_per_day: float,
        ranking_interval_days: float,
        measurement_interval_days: float,
        track_quality: bool,
        sample_quality: Optional[Callable[[float], Optional[float]]] = None,
        refresh_journal: Optional[Callable[[], None]] = None,
    ) -> None:
        if crawl_budget_per_day <= 0:
            raise ValueError("crawl_budget_per_day must be positive")
        self._update_module = update_module
        self._ranking_module = ranking_module
        self._crawl_budget_per_day = crawl_budget_per_day
        self._ranking_interval_days = ranking_interval_days
        self._measurement_interval_days = measurement_interval_days
        self._track_quality = track_quality
        self._sample_quality = sample_quality
        self._refresh_journal = refresh_journal

    def run(
        self,
        start_time: float,
        end_time: float,
        tracker: "FreshnessTracker",
        *,
        checkpointer: Optional["CrawlCheckpointer"] = None,
        scheduler: Optional[StreamScheduler] = None,
        snapshot: Optional[Callable[[float, StreamScheduler], dict]] = None,
    ) -> None:
        """Drive the tick-window loop from ``start_time`` to ``end_time``.

        Args:
            start_time: Virtual time the run starts (used only to seed the
                scheduler when none is passed).
            end_time: Virtual time past which no event executes.
            tracker: Freshness tracker sampled at measurement events.
            checkpointer: Optional checkpointer; offered a save opportunity
                at the top of every loop iteration.
            scheduler: A restored scheduler (resume); ``None`` starts all
                three streams at ``start_time``.
            snapshot: Callable assembling the checkpoint state dict, invoked
                as ``snapshot(at, scheduler)``; required when
                ``checkpointer`` is given.
        """
        if checkpointer is not None and snapshot is None:
            raise ValueError("a checkpointer needs a snapshot callable")
        if scheduler is None:
            scheduler = StreamScheduler()
            scheduler.schedule(start_time, "crawl")
            scheduler.schedule(start_time, "ranking")
            scheduler.schedule(start_time, "measure")
        crawl_period = 1.0 / self._crawl_budget_per_day
        epsilon = 1e-12

        while True:
            head = scheduler.peek()
            if head is None or head[0] > end_time + epsilon:
                break
            if checkpointer is not None and checkpointer.due(head[0]):
                checkpointer.save(snapshot(head[0], scheduler), head[0])
            at, _sequence, label = scheduler.pop()
            if label == "crawl":
                # Fold every crawl slot that precedes the next other-stream
                # event into one batch. The other streams cannot move while
                # only crawl slots run, so their head is read once; each
                # folded slot still consumes the sequence number its
                # per-event counterpart would have, keeping all later
                # tie-breaks identical. Slot times accumulate with the same
                # float additions the reference engine performs.
                slots = [at]
                append = slots.append
                next_time = at + crawl_period
                other = scheduler.peek()
                if other is None:
                    other_time, other_sequence = float("inf"), 0
                else:
                    other_time, other_sequence = other[0], other[1]
                base_sequence = scheduler.next_sequence
                claimed = 0
                limit = end_time + epsilon
                while next_time <= limit:
                    if next_time > other_time or (
                        next_time == other_time
                        and other_sequence < base_sequence + claimed
                    ):
                        break
                    append(next_time)
                    claimed += 1
                    next_time += crawl_period
                scheduler.claim_sequences(claimed)
                scheduler.schedule(next_time, "crawl")
                self._update_module.process_slots(slots)
            elif label == "ranking":
                refinement = self._ranking_module.refine(at)
                self._update_module.set_importance(refinement.importance)
                if self._refresh_journal is not None:
                    self._refresh_journal()
                scheduler.schedule(at + self._ranking_interval_days, "ranking")
            else:
                tracker.sample(at)
                if self._track_quality and self._sample_quality is not None:
                    self._sample_quality(at)
                scheduler.schedule(
                    at + self._measurement_interval_days, "measure"
                )
