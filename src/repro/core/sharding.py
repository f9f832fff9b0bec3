"""Site-affine sharding of the crawl: partitioner and shard views.

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

Every shard — and the unsharded crawl — runs the one crawl loop,
``IncrementalCrawler._run_batched``, over its view; that is what keeps the
single-shard configuration bit-identical to the unsharded crawler.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simweb.web import SimulatedWeb


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

