"""The six benchmark workloads, built from a seed.

Each workload is one ``ExperimentSpec`` (incremental crawler, batched
engine, ``optimal`` revisit policy, ``ep`` estimator, quality tracking on)
sized so one ``run(spec)`` takes roughly a second on the reference host:
the driver gives every invocation a fixed, short measuring window, and the
median needs several whole runs inside it. The seed feeds ``WebSpec.seed``
and the fault layer's seed; nothing else varies between invocations.

**The sizes below are frozen.** Changing one is a benchmark change: it
re-baselines ``history.jsonl`` and ``golden.json`` and may not ride along
with a change that claims a gain.

Why each workload exists, and which layer it isolates, is recorded in
``WHY`` (mirrored into ``BENCHMARK.json``) and spelled out in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.api.specs import (
    CrawlerSpec,
    ExperimentSpec,
    FaultsSpec,
    PolicySpec,
    RetrySpec,
    WebSpec,
)

WORKLOADS = ("plain", "polite", "chaos", "durable", "resume", "sharded")

WHY: Dict[str, str] = {
    "plain": "no politeness, faults, store or shards: update_module, collurls, oracle and "
             "estimator do all the work; every other layer's optimisation must leave it unmoved",
    "polite": "54 sites of 150 pages under a 10 s delay and a night window: every fetch goes "
              "through fetch.politeness and the polite replay of process_slots, which plain bypasses",
    "chaos": "five active fault models plus retries and breakers force the scalar faulty "
             "replay (ROADMAP item 2's target); plain and polite bypass it",
    "durable": "sqlite store with frequent checkpoints: the write side of storage "
               "(journal write-behind and full-state snapshots)",
    "resume": "resumes a run cut after its last checkpoint: the read side of storage "
              "(checkpoint load, sha256 verify, state restore, event truncation)",
    "sharded": "plain's spec on two shards in two spawned workers: spawn, shared-memory "
               "export/attach and merge on top of the same per-fetch work; plain is its twin",
}

#: The fault stack and retry policy of examples/specs/chaos_crawl.json,
#: inlined so the workload cannot drift when the example is edited.
_CHAOS_MODELS = (
    {"kind": "transient", "params": {"rate": 0.05}},
    {"kind": "site_outage",
     "params": {"rate": 0.2, "period_days": 7.0, "duration_days": 0.5}},
    {"kind": "rate_limit", "params": {"rate": 0.03, "retry_after_days": 0.25}},
    {"kind": "soft_404", "params": {"rate": 0.03}},
    {"kind": "latency", "params": {"factor": 3.0, "rate": 0.25}},
)
_CHAOS_RETRY = {
    "max_attempts": 3,
    "base_delay_days": 0.25,
    "multiplier": 2.0,
    "jitter": 0.25,
    "breaker_threshold": 4,
    "breaker_probe_days": 1.0,
}


@dataclass(frozen=True)
class Sizes:
    """Web and crawl dimensions of one size profile."""

    plain_web: tuple  # (site_scale, pages_per_site)
    polite_web: tuple
    chaos_web: tuple
    capacity: int
    budget: float
    chaos_capacity: int
    chaos_budget: float
    days: float  # plain, resume, sharded
    polite_days: float
    chaos_days: float
    durable_days: float
    ranking_interval: float
    durable_checkpoint_every: float
    resume_checkpoint_every: float


#: Default profile. The collection fills through the first three ranking
#: scans (1.5 virtual days), so most of every run is steady state with a
#: full collection; a run that only recrawled the seed pages would measure
#: a 140-entry queue, not the system.
FULL = Sizes(
    plain_web=(0.5, 60),  # 135 sites, ~10.1k pages with births
    # Site counts are sized for steadiness from seed to seed: per-fetch cost
    # on 27 sites of 300 pages spread 7 % over ten seeds (3.8 % on 54 of
    # 150), and final freshness under per-site outages 5.9 % on 54 sites of
    # 40 pages (2.2 % on 216 of 10, with every failure counter still busy).
    polite_web=(0.2, 150),  # 54 sites, ~10.1k pages
    chaos_web=(0.8, 10),  # 216 sites, 2.7k pages
    capacity=5000,
    budget=10000.0,
    chaos_capacity=2000,
    chaos_budget=4000.0,
    days=4.0,
    polite_days=3.0,
    chaos_days=2.0,
    durable_days=2.0,
    ranking_interval=0.5,
    durable_checkpoint_every=0.5,  # 4 saves per run, the last two of a full collection
    # Checkpoints are offered at event boundaries, which fall on the ranking
    # grid: saves at days 1.5 and 3, none after, so a resumed run replays
    # the last day and writes no further checkpoint.
    resume_checkpoint_every=1.5,
)

#: Tiny profile for the tier-1 smoke test: same shapes, seconds in total.
SMOKE = Sizes(
    plain_web=(0.06, 12),
    polite_web=(0.03, 30),
    chaos_web=(0.05, 10),
    capacity=120,
    budget=300.0,
    chaos_capacity=60,
    chaos_budget=150.0,
    days=2.0,
    polite_days=2.0,
    chaos_days=2.0,
    durable_days=2.0,
    ranking_interval=0.5,
    durable_checkpoint_every=0.5,
    resume_checkpoint_every=0.5,
)

#: Checkpoints the prepared ``resume`` store holds when its run is cut.
RESUME_SAVES = 2


@dataclass(frozen=True)
class Workload:
    """One workload: the spec to time and, where it has one, its twin.

    Attributes:
        name: Workload name (one of :data:`WORKLOADS`).
        spec: The experiment the program receives.
        twin: The same crawl without storage or shards, on the same web.
            ``resume`` must reproduce its digest exactly; ``sharded``
            reports its fixed overhead against it.
    """

    name: str
    spec: ExperimentSpec
    twin: Optional[ExperimentSpec] = None


def build(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    """The workload ``name`` for ``seed`` under the given size profile."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")

    def spec(web: tuple, capacity: int, budget: float, days: float, **crawler) -> ExperimentSpec:
        return ExperimentSpec(
            name=f"e2e/{name}",
            kind="crawl",
            web=WebSpec(site_scale=web[0], pages_per_site=web[1], seed=seed),
            crawler=CrawlerSpec(
                collection_capacity=capacity,
                crawl_budget_per_day=budget,
                duration_days=days,
                ranking_interval_days=sizes.ranking_interval,
                **crawler,
            ),
            policy=PolicySpec(revisit_policy="optimal", estimator="ep"),
        )

    def plain(**crawler) -> ExperimentSpec:
        days = crawler.pop("days", sizes.days)
        return spec(sizes.plain_web, sizes.capacity, sizes.budget, days, **crawler)

    if name == "plain":
        return Workload(name, plain())
    if name == "polite":
        return Workload(name, spec(
            sizes.polite_web, sizes.capacity, sizes.budget, sizes.polite_days,
            use_politeness=True,
            politeness_min_delay_seconds=10.0,
            politeness_night_window=True,
        ))
    if name == "chaos":
        return Workload(name, spec(
            sizes.chaos_web, sizes.chaos_capacity, sizes.chaos_budget, sizes.chaos_days,
            faults=FaultsSpec.from_dict({"models": _CHAOS_MODELS, "seed": seed}),
            retry=RetrySpec.from_dict(_CHAOS_RETRY),
        ))
    if name == "durable":
        return Workload(name, plain(
            days=sizes.durable_days,
            storage="sqlite",
            checkpoint_every=sizes.durable_checkpoint_every,
        ))
    if name == "resume":
        return Workload(
            name,
            plain(storage="sqlite", checkpoint_every=sizes.resume_checkpoint_every),
            twin=plain(),
        )
    return Workload(name, plain(engine="sharded", shards=2, workers=2), twin=plain())
