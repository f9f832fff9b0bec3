"""Frozen, JSON-round-trippable experiment specifications.

A spec describes *what* to run — the synthetic web, the crawler and its
policy choices, or a canned scenario — as plain data. Specs validate their
registry-resolved names on construction (unknown names raise an error that
lists the registered choices), serialize losslessly through
``to_dict``/``from_dict`` (and JSON), and carry a stable content hash so a
result can always be traced back to the exact experiment definition that
produced it.

Three experiment kinds are supported by :func:`repro.api.runner.run`:

``"crawl"``
    The full Section 5 architecture: generate the web described by
    :class:`WebSpec`, run the crawler described by :class:`CrawlerSpec`
    (incremental or periodic) with the choices in :class:`PolicySpec`.
``"scenario"``
    A named entry of :data:`repro.api.registry.SCENARIOS` — the paper's
    canned Section 4 / Figure 7/8/10 experiments, routed through the
    vectorized simulation kernels.
``"monitor"``
    The Sections 2-3 web-evolution experiment: daily monitoring of a
    synthetic web plus the Figure 2/4/5 analyses.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar

from repro.api.registry import CHANGE_MODELS, ESTIMATORS, FAULT_MODELS, REVISIT_POLICIES
import repro.estimation.rate_estimators  # noqa: F401  (registration side effect)
from repro.faults import FailureTracker, FaultLayer
from repro.fetch.politeness import NightWindow, PolitenessPolicy
from repro.freshness.policies import RevisitPolicy
from repro.simweb.domains import DOMAIN_ORDER
import repro.simweb.change_models  # noqa: F401  (registration side effect)

SpecT = TypeVar("SpecT", bound="_SpecBase")

#: Experiment kinds understood by :func:`repro.api.runner.run`.
EXPERIMENT_KINDS: Tuple[str, ...] = ("crawl", "scenario", "monitor")
#: Crawler architectures a :class:`CrawlerSpec` can name.
CRAWLER_KINDS: Tuple[str, ...] = ("incremental", "periodic")
#: How a :class:`CrawlerSpec` runs its crawl loop (``engine``).
SPEC_ENGINES: Tuple[str, ...] = ("batched", "sharded")
#: Importance metrics the RankingModule supports.
IMPORTANCE_METRICS: Tuple[str, ...] = ("pagerank", "hits")


def _is_integer(value: Any) -> bool:
    """An integer, NumPy's included (code derives some values, such as a
    shard's capacity, with them), and not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_integers(spec: object, *names: str) -> None:
    """Refuse a set ``int`` field holding anything but an integer.

    A float (even ``2.0``) or a ``bool`` passes every range check and then
    fails, or silently runs, deep inside generation or the crawl.
    """
    for name in names:
        value = getattr(spec, name)
        if value is not None and not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _unknown_choice(kind: str, name: object, choices: Tuple[str, ...]) -> ValueError:
    listed = ", ".join(repr(choice) for choice in choices)
    return ValueError(f"unknown {kind} {name!r}; valid choices: {listed}")


@dataclass(frozen=True)
class _SpecBase:
    """Shared to_dict/from_dict/hash machinery for the spec dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-serializable dict with every field included.

        Fields named by :meth:`_omit_when_none` are left out while ``None``:
        this keeps :meth:`spec_hash` stable when new optional fields are
        added — a spec that never sets them hashes exactly as it did before
        the fields existed.
        """
        omittable = self._omit_when_none()
        out: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value is None and spec_field.name in omittable:
                continue
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif isinstance(value, Mapping):
                value = dict(value)
            out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls: Type[SpecT], data: Mapping[str, Any]) -> SpecT:
        """Rebuild a spec from :meth:`to_dict` output.

        Missing fields take their defaults; unknown keys raise a
        ``ValueError`` listing the valid field names.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"{cls.__name__} must be built from a mapping, "
                             f"got {type(data).__name__}")
        valid = {spec_field.name: spec_field for spec_field in fields(cls)}
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        kwargs = dict(data)
        for name, nested_cls in cls._nested_spec_fields().items():
            if kwargs.get(name) is not None:
                kwargs[name] = nested_cls.from_dict(kwargs[name])
        return cls(**kwargs)

    @classmethod
    def _nested_spec_fields(cls) -> Dict[str, Type["_SpecBase"]]:
        """Field name -> spec class for fields holding nested specs."""
        return {}

    @classmethod
    def _omit_when_none(cls) -> Tuple[str, ...]:
        """Field names dropped from :meth:`to_dict` while they are ``None``.

        Reserved for fields added after specs shipped, so pre-existing spec
        hashes stay stable.
        """
        return ()

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON (sorted keys) for files and hashing."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls: Type[SpecT], text: str) -> SpecT:
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Stable content hash of the spec (sha256 of canonical JSON).

        Two specs hash identically iff every field (including defaults)
        matches, so the hash is a provenance key for results.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def replace(self: SpecT, **changes: Any) -> SpecT:
        """A copy of the spec with ``changes`` applied (dataclass replace)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class WebSpec(_SpecBase):
    """Declarative description of a synthetic web, the input of
    :func:`repro.simweb.generator.generate_web`.

    The defaults give a small web (15 sites of 30 pages) whose
    *statistics* match the paper; the full-scale experiment (270 sites x
    3,000 pages) is ``site_scale=1.0, pages_per_site=3000``, at a
    proportional cost in memory and time.

    Attributes:
        site_scale: Multiplier on the paper's Table 1 per-domain site counts
            (132 com / 78 edu / 30 netorg / 30 gov).
        pages_per_site: Pages initially present at each site.
        window_size: Monitoring-window size per site (defaults to
            ``pages_per_site``: every initial page is inside the window).
        horizon_days: Virtual-time horizon of the web; the paper's
            experiment spanned roughly 127 days.
        new_page_fraction: Pages created during the horizon, as a fraction
            of ``pages_per_site``.
        site_counts: Optional explicit per-domain site counts, overriding
            ``site_scale``.
        change_model: Optional registered change-model name
            (:data:`repro.api.registry.CHANGE_MODELS`) overriding the
            calibrated per-domain mixtures for every page.
        change_model_params: Keyword arguments for the change-model factory
            (e.g. ``{"rate": 0.2}`` for ``"poisson"``).
        seed: Seed of the web's random generator; the same spec always
            produces the same web.
    """

    site_scale: float = 0.05
    pages_per_site: int = 30
    window_size: Optional[int] = None
    horizon_days: float = 127.0
    new_page_fraction: float = 0.25
    site_counts: Optional[Dict[str, int]] = None
    change_model: Optional[str] = None
    change_model_params: Optional[Dict[str, float]] = None
    seed: int = 17

    def __post_init__(self) -> None:
        _require_integers(self, "pages_per_site", "window_size", "seed")
        # Chained comparisons with a finite ceiling: NaN fails every
        # comparison, so NaN and Infinity (both valid JSON to Python) are
        # refused with the out-of-range values.
        if not 0 < self.site_scale < math.inf:
            raise ValueError("site_scale must be positive and finite")
        if not 1 <= self.pages_per_site < math.inf:
            raise ValueError("pages_per_site must be at least 1")
        if self.window_size is not None and not 1 <= self.window_size < math.inf:
            raise ValueError("window_size must be at least 1 when given")
        if not 0 < self.horizon_days < math.inf:
            raise ValueError("horizon_days must be positive and finite")
        if not 0 <= self.new_page_fraction < math.inf:
            raise ValueError("new_page_fraction must be non-negative and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for domain, count in (self.site_counts or {}).items():
            if domain not in DOMAIN_ORDER:
                raise ValueError(f"site_counts has unknown domain {domain!r}; "
                                 f"choose from {', '.join(DOMAIN_ORDER)}")
            if not _is_integer(count) or count < 0:
                raise ValueError(f"site_counts[{domain!r}] must be a non-negative integer")
        if self.change_model is not None:
            self._validate_change_model_params(CHANGE_MODELS.get(self.change_model))

    def _validate_change_model_params(self, factory: type) -> None:
        """Reject unknown factory parameters instead of silently dropping them."""
        params = self.change_model_params or {}
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            return
        if any(p.kind is inspect.Parameter.VAR_KEYWORD
               for p in signature.parameters.values()):
            return
        unknown = sorted(set(params) - set(signature.parameters))
        if unknown:
            accepted = ", ".join(
                name for name in signature.parameters if name != "self"
            ) or "(none)"
            raise ValueError(
                f"unknown change_model_params {unknown} for change model "
                f"{self.change_model!r}; accepted parameters: {accepted}"
            )


@dataclass(frozen=True)
class PolicySpec(_SpecBase):
    """The crawler's pluggable policy choices, all registry-resolved names.

    Attributes:
        revisit_policy: Registered revisit-policy name
            (:data:`repro.api.registry.REVISIT_POLICIES`).
        estimator: Registered change-rate estimator name
            (:data:`repro.api.registry.ESTIMATORS`).
        importance_metric: ``"pagerank"`` or ``"hits"``.
        use_importance: Let the revisit policy weight pages by importance.
    """

    revisit_policy: str = "optimal"
    estimator: str = "ep"
    importance_metric: str = "pagerank"
    use_importance: bool = False

    def __post_init__(self) -> None:
        REVISIT_POLICIES.validate(self.revisit_policy)
        ESTIMATORS.validate(self.estimator)
        if self.importance_metric not in IMPORTANCE_METRICS:
            raise _unknown_choice(
                "importance metric", self.importance_metric, IMPORTANCE_METRICS
            )

    def build_revisit_policy(self) -> RevisitPolicy:
        """Instantiate the named revisit policy through the registry."""
        return REVISIT_POLICIES.create(
            self.revisit_policy, use_importance=self.use_importance
        )


@dataclass(frozen=True)
class FaultModelSpec(_SpecBase):
    """One registered fault model plus its parameters.

    Attributes:
        kind: Registered fault-model name
            (:data:`repro.api.registry.FAULT_MODELS` — ``"transient"``,
            ``"site_outage"``, ``"rate_limit"``, ``"soft_404"`` or
            ``"latency"`` out of the box).
        params: Keyword arguments for the model factory. Unknown parameter
            names and invalid values are rejected on construction.
    """

    kind: str = "transient"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        FAULT_MODELS.validate(self.kind)
        factory = FAULT_MODELS.get(self.kind)
        accepted = set(inspect.signature(factory).parameters)
        unknown = sorted(set(self.params) - accepted)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
                f"fault model {self.kind!r}; accepted: "
                f"{', '.join(sorted(accepted))}"
            )
        # Instantiate once so parameter *values* are validated here, not
        # deep inside a run.
        factory(**dict(self.params))


@dataclass(frozen=True)
class FaultsSpec(_SpecBase):
    """A seeded stack of fault models applied to every fetch.

    Models apply in order; for status faults the first non-OK verdict wins,
    latency models compose multiplicatively. Every model is a pure function
    of ``(url, site, virtual_time, seed)``, so a fixed ``(spec, seed)``
    yields bit-identical faults across engines, shard counts and resumes.

    Attributes:
        models: The fault models, in application order (at least one).
        seed: Seed of the fault layer (also seeds retry jitter).
    """

    models: Tuple[FaultModelSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _require_integers(self, "seed")
        object.__setattr__(self, "models", tuple(self.models))
        if not self.models:
            raise ValueError("a faults spec needs at least one fault model")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "models": [model.to_dict() for model in self.models],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultsSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"{cls.__name__} must be built from a mapping, "
                             f"got {type(data).__name__}")
        unknown = sorted(set(data) - {"models", "seed"})
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: models, seed"
            )
        models = data.get("models", ())
        if isinstance(models, Mapping) or isinstance(models, str):
            raise ValueError("FaultsSpec models must be a list of fault models")
        return cls(
            models=tuple(FaultModelSpec.from_dict(model) for model in models),
            seed=data.get("seed", 0),
        )

    def build_fault_layer(self) -> FaultLayer:
        """Instantiate the model stack as a seeded :class:`FaultLayer`."""
        return FaultLayer(
            [FAULT_MODELS.create(model.kind, **model.params) for model in self.models],
            seed=self.seed,
        )


@dataclass(frozen=True)
class RetrySpec(_SpecBase):
    """How the failure-aware engine reacts to transient fetch failures.

    Attributes:
        max_attempts: Total attempts per URL before the failure becomes
            terminal (1 = never retry).
        base_delay_days: Backoff delay after the first failure.
        multiplier: Exponential backoff multiplier per further attempt.
        jitter: Seeded jitter half-width as a fraction of the delay
            (0 disables; 0.25 spreads delays over ±25%).
        site_budget: Maximum retries charged to any single site over the
            whole run (``None`` = unlimited). Exhausted budgets turn
            failures terminal.
        breaker_threshold: Consecutive failures on one site that trip its
            circuit breaker.
        breaker_probe_days: Quarantine length after the first trip; fetches
            to the site are deferred to the quarantine end (the probe).
        breaker_backoff: Quarantine growth factor per consecutive trip
            (decaying probe frequency). Any success fully resets the site.
    """

    max_attempts: int = 3
    base_delay_days: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.25
    site_budget: Optional[int] = None
    breaker_threshold: int = 5
    breaker_probe_days: float = 1.0
    breaker_backoff: float = 2.0

    def __post_init__(self) -> None:
        _require_integers(self, "max_attempts", "site_budget", "breaker_threshold")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        # Chained comparisons refuse NaN, which fails every comparison.
        if not 0 < self.base_delay_days < math.inf:
            raise ValueError("base_delay_days must be positive and finite")
        if not 1.0 <= self.multiplier < math.inf:
            raise ValueError("multiplier must be at least 1 and finite")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.site_budget is not None and self.site_budget < 0:
            raise ValueError("site_budget cannot be negative")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if not 0 < self.breaker_probe_days < math.inf:
            raise ValueError("breaker_probe_days must be positive and finite")
        if not 1.0 <= self.breaker_backoff < math.inf:
            raise ValueError("breaker_backoff must be at least 1 and finite")


@dataclass(frozen=True)
class CrawlerSpec(_SpecBase):
    """Declarative description of a crawler run.

    Attributes:
        kind: ``"incremental"`` (steady, in-place, variable frequency) or
            ``"periodic"`` (batch, shadowing, fixed frequency).
        collection_capacity: Target collection size.
        crawl_budget_per_day: Pages fetched per virtual day.
        duration_days: Virtual days to run.
        start_time: Virtual time at which the run starts.
        cycle_days: Cycle length (periodic crawler only).
        ranking_interval_days: RankingModule scan cadence (incremental only).
        reallocation_interval_days: Revisit-interval recomputation cadence
            (incremental only).
        measurement_interval_days: Freshness sampling cadence.
        default_revisit_interval_days: Interval assumed before a page has a
            change history (incremental only).
        track_quality: Also sample collection quality.
        use_politeness: Apply per-site politeness constraints
            (incremental only; a periodic spec that sets it is refused).
            They are resolved inside the crawl loop's one replay.
        politeness_min_delay_seconds: Minimum (virtual) seconds between two
            requests to one site when politeness is on; the paper used 10.
        politeness_night_window: Also restrict fetching to the recurring
            nightly crawl window.
        politeness_night_start: Start of the nightly window as a fraction
            of a day (0.875 = 9 pm).
        politeness_night_duration: Length of the nightly window as a
            fraction of a day (0.375 = nine hours).
        engine: ``"batched"`` (the default: the crawl loop runs in this
            process) or ``"sharded"`` (site-affine shards each run that
            loop, optionally in worker processes; incremental only).
            ``sharded`` with ``shards=1`` is bit-identical to batched.
        shards: Number of site-affine shards (``engine="sharded"`` only).
            Results for a fixed ``(seed, shards)`` are reproducible
            regardless of worker count and scheduling.
        workers: Number of worker processes running the shards
            (``engine="sharded"`` only); capped at ``shards``. ``1`` with
            ``shards=1`` runs inline, with no processes started.
        storage: Optional registered storage-backend name
            (:data:`repro.api.registry.STORAGE_BACKENDS`; ``"sqlite"`` is
            the one registered). When set, the
            run journals its collection and change events into the store,
            committed with each checkpoint and with the final result, so a
            killed run's store is its last committed checkpoint; incremental
            crawls only.
        checkpoint_every: Optional virtual-day spacing between resumable
            state checkpoints. Requires ``storage``; a killed run resumes
            bit-identically from its last checkpoint.
        faults: Optional :class:`FaultsSpec` injecting seeded, deterministic
            fetch faults (incremental only). Omitted specs hash exactly as
            they did before the field existed, and runs without it are
            byte-identical to the pre-fault engine.
        retry: Optional :class:`RetrySpec` tuning retry/backoff and the
            per-site circuit breaker (incremental only). Defaults apply
            when ``faults`` is set without ``retry``.
    """

    kind: str = "incremental"
    collection_capacity: int = 200
    crawl_budget_per_day: float = 500.0
    duration_days: float = 30.0
    start_time: float = 0.0
    cycle_days: float = 10.0
    ranking_interval_days: float = 5.0
    reallocation_interval_days: float = 1.0
    measurement_interval_days: float = 1.0
    default_revisit_interval_days: float = 7.0
    track_quality: bool = True
    use_politeness: bool = False
    politeness_min_delay_seconds: float = 10.0
    politeness_night_window: bool = False
    politeness_night_start: float = 0.875
    politeness_night_duration: float = 0.375
    engine: str = "batched"
    shards: Optional[int] = None
    workers: Optional[int] = None
    storage: Optional[str] = None
    checkpoint_every: Optional[float] = None
    faults: Optional[FaultsSpec] = None
    retry: Optional[RetrySpec] = None

    def __post_init__(self) -> None:
        _require_integers(self, "collection_capacity", "shards", "workers")
        if self.kind not in CRAWLER_KINDS:
            raise _unknown_choice("crawler kind", self.kind, CRAWLER_KINDS)
        if self.engine not in SPEC_ENGINES:
            raise _unknown_choice("crawl engine", self.engine, SPEC_ENGINES)
        if self.engine == "sharded" and self.kind != "incremental":
            raise ValueError("the sharded engine supports incremental crawls only")
        if self.shards is not None:
            if self.engine != "sharded":
                raise ValueError("shards requires engine='sharded'")
            if not 1 <= self.shards < math.inf:
                raise ValueError("shards must be at least 1")
        if self.workers is not None:
            if self.engine != "sharded":
                raise ValueError("workers requires engine='sharded'")
            if not 1 <= self.workers < math.inf:
                raise ValueError("workers must be at least 1")
        # Every bound holds on both kinds, whichever crawler reads the
        # field, so a bad spec never reaches web generation. Bounds are
        # chained comparisons with a finite ceiling: NaN fails every
        # comparison, so a JSON spec's NaN or Infinity is refused too.
        if not 1 <= self.collection_capacity < math.inf:
            raise ValueError("collection_capacity must be at least 1")
        for name in (
            "crawl_budget_per_day",
            "duration_days",
            "cycle_days",
            "ranking_interval_days",
            "reallocation_interval_days",
            "measurement_interval_days",
            "default_revisit_interval_days",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.start_time < math.inf:
            raise ValueError("start_time must be non-negative and finite")
        if not 0 <= self.politeness_min_delay_seconds < math.inf:
            raise ValueError(
                "politeness_min_delay_seconds must be non-negative and finite"
            )
        if not 0.0 <= self.politeness_night_start < 1.0:
            raise ValueError("politeness_night_start must be in [0, 1)")
        if not 0.0 < self.politeness_night_duration <= 1.0:
            raise ValueError("politeness_night_duration must be in (0, 1]")
        if self.storage is not None:
            # Backends register on import of repro.storage.backends; import
            # lazily to keep specs importable from domain modules.
            from repro.api.registry import STORAGE_BACKENDS
            import repro.storage.backends  # noqa: F401  (registration side effect)

            STORAGE_BACKENDS.validate(self.storage)
            if self.kind != "incremental":
                raise ValueError(
                    "storage backends are supported for incremental crawls only"
                )
        if self.checkpoint_every is not None:
            if not 0 < self.checkpoint_every < math.inf:
                raise ValueError("checkpoint_every must be positive and finite")
            if self.storage is None:
                raise ValueError("checkpoint_every requires a storage backend")
        if self.use_politeness and self.kind != "incremental":
            raise ValueError(
                "politeness is supported for incremental crawls only; the "
                "periodic crawler would silently ignore it"
            )
        if (self.faults is not None or self.retry is not None) and (
            self.kind != "incremental"
        ):
            raise ValueError(
                "fault injection is supported for incremental crawls only"
            )

    def build_politeness(self) -> Optional[PolitenessPolicy]:
        """Instantiate the politeness policy (``None`` when off)."""
        if not self.use_politeness:
            return None
        window = None
        if self.politeness_night_window:
            window = NightWindow(
                start_fraction=self.politeness_night_start,
                duration_fraction=self.politeness_night_duration,
            )
        return PolitenessPolicy(
            min_delay_seconds=self.politeness_min_delay_seconds,
            night_window=window,
        )

    def build_failure_tracker(self) -> Optional[FailureTracker]:
        """Instantiate the failure tracker (``None`` when faults and retry are off).

        Faults without ``retry`` take the default :class:`RetrySpec`;
        ``retry`` alone arms the failure-aware engine without injecting
        faults. Retry jitter shares the fault layer's seed.
        """
        if self.faults is None and self.retry is None:
            return None
        return FailureTracker(
            self.retry if self.retry is not None else RetrySpec(),
            seed=0 if self.faults is None else self.faults.seed,
        )

    @classmethod
    def _nested_spec_fields(cls) -> Dict[str, Type[_SpecBase]]:
        return {"faults": FaultsSpec, "retry": RetrySpec}

    @classmethod
    def _omit_when_none(cls) -> Tuple[str, ...]:
        return ("shards", "workers", "storage", "checkpoint_every",
                "faults", "retry")


@dataclass(frozen=True)
class ExperimentSpec(_SpecBase):
    """A complete, runnable experiment definition.

    Attributes:
        name: Free-form experiment name (recorded in the result).
        kind: One of :data:`EXPERIMENT_KINDS`.
        web: The synthetic web (required for ``crawl`` and ``monitor``).
        crawler: The crawler to run (required for ``crawl``).
        policy: Policy choices for the incremental crawler; defaults apply
            when omitted.
        scenario: Registered scenario name (required for ``scenario``).
        params: Extra keyword arguments: scenario parameters for
            ``scenario`` experiments, monitoring options (``start_day``,
            ``end_day``, ``n_candidates``, ``consent_rate``,
            ``selection_seed``) for ``monitor`` experiments.
        seed: Optional run-level seed overriding the web spec's seed (and
            forwarded to scenarios that accept a ``seed`` parameter).
    """

    name: str
    kind: str = "crawl"
    web: Optional[WebSpec] = None
    crawler: Optional[CrawlerSpec] = None
    policy: Optional[PolicySpec] = None
    scenario: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment name must be non-empty")
        _require_integers(self, "seed")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.kind not in EXPERIMENT_KINDS:
            raise _unknown_choice("experiment kind", self.kind, EXPERIMENT_KINDS)
        if self.kind in ("crawl", "monitor") and self.web is None:
            raise ValueError(f'a {self.kind!r} experiment needs a "web" spec')
        if self.kind == "crawl" and self.crawler is None:
            raise ValueError('a "crawl" experiment needs a "crawler" spec')
        if self.kind == "scenario":
            if not self.scenario:
                raise ValueError('a "scenario" experiment needs a scenario name')
            # Canned scenarios register on import of repro.api.scenarios;
            # import lazily to keep specs importable from domain modules.
            from repro.api.registry import SCENARIOS
            import repro.api.scenarios  # noqa: F401  (registration side effect)

            SCENARIOS.validate(self.scenario)
        try:
            json.dumps(dict(self.params))
        except (TypeError, ValueError) as error:
            raise ValueError(f"params must be JSON-serializable: {error}") from error

    @classmethod
    def _nested_spec_fields(cls) -> Dict[str, Type[_SpecBase]]:
        return {"web": WebSpec, "crawler": CrawlerSpec, "policy": PolicySpec}

    def effective_seed(self) -> Optional[int]:
        """The seed recorded in result provenance.

        The run-level seed wins; otherwise the web seed (crawl/monitor) or
        the explicit ``seed`` scenario parameter, if any.
        """
        if self.seed is not None:
            return self.seed
        if self.web is not None:
            return self.web.seed
        seed = self.params.get("seed")
        return seed if isinstance(seed, int) else None
