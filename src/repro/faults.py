"""Deterministic fault injection for the simulated fetch path.

The paper frames the incremental crawler as a long-running service, which is
exactly where transient failure handling dominates design: timeouts, 5xx
bursts, whole sites going dark, rate limiting and soft-404 flapping. This
module supplies that weather as *pure functions* of
``(url, site, virtual_time, seed)``: a fetch issued at the same virtual time
with the same seed always sees the same fault, regardless of engine, shard
count or worker count — so chaos runs stay bit-identical and resumable.

Three layers live here:

* **Fault models** (``@register_fault_model``): small parameterised
  generators that map batches of ``(url, site, time)`` to status codes.
  Each model thresholds a uniform drawn from a seeded BLAKE2b/splitmix64
  key of the URL or site, with the request time (or its window) mixed in.
* :class:`FaultLayer`: an ordered stack of models applied to a fetch batch.
  It keys each distinct URL and site once per model and memoises it; a call
  only gathers keys, mixes in time for the whole stack in one splitmix64
  pass and lets the models claim in order (the first non-OK code sticks).
  Latency models are kept separate and only inflate transfer latency.
* :class:`FailureTracker`: the failure-aware side of the engine, driven by
  a :class:`~repro.api.specs.RetrySpec` — exponential backoff with seeded
  jitter, per-site retry budgets, and a per-site circuit breaker with
  decaying probe frequency.
  The tracker is plain serializable state (snapshot/restore) so it rides
  in checkpoints.
"""

from __future__ import annotations

import hashlib
import math
from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register_fault_model
from repro.storage.checkpoint import pack_ints, pack_urls, unpack_array, unpack_urls

if TYPE_CHECKING:  # pragma: no cover - the spec layer imports this module
    from repro.api.specs import RetrySpec

# --------------------------------------------------------------------------- #
# Integer status codes
# --------------------------------------------------------------------------- #
# The fetch path resolves statuses in bulk, so a fetch's status travels as a
# small integer inside NumPy arrays. The codes are part of the checkpoint
# format and must stay stable.

STATUS_OK = 0
STATUS_NOT_FOUND = 1
STATUS_EXCLUDED = 2
STATUS_TIMEOUT = 3
STATUS_SERVER_ERROR = 4
STATUS_RATE_LIMITED = 5
STATUS_SOFT_404 = 6

#: Codes that abort the fetch before the oracle is consulted (no body).
HARD_FAULT_CODES = (STATUS_TIMEOUT, STATUS_SERVER_ERROR, STATUS_RATE_LIMITED)
#: Codes that are *no observation* of the page: the page may be fine, the
#: fetch just failed. These never reach ``AllUrls.record_failure`` and never
#: append to a ``ChangeHistory``.
TRANSIENT_CODES = (
    STATUS_TIMEOUT,
    STATUS_SERVER_ERROR,
    STATUS_RATE_LIMITED,
    STATUS_SOFT_404,
)

_MASK = (1 << 64) - 1
# splitmix64: the increment and the finalizer's two multipliers.
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _hash64(text: str) -> int:
    """Stable 64-bit hash of a string (BLAKE2b, big-endian)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


_U30, _U27, _U31, _U11 = (np.uint64(k) for k in (30, 27, 31, 11))
_UMUL1, _UMUL2 = np.uint64(_MUL1), np.uint64(_MUL2)


def _splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _U30)) * _UMUL1
    z = (z ^ (z >> _U27)) * _UMUL2
    return z ^ (z >> _U31)


def _splitmix_int(z: int) -> int:
    """:func:`_splitmix` of one Python int, wrapped to 64 bits."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _uniform01(z: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniforms in [0, 1) using the top 53 bits."""
    return (z >> _U11).astype(np.float64) * (2.0 ** -53)


def _time_bits(times: np.ndarray) -> np.ndarray:
    """The IEEE-754 bit pattern of each time, as uint64 (exact, no rounding)."""
    return np.ascontiguousarray(np.asarray(times, dtype=np.float64)).view(np.uint64)


def _keyed(keys: np.ndarray, seed: int, salt: int) -> np.ndarray:
    """Seed + per-model salt folded into a uint64 key array."""
    z = _splitmix((np.asarray(keys, dtype=np.uint64) + _GOLDEN) + np.uint64(seed & _MASK))
    return _splitmix((z + _GOLDEN) + np.uint64(salt & _MASK))


# --------------------------------------------------------------------------- #
# Fault models
# --------------------------------------------------------------------------- #


class FaultModel:
    """Base class for registered fault models.

    A status model's hash is ``splitmix(key + operand)`` with the key
    ``_keyed(_hash64(url or site), seed, SALT) + _GOLDEN``, fixed per URL or
    site. A model declares three parts and the :class:`FaultLayer` hashes:

    * ``KEY``: the key source, ``"url"`` or ``"site"``. The layer hashes
      each distinct URL or site once and memoises its key.
    * :meth:`operand`: the per-call uint64 mixed into the key (the request
      time's bit pattern, or a floored window index).
    * :meth:`claim`: given the mixed hashes ``z`` and their uniforms ``u``,
      fill ``codes`` (int64, 0 where no earlier model claimed the fetch)
      and ``retry_after`` in place for the entries the model faults.

    Latency models set ``is_latency`` and implement :meth:`factors` instead.
    """

    kind: str = ""
    SALT: int = 0
    KEY: str = "url"
    is_latency: bool = False

    @property
    def is_null(self) -> bool:
        """Whether this model can never claim a fetch (e.g. zero rate).

        Null models are dropped from the :class:`FaultLayer`'s active sets
        so the fetch path pays nothing for them — which is what makes a
        zero-rate fault layer bit-identical to (and as fast as) no fault
        layer at all.
        """
        return False

    def operand(self, times: np.ndarray, time_bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def claim(self, z, u, times, codes, retry_after) -> None:
        raise NotImplementedError

    def factors(self, times: np.ndarray, seed: int) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict:
        """The constructor parameters, for reporting."""
        return {}


def _check_rate(name: str, rate: float) -> float:
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")
    return rate


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not 0 < value < math.inf:  # NaN fails the comparison too
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


@register_fault_model("transient")
class TransientFaults(FaultModel):
    """Independent per-(url, time) transient errors: timeouts and 5xx.

    Args:
        rate: Probability that any single fetch fails transiently.
        timeout_fraction: Of those failures, the fraction reported as
            ``TIMEOUT`` (the rest are ``SERVER_ERROR``).
    """

    kind = "transient"
    SALT = 0x7452414E

    def __init__(self, rate: float = 0.02, timeout_fraction: float = 0.5) -> None:
        self.rate = _check_rate("rate", rate)
        self.timeout_fraction = _check_rate("timeout_fraction", timeout_fraction)

    @property
    def is_null(self) -> bool:
        return self.rate <= 0.0

    def operand(self, times, time_bits):
        return time_bits

    def claim(self, z, u, times, codes, retry_after):
        hit = (codes == 0) & (u < self.rate)
        if hit.any():
            split = _uniform01(_splitmix(z[hit] + _GOLDEN))
            codes[hit] = np.where(
                split < self.timeout_fraction, STATUS_TIMEOUT, STATUS_SERVER_ERROR
            )

    def params(self) -> dict:
        return {"rate": self.rate, "timeout_fraction": self.timeout_fraction}


@register_fault_model("site_outage")
class SiteOutageFaults(FaultModel):
    """Correlated per-site outages: a site goes dark for a time window.

    Virtual time is cut into windows of ``period_days``; in each window a
    site is dark — every fetch returns ``SERVER_ERROR`` — for the first
    ``duration_days`` with probability ``rate``, decided by a hash of
    ``(site, window)``.
    """

    kind = "site_outage"
    SALT = 0x4F555447
    KEY = "site"

    def __init__(
        self,
        rate: float = 0.1,
        period_days: float = 7.0,
        duration_days: float = 0.5,
    ) -> None:
        self.rate = _check_rate("rate", rate)
        self.period_days = _check_positive("period_days", period_days)
        self.duration_days = _check_positive("duration_days", duration_days)
        if self.duration_days > self.period_days:
            raise ValueError("duration_days cannot exceed period_days")

    @property
    def is_null(self) -> bool:
        return self.rate <= 0.0

    def operand(self, times, time_bits):
        return np.floor(times / self.period_days).astype(np.uint64)

    def claim(self, z, u, times, codes, retry_after):
        window = np.floor(times / self.period_days)
        in_window = times - window * self.period_days < self.duration_days
        dark = (codes == 0) & in_window & (u < self.rate)
        codes[dark] = STATUS_SERVER_ERROR

    def params(self) -> dict:
        return {
            "rate": self.rate,
            "period_days": self.period_days,
            "duration_days": self.duration_days,
        }


@register_fault_model("rate_limit")
class RateLimitFaults(FaultModel):
    """Independent 429 responses carrying a fixed retry-after hint."""

    kind = "rate_limit"
    SALT = 0x52415445

    def __init__(self, rate: float = 0.02, retry_after_days: float = 0.25) -> None:
        self.rate = _check_rate("rate", rate)
        self.retry_after_days = _check_positive("retry_after_days", retry_after_days)

    @property
    def is_null(self) -> bool:
        return self.rate <= 0.0

    def operand(self, times, time_bits):
        return time_bits

    def claim(self, z, u, times, codes, retry_after):
        hit = (codes == 0) & (u < self.rate)
        codes[hit] = STATUS_RATE_LIMITED
        retry_after[hit] = self.retry_after_days

    def params(self) -> dict:
        return {"rate": self.rate, "retry_after_days": self.retry_after_days}


@register_fault_model("soft_404")
class Soft404Faults(FaultModel):
    """Soft-404 flapping: a live page intermittently serves an error body.

    Windows of ``flap_period_days``; in each window a page flaps with
    probability ``rate``, decided by a hash of ``(url, window)``. The fetch
    path only applies this to pages that actually exist, so a soft-404 is
    always a *false* deletion signal — exactly the poison the estimator
    guards must filter.
    """

    kind = "soft_404"
    SALT = 0x53344034

    def __init__(self, rate: float = 0.02, flap_period_days: float = 3.0) -> None:
        self.rate = _check_rate("rate", rate)
        self.flap_period_days = _check_positive("flap_period_days", flap_period_days)

    @property
    def is_null(self) -> bool:
        return self.rate <= 0.0

    def operand(self, times, time_bits):
        return np.floor(times / self.flap_period_days).astype(np.uint64)

    def claim(self, z, u, times, codes, retry_after):
        hit = (codes == 0) & (u < self.rate)
        codes[hit] = STATUS_SOFT_404

    def params(self) -> dict:
        return {"rate": self.rate, "flap_period_days": self.flap_period_days}


@register_fault_model("latency")
class LatencyFaults(FaultModel):
    """Congestion windows that multiply transfer latency.

    A pure function of *time only* (never of the URL or site), so the
    crawl loop's reallocation-boundary scan stays exact: every fetch in
    the same congestion window sees the same factor.
    """

    kind = "latency"
    SALT = 0x4C415459
    is_latency = True

    def __init__(
        self,
        factor: float = 3.0,
        rate: float = 0.25,
        period_days: float = 1.0,
    ) -> None:
        self.factor = _check_positive("factor", factor)
        self.rate = _check_rate("rate", rate)
        self.period_days = _check_positive("period_days", period_days)

    @property
    def is_null(self) -> bool:
        return self.rate <= 0.0 or self.factor == 1.0

    def factors(self, times: np.ndarray, seed: int) -> np.ndarray:
        window = np.floor(np.asarray(times, dtype=np.float64) / self.period_days)
        z = _keyed(window.astype(np.uint64), seed, self.SALT)
        return np.where(_uniform01(z) < self.rate, self.factor, 1.0)

    def params(self) -> dict:
        return {
            "factor": self.factor,
            "rate": self.rate,
            "period_days": self.period_days,
        }


# --------------------------------------------------------------------------- #
# Fault layer
# --------------------------------------------------------------------------- #


class _KeyMemo:
    """Seeded model keys per distinct URL (or site), computed on first sight.

    Column ``index[key]`` of ``table`` holds ``_keyed(_hash64(key), seed,
    salt) + _GOLDEN`` for each salt; ``None`` hashes to the sentinel 0. A
    cache, not state: it is never checkpointed, merged or put in a spec, so
    a cold memo (a resumed run, a forked worker) yields the same weather.
    """

    def __init__(self, seed: int, salts: Sequence[int]) -> None:
        self.seed = seed
        self.salts = list(salts)
        self.index: Dict[Optional[str], int] = {}
        self.table = np.empty((len(self.salts), 0), dtype=np.uint64)

    def columns(self, keys: Sequence[Optional[str]]) -> np.ndarray:
        """The ``(len(salts), len(keys))`` keys of a batch, filling misses."""
        get = self.index.get
        cols = np.fromiter(map(get, keys, repeat(-1)), np.intp, len(keys))
        if cols.min() < 0:
            new = list(dict.fromkeys(k for k, c in zip(keys, cols) if c < 0))
            start, stop = len(self.index), len(self.index) + len(new)
            if stop > self.table.shape[1]:
                grown = np.empty((len(self.salts), 2 * stop), dtype=np.uint64)
                grown[:, :start] = self.table[:, :start]
                self.table = grown
            hashes = np.fromiter(
                (0 if k is None else _hash64(k) for k in new), np.uint64, len(new)
            )
            for row, salt in enumerate(self.salts):
                self.table[row, start:stop] = _keyed(hashes, self.seed, salt) + _GOLDEN
            self.index.update(zip(new, range(start, stop)))
            cols = np.fromiter(map(get, keys), np.intp, len(keys))
        return self.table.take(cols, axis=1)


class FaultLayer:
    """An ordered stack of fault models applied to fetch batches.

    Models apply in the order given; the first model to claim a fetch wins
    (its code sticks, later models only fill still-OK entries). Latency
    models are composed multiplicatively and only affect transfer latency.

    Args:
        models: Fault model instances (see
            :data:`repro.api.registry.FAULT_MODELS`).
        seed: Injection seed; the same ``(models, seed)`` pair replays the
            same faults at the same virtual times.
    """

    def __init__(self, models: Sequence[FaultModel], seed: int = 0) -> None:
        self.seed = int(seed) & _MASK
        self.models: List[FaultModel] = list(models)
        # Null models (zero rate, unit latency factor) can never claim a
        # fetch: dropping them here lets every consumer skip the hashing
        # and the replay's failure handling entirely, so arming a zero-rate
        # layer costs nothing and changes nothing.
        active = [m for m in self.models if not m.is_null]
        self._status_models = [m for m in active if not m.is_latency]
        self._latency_models = [m for m in active if m.is_latency]
        # The fused pass stacks URL-keyed rows over site-keyed ones; the
        # claims still run in stack order.
        keyed = {src: [m for m in self._status_models if m.KEY == src] for src in ("url", "site")}
        self._rows = keyed["url"] + keyed["site"]
        self._memos = [
            (src, _KeyMemo(self.seed, [m.SALT for m in ms])) for src, ms in keyed.items() if ms
        ]
        self._claims = [(self._rows.index(m), m) for m in self._status_models]

    @property
    def has_status_models(self) -> bool:
        return bool(self._status_models)

    @property
    def has_latency_models(self) -> bool:
        return bool(self._latency_models)

    def resolve(
        self,
        urls: Sequence[str],
        sites: Sequence[Optional[str]],
        times: Sequence[float],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve fault codes for a batch of fetches.

        Args:
            urls: URLs being fetched.
            sites: Owning site id per URL (``None`` allowed; hashes to a
                fixed sentinel).
            times: Virtual *request* time per URL — faults are a function of
                when the fetch was issued, not of politeness-delayed starts,
                so a fetch's fault does not depend on how it was batched.

        Returns:
            ``(codes, retry_after)``: int64 status codes (0 = no fault) and
            float64 retry-after hints (0 where absent).
        """
        n = len(urls)
        codes = np.zeros(n, dtype=np.int64)
        retry_after = np.zeros(n, dtype=np.float64)
        if n == 0 or not self._status_models:
            return codes, retry_after
        t = np.asarray(times, dtype=np.float64)
        tbits = _time_bits(t)
        blocks = [memo.columns(urls if src == "url" else sites) for src, memo in self._memos]
        z = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        for row, model in enumerate(self._rows):
            z[row] += model.operand(t, tbits)
        z = _splitmix(z)
        u = _uniform01(z)
        for row, model in self._claims:
            model.claim(z[row], u[row], t, codes, retry_after)
        return codes, retry_after

    def resolve_one(self, url: str, site: Optional[str], time: float) -> None:
        """Not called: the fetch path runs :meth:`resolve`. Defined only
        because the e2e benchmark's tracer table names it."""

    def latency_factors(self, times: Sequence[float]) -> np.ndarray:
        """Latency multiplier per request time (1.0 where uncongested)."""
        t = np.asarray(times, dtype=np.float64)
        factors = np.ones(t.shape, dtype=np.float64)
        for model in self._latency_models:
            factors = factors * model.factors(t, self.seed)
        return factors

    def latency_factor_one(self, time: float) -> None:
        """Not called: the fetch path runs :meth:`latency_factors`. Defined
        only because the e2e benchmark's tracer table names it."""


# --------------------------------------------------------------------------- #
# Retry and failure tracking
# --------------------------------------------------------------------------- #

_RETRY_SALT = 0x52455452


def _retry_jitter(url: str, attempt: int, seed: int, jitter: float) -> float:
    """Deterministic jitter factor in [1 - jitter, 1 + jitter)."""
    if jitter <= 0.0:
        return 1.0
    # A status model's chain, _uniform01(_splitmix(_keyed(hash, seed, salt)
    # + _GOLDEN + attempt)), on Python ints: a retry is a single draw, and a
    # size-1 array costs ~25 us in NumPy fixed overhead per call.
    z = _splitmix_int(_hash64(url) + _GOLDEN_INT + seed)
    z = _splitmix_int(z + _GOLDEN_INT + _RETRY_SALT)
    z = _splitmix_int(z + _GOLDEN_INT + attempt)
    u = (z >> 11) * (2.0 ** -53)
    return 1.0 + jitter * (2.0 * u - 1.0)


_STATUS_COUNTER_KEYS = {
    STATUS_TIMEOUT: "timeouts",
    STATUS_SERVER_ERROR: "server_errors",
    STATUS_RATE_LIMITED: "rate_limited",
    STATUS_SOFT_404: "soft_404s",
}

_COUNTER_NAMES = (
    "timeouts",
    "server_errors",
    "rate_limited",
    "soft_404s",
    "retries",
    "retry_drops",
    "breaker_trips",
    "breaker_skips",
)


class FailureTracker:
    """Mutable failure state: retry attempts, budgets and circuit breakers.

    One instance lives inside each crawler. The crawl loop and its per-URL
    test oracle both mutate it exactly once per fetch, in fetch order,
    which is what keeps them bit-identical under faults.

    Args:
        retry: The retry, backoff and circuit-breaker settings.
        seed: Jitter seed (shared with the fault layer by default).
    """

    def __init__(self, retry: RetrySpec, seed: int = 0) -> None:
        self.retry = retry
        self.seed = int(seed) & _MASK
        self._attempts: Dict[str, int] = {}
        self._site_failures: Dict[str, int] = {}
        self._site_retries: Dict[str, int] = {}
        self._breaker_until: Dict[str, float] = {}
        self._breaker_trips: Dict[str, int] = {}
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}

    # -------------------------------------------------------------- #
    # Engine hooks (called once per fetch, in fetch order)
    # -------------------------------------------------------------- #
    def quarantined(self, site: Optional[str], at: float) -> bool:
        """Whether ``site`` is quarantined by its breaker at time ``at``."""
        if site is None:
            return False
        until = self._breaker_until.get(site)
        return until is not None and at < until

    def defer(self, url: str, site: str, at: float) -> float:
        """Record a breaker-deferred slot; returns the probe time."""
        self.counters["breaker_skips"] += 1
        return self._breaker_until[site]

    def on_success(self, url: str, site: Optional[str]) -> None:
        """A fetch of ``url`` succeeded: clear its retry and breaker state."""
        self._attempts.pop(url, None)
        if site is not None:
            self._site_failures.pop(site, None)
            if site in self._breaker_until:
                del self._breaker_until[site]
                self._breaker_trips.pop(site, None)

    def on_failure(
        self,
        url: str,
        site: Optional[str],
        status: int,
        completed: float,
        retry_after: float = 0.0,
    ) -> Optional[float]:
        """A transient fetch failure; returns the retry time or ``None``.

        ``None`` means the failure is terminal under ``retry`` (attempts
        exhausted or the site's retry budget spent) and the URL should be
        dropped from the crawl schedule.
        """
        counter = _STATUS_COUNTER_KEYS.get(status)
        if counter is not None:
            self.counters[counter] += 1
        retry = self.retry
        attempts = self._attempts.get(url, 0) + 1
        self._attempts[url] = attempts
        if site is not None:
            failures = self._site_failures.get(site, 0) + 1
            self._site_failures[site] = failures
            trips = self._breaker_trips.get(site, 0)
            # A site already in probation re-trips on a single failed probe
            # (decaying probe frequency); a healthy site needs a streak.
            if failures >= retry.breaker_threshold or trips > 0:
                trips += 1
                self._breaker_trips[site] = trips
                self._breaker_until[site] = completed + (
                    retry.breaker_probe_days
                    * retry.breaker_backoff ** (trips - 1)
                )
                self._site_failures[site] = 0
                self.counters["breaker_trips"] += 1
        if attempts >= retry.max_attempts:
            self._attempts.pop(url, None)
            self.counters["retry_drops"] += 1
            return None
        if site is not None and retry.site_budget is not None:
            used = self._site_retries.get(site, 0)
            if used >= retry.site_budget:
                self._attempts.pop(url, None)
                self.counters["retry_drops"] += 1
                return None
            self._site_retries[site] = used + 1
        self.counters["retries"] += 1
        delay = retry.base_delay_days * retry.multiplier ** (attempts - 1)
        delay *= _retry_jitter(url, attempts, self.seed, retry.jitter)
        if status == STATUS_RATE_LIMITED and retry_after > 0.0:
            delay = max(delay, retry_after)
        return completed + delay

    # -------------------------------------------------------------- #
    # Checkpointing
    # -------------------------------------------------------------- #
    def snapshot(self, ids: Dict[str, int]) -> dict:
        """JSON-serializable tracker state: the retry attempts as URL index
        (``pack_urls`` through ``ids``) and count columns, the rest by site."""
        return {
            "attempts": {
                "urls": pack_urls(list(self._attempts), ids),
                "counts": pack_ints(list(self._attempts.values())),
            },
            "site_failures": dict(self._site_failures),
            "site_retries": dict(self._site_retries),
            "breaker_until": dict(self._breaker_until),
            "breaker_trips": dict(self._breaker_trips),
            "counters": dict(self.counters),
        }

    def restore_snapshot(self, state: dict, table: Sequence[str]) -> None:
        """Rebuild tracker state exactly as captured by :meth:`snapshot`, its
        URLs looked up in ``table``."""
        attempts = state["attempts"]
        self._attempts = dict(zip(
            unpack_urls(attempts["urls"], table), unpack_array(attempts["counts"]).tolist()
        ))
        self._site_failures = dict(state["site_failures"])
        self._site_retries = dict(state["site_retries"])
        self._breaker_until = dict(state["breaker_until"])
        self._breaker_trips = dict(state["breaker_trips"])
        self.counters = {**dict.fromkeys(_COUNTER_NAMES, 0), **state["counters"]}
