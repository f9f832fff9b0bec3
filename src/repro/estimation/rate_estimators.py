"""Pluggable change-rate estimation strategies for the UpdateModule.

The UpdateModule needs one number per page — the estimated change rate used
for revisit scheduling — but the paper's two estimators arrive at it very
differently: EP re-estimates from the page's full change history on every
visit, while EB keeps per-page Bayesian state and folds in one observation
at a time. :class:`ChangeRateEstimator` is the strategy interface that hides
that difference, and the two implementations register themselves in
:data:`repro.api.registry.ESTIMATORS` under the paper's names ``"ep"`` and
``"eb"``, which is how crawler configs and experiment specs resolve the
estimator choice.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

from repro.api.registry import register_estimator
from repro.estimation.bayesian_estimator import DEFAULT_CLASSES, BayesianClassEstimator
from repro.estimation.change_history import ChangeHistory
from repro.estimation.poisson_estimator import PoissonRateEstimator
from repro.storage.checkpoint import pack_floats, pack_urls, unpack_urls


class ChangeRateEstimator(ABC):
    """Per-page change-rate estimation strategy.

    The UpdateModule calls :meth:`reset_page` when a page enters (or
    re-enters) the collection, :meth:`update` after every subsequent visit
    whose observation was just appended to ``history``, and :meth:`forget`
    when the page leaves the collection.
    """

    @abstractmethod
    def reset_page(self, url: str) -> None:
        """Start (or restart) estimation state for ``url``."""

    @abstractmethod
    def update(self, url: str, history: ChangeHistory) -> float:
        """Consume the newest observation in ``history``; return the rate.

        Args:
            url: The page's URL.
            history: The page's change history; its last observation is the
                one just recorded.

        Returns:
            The estimated change rate in changes per day.
        """

    def forget(self, url: str) -> None:
        """Drop any per-page state for ``url``."""

    def update_batch(
        self, urls: Sequence[str], histories: Sequence[ChangeHistory]
    ) -> List[float]:
        """Batched :meth:`update` over many pages at once.

        The default implementation loops :meth:`update`, which is already
        exact; strategies whose estimate is a pure function of the history's
        summary statistics (EP) override this to work from the O(1) running
        sums directly. Either way the returned rates are bit-identical to
        per-page :meth:`update` calls — the parity suite depends on it.

        Args:
            urls: Page URLs, aligned with ``histories``.
            histories: Each page's history, its newest observation just
                recorded.

        Returns:
            Estimated change rates (changes/day), one per page. Accepts
            plain lists or ndarrays of URLs/histories; returns a list so
            hot-path consumers avoid per-element NumPy scalar boxing.
        """
        return [self.update(url, history) for url, history in zip(urls, histories)]

    def state_dict(self, ids: Dict[str, int]) -> dict:
        """Per-page estimation state for checkpoints, its
        URLs index columns through ``ids``
        (:func:`~repro.storage.checkpoint.pack_urls`).

        Stateless strategies (EP) return an empty dict; stateful ones (EB)
        override this together with :meth:`load_state`.
        """
        return {}

    def load_state(self, state: dict, table: Sequence[str]) -> None:
        """Restore state captured by :meth:`state_dict`, its URLs looked up
        in ``table`` (no-op by default)."""


@register_estimator("ep")
class PoissonRateStrategy(ChangeRateEstimator):
    """EP: the bias-corrected Poisson rate estimator of Section 5.3.

    Stateless per page — every update re-estimates from the full history —
    so :meth:`reset_page` and :meth:`forget` are no-ops.

    Args:
        use_bias_correction: Apply the [CGM99a] bias correction (the naive
            detected-changes-over-time estimator saturates for pages that
            change faster than the visit interval).
    """

    def __init__(self, use_bias_correction: bool = True) -> None:
        self._estimator = PoissonRateEstimator(use_bias_correction=use_bias_correction)

    @property
    def estimator(self) -> PoissonRateEstimator:
        """The underlying EP estimator (confidence intervals and all)."""
        return self._estimator

    def reset_page(self, url: str) -> None:
        pass

    def update(self, url: str, history: ChangeHistory) -> float:
        estimate = self._estimator.estimate(history)
        if estimate is None:
            return 0.0
        if estimate.rate == float("inf"):
            # Every visit saw a change: the best we can say is "at least once
            # per visit interval"; use the reciprocal of the mean interval.
            mean_interval = history.mean_interval()
            return 1.0 / mean_interval if mean_interval > 0 else 1.0
        return estimate.rate

    def update_batch(
        self, urls: Sequence[str], histories: Sequence[ChangeHistory]
    ) -> List[float]:
        """EP over a batch: the closed-form rate from each history's sums.

        EP's point estimate is a pure function of ``(n_visits, n_changes,
        observation_time)``, all O(1) running sums on the history, so the
        batch skips the scalar path's confidence-interval computation —
        the UpdateModule only consumes the point rate. The arithmetic uses
        ``math.log`` per element rather than a SIMD ``np.log`` on purpose:
        vectorized transcendentals may differ from libm in the last ulp,
        and the crawl loop promises bit-identical schedules.
        """
        rates: List[float] = []
        append = rates.append
        corrected = self._estimator.use_bias_correction
        log = math.log
        # Reads ChangeHistory's running sums directly: the property wrappers
        # cost more than the arithmetic at this call frequency.
        for history in histories:
            n_visits = len(history._times)
            total_time = history._interval_sum
            if n_visits == 0 or total_time <= 0:
                append(0.0)
            elif corrected:
                ratio = (n_visits - history._n_changes + 0.5) / (n_visits + 0.5)
                append(-log(ratio) / (total_time / n_visits))
            else:
                append(history._n_changes / total_time)
        return rates


@register_estimator("eb")
class BayesianClassStrategy(ChangeRateEstimator):
    """EB: per-page Bayesian posterior over frequency classes."""

    def __init__(self) -> None:
        self._per_page: Dict[str, BayesianClassEstimator] = {}

    def reset_page(self, url: str) -> None:
        self._per_page[url] = BayesianClassEstimator()

    def update(self, url: str, history: ChangeHistory) -> float:
        estimator = self._per_page.setdefault(url, BayesianClassEstimator())
        interval, changed = history.last_outcome()
        estimator.observe(interval, changed)
        return estimator.expected_rate()

    def forget(self, url: str) -> None:
        self._per_page.pop(url, None)

    def estimator_for(self, url: str) -> BayesianClassEstimator:
        """The page's underlying Bayesian estimator (posterior inspection)."""
        return self._per_page.setdefault(url, BayesianClassEstimator())

    def state_dict(self, ids: Dict[str, int]) -> dict:
        """Every page's posterior weights, page after page, and their URLs."""
        return {
            "urls": pack_urls(list(self._per_page), ids),
            "posteriors": pack_floats(
                [weight for page in self._per_page.values() for weight in page.posterior_weights()]
            ),
        }

    def load_state(self, state: dict, table: Sequence[str]) -> None:
        """Rebuild every page's posterior exactly as checkpointed."""
        weights = state["posteriors"].reshape(-1, len(DEFAULT_CLASSES))
        self._per_page = {}
        for url, page_weights in zip(unpack_urls(state["urls"], table), weights.tolist()):
            estimator = BayesianClassEstimator()
            estimator.set_posterior_weights(page_weights)
            self._per_page[url] = estimator


def build_rate_estimator(name: str) -> ChangeRateEstimator:
    """Instantiate the registered estimator strategy called ``name``.

    Raises:
        repro.api.registry.UnknownEntryError: If ``name`` is not registered;
            the message lists the registered estimator names.
    """
    from repro.api.registry import ESTIMATORS

    return ESTIMATORS.create(name)
