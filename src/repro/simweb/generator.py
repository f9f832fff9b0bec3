"""Synthetic web generation calibrated to the paper's measurements.

:func:`generate_web` builds a :class:`~repro.simweb.web.SimulatedWeb` with:

* a configurable number of sites per domain (defaulting to the Table 1 mix,
  scaled down by ``site_scale``);
* a per-site page window whose size defaults to a scaled-down version of the
  paper's 3,000-page window;
* per-page Poisson change processes drawn from the domain profiles
  (Figure 2(b) calibration);
* per-page lifespans drawn from the domain lifespan models (Figure 4(b)
  calibration), including pages that are created *during* the simulated
  experiment, which is what produces the censoring cases of Figure 3;
* an intra-site tree plus preferential-attachment cross-site links, so the
  popularity metrics of Section 2.2 are meaningful.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.registry import CHANGE_MODELS
from repro.simweb.change_models import ChangeProcess
from repro.simweb.domains import DOMAIN_ORDER, DOMAIN_PROFILES, DomainProfile
from repro.simweb.lifespan import LifespanModel
from repro.simweb.linkgraph import LinkGraphConfig, generate_cross_links, generate_site_links
from repro.simweb.page import SimulatedPage
from repro.simweb.site import SimulatedSite
from repro.simweb.web import SimulatedWeb


@dataclass(frozen=True)
class WebGeneratorConfig:
    """Parameters of the synthetic-web generator.

    The defaults give a laptop-scale web (tens of sites, a few thousand
    pages) whose *statistics* match the paper; the full-scale experiment
    (270 sites x 3,000 pages) can be requested by setting ``site_scale=1.0``
    and ``pages_per_site=3000``, at a proportional cost in memory and time.

    Attributes:
        site_scale: Multiplier applied to the Table 1 per-domain site counts
            (132 com / 78 edu / 30 netorg / 30 gov). A scale of 0.1 gives
            roughly 27 sites.
        pages_per_site: Number of pages initially present at each site.
        window_size: Monitoring-window size per site; defaults to
            ``pages_per_site`` (every initial page is inside the window).
        horizon_days: Virtual-time horizon; the paper's experiment spanned
            roughly 127 days (February 17 to June 24, 1999).
        new_page_fraction: Number of pages created during the horizon, as a
            fraction of ``pages_per_site``.
        site_counts: Optional explicit per-domain site counts, overriding
            ``site_scale``.
        link_config: Link-graph generation parameters.
        change_model: Optional name of a registered change model (see
            :data:`repro.api.registry.CHANGE_MODELS`); when set, every page
            draws its change process from this model (with
            ``change_model_params``) instead of the calibrated per-domain
            mixtures. Useful for clockwork/bursty ablation webs.
        change_model_params: Keyword arguments for the change-model factory
            (e.g. ``{"rate": 0.2}`` for ``"poisson"``).
        seed: Seed of the top-level random generator; the same seed always
            produces the same web.
    """

    site_scale: float = 0.1
    pages_per_site: int = 60
    window_size: Optional[int] = None
    horizon_days: float = 127.0
    new_page_fraction: float = 0.25
    site_counts: Optional[Dict[str, int]] = None
    link_config: LinkGraphConfig = field(default_factory=LinkGraphConfig)
    change_model: Optional[str] = None
    change_model_params: Optional[Dict[str, float]] = None
    seed: int = 17

    def __post_init__(self) -> None:
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
        if self.change_model is not None:
            factory = CHANGE_MODELS.get(self.change_model)
            self._validate_change_model_params(factory)

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

    def sample_change_process(
        self, profile: DomainProfile, rng: np.random.Generator
    ) -> ChangeProcess:
        """Draw a page's change process: override model or domain mixture."""
        if self.change_model is None:
            return profile.sample_change_process(rng)
        # Params were validated against the factory signature up front, so
        # the per-page call is a plain constructor invocation.
        return CHANGE_MODELS.get(self.change_model)(
            **(self.change_model_params or {})
        )

    def effective_window_size(self) -> int:
        """The window size actually used (defaults to ``pages_per_site``)."""
        return self.window_size if self.window_size is not None else self.pages_per_site

    def sites_for_domain(self, domain: str) -> int:
        """Number of sites to generate for ``domain``."""
        if self.site_counts is not None:
            return self.site_counts.get(domain, 0)
        profile = DOMAIN_PROFILES[domain]
        return max(1, int(round(profile.site_count * self.site_scale)))


def generate_web(config: WebGeneratorConfig) -> SimulatedWeb:
    """Generate a synthetic web according to ``config``.

    Change-event sampling is *bulk*: pages are created with unmaterialised
    change processes, then every process is materialised per model class
    through :meth:`ChangeProcess.materialise_many` — a handful of array
    draws per web instead of a Python-level sampling loop per page.

    Returns:
        A fully wired :class:`SimulatedWeb`: pages have materialised change
        processes, lifespans, intra-site and cross-site links.
    """
    rng = np.random.default_rng(config.seed)
    web = SimulatedWeb(horizon_days=config.horizon_days)
    sites: List[SimulatedSite] = []
    pending: List[Tuple[ChangeProcess, float]] = []
    for domain in DOMAIN_ORDER:
        profile = DOMAIN_PROFILES[domain]
        n_sites = config.sites_for_domain(domain)
        for site_index in range(n_sites):
            site = _generate_site(domain, site_index, profile, config, rng, pending)
            sites.append(site)
    _materialise_pending(pending, rng)
    generate_cross_links(sites, config.link_config, rng)
    for site in sites:
        web.add_site(site)
    return web


def _materialise_pending(
    pending: List[Tuple[ChangeProcess, float]], rng: np.random.Generator
) -> None:
    """Materialise all change processes, grouped by concrete model class.

    Grouping preserves the deterministic page order within each class, so
    the same seed always produces the same web (though a different one
    than the retired per-page sampling loop produced, since bulk draws
    consume the random stream in a different order).
    """
    groups: Dict[type, List[Tuple[ChangeProcess, float]]] = {}
    for process, horizon in pending:
        groups.setdefault(type(process), []).append((process, horizon))
    for process_class, items in groups.items():
        process_class.materialise_many(
            [process for process, _ in items],
            [horizon for _, horizon in items],
            rng,
        )


def _generate_site(
    domain: str,
    site_index: int,
    profile: DomainProfile,
    config: WebGeneratorConfig,
    rng: np.random.Generator,
    pending: List[Tuple[ChangeProcess, float]],
) -> SimulatedSite:
    """Generate one site: root, initial pages, late-created pages, links."""
    site_id = f"site{site_index:03d}.{domain}"
    site = SimulatedSite(
        site_id=site_id,
        domain=domain,
        window_size=config.effective_window_size(),
    )
    lifespan_model = LifespanModel(
        permanent_fraction=profile.permanent_fraction,
        mean_lifespan_days=profile.mean_lifespan_days,
    )
    pages: List[SimulatedPage] = []

    root = _make_page(
        url=f"http://{site_id}/",
        site_id=site_id,
        domain=domain,
        depth=0,
        created_at=0.0,
        lifespan=None,
        change_process=config.sample_change_process(profile, rng),
        config=config,
        rng=rng,
        pending=pending,
    )
    site.add_page(root, is_root=True)
    pages.append(root)

    n_initial = config.pages_per_site - 1
    n_late = int(round(config.new_page_fraction * config.pages_per_site))
    for page_index in range(n_initial + n_late):
        created_at = 0.0
        if page_index >= n_initial:
            created_at = float(rng.uniform(1.0, config.horizon_days))
        lifespan = lifespan_model.sample(rng)
        page = _make_page(
            url=f"http://{site_id}/page{page_index:04d}.html",
            site_id=site_id,
            domain=domain,
            depth=1,
            created_at=created_at,
            lifespan=lifespan,
            change_process=config.sample_change_process(profile, rng),
            config=config,
            rng=rng,
            pending=pending,
        )
        site.add_page(page)
        pages.append(page)

    generate_site_links(pages, config.link_config, rng)
    return site


def _make_page(
    url: str,
    site_id: str,
    domain: str,
    depth: int,
    created_at: float,
    lifespan: Optional[float],
    change_process: ChangeProcess,
    config: WebGeneratorConfig,
    rng: np.random.Generator,
    pending: List[Tuple[ChangeProcess, float]],
) -> SimulatedPage:
    """Create a page; its change process is queued for bulk materialisation."""
    remaining_horizon = max(0.0, config.horizon_days - created_at)
    pending.append((change_process, remaining_horizon))
    rng.integers(0, 2**31 - 1)  # discarded; keeps the seeded web's stream
    return SimulatedPage(
        url=url,
        site_id=site_id,
        domain=domain,
        depth=depth,
        created_at=created_at,
        lifespan=lifespan,
        change_process=change_process,
    )
