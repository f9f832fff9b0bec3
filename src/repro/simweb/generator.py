"""Synthetic web generation calibrated to the paper's measurements.

:func:`generate_web` builds the :class:`~repro.simweb.web.SimulatedWeb` a
:class:`~repro.api.specs.WebSpec` describes (the spec validates every
field), with:

* the Table 1 mix of sites per domain, scaled down by ``site_scale`` (or
  explicit ``site_counts``);
* ``pages_per_site`` initial pages per site and a breadth-first page
  window of ``window_size`` pages (default: every initial page);
* per-page Poisson change processes drawn from the domain profiles
  (Figure 2(b) calibration), or one registered ``change_model`` for every
  page;
* per-page lifespans drawn from the domain lifespan models (Figure 4(b)
  calibration), including pages that are created *during* the simulated
  experiment, which is what produces the censoring cases of Figure 3;
* an intra-site tree plus preferential-attachment cross-site links, so the
  popularity metrics of Section 2.2 are meaningful.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.api.registry import CHANGE_MODELS
from repro.simweb.change_models import ChangeProcess
from repro.simweb.domains import DOMAIN_ORDER, DOMAIN_PROFILES, DomainProfile
from repro.simweb.lifespan import LifespanModel
from repro.simweb.linkgraph import generate_cross_links, generate_site_links
from repro.simweb.page import SimulatedPage
from repro.simweb.site import SimulatedSite
from repro.simweb.web import SimulatedWeb

if TYPE_CHECKING:  # pragma: no cover - the spec module imports domain modules
    from repro.api.specs import WebSpec


def _sites_for_domain(spec: WebSpec, domain: str) -> int:
    """Number of sites to generate for ``domain``."""
    if spec.site_counts is not None:
        return spec.site_counts.get(domain, 0)
    profile = DOMAIN_PROFILES[domain]
    return max(1, int(round(profile.site_count * spec.site_scale)))


def _sample_change_process(
    spec: WebSpec, profile: DomainProfile, rng: np.random.Generator
) -> ChangeProcess:
    """Draw a page's change process: override model or domain mixture."""
    if spec.change_model is None:
        return profile.sample_change_process(rng)
    # The spec checked the params against the factory signature, so the
    # per-page call is a plain constructor invocation.
    return CHANGE_MODELS.get(spec.change_model)(**(spec.change_model_params or {}))


def generate_web(spec: WebSpec) -> SimulatedWeb:
    """Generate the synthetic web ``spec`` describes; its seed fixes the web.

    Change-event sampling is *bulk*: pages are created with unmaterialised
    change processes, then every process is materialised per model class
    through :meth:`ChangeProcess.materialise_many` — a handful of array
    draws per web instead of a Python-level sampling loop per page.

    Returns:
        A fully wired :class:`SimulatedWeb`: pages have materialised change
        processes, lifespans, intra-site and cross-site links.
    """
    rng = np.random.default_rng(spec.seed)
    web = SimulatedWeb(horizon_days=spec.horizon_days)
    sites: List[SimulatedSite] = []
    pending: List[Tuple[ChangeProcess, float]] = []
    for domain in DOMAIN_ORDER:
        profile = DOMAIN_PROFILES[domain]
        for site_index in range(_sites_for_domain(spec, domain)):
            site = _generate_site(domain, site_index, profile, spec, rng, pending)
            sites.append(site)
    _materialise_pending(pending, rng)
    generate_cross_links(sites, rng)
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
    spec: WebSpec,
    rng: np.random.Generator,
    pending: List[Tuple[ChangeProcess, float]],
) -> SimulatedSite:
    """Generate one site: root, initial pages, late-created pages, links."""
    site_id = f"site{site_index:03d}.{domain}"
    site = SimulatedSite(
        site_id=site_id,
        domain=domain,
        window_size=(
            spec.window_size if spec.window_size is not None else spec.pages_per_site
        ),
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
        change_process=_sample_change_process(spec, profile, rng),
        horizon_days=spec.horizon_days,
        rng=rng,
        pending=pending,
    )
    site.add_page(root, is_root=True)
    pages.append(root)

    n_initial = spec.pages_per_site - 1
    n_late = int(round(spec.new_page_fraction * spec.pages_per_site))
    for page_index in range(n_initial + n_late):
        created_at = 0.0
        if page_index >= n_initial:
            created_at = float(rng.uniform(1.0, spec.horizon_days))
        lifespan = lifespan_model.sample(rng)
        page = _make_page(
            url=f"http://{site_id}/page{page_index:04d}.html",
            site_id=site_id,
            domain=domain,
            depth=1,
            created_at=created_at,
            lifespan=lifespan,
            change_process=_sample_change_process(spec, profile, rng),
            horizon_days=spec.horizon_days,
            rng=rng,
            pending=pending,
        )
        site.add_page(page)
        pages.append(page)

    generate_site_links(pages, rng)
    return site


def _make_page(
    url: str,
    site_id: str,
    domain: str,
    depth: int,
    created_at: float,
    lifespan: Optional[float],
    change_process: ChangeProcess,
    horizon_days: float,
    rng: np.random.Generator,
    pending: List[Tuple[ChangeProcess, float]],
) -> SimulatedPage:
    """Create a page; its change process is queued for bulk materialisation."""
    remaining_horizon = max(0.0, horizon_days - created_at)
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
