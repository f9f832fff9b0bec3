"""AllUrls: the registry of every URL the crawler has discovered.

Algorithm 5.1 keeps a set ``AllUrls`` of all URLs known to the crawler; the
architecture of Figure 12 has the CrawlModule forward newly extracted URLs
into it and the RankingModule scan it when making the refinement decision.

Besides membership, the registry tracks, per URL, when it was discovered and
when a fetch of it last failed. It keeps no link structure: the
RankingModule ranks pages it has not collected yet through the in-links of
its own :class:`~repro.ranking.sparse.LinkGraph` (footnote 2 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container, Dict, Iterable, Iterator, List, Optional

from repro.storage.checkpoint import pack_floats


@dataclass
class UrlInfo:
    """What the crawler knows about a discovered URL.

    Attributes:
        url: The URL.
        discovered_at: Virtual time the URL was first seen.
        last_failed_at: Virtual time of the most recent failed fetch
            (``None`` when the URL has never failed); used to avoid
            rescheduling URLs that have disappeared.
    """

    url: str
    discovered_at: float
    last_failed_at: Optional[float] = None


class AllUrls:
    """Registry of all discovered URLs, in discovery order."""

    def __init__(self) -> None:
        self._urls: Dict[str, UrlInfo] = {}

    def __contains__(self, url: str) -> bool:
        return url in self._urls

    def __len__(self) -> int:
        return len(self._urls)

    def __iter__(self) -> Iterator[str]:
        return iter(self._urls)

    def add(self, url: str, discovered_at: float) -> bool:
        """Register a URL; returns True when it was new."""
        if url in self._urls:
            return False
        self._urls[url] = UrlInfo(url=url, discovered_at=discovered_at)
        return True

    def add_many(self, urls: Iterable[str], discovered_at: float) -> int:
        """Register several URLs; returns how many were new."""
        return sum(1 for url in urls if self.add(url, discovered_at))

    def record_links(
        self, source_url: str, target_urls: Iterable[str], discovered_at: float
    ) -> None:
        """Forward the links found on ``source_url``: register each target.

        A known target is left as it is; the links themselves are kept by
        the RankingModule's ``LinkGraph``.
        """
        self.add_many(target_urls, discovered_at)

    def record_failure(self, url: str, at: float) -> None:
        """Record a failed fetch (page missing or excluded)."""
        info = self._urls.get(url)
        if info is not None:
            info.last_failed_at = at

    def info(self, url: str) -> UrlInfo:
        """The registry entry for ``url`` (raises ``KeyError`` when unknown)."""
        return self._urls[url]

    def candidates(self, exclude: Container[str]) -> List[str]:
        """Known URLs not in ``exclude`` (the refinement candidates), in
        discovery order; ``exclude`` is read as given, so pass a set.

        URLs with a recorded fetch failure are omitted; they are known to
        have disappeared and are not worth admitting into the collection.
        """
        return [
            url
            for url, info in self._urls.items()
            if url not in exclude and info.last_failed_at is None
        ]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Checkpoint registry columns in dict-insertion order.

        Insertion order is preserved (``candidates`` iterates it). Times
        are packed, ``last_failed_at`` with NaN for ``None``: a virtual time
        is never NaN.
        """
        infos = list(self._urls.values())
        return {
            "url": [info.url for info in infos],
            "discovered_at": pack_floats([info.discovered_at for info in infos]),
            "last_failed_at": pack_floats([
                math.nan if info.last_failed_at is None else info.last_failed_at
                for info in infos
            ]),
        }

    def restore_snapshot(self, state: dict) -> None:
        """Rebuild the registry exactly as captured by :meth:`snapshot`."""
        self._urls = {
            url: UrlInfo(url, discovered_at, None if math.isnan(failed) else failed)
            for url, discovered_at, failed in zip(
                state["url"],
                state["discovered_at"].tolist(),
                state["last_failed_at"].tolist(),
            )
        }
