"""Handing a materialized synthetic web to forked pool workers.

A sharded crawl runs N worker processes against the *same* ground-truth
web. The pool starts its workers with ``fork``, so each worker already
holds the coordinator's :class:`~repro.simweb.web.SimulatedWeb`
copy-on-write: nothing is pickled, exported or rebuilt, and every page's
change times are the very arrays the coordinator built. All a job needs
to carry is which web it runs against.

:class:`SharedWeb` publishes a web under a small picklable key in a
module-level table; a worker forked afterwards inherits the table and
resolves the key with :func:`published_web`.
"""

from __future__ import annotations

import itertools
from typing import Dict

from repro.simweb.web import SimulatedWeb

_PUBLISHED: Dict[str, SimulatedWeb] = {}
_KEYS = itertools.count()


class SharedWeb:
    """Coordinator-side handle publishing a web to the workers it forks.

    Create it before :func:`~repro.core.worker_pool.run_jobs`, hand
    :attr:`key` to every job, and :meth:`close` (or use as a context
    manager) after the pool has returned. The web's
    :class:`~repro.simweb.web.OracleArrays` are built here, before any
    fork, so workers inherit them instead of each building their own. Its
    other cache, :meth:`~repro.simweb.web.SimulatedWeb.true_importance`, is
    left to the caller: only crawls that sample quality need it, and the
    sharded coordinator builds it before it forks when they do.
    """

    def __init__(self, web: SimulatedWeb) -> None:
        web.oracle_arrays()
        self.key = f"web{next(_KEYS)}"
        _PUBLISHED[self.key] = web

    def close(self) -> None:
        """Withdraw the web from the table (idempotent)."""
        _PUBLISHED.pop(self.key, None)

    def __enter__(self) -> "SharedWeb":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def published_web(key: str) -> SimulatedWeb:
    """The web published under ``key`` in this process (or its parent).

    Raises:
        RuntimeError: No web is published under ``key`` — it was published
            after this worker forked, or already withdrawn.
    """
    try:
        return _PUBLISHED[key]
    except KeyError:
        raise RuntimeError(
            f"no web is published under {key!r} in this worker; publish "
            "every web with SharedWeb before run_jobs forks the workers"
        ) from None
