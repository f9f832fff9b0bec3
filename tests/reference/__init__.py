"""Test oracles: the code paths the product replaced, kept to check it.

:mod:`reference.crawl` is the per-URL crawl engine (on the clock and event
queue of :mod:`reference.events`); :mod:`reference.kernels` holds the
scalar loops behind the vectorized kernels. Nothing under ``src/`` imports
this package; tests import it as ``reference`` (``tests/`` is on
``sys.path`` under pytest).
"""
