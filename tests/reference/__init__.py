"""Test oracles: the code paths the product replaced, kept to check it.

:mod:`reference.crawl` is the per-URL crawl engine and its stages (on the
clock and event queue of :mod:`reference.events`), reading the web through
the scalar page oracle of :mod:`reference.oracle`; :mod:`reference.kernels`
holds the scalar loops behind the vectorized kernels. Nothing under ``src/`` imports
this package; tests import it as ``reference`` (``tests/`` is on
``sys.path`` under pytest).
"""
