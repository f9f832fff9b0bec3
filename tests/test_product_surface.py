"""The package ships one crawl engine; its oracles live in ``tests/reference/``.

Reference loops, the per-URL engine's clock and event queue, a separate
``Repository`` store behind the collections, settings objects that
duplicate the specs, and removed features must not creep back into
``src/repro``: this walks every module's syntax tree instead of importing
it, so a definition is caught even where nothing imports it.

The benchmark's layer tracer patches entry points on their owning classes,
so tests hold the one engine to that contract: every traced name is still
defined where the tracer looks, a traced name no product path calls is a
docstring-only stub, and the crawl loop reaches its stages through those
owners rather than through captured references. Every dotted
``repro.…`` name the README cites must resolve, and the last test keeps every
check where pytest collects it.
"""

from __future__ import annotations

import ast
import fnmatch
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.incremental_crawler import IncrementalCrawler
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import CrawlCheckpointer

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
TRACING = REPO / "benchmarks" / "e2e" / "tracing.py"
RETIRED_NAMES = {
    "EventQueue", "ScheduledEvent", "VirtualClock", "RobotsRules", "ShardEngine",
    # The collections hold their records in plain dicts.
    "Repository",
    # The specs are the only settings objects: of the crawlers, the web
    # generator and the ranking scan. The link shape and the scan's cap and
    # margin are module constants; the tracker keeps no age column.
    "IncrementalCrawlerConfig", "PeriodicCrawlerConfig", "UpdateModuleConfig",
    "RetryPolicy", "WebGeneratorConfig", "LinkGraphConfig", "RankingModuleConfig",
    "to_generator_config", "mean_age",
    # A page's content is its version: no bodies, checksums or text index.
    "InvertedIndex", "page_checksum", "checksums_differ", "content_for",
    "content_for_version", "content_at",
    # Ground truth is the web's cached true_importance(); the dict entry
    # point is pagerank(); SciPy is required; two stores.
    "page_link_graph", "true_page_importance", "collection_quality",
    "pagerank_dict", "hits_dict", "estimated_pagerank_for_candidates",
    "HAVE_SCIPY", "ColumnarBackend",
    # A checkpoint holds each fact once: who links to whom is the ranking
    # scan's LinkGraph, and a page's links are forwarded at its admission.
    "inlinks", "inlink_count", "links_recorded", "record_link",
    # Helpers only their own tests called.
    "poisson_rate_confidence_interval", "overall_rate_mixture",
    "population_time_averaged_freshness", "importance_of_collection",
    # The refinement scan keeps its scores in arrays and clamps them there.
    "_clamp_residue",
    # Crawl sweeps are ScenarioMatrix files, not hand-wired scenarios.
    "polite_crawl", "chaos_crawl", "DEFAULT_CHAOS_REGIMES",
    # One politeness recurrence (no vectorized chain resolver, dense
    # mirror or array window), one batch oracle (OracleArrays) and one
    # monitor fetch (a day's fetch_many).
    "_resolve_site_chain", "_leading_true", "is_open_array", "next_open_array",
    "_dense_view", "versions_at", "exists_mask", "up_to_date_mask",
    "is_up_to_date", "current_version", "live_urls_at", "_observe_site",
    # One store: SqliteBackend, in memory without a path and durable with one.
    "MemoryBackend", "StorageBackend", "can_persist",
    # The store writes the collection once, in its checkpoints and final
    # image: no records table mirrors it row by row.
    "put_records", "update_fetches", "update_importance", "_update_rows",
    "get_record", "delete_record", "scan_records", "record_count",
    "clear_records", "replace_records", "_row_to_record", "_RECORD_COLUMNS",
    "_SELECT_RECORDS", "_refresh_journal_records",
    # Every checkpoint holds the pages' change histories: no event log
    # keeps the observations a second time.
    "append_events", "scan_events", "event_count", "truncate_events",
    "events_logged", "ChangeEvent", "loaded_latest",
    # One crawl path: the per-URL stages (a fetch's result and status
    # objects, a record's refresh copy) and the scalar page oracle live in
    # tests/reference/; the paper's PageRank parameterisation is
    # pagerank(damping=1 - d) and HITS is hits_scores over a LinkGraph.
    "CrawlOutcome", "FetchResult", "FetchStatus", "CODE_TO_STATUS", "STATUS_TO_CODE",
    "_TERMINAL_STATUSES", "_site_id_of", "_site_names", "PageSnapshot", "snapshot_at",
    "version_at", "changes_between", "changed_between", "next_change_after",
    "last_change_at_or_before", "observed_intervals", "_check_time", "cho_pagerank",
    "hits",
    # A shard returns counts and series: its collection and estimator state
    # stay in its own store, and no merged estimator document is built.
    "merge_snapshots", "join_packed", "_concat_columns", "estimator_state",
    "record_to_dict",
    # Each module packs its own URL columns (pack_urls / unpack_urls): no
    # path walk over a crawler snapshot rewrites them afterwards.
    "index_urls", "resolve_urls", "_URL_COLUMNS",
}

#: Entry points the benchmark's layer tracer names but no product path
#: calls: each stays defined, as its docstring alone, so the tracer table
#: resolves without a second crawl path growing back behind it.
TRACER_ONLY_STUBS = (
    ("core/crawl_module.py", "CrawlModule", "crawl"),
    ("core/collurls.py", "CollUrls", "pop"),
    ("core/collurls.py", "CollUrls", "schedule"),
    ("fetch/fetcher.py", "SimulatedFetcher", "fetch"),
    ("fetch/politeness.py", "PolitenessPolicy", "earliest_allowed_many"),
    ("fetch/politeness.py", "PolitenessPolicy", "earliest_allowed_many_indexed"),
    ("fetch/politeness.py", "PolitenessPolicy", "record_requests"),
    ("fetch/politeness.py", "PolitenessPolicy", "record_requests_indexed"),
    ("faults.py", "FaultLayer", "resolve_one"),
    ("faults.py", "FaultLayer", "latency_factor_one"),
    ("storage/checkpoint.py", "CollectionJournal", "on_batch"),
    ("storage/checkpoint.py", "CollectionJournal", "on_outcome"),
    ("storage/checkpoint.py", "CollectionJournal", "on_discard"),
    ("storage/checkpoint.py", "CollectionJournal", "refresh_records"),
)


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 50, f"no package sources under {SRC}"
    for path in paths:
        yield path.relative_to(SRC.parent), ast.parse(path.read_text(encoding="utf-8"))


def _exports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            yield from ast.literal_eval(node.value)


def test_no_reference_callables_in_the_package():
    found = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
    ]
    assert found == []


def _defined_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.attr


def test_retired_names_are_not_defined():
    found = [
        f"{module}:{lineno} {name}"
        for module, tree in _modules()
        for lineno, name in _defined_names(tree)
        if name in RETIRED_NAMES
    ]
    assert found == []


def test_no_public_export_names_a_retired_symbol():
    found = [
        f"{module} exports {name}"
        for module, tree in _modules()
        for name in _exports(tree)
        if name in RETIRED_NAMES or name.endswith("_reference")
    ]
    assert found == []


def test_no_package_exports_a_crawler_config_class():
    # The specs are the only settings objects: no package exports a
    # ``*Config`` class.
    allowed = set()
    found = [
        f"{package} exports {name}"
        for package in ("repro", "repro.core", "repro.api", "repro.simweb")
        for name in importlib.import_module(package).__all__
        if name.endswith("Config") and name not in allowed
    ]
    assert found == []


@pytest.mark.parametrize(
    "path, class_name, name", TRACER_ONLY_STUBS,
    ids=[f"{class_name}.{name}" for _, class_name, name in TRACER_ONLY_STUBS],
)
def test_a_tracer_only_stub_is_its_docstring_alone(path, class_name, name):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    owner = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    )
    method = next(
        node for node in owner.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    assert len(method.body) == 1, f"{class_name}.{name} has a body"
    docstring = method.body[0]
    assert isinstance(docstring, ast.Expr)
    assert isinstance(docstring.value, ast.Constant)
    assert isinstance(docstring.value.value, str)


def test_every_tracer_only_stub_is_named_by_the_tracer():
    traced = {
        (class_name, attr) for _, class_name, attr, _, _ in _tracing_module().TARGETS
    }
    assert {(class_name, name) for _, class_name, name in TRACER_ONLY_STUBS} <= traced


def _tracing_module():
    spec = importlib.util.spec_from_file_location("e2e_layer_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_is_defined_on_its_owner():
    missing = [
        f"{module_name}.{class_name}.{attr}"
        for module_name, class_name, attr, _, _ in _tracing_module().TARGETS
        if attr not in vars(getattr(importlib.import_module(module_name), class_name))
    ]
    assert missing == []


def test_the_crawl_loop_reaches_its_stages_through_their_owners(tiny_web):
    tracing = _tracing_module()
    crawler = IncrementalCrawler(tiny_web, CrawlerSpec(
        collection_capacity=60,
        crawl_budget_per_day=200.0,
        duration_days=20.0,
        ranking_interval_days=5.0,
        measurement_interval_days=1.0,
        track_quality=True,
    ), PolicySpec())
    checkpointer = CrawlCheckpointer(SqliteBackend(), every_days=7.0)
    with tracing.Tracer() as tracer, tracer.root():
        crawler.run(checkpointer=checkpointer)

    names = [span[0] for span in tracer.spans]
    for stage in (
        "core.update_module:process_slots",
        "core.ranking_module:refine",
        "core.quality:sample",
        "simulation.freshness_tracker:sample",
    ):
        assert stage in names, stage
    assert checkpointer.saves >= 2
    assert names.count("storage.checkpoint:snapshot") == checkpointer.saves
    assert names.count("storage.checkpoint:save") == checkpointer.saves
    run_span = names.index("engine:crawler_run")
    assert all(
        span[3] == run_span
        for span in tracer.spans
        if span[0] in ("core.update_module:process_slots", "core.ranking_module:refine")
    )


def _resolve_dotted(name):
    """The object a dotted ``repro.…`` name denotes: each part an attribute
    of the one before, importing a submodule where no attribute exists yet."""
    parts = name.split(".")
    found = importlib.import_module(parts[0])
    for at, part in enumerate(parts[1:], start=2):
        if not hasattr(found, part):
            importlib.import_module(".".join(parts[:at]))
        found = getattr(found, part)
    return found


def test_every_dotted_name_in_the_readme_resolves():
    names = sorted(set(re.findall(
        r"`(repro(?:\.[A-Za-z_]\w*)+)`", (REPO / "README.md").read_text(encoding="utf-8")
    )))
    assert len(names) >= 10
    unresolved = []
    for name in names:
        try:
            _resolve_dotted(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []


def test_every_module_that_defines_tests_is_collected():
    # pytest's default ``python_files``: a test anywhere else never runs.
    def defines_tests(path):
        return any(
            isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
            or isinstance(node, ast.ClassDef) and node.name.startswith("Test")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
        )

    stray = [
        str(path.relative_to(REPO))
        for folder in ("tests", "benchmarks")
        for path in sorted((REPO / folder).rglob("*.py"))
        if not any(fnmatch.fnmatch(path.name, pattern) for pattern in ("test_*.py", "*_test.py"))
        and defines_tests(path)
    ]
    assert stray == []
