"""Tests for the declarative experiment API (repro.api)."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    CHANGE_MODELS,
    ESTIMATORS,
    REVISIT_POLICIES,
    SCENARIOS,
    CrawlerSpec,
    ExperimentSpec,
    PolicySpec,
    Registry,
    ScenarioMatrix,
    UnknownEntryError,
    WebSpec,
    run,
    run_matrix,
)
from repro.api.runner import _result_document, _result_from_document, build_web
from repro.api.specs import FaultModelSpec, FaultsSpec, RetrySpec
from repro.core.sharding import ShardView
from repro.simweb import web as web_module

EXAMPLE_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

TINY_WEB = WebSpec(site_scale=0.03, pages_per_site=8, horizon_days=30.0, seed=3)
TINY_CRAWL = ExperimentSpec(
    name="tiny-crawl",
    kind="crawl",
    web=TINY_WEB,
    crawler=CrawlerSpec(
        kind="incremental",
        collection_capacity=25,
        crawl_budget_per_day=80.0,
        duration_days=5.0,
        measurement_interval_days=1.0,
    ),
    policy=PolicySpec(revisit_policy="optimal", estimator="ep"),
)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"uniform", "proportional", "optimal"} <= set(REVISIT_POLICIES.names())
        assert {"ep", "eb"} <= set(ESTIMATORS.names())
        assert {"poisson", "periodic", "bursty", "never"} <= set(CHANGE_MODELS.names())
        assert {"table2", "sensitivity", "figure7", "figure8",
                "revisit-policies"} <= set(SCENARIOS.names())

    def test_unknown_name_lists_choices(self):
        with pytest.raises(UnknownEntryError) as excinfo:
            REVISIT_POLICIES.get("bogus")
        message = str(excinfo.value)
        assert "'bogus'" in message
        for name in ("uniform", "proportional", "optimal"):
            assert name in message

    def test_unknown_entry_error_is_a_value_error(self):
        assert issubclass(UnknownEntryError, ValueError)

    def test_create_filters_unsupported_kwargs(self):
        # Only the optimal policy understands use_importance; the others
        # must still be constructible through the same call.
        for name in ("uniform", "proportional", "optimal"):
            policy = REVISIT_POLICIES.create(name, use_importance=True)
            assert policy is not None

    def test_custom_registration_and_override(self):
        registry = Registry("widget")

        @registry.register("one")
        def make_one():
            return 1

        assert registry.create("one") == 1
        registry.register("one", lambda: 2)
        assert registry.create("one") == 2
        assert "one" in registry and len(registry) == 1


class TestSpecValidation:
    def test_unknown_revisit_policy(self):
        with pytest.raises(UnknownEntryError, match="optimal"):
            PolicySpec(revisit_policy="bogus")

    def test_unknown_estimator(self):
        with pytest.raises(UnknownEntryError, match="'ep'"):
            PolicySpec(estimator="bogus")

    def test_unknown_change_model(self):
        with pytest.raises(UnknownEntryError, match="poisson"):
            WebSpec(change_model="bogus")

    def test_misspelled_change_model_params_rejected(self):
        with pytest.raises(ValueError, match="phse"):
            WebSpec(change_model="periodic",
                    change_model_params={"interval": 5.0, "phse": 2.0})

    def test_unknown_scenario(self):
        with pytest.raises(UnknownEntryError, match="table2"):
            ExperimentSpec(name="x", kind="scenario", scenario="bogus")

    def test_unknown_experiment_kind(self):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentSpec(name="x", kind="bogus")

    def test_crawl_requires_web_and_crawler(self):
        with pytest.raises(ValueError, match="web"):
            ExperimentSpec(name="x", kind="crawl")
        with pytest.raises(ValueError, match="crawler"):
            ExperimentSpec(name="x", kind="crawl", web=TINY_WEB)

    def test_reference_engine_rejected_from_json(self):
        # The per-URL engine is a test oracle, not a spec choice (the
        # constructor case is in test_storage_backends.py).
        document = json.loads(TINY_CRAWL.to_json())
        document["crawler"]["engine"] = "reference"
        with pytest.raises(ValueError, match="'batched', 'sharded'"):
            ExperimentSpec.from_json(json.dumps(document))

    def test_periodic_spec_rejects_politeness(self):
        # The periodic crawler has no politeness; accepting the flag would
        # run the same crawl under a different spec hash.
        with pytest.raises(ValueError, match="politeness.*incremental"):
            CrawlerSpec(
                kind="periodic",
                use_politeness=True,
                politeness_min_delay_seconds=3600.0,
                politeness_night_window=True,
            )
        CrawlerSpec(kind="periodic", politeness_min_delay_seconds=3600.0)

    # Every bound a crawler spec enforces, on both kinds: a field only one
    # crawler reads is still checked on the other kind's spec.
    @pytest.mark.parametrize("kind", ["incremental", "periodic"])
    @pytest.mark.parametrize("field, value", [
        ("collection_capacity", 0),
        ("crawl_budget_per_day", 0.0),
        ("cycle_days", 0.0),
        ("measurement_interval_days", 0.0),
        ("ranking_interval_days", 0.0),
        ("reallocation_interval_days", 0.0),
        ("reallocation_interval_days", -1.0),
        ("default_revisit_interval_days", 0.0),
        ("default_revisit_interval_days", -3.0),
        ("politeness_min_delay_seconds", -1.0),
        ("politeness_night_start", -0.1),
        ("politeness_night_start", 1.0),
        ("politeness_night_duration", 0.0),
        ("politeness_night_duration", 1.5),
        ("duration_days", 0.0),
        ("start_time", -1.0),
    ])
    def test_crawler_spec_rejects_out_of_bounds(self, kind, field, value):
        with pytest.raises(ValueError, match=field):
            CrawlerSpec(kind=kind, **{field: value})

    # NaN fails every comparison, so a bound written as ``value <= 0`` let
    # it through; JSON's NaN and Infinity reach these fields from a file.
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        "collection_capacity", "crawl_budget_per_day", "duration_days",
        "start_time", "cycle_days", "ranking_interval_days",
        "reallocation_interval_days", "measurement_interval_days",
        "default_revisit_interval_days", "politeness_min_delay_seconds",
        "politeness_night_start", "politeness_night_duration",
    ])
    def test_crawler_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            CrawlerSpec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_optional_bounds_reject_non_finite(self, value):
        with pytest.raises(ValueError, match="checkpoint_every"):
            CrawlerSpec(storage="sqlite", checkpoint_every=value)
        with pytest.raises(ValueError, match="shards"):
            CrawlerSpec(engine="sharded", shards=value)
        with pytest.raises(ValueError, match="workers"):
            CrawlerSpec(engine="sharded", workers=value)
        for field in ("site_scale", "pages_per_site", "window_size",
                      "horizon_days", "new_page_fraction"):
            with pytest.raises(ValueError, match=field):
                WebSpec(**{field: value})
        for field in ("base_delay_days", "multiplier", "breaker_probe_days",
                      "breaker_backoff"):
            with pytest.raises(ValueError, match=field):
                RetrySpec(**{field: value})

    # Every ``int`` field, one builder each: a fraction or a bool passed the
    # range checks and then raised deep inside generation or the crawl (or,
    # for max_attempts and workers, ran without error).
    INTEGER_FIELDS = {
        "web.pages_per_site": lambda value: WebSpec(pages_per_site=value),
        "web.window_size": lambda value: WebSpec(window_size=value),
        "web.seed": lambda value: WebSpec(seed=value),
        "crawler.collection_capacity": lambda value: CrawlerSpec(
            collection_capacity=value
        ),
        "crawler.shards": lambda value: CrawlerSpec(engine="sharded", shards=value),
        "crawler.workers": lambda value: CrawlerSpec(engine="sharded", workers=value),
        "retry.max_attempts": lambda value: RetrySpec(max_attempts=value),
        "retry.site_budget": lambda value: RetrySpec(site_budget=value),
        "retry.breaker_threshold": lambda value: RetrySpec(breaker_threshold=value),
        "faults.seed": lambda value: FaultsSpec(models=(FaultModelSpec(),), seed=value),
        "experiment.seed": lambda value: ExperimentSpec(
            name="x", kind="scenario", scenario="table2", seed=value
        ),
    }

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integer_fields_refuse_non_integers(self, field, value):
        name = field.split(".")[1]
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            self.INTEGER_FIELDS[field](value)

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integer_fields_take_numpy_integers(self, field):
        self.INTEGER_FIELDS[field](np.int64(2))

    def test_derived_shard_capacities_pass_the_spec(self, tiny_web):
        spec = CrawlerSpec(engine="sharded", shards=3, collection_capacity=50)
        for view in ShardView.split(tiny_web, 3, capacity=50, budget_per_day=100.0):
            spec.replace(collection_capacity=view.capacity)

    @pytest.mark.parametrize("count", [2.5, True, -1])
    def test_site_counts_must_be_non_negative_integers(self, count):
        # 2.5 sites raised a TypeError inside web generation.
        with pytest.raises(ValueError, match=r"site_counts\['com'\]"):
            WebSpec(site_counts={"com": count})

    def test_site_counts_refuse_an_unknown_domain(self):
        # "net" is not a domain (the Table 1 domain is "netorg"); it used to
        # be dropped, so this spec generated 2 sites, not 5.
        with pytest.raises(ValueError, match="'net'") as excinfo:
            WebSpec(site_counts={"com": 2, "net": 3})
        for domain in ("com", "edu", "netorg", "gov"):
            assert domain in str(excinfo.value)

    def test_seeds_must_be_non_negative(self):
        # NumPy refused them only at web generation.
        with pytest.raises(ValueError, match="seed must be non-negative"):
            WebSpec(seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ExperimentSpec(name="x", kind="crawl", web=WebSpec(), crawler=CrawlerSpec(),
                           seed=-3)

    def test_json_nan_budget_is_refused(self):
        document = json.loads(TINY_CRAWL.to_json())
        document["crawler"]["crawl_budget_per_day"] = math.nan
        text = json.dumps(document)
        assert "NaN" in text  # Python's json writes and reads it
        with pytest.raises(ValueError, match="crawl_budget_per_day"):
            ExperimentSpec.from_json(text)

    def test_crawler_spec_builds_the_crawler_parts(self):
        from repro.freshness.policies import UniformRevisitPolicy

        policy = PolicySpec(revisit_policy="uniform", estimator="eb")
        assert isinstance(policy.build_revisit_policy(), UniformRevisitPolicy)
        crawler = CrawlerSpec(
            use_politeness=True,
            politeness_night_window=True,
            politeness_night_start=0.5,
        )
        assert crawler.build_politeness().night_window.start_fraction == 0.5
        assert CrawlerSpec(politeness_night_start=0.5).build_politeness() is None
        assert CrawlerSpec().build_failure_tracker() is None
        retry = RetrySpec(max_attempts=2)
        assert CrawlerSpec(retry=retry).build_failure_tracker().retry == retry
        with pytest.raises(ValueError, match="politeness_night_start"):
            CrawlerSpec(politeness_night_start=1.5)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_dict({"name": "x", "kind": "crawl", "bogus": 1})
        message = str(excinfo.value)
        assert "bogus" in message and "scenario" in message

    def test_params_must_be_json_serializable(self):
        with pytest.raises(ValueError, match="JSON"):
            ExperimentSpec(name="x", kind="scenario", scenario="table2",
                           params={"f": object()})


class TestSpecRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = TINY_CRAWL
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_json_round_trip_is_identity(self):
        spec = ExperimentSpec(
            name="scenario", kind="scenario", scenario="table2",
            params={"n_pages": 40, "n_cycles": 2}, seed=5,
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_hash_changes_with_content(self):
        spec = TINY_CRAWL
        assert spec.replace(seed=1).spec_hash() != spec.spec_hash()
        assert spec.replace(web=TINY_WEB.replace(seed=4)).spec_hash() != spec.spec_hash()

    # A spec hash keys stored results, checkpoints and golden digests, so the
    # shipped example specs must keep theirs when spec fields or their
    # defaults are reworked. A matrix file pins the hash of its base spec.
    @pytest.mark.parametrize("file_name, expected", [
        ("chaos_crawl.json",
         "6c57813252efec11e032083d412f5260eb6ade243d28fbd0c08f5056e4fbec80"),
        ("chaos_sweep.json",
         "08316d6d4df6b4028dd29e9d50d3c073f22b9a87fa45591008f165d5950b6d21"),
        ("incremental_crawl.json",
         "2733ec3e1265cab9f769a692745528fd27067bb12f3919041bb97333c4188764"),
        ("matrix_sweep.json",
         "2852e567cf66d8e5667b8ea25670706c083f72dcbb450a994fd911e27cdee707"),
        ("periodic_crawl.json",
         "420095d87d26ee946dd3ababdf1622a43adb3bbfbb2c22b036c8221d19d2eaa6"),
        ("polite_crawl.json",
         "329b3d2b141561e091d9c88a7e1ac687034d9189c3c1c57235a82979d7b007d0"),
        ("sharded_crawl.json",
         "67fcf43933036191e96bd80825a1faffe43795888d381dbc0472ce17fd4d683b"),
        ("table2_scenario.json",
         "840fa3a86a3b355924a46d3e5ebfd3f624d5818a232eb14021fc5b3b5f701e57"),
        ("web_evolution.json",
         "a305cc627118f9c1ccb28e56bf9792b79240c3ba00575bb6598dde226321165c"),
    ])
    def test_example_spec_hashes_are_stable(self, file_name, expected):
        document = json.loads((EXAMPLE_SPECS / file_name).read_text(encoding="utf-8"))
        spec = ExperimentSpec.from_dict(document.get("base", document))
        assert spec.spec_hash() == expected

    def test_round_tripped_spec_runs_identically(self):
        spec = TINY_CRAWL
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        first = run(spec)
        second = run(rebuilt)
        assert first.spec_hash == second.spec_hash
        assert first.summary == second.summary
        assert first.series == second.series


class TestRunner:
    def test_crawl_result_structure_and_provenance(self):
        result = run(TINY_CRAWL)
        assert result.kind == "crawl"
        assert result.seed == TINY_WEB.seed
        assert result.spec_hash == TINY_CRAWL.spec_hash()
        assert result.summary["pages_crawled"] > 0
        assert len(result.series["times"]) == len(result.series["freshness"])
        payload = json.loads(result.to_json())
        assert payload["provenance"]["spec_hash"] == TINY_CRAWL.spec_hash()
        assert payload["provenance"]["seed"] == TINY_WEB.seed
        assert "artifacts" not in payload
        assert {"web", "crawler", "outcome"} <= set(result.artifacts)

    def test_runs_on_one_web_share_its_ground_truth(self, monkeypatch):
        calls = []
        kernel = web_module.pagerank_scores

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(web_module, "pagerank_scores", counting)
        web = build_web(TINY_WEB)
        first = run(TINY_CRAWL, web=web)
        second = run(TINY_CRAWL, web=web)
        assert first.series["quality"]
        assert len(calls) == 1
        assert _without_wall_time(first) == _without_wall_time(second)

    def test_result_document_round_trip(self):
        # The one document stored under RESULT_STATE_KEY and shipped back
        # from matrix pool workers: rebuilding from it loses nothing but
        # the artifacts, and it survives the store's JSON encoding.
        result = run(TINY_CRAWL)
        document = _result_document(result)
        assert list(document) == [
            "name", "kind", "spec_hash", "seed", "series", "summary", "tables",
        ]
        for source in (document, json.loads(json.dumps(document))):
            rebuilt = _result_from_document(source, result.wall_time_seconds)
            assert rebuilt.artifacts == {}
            for field in dataclasses.fields(result):
                if field.name != "artifacts":
                    assert getattr(rebuilt, field.name) == getattr(result, field.name)

    def test_run_level_seed_overrides_web_seed(self):
        seeded = run(TINY_CRAWL.replace(seed=41))
        assert seeded.seed == 41
        baseline = run(TINY_CRAWL)
        assert seeded.summary != baseline.summary or \
            seeded.series != baseline.series

    def test_periodic_crawl(self):
        spec = TINY_CRAWL.replace(
            crawler=TINY_CRAWL.crawler.replace(kind="periodic", cycle_days=2.0),
            policy=None,
        )
        result = run(spec)
        assert result.summary["mode"] == "periodic"
        assert result.summary["cycles_completed"] >= 1

    def test_scenario_run_matches_direct_call(self):
        spec = ExperimentSpec(
            name="t2", kind="scenario", scenario="table2",
            params={"n_pages": 40, "n_cycles": 2, "simulate": True},
        )
        result = run(spec)
        direct = SCENARIOS.get("table2")(n_pages=40, n_cycles=2, simulate=True)
        assert result.tables == {
            key: value for key, value in direct["tables"].items()
        }

    def test_scenario_rejects_unknown_params(self):
        spec = ExperimentSpec(
            name="t2", kind="scenario", scenario="table2", params={"bogus": 1}
        )
        with pytest.raises(ValueError, match="bogus"):
            run(spec)

    def test_monitor_run(self):
        spec = ExperimentSpec(
            name="mon", kind="monitor", web=TINY_WEB, params={"end_day": 15}
        )
        result = run(spec)
        assert result.summary["n_pages"] > 0
        assert set(result.tables["change_interval_fractions"]) > set()
        json.dumps(result.to_dict())

    def test_monitor_rejects_unknown_params(self):
        spec = ExperimentSpec(
            name="mon", kind="monitor", web=TINY_WEB, params={"bogus": 1}
        )
        with pytest.raises(ValueError, match="bogus"):
            run(spec)

    def test_monitor_selection_seed_alone_triggers_selection(self):
        spec = ExperimentSpec(
            name="mon", kind="monitor", web=TINY_WEB,
            params={"end_day": 10, "selection_seed": 3},
        )
        result = run(spec)
        assert result.tables["monitored_sites_per_domain"] is not None

    def test_run_level_seed_skipped_for_seedless_scenarios(self):
        # "sensitivity" takes no seed parameter; a run-level seed must not
        # be forwarded to it.
        result = run(ExperimentSpec(
            name="s", kind="scenario", scenario="sensitivity", seed=3
        ))
        assert result.tables["analytic"]
        assert result.seed == 3

    def test_run_level_seed_forwarded_to_seeded_scenarios(self):
        seeded = run(ExperimentSpec(
            name="t", kind="scenario", scenario="table2",
            params={"n_pages": 40, "n_cycles": 2}, seed=99,
        ))
        direct = SCENARIOS.get("table2")(n_pages=40, n_cycles=2, seed=99)
        assert seeded.tables["simulated"] == direct["tables"]["simulated"]

    def test_custom_policy_works_in_revisit_policies_scenario(self):
        from repro.freshness.policies import UniformRevisitPolicy

        REVISIT_POLICIES.register("test-flat", UniformRevisitPolicy)
        try:
            result = run(ExperimentSpec(
                name="custom", kind="scenario", scenario="revisit-policies",
                params={"policy": ["uniform", "test-flat"], "n_pages": 40,
                        "simulate": False},
            ))
            analytic = result.tables["analytic"]
            assert analytic["test-flat"] == analytic["uniform"]
        finally:
            REVISIT_POLICIES._entries.pop("test-flat", None)

    def test_unknown_policy_in_scenario_lists_choices(self):
        spec = ExperimentSpec(
            name="bad", kind="scenario", scenario="revisit-policies",
            params={"policy": "bogus", "simulate": False},
        )
        with pytest.raises(UnknownEntryError, match="uniform"):
            run(spec)

    def test_change_model_override_builds_clockwork_web(self):
        from repro.api import build_web

        web = build_web(TINY_WEB.replace(
            change_model="periodic", change_model_params={"interval": 5.0}
        ))
        rates = {page.change_process.mean_rate for page in web.pages()}
        assert rates == {1.0 / 5.0}


class TestScenarioMatrix:
    def test_cells_cross_product_and_names(self):
        matrix = ScenarioMatrix(
            base=TINY_CRAWL,
            axes={"seed": [1, 2], "crawler.duration_days": [3.0, 4.0]},
        )
        cells = matrix.cells()
        assert len(cells) == 4
        assignments = [assignment for assignment, _ in cells]
        assert {"seed", "crawler.duration_days"} == set(assignments[0])
        names = {spec.name for _, spec in cells}
        assert len(names) == 4

    def test_invalid_axis_path(self):
        with pytest.raises(ValueError, match="axis"):
            ScenarioMatrix(base=TINY_CRAWL, axes={"nope.field": [1]})

    def test_matrix_shares_webs_and_runs_cells(self):
        matrix = ScenarioMatrix(
            base=TINY_CRAWL,
            axes={"crawler.duration_days": [3.0, 5.0]},
        )
        result = run_matrix(matrix)
        assert len(result.cells) == 2
        # Cells share the web spec and seed, so they crawl the same web.
        assert result.cells[0].artifacts["web"] is result.cells[1].artifacts["web"]
        json.dumps(result.to_dict())

    def test_matrix_cells_equal_single_runs(self):
        base = ExperimentSpec(
            name="sweep", kind="scenario", scenario="revisit-policies",
            params={"n_pages": 60, "n_samples": 20, "duration_days": 60.0},
        )
        matrix = ScenarioMatrix(
            base=base, axes={"params.policy": ["uniform", "optimal"]}
        )
        result = run_matrix(matrix)
        assert len(result.cells) == 2
        for (_, spec), cell in zip(matrix.cells(), result.cells):
            assert _without_wall_time(cell) == _without_wall_time(run(spec))


    def test_cell_names_label_values_in_json(self):
        base = ExperimentSpec(name="sweep", kind="scenario", scenario="figure8")
        matrix = ScenarioMatrix(base=base, axes={
            "params.variant": ["steady"], "params.rate": [None, 0.5],
        })
        assert [spec.name for _, spec in matrix.cells()] == [
            'sweep[params.variant="steady", params.rate=null]',
            'sweep[params.variant="steady", params.rate=0.5]',
        ]

    @pytest.mark.parametrize("kind,axis", [
        ("scenario", "params.bogus"), ("monitor", "params.visit_hour"),
    ])
    def test_unknown_param_axis_is_refused_on_construction(self, kind, axis):
        if kind == "scenario":
            base = ExperimentSpec(name="x", kind="scenario", scenario="sensitivity")
        else:
            base = ExperimentSpec(name="x", kind="monitor", web=TINY_CRAWL.web)
        with pytest.raises(ValueError, match=axis.split(".")[1]):
            ScenarioMatrix(base=base, axes={axis: [1]})

    def test_every_axis_value_is_validated_on_construction(self):
        with pytest.raises(ValueError, match="collection_capacity"):
            ScenarioMatrix(
                base=TINY_CRAWL, axes={"crawler.collection_capacity": [30, -5]}
            )

    def test_nested_spec_axis_values_are_built_from_dicts(self):
        transient = {"seed": 3, "models": [
            {"kind": "transient", "params": {"rate": 0.1}}
        ]}
        base = TINY_CRAWL.replace(crawler=TINY_CRAWL.crawler.replace(
            faults=FaultsSpec.from_dict(transient)
        ))
        matrix = ScenarioMatrix(base=base, axes={
            "crawler.faults": [None, transient],
            "crawler.retry": [{"max_attempts": 2}],
        })
        (_, cleared), (_, faulty) = matrix.cells()
        assert cleared.crawler.faults is None
        assert faulty.crawler.faults == FaultsSpec(
            models=(FaultModelSpec("transient", {"rate": 0.1}),), seed=3
        )
        assert cleared.crawler.retry == faulty.crawler.retry == RetrySpec(max_attempts=2)

    @pytest.mark.parametrize("bad", [
        {"models": [{"kind": "bogus"}]},
        {"models": [{"kind": "transient", "params": {"rate": 2.0}}]},
        {"models": [{"kind": "transient", "params": {"speed": 1}}]},
        {"models": []},
        {"seed": 3, "weather": "rain", "models": [{"kind": "transient"}]},
    ])
    def test_malformed_fault_dict_is_refused_on_construction(self, bad):
        with pytest.raises(ValueError):
            ScenarioMatrix(base=TINY_CRAWL, axes={"crawler.faults": [None, bad]})


def _example_matrix(file_name, duration_days):
    """An example matrix file as the CLI loads it, its crawl shortened."""
    document = json.loads((EXAMPLE_SPECS / file_name).read_text(encoding="utf-8"))
    base = ExperimentSpec.from_dict(document["base"]).replace(name=document["name"])
    base = base.replace(crawler=base.crawler.replace(duration_days=duration_days))
    return ScenarioMatrix(base=base, axes=document["axes"])


class TestExampleSweeps:
    """The polite and chaos sweeps, at a reduced size."""

    @pytest.mark.parametrize("file_name, duration_days, n_cells", [
        ("polite_crawl.json", 3.0, 2),
        ("chaos_sweep.json", 3.0, 20),
    ])
    def test_cells_are_equal_at_one_and_two_workers(
        self, file_name, duration_days, n_cells
    ):
        matrix = _example_matrix(file_name, duration_days)
        serial = run_matrix(matrix)
        parallel = run_matrix(matrix, workers=2)
        assert len(serial.cells) == n_cells
        assert [_without_wall_time(cell) for cell in serial.cells] == [
            _without_wall_time(cell) for cell in parallel.cells
        ]

    def test_politeness_costs_fetches_and_freshness(self):
        impolite, polite = run_matrix(_example_matrix("polite_crawl.json", 3.0)).cells
        assert "use_politeness=false" in impolite.name
        assert "use_politeness=true" in polite.name
        assert polite.summary["pages_crawled"] <= impolite.summary["pages_crawled"]
        assert polite.summary["mean_freshness"] <= impolite.summary["mean_freshness"]

    def test_chaos_sweep_counts_failures_only_under_faults(self):
        cells = run_matrix(_example_matrix("chaos_sweep.json", 3.0)).cells
        for index, cell in enumerate(cells):
            failures = cell.summary["failures"]
            if index % 5 == 0:  # the clear-weather cell of each combo
                assert "crawler.faults=null" in cell.name
                assert sum(failures.values()) == 0
            else:
                assert sum(failures.values()) > 0


def _without_wall_time(result):
    document = result.to_dict()
    del document["provenance"]["wall_time_seconds"]
    return document


class TestRegistryDispatchSites:
    """The former string-literal dispatch sites resolve via the registries."""

    def test_policy_spec_unknown_policy_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            PolicySpec(revisit_policy="bogus")
        assert "optimal" in str(excinfo.value)

    def test_policy_spec_unknown_estimator_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            PolicySpec(estimator="bogus")
        assert "'ep'" in str(excinfo.value)

    def test_custom_revisit_policy_reaches_the_crawler(self):
        from repro.freshness.policies import UniformRevisitPolicy

        class EagerPolicy(UniformRevisitPolicy):
            pass

        REVISIT_POLICIES.register("test-eager", EagerPolicy)
        try:
            policy = PolicySpec(revisit_policy="test-eager")
            assert isinstance(policy.build_revisit_policy(), EagerPolicy)
        finally:
            REVISIT_POLICIES._entries.pop("test-eager", None)
