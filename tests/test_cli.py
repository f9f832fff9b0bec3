"""Tests for the command-line interface."""

import argparse
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.storage.backends import SqliteBackend

EXAMPLE_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_lists_only_the_spec_commands(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(subparsers.choices) == [
            "list-backends", "list-scenarios", "run-matrix", "run-spec",
        ]

    @pytest.mark.parametrize("argv", [
        ["--seed", "3", "run-spec", str(EXAMPLE_SPECS / "incremental_crawl.json")],
        ["run-crawler"],
    ])
    def test_removed_flags_and_commands_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


class TestCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("table2", "figure7", "revisit-policies",
                     "optimal", "ep", "poisson"):
            assert name in output

    def test_run_spec_crawl(self, tmp_path, capsys):
        spec = {
            "name": "test/crawl",
            "kind": "crawl",
            "web": {"site_scale": 0.03, "pages_per_site": 10,
                    "horizon_days": 30.0, "seed": 3},
            "crawler": {"kind": "incremental", "collection_capacity": 25,
                        "crawl_budget_per_day": 80.0, "duration_days": 4.0},
            "policy": {"revisit_policy": "optimal", "estimator": "ep"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["run-spec", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "test/crawl"
        assert payload["provenance"]["seed"] == 3
        assert len(payload["provenance"]["spec_hash"]) == 64
        assert payload["summary"]["pages_crawled"] > 0

    def test_run_spec_scenario_writes_out_file(self, tmp_path, capsys):
        spec = {"name": "test/table2", "kind": "scenario", "scenario": "table2",
                "params": {"n_pages": 30, "n_cycles": 2}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "result.json"
        assert main(["run-spec", str(path), "--out", str(out), "--compact"]) == 0
        payload = json.loads(out.read_text())
        assert "steady / in-place" in payload["tables"]["analytic"]
        assert payload["provenance"]["spec_hash"]

    def test_run_spec_invalid_spec_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "kind": "scenario",
                                    "scenario": "bogus"}))
        assert main(["run-spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert "table2" in captured.err  # the error lists registered scenarios

    @staticmethod
    def _stored_spec(tmp_path):
        path = tmp_path / "stored.json"
        path.write_text(json.dumps({
            "name": "x", "kind": "crawl",
            "web": {"site_scale": 0.03, "pages_per_site": 10, "seed": 3},
            "crawler": {"collection_capacity": 25, "crawl_budget_per_day": 80.0,
                        "duration_days": 2.0, "storage": "sqlite",
                        "checkpoint_every": 1.0},
        }))
        return str(path)

    def test_run_spec_resume_without_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["run-spec", self._stored_spec(tmp_path), "--resume"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_run_spec_store_in_a_missing_directory_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "missing" / "x.db"
        assert main(["run-spec", self._stored_spec(tmp_path), "--store", str(store)]) == 2
        assert f"cannot open store {str(store)!r}" in capsys.readouterr().err

    def test_run_spec_store_that_is_not_a_database_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "notes.txt"
        store.write_bytes(b"not a database\n" * 64)
        assert main(["run-spec", self._stored_spec(tmp_path), "--store", str(store)]) == 2
        assert "not a database" in capsys.readouterr().err
        assert store.read_bytes() == b"not a database\n" * 64

    def test_run_spec_on_a_locked_store_fails_before_crawling(self, tmp_path):
        # A second connection holds the write lock: the run must stop at
        # open (after SQLite's busy timeout), not die mid-crawl.
        store = tmp_path / "held.sqlite"
        sqlite3.connect(store).close()
        holder = sqlite3.connect(store)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "run-spec", self._stored_spec(tmp_path),
                 "--store", str(store)],
                env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
                capture_output=True, text=True, timeout=120,
            )
        finally:
            holder.rollback()
            holder.close()
        assert done.returncode == 2
        assert done.stdout == ""
        assert f"cannot open store {str(store)!r}: database is locked" in done.stderr
        assert "Traceback" not in done.stderr

    def test_run_spec_on_a_full_disk_fails_cleanly(self, tmp_path, capsys, full_disk):
        # The first checkpoint does not fit: the run stops naming the store.
        store = tmp_path / "full.sqlite"
        assert main(["run-spec", self._stored_spec(tmp_path), "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"experiment failed: cannot write store {str(store)!r}: database or disk is full"
            in captured.err
        )

    def test_run_spec_on_a_damaged_store_fails_cleanly(self, tmp_path, capsys):
        # One page under the completed run's result can no longer be read:
        # the store names itself, and the resume exits 2 without a traceback.
        spec, store = self._stored_spec(tmp_path), tmp_path / "damaged.sqlite"
        assert main(["run-spec", spec, "--store", str(store)]) == 0
        capsys.readouterr()
        conn = sqlite3.connect(store)
        (result,) = conn.execute("SELECT value FROM state WHERE key = 'result'").fetchone()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        (page_size,) = conn.execute("PRAGMA page_size").fetchone()
        conn.close()
        data = bytearray(store.read_bytes())
        page = data.index(result.encode()) // page_size * page_size
        assert page > 0  # the schema page stays readable: the store opens
        data[page:page + page_size] = b"\xff" * page_size
        store.write_bytes(bytes(data))
        backend = SqliteBackend(str(store))
        try:
            with pytest.raises(ValueError, match=f"cannot read store {str(store)!r}"):
                backend.load_state_text("result")
        finally:
            backend.close()
        assert main(["run-spec", spec, "--store", str(store), "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"experiment failed: cannot read store {str(store)!r}" in captured.err

    @pytest.mark.parametrize("command", ["run-spec", "run-matrix"])
    def test_an_unreadable_input_file_fails_cleanly(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.json"
        assert main([command, str(missing)]) == 2
        assert f"cannot read {str(missing)!r}: No such file or directory" in (
            capsys.readouterr().err
        )

    def test_run_spec_non_finite_field_fails_cleanly(self, tmp_path, capsys):
        # A NaN budget used to pass validation and crawl a single page.
        path = tmp_path / "nan.json"
        path.write_text(
            '{"name": "x", "kind": "crawl", "web": {"site_scale": 0.03},'
            ' "crawler": {"crawl_budget_per_day": NaN}}'
        )
        assert main(["run-spec", str(path)]) == 2
        assert "crawl_budget_per_day" in capsys.readouterr().err

    def test_run_spec_fractional_integer_field_fails_cleanly(self, tmp_path, capsys):
        # 2.5 pages per site used to pass the spec and raise a TypeError
        # inside web generation.
        path = tmp_path / "fraction.json"
        path.write_text(json.dumps({
            "name": "x", "kind": "crawl",
            "web": {"site_scale": 0.03, "pages_per_site": 2.5},
            "crawler": {"kind": "incremental"},
        }))
        assert main(["run-spec", str(path)]) == 2
        assert "pages_per_site must be an integer" in capsys.readouterr().err

    def test_run_spec_unknown_site_count_domain_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps({
            "name": "x", "kind": "crawl",
            "web": {"site_counts": {"com": 2, "net": 3}},
            "crawler": {"kind": "incremental"},
        }))
        assert main(["run-spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'net'" in err and "netorg" in err

    def test_run_spec_wrongly_typed_field_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({
            "name": "x", "kind": "crawl",
            "web": {"site_scale": "0.05"},   # quoted number
            "crawler": {"kind": "incremental"},
        }))
        assert main(["run-spec", str(path)]) == 2
        assert "invalid experiment spec" in capsys.readouterr().err

    def test_run_spec_bad_scenario_params_fail_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad_params.json"
        path.write_text(json.dumps({"name": "x", "kind": "scenario",
                                    "scenario": "sensitivity",
                                    "params": {"bogus": 1}}))
        assert main(["run-spec", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_run_matrix_crawl_sweep(self, tmp_path, capsys):
        matrix = {
            "name": "test/sweep",
            "base": {
                "name": "cell", "kind": "crawl",
                "web": {"site_scale": 0.03, "pages_per_site": 10,
                        "horizon_days": 30.0, "seed": 3},
                "crawler": {"kind": "incremental", "collection_capacity": 25,
                            "crawl_budget_per_day": 80.0, "duration_days": 3.0},
            },
            "axes": {"crawler.crawl_budget_per_day": [60.0, 120.0]},
        }
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(matrix))
        out = tmp_path / "result.json"
        assert main(["run-matrix", str(path), "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "test/sweep"
        assert len(payload["cells"]) == 2
        budgets = [60.0, 120.0]
        for cell, budget in zip(payload["cells"], budgets):
            assert f"crawl_budget_per_day={budget}" in cell["name"]
            assert cell["summary"]["pages_crawled"] > 0
        assert json.loads(out.read_text()) == payload

    def test_run_matrix_invalid_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"axes": {"params.x": [1]}}))
        assert main(["run-matrix", str(path)]) == 2
        assert "base" in capsys.readouterr().err

    def test_run_matrix_bad_axis_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad_axis.json"
        path.write_text(json.dumps({
            "base": {"name": "x", "kind": "scenario", "scenario": "table2",
                     "params": {"simulate": False}},
            "axes": {"bogus.path": [1, 2]},
        }))
        assert main(["run-matrix", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_run_matrix_bad_second_value_is_an_invalid_matrix(self, tmp_path, capsys):
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps({
            "base": {
                "name": "cell", "kind": "crawl",
                "web": {"site_scale": 0.03, "pages_per_site": 10,
                        "horizon_days": 30.0, "seed": 3},
                "crawler": {"kind": "incremental", "collection_capacity": 25,
                            "crawl_budget_per_day": 80.0, "duration_days": 3.0},
            },
            "axes": {"crawler.collection_capacity": [30, -5]},
        }))
        assert main(["run-matrix", str(path)]) == 2
        assert "invalid scenario matrix" in capsys.readouterr().err

    def test_run_matrix_unknown_scenario_param_is_an_invalid_matrix(
        self, tmp_path, capsys, monkeypatch
    ):
        ran = []
        monkeypatch.setattr("repro.api.runner.run", lambda *a, **k: ran.append(a))
        path = tmp_path / "bad_param.json"
        path.write_text(json.dumps({
            "base": {"name": "x", "kind": "scenario", "scenario": "sensitivity"},
            "axes": {"params.bogus": [1]},
        }))
        assert main(["run-matrix", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario matrix" in err and "bogus" in err
        assert ran == []

    def test_every_subcommand_smokes(self, capsys, tmp_path):
        """Each subcommand exits 0 and prints something on a tiny input."""
        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps({
            "base": {"name": "smoke", "kind": "scenario", "scenario": "figure8"},
            "axes": {"params.variant": ["steady", "batch"]},
        }))
        invocations = [
            ["run-spec", str(EXAMPLE_SPECS / "periodic_crawl.json")],
            ["run-spec", str(EXAMPLE_SPECS / "web_evolution.json")],
            ["run-matrix", str(matrix_path)],
            ["list-scenarios"],
            ["list-backends"],
        ]
        for argv in invocations:
            assert main(argv) == 0, f"{argv} failed"
            assert capsys.readouterr().out.strip(), f"{argv} printed nothing"
