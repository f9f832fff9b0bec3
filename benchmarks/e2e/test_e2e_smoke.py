"""Tier-1 smoke test of the end-to-end benchmark.

Runs ``run.py --smoke`` in-process for every workload, with tracing off and
on, and checks that what it emits is what ``BENCHMARK.json`` declares; runs
``sharded`` once more as a process of its own and checks that it leaves none
behind. No timing is asserted.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("e2e_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts this directory and src/ on sys.path
    return module


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_smoke(bench, capsys, workload: str, trace: int) -> dict:
    code = bench.main(["--workload", workload, "--smoke", "--seconds", "0",
                       "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_benchmark_json_matches_the_package(bench, declared):
    import layers
    import workloads

    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert os.path.isfile(os.path.join(REPO, declared["command"][-1]))
    assert [entry["name"] for entry in declared["workloads"]] == list(workloads.WORKLOADS)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WHY[entry["name"]]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in declared[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    setup = next(entry for entry in declared["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])
    assert [(entry["name"], entry["unit"])
            for entry in declared["end_to_end"]] == list(layers.END_TO_END)
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in declared["per_layer"]] == list(layers.PER_LAYER)
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")


@pytest.mark.parametrize(
    "workload", ["plain", "polite", "chaos", "durable", "resume", "sharded"])
def test_smoke_emits_every_declared_metric(bench, declared, capsys, workload):
    import tracing

    wrapped = [
        (getattr(importlib.import_module(module), owner), attr)
        for module, owner, attr, _name, _sized in tracing.TARGETS
    ]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]

    end_to_end = run_smoke(bench, capsys, workload, trace=0)
    assert {name: entry["unit"] for name, entry in end_to_end.items()} == {
        entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    assert all(entry["value"] > 0 for entry in end_to_end.values())

    per_layer = run_smoke(bench, capsys, workload, trace=1)
    assert {name: entry["unit"] for name, entry in per_layer.items()} == {
        entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    shares = (per_layer["trace.unattributed_share"]["value"]
              + per_layer["trace.layer_share"]["value"])
    assert 0 < shares <= 1 + 1e-9

    # The tracer put every attribute back: the very same objects, not copies.
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(wrapped, originals))
    assert not [entry for entry in os.listdir(HERE) if entry.startswith(".work-")]


def test_sharded_invocation_leaves_no_process_behind():
    """As the driver runs it: when run.py has exited, so has everything it started."""
    done = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sharded", "--smoke",
         "--seconds", "0", "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,  # its descendants keep its session id, orphans and zombies too
    )
    output, _ = done.communicate(timeout=120)
    assert done.returncode == 0, output
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                state, _ppid, _pgrp, session = handle.read().rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue  # ended while we looked
        if int(session) == done.pid:
            left.append((int(pid), state))
    assert not left
