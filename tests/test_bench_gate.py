"""The pass/fail decision of ``benchmarks/bench_perf_hotpaths.py``.

Only the pure gate is tested here; the identity properties the harness
checks are held in tier-1 by ``test_crawler_batched_parity``,
``TestEngineParityUnderFaults`` and ``test_sharded_crawler``.
"""

import importlib.util
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_perf_hotpaths.py"


@pytest.fixture(scope="module")
def gate_failures():
    spec = importlib.util.spec_from_file_location("bench_perf_hotpaths", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.gate_failures


def timed(speedup=5.0, max_abs_delta=0.0):
    return {
        "kernel": "some_kernel",
        "ref_seconds": speedup,
        "vec_seconds": 1.0,
        "speedup": speedup,
        "max_abs_delta": max_abs_delta,
    }


def identity(identical=True, **extra):
    differs = [] if identical else ["freshness"]
    return {"kernel": "crawl_identity/some_check", "identical": identical,
            "differs": differs, **extra}


def test_clean_run_passes(gate_failures):
    assert gate_failures([timed(), timed(speedup=1.0), identity()]) == []


def test_timed_kernel_slower_than_its_reference_fails(gate_failures):
    (reason,) = gate_failures([timed(), timed(speedup=0.99), identity()])
    assert "some_kernel" in reason and "slower" in reason


def test_timed_kernel_diverging_from_its_reference_fails(gate_failures):
    assert gate_failures([timed(max_abs_delta=1e-9)]) == []
    (reason,) = gate_failures([timed(max_abs_delta=1.1e-9)])
    assert "diverges" in reason


def test_identity_row_fails_only_by_being_false(gate_failures):
    (reason,) = gate_failures([timed(), identity(identical=False)])
    assert "crawl_identity/some_check" in reason and "freshness" in reason


def test_identity_row_never_fails_on_time(gate_failures):
    slow = identity(ref_seconds=1.0, vec_seconds=100.0, speedup=0.01,
                    max_abs_delta=1.0)
    assert gate_failures([slow]) == []
