#!/usr/bin/env python3
"""A/A check: is the benchmark steady enough to referee its own bounds?

    python3 benchmarks/e2e/aa_check.py [--record] [--report FILE]

Runs the acceptance protocol the driver applies to ``BENCHMARK.json``, twice
over the same checkout: each *pass* runs every workload once per seed in
``SEEDS`` (round-robin, so each workload samples the whole session rather
than one host phase) with ``--trace 0``, then once with ``--trace 1``. For
every workload x end-to-end metric it prints

* the *spread* of each pass: the distance between the first and third
  quartile of the per-seed values as a share of their median, which must
  stay within the metric's bound (``setup_s`` is exempt) and should stay
  below a third of it;
* the *gap*: how much worse the second pass's median is than the first's,
  which must stay within the bound for every metric.

Values that must repeat exactly between the passes — ``final_freshness`` per
seed and every count-type layer metric — are compared too. Exits non-zero
when any check fails. ``--record`` appends the first pass to
``history.jsonl``; ``--report`` writes the tables as Markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
HISTORY_PATH = os.path.join(HERE, "history.jsonl")
#: Ten seeds, as the driver takes; the first is the one ``golden.json`` pins.
SEEDS = list(range(17, 27))

#: Raw, ungated numbers ``run.py`` prints beside the metrics; kept in history.
_RAW_LINE = re.compile(r"^(run\.wall_s|fetches_per_s)\s+([0-9.]+)\s", re.MULTILINE)


def load_benchmark() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def invoke(benchmark: dict, workload: str, seed: int, trace: int) -> dict:
    """One driver-style invocation; its result object plus the raw numbers."""
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["raw"] = {name: float(value) for name, value in _RAW_LINE.findall(done.stdout)}
    result["elapsed_s"] = time.perf_counter() - started
    return result


def run_pass(benchmark: dict, label: str) -> dict:
    """Every workload x seed with tracing off, then one traced run each."""
    names = [workload["name"] for workload in benchmark["workloads"]]
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            result = invoke(benchmark, name, seed, trace=0)
            runs[name].append(result)
            print(f"[{label}] {name:8s} seed {seed}: " + "  ".join(
                f"{metric}={entry['value']:.4f}" for metric, entry in result["metrics"].items()
            ) + f"  ({result['elapsed_s']:.1f} s)", flush=True)
    traced = {name: invoke(benchmark, name, SEEDS[0], trace=1) for name in names}
    return {"runs": runs, "traced": traced}


def summarise(passed: dict, metric: str, workload: str) -> dict:
    values = [run["metrics"][metric]["value"] for run in passed["runs"][workload]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values)}


def environment() -> dict:
    sys.path.insert(0, HERE)
    import numpy
    import scipy

    import calibrate

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "calib_ref_s": calibrate.CALIB_REF_S,
        "store_fs": "checkout",
    }


def git_commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record(benchmark: dict, first: dict) -> None:
    """Append one compact line for the first pass to ``history.jsonl``."""
    line = {
        "commit": git_commit(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment(),
        "run_seconds": benchmark["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in benchmark["workloads"]:
        name = workload["name"]
        entry = {
            metric["name"]: {
                key: round(value, 6)
                for key, value in summarise(first, metric["name"], name).items()
            }
            for metric in benchmark["end_to_end"]
        }
        for raw in ("run.wall_s", "fetches_per_s"):
            entry[raw] = round(statistics.median(
                run["raw"][raw] for run in first["runs"][name]), 4)
        line["workloads"][name] = entry
    with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"recorded the first pass in {HISTORY_PATH}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="append the first pass to history.jsonl")
    parser.add_argument("--report", metavar="FILE", help="write the tables as Markdown")
    args = parser.parse_args()

    benchmark = load_benchmark()
    started = time.perf_counter()
    first = run_pass(benchmark, "pass 1")
    second = run_pass(benchmark, "pass 2")
    elapsed = time.perf_counter() - started

    failures: List[str] = []
    rows = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for metric in benchmark["end_to_end"]:
            a = summarise(first, metric["name"], name)
            b = summarise(second, metric["name"], name)
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            spread = max(a["spread"], b["spread"])
            verdict = "ok"
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                verdict = "SPREAD"
            if worse > metric["bound"]:
                verdict = "GAP"
            if verdict != "ok":
                failures.append(f"{name}/{metric['name']}: {verdict}")
            elif metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                verdict = "ok (spread above a third of the bound)"
            rows.append((name, metric["name"], metric["unit"], a, b, worse,
                         metric["bound"], verdict))

    exact = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for one, two in zip(first["runs"][name], second["runs"][name]):
            if one["metrics"]["final_freshness"] != two["metrics"]["final_freshness"]:
                exact.append(f"{name}: final_freshness differs between the passes")
            if not (one["correct"] and two["correct"]):
                exact.append(f"{name}: a run reported failed checks")
        for metric, entry in first["traced"][name]["metrics"].items():
            if entry["unit"] == "count":
                other = second["traced"][name]["metrics"][metric]["value"]
                if entry["value"] != other:
                    exact.append(f"{name}: {metric} {entry['value']} != {other}")
    failures.extend(exact)

    lines = [
        "# A/A report",
        "",
        f"Two passes over the same checkout (commit `{git_commit()[:12]}`), "
        f"{len(SEEDS)} seeds ({SEEDS[0]}..{SEEDS[-1]}) per workload per pass, "
        f"`--seconds {benchmark['run_seconds']}`; {elapsed / 60:.1f} minutes in all. "
        "*spread* is (q3 - q1) / median over the seeds of one pass; *gap* is how much "
        "worse the second pass's median is than the first's (negative: better).",
        "",
        "| workload | metric | unit | median 1 | median 2 | gap | spread 1 | spread 2 "
        "| bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name, metric, unit, a, b, worse, bound, verdict in rows:
        lines.append(
            f"| {name} | {metric} | {unit} | {a['median']:.4f} | {b['median']:.4f} "
            f"| {worse:+.1%} | {a['spread']:.1%} | {b['spread']:.1%} | {bound:.0%} "
            f"| {verdict} |"
        )
    lines += [
        "",
        "Exact repeats (final_freshness per seed, count-type layer metrics, every "
        "run's own checks): " + ("all equal." if not exact else "; ".join(exact)),
        "",
        "Result: " + ("PASS" if not failures else "FAIL — " + "; ".join(failures)),
        "",
    ]
    report = "\n".join(lines)
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)
    if args.record:
        record(benchmark, first)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
