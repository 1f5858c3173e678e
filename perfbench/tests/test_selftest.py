"""Self-test of the benchmark on tiny inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

It checks that every metric is printed with its unit, that the
percentile sample-count rule holds, that the output check catches a
doctored counter and that the calibration factor is finite.  The
numbers of a tiny run mean nothing; only the harness is under test.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from check import Checker, CheckerProcess, load_digests  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

#: the metrics the benchmark was asked to report.
END_TO_END = {
    "setup_s": "s", "sim_refs_per_s": "1/s", "cached_cells_per_s": "1/s",
    "hit_p50_s": "s", "hit_p95_s": "s", "miss_p50_s": "s",
    "miss_p90_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = [
    "workloads.build_s", "system.run_s", "sim.events", "sim.events_per_ref",
    "network.msgs_per_ref", "network.bytes_per_ref",
    "sweep.engine_overhead_s", "sweep.cache.get_us", "sweep.cache.put_us",
    "sweep.cache.flush_ms", "sweep.cache.hot_hits", "sweep.cache.disk_hits",
    "sweep.cache.misses", "sweep.cache.writes", "sweep.cache.hit_ratio",
    "sweep.pool.overhead_ms", "sweep.pool.respawns", "sweep.pool.retries",
    "sweep.warm.workload_hit_ratio", "service.http_ms", "setup.import_s",
    "setup.pool_spawn_s", "setup.service_start_s",
    *(f"host.{g}" for g in (
        "workloads", "sim_engine", "system", "processor", "node_mem",
        "cache_ctrl", "home", "directory", "ext.p", "ext.cw", "ext.m",
        "network", "stats", "sweep", "service", "other")),
    "trace.overhead",
    *(f"target.{t}" for t in (
        "exec_cycles", "busy_frac", "read_stall_frac", "write_stall_frac",
        "acquire_stall_frac", "release_stall_frac", "read_miss_cycles",
        "cold_miss_rate", "coherence_miss_rate", "peak_link_util")),
    "raw.wall_s", "calib.factor",
]


def run_bench(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    """One tiny run: its result object and its labelled info lines."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        label, _, rest = line.partition(": ")
        info[label] = json.loads(rest)
    return json.loads(lines[-1]), info


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", ["paper16", "mesh64", "service"])
def test_end_to_end_metrics_and_sample_counts(workload):
    result, info = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} \
        == declared_units("end_to_end")
    for name, unit in END_TO_END.items():
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0
    counts = info["samples"]
    assert counts["hit_beyond_p95"] >= 10
    if workload != "mesh64":     # mesh64 has 48 fixed miss cells
        assert counts["miss_beyond_p90"] >= 10
    assert math.isfinite(info["calib"]["calib.factor"])
    assert math.isfinite(info["calib"]["calib.memory_factor"])


@pytest.mark.parametrize("workload", ["mesh64", "service"])
def test_per_layer_metrics(workload):
    result, _ = run_bench(workload, trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} \
        == declared_units("per_layer")
    assert set(PER_LAYER) <= set(metrics)
    factor = metrics["calib.factor"]["value"]
    assert math.isfinite(factor) and factor > 0
    assert metrics["trace.overhead"]["value"] > 0
    shares = sum(metrics[f"host.{g}"]["value"] for g in (
        "workloads", "sim_engine", "system", "processor", "node_mem",
        "cache_ctrl", "home", "directory", "ext.p", "ext.cw", "ext.m",
        "network", "stats", "sweep", "service", "other"))
    assert shares == pytest.approx(1.0)


def _smallest_digest_cell():
    """A cheap cell the committed digest covers, run in-process."""
    from repro.sweep import execute_spec
    from workloads import SIZES, ServiceWorkload

    service = ServiceWorkload(DEFAULT_SEED, SIZES["full"], ROOT, None,
                              Checker(DEFAULT_SEED))
    spec = service.spawn_specs[0]
    return spec, execute_spec(spec).to_dict()


def test_digest_check_fires_on_doctored_counter():
    checker = Checker(DEFAULT_SEED)
    assert load_digests(DEFAULT_SEED), "digest.json covers the default seed"
    spec, stats = _smallest_digest_cell()
    assert checker.covers(spec)
    assert checker.check(spec, stats) == []
    stats["procs"][0]["busy"] += 1
    assert checker.check(spec, stats)


def test_invariant_check_fires_on_doctored_counter():
    spec, stats = _smallest_digest_cell()
    checker = Checker(DEFAULT_SEED, digests={})
    assert checker.check(spec, stats) == []
    stats["procs"][3]["read_stall"] += 5
    assert any("buckets" in p for p in checker.check(spec, stats))
    stats["procs"][3]["read_stall"] -= 5
    stats["procs"][3]["shared_reads"] += 1
    assert any("refs" in p for p in checker.check(spec, stats))


def test_checker_process_matches_in_process_checker():
    spec, stats = _smallest_digest_cell()
    checker = CheckerProcess(DEFAULT_SEED + 1)   # no digest: invariants
    try:
        assert not checker.covers(spec)
        assert checker.rerun(spec) == stats
        assert checker.check(spec, stats) == []
        stats["procs"][3]["shared_reads"] += 1
        assert checker.check(spec, stats) \
            == Checker(DEFAULT_SEED, digests={}).check(spec, stats)
        assert checker.check(spec, stats)
    finally:
        checker.close()
