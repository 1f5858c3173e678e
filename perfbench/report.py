"""Turning raw regions, spans and counters into the reported metrics."""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import mean, median

from calib import Calibrator
from instrument import HOST_GROUPS, Instruments
from workloads import HIT_Q, MISS_Q, Measurement, Workload


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` percentile and the samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _durations(regions, cal: Calibrator | None,
               memory: bool = False) -> list[float]:
    if cal is None:
        return [t1 - t0 for t0, t1 in regions]
    return [cal.seconds(t0, t1, memory) for t0, t1 in regions]


def end_to_end(m: Measurement, cal: Calibrator | None) -> dict[str, float]:
    """The timing metrics of a phase; raw seconds when ``cal`` is None.

    Hits and cache construction are cache reads, calibrated with the
    memory kernel too; misses are simulation, calibrated with the
    interpreter kernel alone.
    """
    hits = _durations(m.hits, cal, memory=True)
    misses = _durations(m.misses, cal)
    cached_s = sum(hits) + sum(_durations(m.cached_setup, cal, memory=True))
    return {
        "sim_refs_per_s": m.miss_refs / sum(misses),
        "cached_cells_per_s": m.hit_cells / cached_s,
        "hit_p50_s": percentile(hits, 0.5)[0],
        "hit_p95_s": percentile(hits, HIT_Q)[0],
        "miss_p50_s": percentile(misses, 0.5)[0],
        "miss_p90_s": percentile(misses, MISS_Q)[0],
    }


def sample_counts(m: Measurement) -> dict[str, int]:
    """Sample counts behind each percentile, and how many lie beyond."""
    return {
        "hit_n": len(m.hits),
        "hit_beyond_p95": percentile(_durations(m.hits, None), HIT_Q)[1],
        "miss_n": len(m.misses),
        "miss_beyond_p90": percentile(_durations(m.misses, None), MISS_Q)[1],
    }


def target_ledger(cells: list[dict]) -> dict[str, float]:
    """Simulated-time ledger over a fixed set of cells (exact counters)."""
    procs = [p for c in cells for p in c["procs"]]
    caches = [k for c in cells for k in c["caches"]]
    total = sum(p["finish_time"] for p in procs)
    refs = sum(p["shared_reads"] + p["shared_writes"] for p in procs)
    misses = sum(k["read_miss_latency_count"] for k in caches)
    return {
        "target.exec_cycles": mean(c["execution_time"] for c in cells),
        "target.busy_frac": sum(p["busy"] for p in procs) / total,
        **{f"target.{b}_frac": sum(p[b] for p in procs) / total
           for b in ("read_stall", "write_stall", "acquire_stall",
                     "release_stall")},
        "target.read_miss_cycles": (
            sum(k["read_miss_latency_total"] for k in caches) / misses
            if misses else 0.0),
        "target.cold_miss_rate": sum(k["cold_misses"] for k in caches) / refs,
        "target.coherence_miss_rate": (
            sum(k["coherence_misses"] for k in caches) / refs),
        "target.peak_link_util": max(
            c["network"]["peak_link_utilization"] for c in cells),
        "network.msgs_per_ref": (
            sum(c["network"]["messages"] for c in cells) / refs),
        "network.bytes_per_ref": (
            sum(c["network"]["bytes"] for c in cells) / refs),
    }


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            covered += t1 - max(t0, end)
            end = t1
    return covered


def span_metrics(instruments: Instruments,
                 factor: float) -> tuple[dict, dict]:
    """Per-layer times and counts from the traced run's spans, and the
    number of spans of each name."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in instruments.finished_spans():
        by_name[span[0]].append(span)
        if span[4] is not None:
            children[span[4]].append(span)

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s in by_name[name])

    def mean_of(name: str) -> float:
        spans = by_name[name]
        return total(name) / len(spans) if spans else 0.0

    overheads = []
    for index, span in enumerate(instruments.spans):
        if span is None or span[0] != "sweep.engine.run":
            continue
        inner = sum(c[2] - c[1] for c in children[index]
                    if c[0] == "sweep.execute_spec")
        inner += _union([(c[1], c[2]) for c in children[index]
                         if c[0] == "sweep.pool.task"])
        overheads.append(span[2] - span[1] - inner)
    runs = by_name["system.run"]
    events = sum(s[5]["events"] for s in runs)
    refs = sum(s[5]["refs"] for s in runs)
    tasks = [s for s in by_name["sweep.pool.task"] if "worker_wall" in s[5]]
    return {
        "workloads.build_s": total("workloads.build") * factor,
        "system.run_s": total("system.run") * factor,
        "sim.events": events,
        "sim.events_per_ref": events / refs if refs else 0.0,
        "sweep.engine_overhead_s": (
            mean(overheads) * factor if overheads else 0.0),
        "sweep.cache.get_us": mean_of("sweep.cache.get") * 1e6 * factor,
        "sweep.cache.put_us": mean_of("sweep.cache.put") * 1e6 * factor,
        "sweep.cache.flush_ms": mean_of("sweep.cache.flush") * 1e3 * factor,
        "sweep.cache.writes": len(by_name["sweep.cache.put"]),
        "sweep.pool.overhead_ms": (
            mean(s[2] - s[1] - s[5]["worker_wall"] for s in tasks)
            * 1e3 * factor if tasks else 0.0),
    }, {name: len(spans) for name, spans in by_name.items()}


def layer_metrics(workload: Workload, instruments: Instruments,
                  ledger: dict[str, float], traced: Measurement,
                  reference: Measurement, cal: Calibrator,
                  probes: list[dict]) -> dict[str, float]:
    """Every per-layer metric of a traced run."""
    factor = cal.run_factor()
    spans, counts = span_metrics(instruments, factor)
    cache = workload.cache_counters()
    lookups = cache["hits"] + cache["misses"]
    pool = workload.pool_counters()
    if pool is not None:
        warm = pool["warm"]
        warm_lookups = warm["workload_hits"] + warm["workload_misses"]
        warm_ratio = (warm["workload_hits"] / warm_lookups
                      if warm_lookups else 0.0)
    else:
        executions = counts.get("sweep.execute_spec", 0)
        warm_ratio = (1 - counts.get("workloads.build", 0) / executions
                      if executions else 0.0)
    http = [rt - job for rt, job in traced.http]
    return {
        **spans,
        **target_ledger(workload.fixed_cells),
        "sweep.cache.hot_hits": cache["hot_hits"],
        "sweep.cache.disk_hits": cache["hits"] - cache["hot_hits"],
        "sweep.cache.misses": cache["misses"],
        "sweep.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "sweep.pool.respawns": pool["respawns"] if pool else 0,
        # the pool resubmits the task of every worker it respawns and
        # does not count resubmissions separately
        "sweep.pool.retries": pool["respawns"] if pool else 0,
        "sweep.warm.workload_hit_ratio": warm_ratio,
        "service.http_ms": mean(http) * 1e3 * factor if http else 0.0,
        **{f"setup.{k}": median(p[k] for p in probes)
           for k in ("import_s", "pool_spawn_s", "service_start_s")},
        **{f"host.{g}": ledger[g] for g in HOST_GROUPS},
        "trace.overhead": trace_overhead(traced, reference),
        "raw.wall_s": traced.end - traced.start,
        "calib.factor": factor,
    }


def trace_overhead(traced: Measurement, reference: Measurement) -> float:
    """Traced over untraced wall per submission, weighted like the
    reference's mix of hits and misses."""
    num = den = 0.0
    for kind in ("misses", "hits"):
        t, r = getattr(traced, kind), getattr(reference, kind)
        if t and r:
            weight = len(r)
            num += weight * mean(t1 - t0 for t0, t1 in t)
            den += weight * mean(t1 - t0 for t0, t1 in r)
    return num / den if den else 0.0
