"""The three benchmark workloads: ``paper16``, ``mesh64`` and ``service``.

Each workload builds its inputs from the benchmark seed alone, sets up
the layer under test, and then measures *submissions*: one
``SweepEngine.run`` call (``paper16``, ``mesh64``: one cell in the cold
pass, one whole grid in a cached pass) or one HTTP sweep from POST to
its terminal state (``service``).  A submission is a *miss* when it
needed simulation and a *hit* when the cache served all of it.  Only raw ``perf_counter`` regions are recorded
while measuring; calibration and every output check happen between
regions, never inside one.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import NetworkConfig, NetworkKind
from repro.service import ServiceClient, ServiceError, create_service
from repro.sweep import (
    ResultCache,
    RunSpec,
    SweepEngine,
    shared_pool,
)

from calib import Calibrator
from check import Checker, counters_digest
from instrument import Instruments

#: the paper's protocol combinations (BASIC plus the 7 extension sets).
PROTOCOLS = ("BASIC", "P", "CW", "M", "P+CW", "P+M", "CW+M", "P+CW+M")
#: CW needs release consistency, so SC runs only these four.
SC_PROTOCOLS = ("BASIC", "P", "M", "P+M")
APPS = ("mp3d", "cholesky", "water", "lu", "ocean")
MESH_APPS = ("mp3d", "water", "ocean", "lu")
MESH_PROTOCOLS = ("BASIC", "P+CW+M")

#: hot-tier size of every result cache (the CLI and service default).
HOT_ENTRIES = 512
#: service pool workers and client connections (the host has 2 cores).
SERVICE_JOBS = 2
#: seconds before a service call counts as timed out (and failed).
OP_TIMEOUT = 60.0
#: percentiles reported for hit and miss submissions, and the samples
#: that must lie beyond each of them.
HIT_Q, MISS_Q = 0.95, 0.90
TAIL_SAMPLES = 10
#: the fewest hit / miss samples that leave TAIL_SAMPLES beyond the
#: percentile: 200 and 100 (the grids' miss samples are their fixed
#: cells).
HIT_MIN = round(TAIL_SAMPLES / (1 - HIT_Q))
MISS_MIN = round(TAIL_SAMPLES / (1 - MISS_Q))
#: calibrated seconds a service block spends on each hit sweep with its
#: check, and on the rest: its novel sweep, its lookup and their checks
#: (measured: blocks of 4 hits took 0.182 s, a hit 0.017 s).
HIT_SECONDS = 0.017
BLOCK_BASE_SECONDS = 0.114
#: least share of ``--seconds`` the grids spend on cached passes.
CACHED_SHARE = 0.4
#: novel service sweeps whose cells the committed digest covers: a run
#: has MISS_MIN, a traced run two phases of MISS_MIN.
NOVEL_DIGEST_SWEEPS = 2 * MISS_MIN
#: novel cells per run re-executed in-process and compared, for seeds
#: the digest does not cover.
INPROCESS_CHECKS = 6


@dataclass(frozen=True)
class Size:
    """Input size of one benchmark configuration."""

    paper_scale: float
    mesh_procs: int
    mesh_scale: float
    service_scale: float


SIZES = {
    "full": Size(paper_scale=0.3, mesh_procs=64, mesh_scale=0.1,
                 service_scale=0.1),
    "tiny": Size(paper_scale=0.02, mesh_procs=16, mesh_scale=0.05,
                 service_scale=0.02),
}


def derive(seed: int, label: str) -> int:
    """A RunSpec seed derived from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % (2**31 - 1)


@dataclass
class Tally:
    """Operations attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:20 - len(self.problems)])
        return not problems


@dataclass
class Measurement:
    """Raw regions and counts of one measuring phase."""

    hits: list[tuple[float, float]] = field(default_factory=list)
    misses: list[tuple[float, float]] = field(default_factory=list)
    #: cache and engine construction of each cached pass.
    cached_setup: list[tuple[float, float]] = field(default_factory=list)
    hit_cells: int = 0
    miss_refs: int = 0
    #: (round trip, server-side job seconds) of each service sweep.
    http: list[tuple[float, float]] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


class Workload:
    """Shared plumbing; subclasses define the inputs and the loop."""

    name = ""

    def __init__(self, seed: int, size: Size, workdir: Path,
                 instruments: Instruments, checker: Checker) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.instruments = instruments
        self.checker = checker
        #: stats of the fixed set of simulated cells (target ledger).
        self.fixed_cells: list[dict] = []

    def check(self, spec, stats: dict, events: int | None = None) -> list[str]:
        with self.instruments.paused():
            return self.checker.check(spec, stats, events)

    def cache_counters(self) -> dict:
        """Summed ``ResultCache.stats()`` of the last measuring phase."""
        raise NotImplementedError

    def pool_counters(self) -> dict | None:
        """``PersistentPool.counters()``, or None without a pool."""
        return None

    def verify_setup(self, tally: Tally) -> None:
        """Checks of what set-up produced (default: none)."""

    def verify_after(self, tally: Tally) -> None:
        """Checks run once measuring is over (default: none)."""

    def close(self) -> None:
        """Release every resource the workload holds."""


class GridWorkload(Workload):
    """A serial engine over an on-disk cache: a cold pass that submits
    one cell at a time, then cached passes until time is up.  Each cached
    pass builds a new engine and cache on the same directory and submits
    each grid whole, as a second CLI invocation would.
    """

    #: workload seeds the grid is run for (each one a full grid).
    grid_seeds = 1

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._n_caches = 0
        self._cached_totals = cache_counts(None)
        #: one grid per workload seed; a cached submission is one grid.
        self.grids = [self.grid(derive(self.seed, f"{self.name}-{i}"))
                      for i in range(self.grid_seeds)]
        self.specs = [spec for grid in self.grids for spec in grid]

    def grid(self, seed: int) -> list[RunSpec]:
        raise NotImplementedError

    def keep_first_grid(self) -> None:
        """Drop all grids but the first (traced runs: profiled cells cost
        about 3.5 times as much, and a run must end within its limit)."""
        self.grids = self.grids[:1]
        self.specs = list(self.grids[0])

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self._n_caches += 1
        self.cache_dir = self.workdir / f"cache-{self._n_caches}"
        self._cached_totals = cache_counts(None)
        self.engine = SweepEngine(
            cache=ResultCache(self.cache_dir, hot_entries=HOT_ENTRIES))
        return {"construct_s": time.perf_counter() - t0}

    def measure(self, seconds: float, cal: Calibrator, tally: Tally,
                enforce_min: bool = True) -> Measurement:
        m = Measurement(start=time.perf_counter())
        keep_cells = not self.fixed_cells
        cold = {}
        for spec in self.specs:
            cal.maybe_sample()
            self.instruments.last_events = None
            t0 = time.perf_counter()
            try:
                result = self.engine.run([spec])[0]
            except Exception as exc:  # noqa: BLE001 - a failed operation
                tally.record([f"{spec.label()}: {exc!r}"])
                continue
            t1 = time.perf_counter()
            m.misses.append((t0, t1))
            stats = result.stats.to_dict()
            if tally.record(self.check(spec, stats,
                                       self.instruments.last_events)):
                cold[spec.key()] = result.stats
            m.miss_refs += result.stats.total_shared_refs
            if keep_cells:
                self.fixed_cells.append(stats)
        now = time.perf_counter()
        deadline = max(m.start + seconds, now + CACHED_SHARE * seconds)
        hard_deadline = m.start + 3 * seconds + 60
        while now < hard_deadline and (
                now < deadline
                or (enforce_min and len(m.hits) < HIT_MIN)):
            cal.maybe_sample()
            t0 = time.perf_counter()
            engine = SweepEngine(
                cache=ResultCache(self.cache_dir, hot_entries=HOT_ENTRIES))
            m.cached_setup.append((t0, time.perf_counter()))
            for grid in self.grids:
                t0 = time.perf_counter()
                try:
                    results = engine.run(grid)
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    tally.record([f"cached {grid[0].label()}: {exc!r}"])
                    continue
                t1 = time.perf_counter()
                m.hits.append((t0, t1))
                m.hit_cells += len(grid)
                tally.record([
                    f"{r.spec.label()}: cached result differs from cold run"
                    for r in results
                    if not (r.from_cache and r.stats == cold.get(r.spec.key()))
                ])
                cal.maybe_sample()
            self._cached_totals = add_counts(
                self._cached_totals, cache_counts(engine.cache.stats()))
            now = time.perf_counter()
        m.end = time.perf_counter()
        return m

    def cache_counters(self) -> dict:
        return add_counts(self._cached_totals,
                          cache_counts(self.engine.cache.stats()))


class Paper16(GridWorkload):
    """The paper grid on the 16-node machine with a uniform network."""

    name = "paper16"
    #: 180 cells, so 18 miss samples lie beyond the p90.
    grid_seeds = 3

    def grid(self, seed: int) -> list[RunSpec]:
        scale = self.size.paper_scale
        return [
            RunSpec.for_run(app, protocol=p, consistency=c, scale=scale,
                            seed=seed)
            for app in APPS
            for c, protocols in (("RC", PROTOCOLS), ("SC", SC_PROTOCOLS))
            for p in protocols
        ]


class Mesh64(GridWorkload):
    """64 nodes on an 8x8 wormhole mesh with a limited-pointer directory."""

    name = "mesh64"
    #: 48 cells, the six lu P+CW+M cells the slowest; the p90 is the
    #: second of those.  At 64 processors lu and water do not shrink
    #: with the scale, so scale 0.1 fits twice the workload seeds of
    #: scale 0.25 in the same time, and percentiles over 24 long cells
    #: spread 10-17% over ten seeds.
    grid_seeds = 6

    def grid(self, seed: int) -> list[RunSpec]:
        network = NetworkConfig(kind=NetworkKind.MESH, link_width_bits=32)
        return [
            RunSpec.for_run(app, protocol=p, scale=self.size.mesh_scale,
                            seed=seed, n_procs=self.size.mesh_procs,
                            network=network, directory="limited:4")
            for app in MESH_APPS for p in MESH_PROTOCOLS
        ]


class ServiceWorkload(Workload):
    """An in-process HTTP service and one closed-loop client."""

    name = "service"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        scale = self.size.service_scale
        hot_seed = derive(self.seed, "service-hot")
        self.hot_sweeps = [
            [RunSpec.for_run(app, protocol=p, scale=scale, seed=hot_seed)
             for p in PROTOCOLS]
            for app in APPS
        ]
        spawn_seed = derive(self.seed, "service-spawn")
        self.spawn_specs = [
            RunSpec.for_run("mp3d", protocol=p, scale=0.02, seed=spawn_seed)
            for p in ("BASIC", "P")
        ]
        self._op_rng = random.Random(derive(self.seed, "service-ops"))
        self._novel = novel_sweeps(self.seed, scale)
        #: spec key -> counter digest of every verified result.
        self.expected: dict[str, str] = {}
        self.known_keys: list[str] = []
        #: (spec, service stats) pairs to re-run in-process afterwards.
        self._inprocess: list[tuple[RunSpec, dict]] = []
        self._novel_checked = 0
        self._cache_base = cache_counts(None)
        self.service = None

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self.service = create_service(
            cache_dir=str(self.workdir / "service-cache"),
            jobs=SERVICE_JOBS, hot_cache_entries=HOT_ENTRIES,
        ).start()
        self.client = ServiceClient(self.service.url, timeout=OP_TIMEOUT)
        self.client.health()
        t1 = time.perf_counter()
        self._spawn_job = self.client.submit_and_wait(
            self.spawn_specs, timeout=OP_TIMEOUT, include_stats=True)
        t2 = time.perf_counter()
        self._warm_job = self.client.submit_and_wait(
            [s for sweep in self.hot_sweeps for s in sweep],
            timeout=OP_TIMEOUT, include_stats=True)
        t3 = time.perf_counter()
        return {"service_start_s": t1 - t0, "pool_spawn_s": t2 - t1,
                "warmup_s": t3 - t2}

    def verify_setup(self, tally: Tally) -> None:
        """Check the warm-up results; they become the expected hits."""
        hot_specs = [s for sweep in self.hot_sweeps for s in sweep]
        for job, specs in ((self._spawn_job, self.spawn_specs),
                           (self._warm_job, hot_specs)):
            stats = self._job_stats(job, specs, tally)
            if stats is not None and specs is hot_specs:
                self.fixed_cells = stats
                self._inprocess += [
                    (spec, st) for spec, st in zip(self.hot_sweeps[0], stats)
                    if not self.checker.covers(spec)]

    def _job_stats(self, job: dict, specs: list[RunSpec],
                   tally: Tally) -> list[dict] | None:
        """Verify a finished job cell by cell; its stats when all pass."""
        if job["state"] != "done":
            tally.record([f"sweep {job['sweep']}: {job['error']}"])
            return None
        problems, stats = [], []
        for spec, cell in zip(specs, job["results"]):
            s = cell["summary"]["stats"]
            stats.append(s)
            key = spec.key()
            if cell["key"] != key:
                problems.append(f"{spec.label()}: result for another spec")
                continue
            digest = counters_digest(s)
            known = self.expected.get(key)
            if known is None:
                cell_problems = self.check(spec, s)
                if not cell_problems:
                    self.expected[key] = digest
                    self.known_keys.append(key)
                problems += cell_problems
            elif digest != known:
                problems.append(f"{spec.label()}: differs from first result")
        return stats if tally.record(problems) else None

    def measure(self, seconds: float, cal: Calibrator, tally: Tally,
                enforce_min: bool = True) -> Measurement:
        # every run is MISS_MIN blocks, so it meets the sample minimums
        # whatever ``enforce_min`` says
        m = Measurement(start=time.perf_counter())
        self._cache_base = cache_counts(self.service.engine.cache.stats())
        block = service_block(seconds)
        hard_deadline = m.start + 3 * seconds + 60
        rng = self._op_rng
        for _ in range(MISS_MIN):
            if time.perf_counter() >= hard_deadline:
                break
            ops = list(block)
            rng.shuffle(ops)
            for op in ops:
                cal.maybe_sample()
                if op == "lookup":
                    if self.known_keys:
                        self._lookup(rng.choice(self.known_keys), m, tally)
                elif op == "novel":
                    self._sweep(next(self._novel), m, tally)
                else:
                    self._sweep(rng.choice(self.hot_sweeps), m, tally)
        m.end = time.perf_counter()
        return m

    def _sweep(self, specs: list[RunSpec], m: Measurement,
               tally: Tally) -> None:
        t0 = time.perf_counter()
        try:
            job = self.client.submit_and_wait(
                specs, timeout=OP_TIMEOUT, include_stats=True)
        except (ServiceError, OSError, TimeoutError) as exc:
            tally.record([f"sweep of {specs[0].label()}: {exc!r}"])
            return
        t1 = time.perf_counter()
        if job["state"] == "done":
            m.http.append((t1 - t0, job["finished"] - job["created"]))
            if job["sources"]["sim"] or job["sources"]["dedup"]:
                m.misses.append((t0, t1))
                m.miss_refs += sum(
                    p["shared_reads"] + p["shared_writes"]
                    for cell in job["results"]
                    for p in cell["summary"]["stats"]["procs"]
                )
            else:
                m.hits.append((t0, t1))
                m.hit_cells += len(specs)
        novel = specs[0].key() not in self.expected
        stats = self._job_stats(job, specs, tally)
        if (stats is not None and novel
                and not self.checker.covers(specs[0])
                and self._novel_checked < INPROCESS_CHECKS):
            self._novel_checked += len(specs)
            self._inprocess += zip(specs, stats)

    def _lookup(self, key: str, m: Measurement, tally: Tally) -> None:
        t0 = time.perf_counter()
        try:
            envelope = self.client.run(key)
        except (ServiceError, OSError, TimeoutError) as exc:
            tally.record([f"lookup {key[:12]}: {exc!r}"])
            return
        ok = counters_digest(envelope["stats"]) == self.expected[key]
        tally.record([] if ok else [f"lookup {key[:12]}: stats differ"])

    def verify_after(self, tally: Tally) -> None:
        """Service results must equal the same spec run in-process."""
        for spec, stats in self._inprocess:
            local = self.checker.rerun(spec)
            tally.record([] if local == stats else [
                f"{spec.label()}: service result differs from in-process run"
            ])
        self._inprocess = []

    def cache_counters(self) -> dict:
        now = cache_counts(self.service.engine.cache.stats())
        return {k: now[k] - self._cache_base[k] for k in now}

    def pool_counters(self) -> dict:
        return shared_pool().counters()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def service_block(seconds: float) -> tuple[str, ...]:
    """The ops of one service block, for a run of ``seconds``.

    There is no record of real service traffic to copy, so the mix
    follows from the sample minimums.  A run is MISS_MIN blocks with one
    novel (miss) sweep each, the fewest the p90 needs, and one run
    lookup each, the least that puts every request kind in a block.
    Repeat (hit) sweeps fill the rest of ``seconds``, at least
    HIT_MIN / MISS_MIN of them per block so that the p95 has its samples
    too.  A fixed mix for each ``seconds`` leaves the service's job
    table the same size at the end of every run.
    """
    spare = seconds / MISS_MIN - BLOCK_BASE_SECONDS
    hits = max(math.ceil(HIT_MIN / MISS_MIN), round(spare / HIT_SECONDS))
    return ("hit",) * hits + ("novel", "lookup")


def novel_sweeps(seed: int, scale: float):
    """Endless 2-cell sweeps of fresh workload seeds.

    Apps and protocols are dealt from shuffled decks, so every 20 sweeps
    hold each app 4 times and each protocol 5 times: a run's miss
    latencies then do not depend on how often its seed draws each one.
    The generator has its own random stream, so the i-th novel sweep of
    a seed is the same however the op mix around it is drawn; that lets
    the committed digest cover the first :data:`NOVEL_DIGEST_SWEEPS`.
    """
    rng = random.Random(derive(seed, "service-novel"))
    apps: list[str] = []
    protocols: list[str] = []
    while True:
        apps = apps or rng.sample(APPS, len(APPS))
        protocols = protocols or rng.sample(PROTOCOLS, len(PROTOCOLS))
        app, cell_seed = apps.pop(), rng.randrange(1, 2**31)
        yield [RunSpec.for_run(app, protocol=protocols.pop(), scale=scale,
                               seed=cell_seed)
               for _ in range(2)]


def cache_counts(stats: dict | None) -> dict:
    """Hits, hot-tier hits and misses of a ``ResultCache.stats()`` dict
    (zeros for None)."""
    if stats is None:
        return {"hits": 0, "hot_hits": 0, "misses": 0}
    return {"hits": stats["hits"], "hot_hits": stats["hot"]["hits"],
            "misses": stats["misses"]}


def add_counts(a: dict, b: dict) -> dict:
    return {k: a[k] + b[k] for k in a}


WORKLOADS = {w.name: w for w in (Paper16, Mesh64, ServiceWorkload)}
