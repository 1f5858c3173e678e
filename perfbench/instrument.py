"""Boundary instrumentation: wrappers around repro's public functions.

The benchmark never edits ``src/repro``.  It measures each layer from
outside, by replacing public functions and methods with wrappers for
the duration of a run and restoring them afterwards:

* always: ``System.run`` reports its event count, so in-process cells
  can be checked against the committed digest (one attribute read per
  cell; no timing);
* traced runs only: spans around ``build_workload``, ``System.run``,
  ``SweepEngine.run``, ``execute_spec``, ``ResultCache.get/put/flush``
  and ``PersistentPool.submit`` (submit to future completion), plus a
  cProfile per thread whose self-time is grouped by module into the
  host ledger.

Spans live in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import threading
import time
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

from repro.sweep import PersistentPool, ResultCache, SweepEngine
from repro.system import System

# ``repro`` re-exports a function named ``sweep``, which hides the
# ``repro.sweep`` package from ``import repro.sweep.engine as ...``.
engine_mod = import_module("repro.sweep.engine")
workloads_mod = import_module("repro.workloads")

#: host-ledger groups, in report order.
HOST_GROUPS = (
    "workloads", "sim_engine", "system", "processor", "node_mem",
    "cache_ctrl", "home", "directory", "ext.p", "ext.cw", "ext.m",
    "network", "stats", "sweep", "service", "other",
)

#: module path (below ``repro/``) prefix -> host group; first match wins.
_MODULE_GROUPS = (
    ("workloads/", "workloads"),
    ("sim/engine.py", "sim_engine"),
    ("system.py", "system"),
    ("core/messages.py", "system"),
    ("node/processor.py", "processor"),
    ("sync/", "processor"),
    ("consistency/", "processor"),
    ("node/", "node_mem"),
    ("mem/", "node_mem"),
    ("sim/resource.py", "node_mem"),
    ("core/cache_ctrl.py", "cache_ctrl"),
    ("core/states.py", "cache_ctrl"),
    ("core/transactions.py", "cache_ctrl"),
    ("core/home.py", "home"),
    ("core/directory.py", "directory"),
    ("core/extensions/prefetch_ext.py", "ext.p"),
    ("core/extensions/fixed_prefetch.py", "ext.p"),
    ("core/prefetch.py", "ext.p"),
    ("core/extensions/competitive_ext.py", "ext.cw"),
    ("core/competitive.py", "ext.cw"),
    ("core/extensions/migratory_ext.py", "ext.m"),
    ("core/migratory.py", "ext.m"),
    ("network/", "network"),
    ("stats/", "stats"),
    ("sweep/", "sweep"),
    ("sim/backend.py", "sweep"),
    ("service/", "service"),
    ("api.py", "service"),
)

#: built-in calls that block the thread rather than compute; left out of
#: the ledger so idle server and client threads do not swamp it.
_BLOCKING = ("acquire", "poll", "select", "recv", "recv_into", "accept",
             "sleep", "readinto", "wait")


def _repro_group(func: tuple) -> str | None:
    """The host group of a function in ``repro`` (or heapq), else None."""
    filename, _, funcname = func
    if filename == "~":
        return "sim_engine" if "_heapq" in funcname else None
    if filename.endswith("/heapq.py"):
        return "sim_engine"
    marker = "/repro/"
    i = filename.rfind(marker)
    if i < 0:
        return None
    path = filename[i + len(marker):]
    for prefix, group in _MODULE_GROUPS:
        if path.startswith(prefix):
            return group
    return "other"


def _is_blocking(func: tuple) -> bool:
    filename, _, funcname = func
    return filename == "~" and any(
        f"'{name}'" in funcname or f".{name}" in funcname
        for name in _BLOCKING)


def host_ledger(profiles: list[cProfile.Profile]) -> dict[str, float]:
    """Self time grouped by module, as shares of the traced busy time.

    Time in code outside ``repro`` (built-ins, the standard library) is
    charged to the ``repro`` modules that called it, split by the
    callers' share of its cumulative time and followed up the call
    graph: ``json.dumps`` under the service's handlers counts as
    service, ``dict.get`` in the cache controller as cache controller.
    Time no ``repro`` frame called (thread start-up, HTTP parsing in the
    server loop, the benchmark's own loop) stays in ``other``.
    """
    totals = dict.fromkeys(HOST_GROUPS, 0.0)
    if not profiles:
        return totals
    stats = pstats.Stats(profiles[0])
    for prof in profiles[1:]:
        stats.add(prof)
    table = stats.stats
    origin: dict[tuple, dict[str, float]] = {}

    def origin_of(func: tuple) -> dict[str, float]:
        """Where calls of a non-repro function come from, by group."""
        if func in origin:
            return origin[func]
        origin[func] = {"other": 1.0}        # breaks recursion cycles
        callers = table[func][4] if func in table else {}
        weights = {c: v[3] for c, v in callers.items()}
        if not sum(weights.values()):
            weights = {c: v[0] for c, v in callers.items()}
        total = sum(weights.values())
        if not total:
            return origin[func]
        dist: dict[str, float] = {}
        for caller, w in weights.items():
            group = _repro_group(caller)
            parts = {group: 1.0} if group else origin_of(caller)
            for g, share in parts.items():
                dist[g] = dist.get(g, 0.0) + share * w / total
        origin[func] = dist
        return dist

    for func, (_, _, tt, _, _) in table.items():
        if _is_blocking(func):
            continue
        group = _repro_group(func)
        if group:
            totals[group] += tt
            continue
        for g, share in origin_of(func).items():
            totals[g] += tt * share
    busy = sum(totals.values())
    return {g: (t / busy if busy else 0.0) for g, t in totals.items()}


class Instruments:
    """Installs the wrappers; collects events, spans and profiles."""

    def __init__(self) -> None:
        #: True between :meth:`start_trace` and :meth:`stop_trace`.
        self.tracing = False
        #: events fired by the last in-process ``System.run``.
        self.last_events: int | None = None
        #: (name, t0, t1, thread id, parent span index, extra)
        self.spans: list[tuple] = []
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._traced: list[tuple[object, str, object]] = []
        self._profiles: list[cProfile.Profile] = []
        self._main_profile: cProfile.Profile | None = None

    # -- installation -----------------------------------------------------

    @staticmethod
    def _patch(saved: list, owner, name: str, wrapper) -> None:
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    @staticmethod
    def _restore(saved: list) -> None:
        while saved:
            owner, name, value = saved.pop()
            setattr(owner, name, value)

    def install(self) -> "Instruments":
        """Install the always-on event-count hook on ``System.run``."""
        orig_system_run = System.run
        instruments = self

        @functools.wraps(orig_system_run)
        def system_run(system, *args, **kwargs):
            if instruments.tracing:
                with instruments.span("system.run") as extra:
                    stats = orig_system_run(system, *args, **kwargs)
                    extra["events"] = system.sim.events_fired
                    extra["refs"] = stats.total_shared_refs
            else:
                stats = orig_system_run(system, *args, **kwargs)
            instruments.last_events = system.sim.events_fired
            return stats

        self._patch(self._saved, System, "run", system_run)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        if self.tracing:
            self.stop_trace()
        self._restore(self._saved)

    def start_trace(self) -> None:
        """Wrap the layer boundaries and start profiling every thread."""
        saved = self._traced
        self._patch(saved, workloads_mod, "build_workload", self._timed(
            "workloads.build", workloads_mod.build_workload))
        self._patch(saved, engine_mod, "execute_spec", self._timed(
            "sweep.execute_spec", engine_mod.execute_spec))
        self._patch(saved, SweepEngine, "run", self._timed(
            "sweep.engine.run", SweepEngine.run))
        for method in ("get", "put", "flush"):
            self._patch(saved, ResultCache, method, self._timed(
                f"sweep.cache.{method}", getattr(ResultCache, method)))
        self._patch(saved, PersistentPool, "submit",
                    self._pool_submit(PersistentPool.submit))
        self._start_profile()
        self.tracing = True

    def stop_trace(self) -> dict[str, float]:
        """Unwrap the boundaries; the host ledger of the traced span."""
        self.tracing = False
        main, self._main_profile = self._main_profile, None
        if main is not None:
            main.disable()
        self._restore(self._traced)
        with self._lock:
            profiles = list(self._profiles)
        if main is not None:
            profiles.append(main)
        return host_ledger(profiles)

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._stack, "items", None)
        if stack is None:
            stack = self._stack.items = []
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        extra: dict = {}
        t0 = time.perf_counter()
        try:
            yield extra
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, t0, t1, threading.get_ident(),
                                 parent, extra)

    def _timed(self, name: str, fn):
        instruments = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with instruments.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _pool_submit(self, submit):
        """Span from ``submit`` to the future's completion."""
        instruments = self

        @functools.wraps(submit)
        def wrapper(pool, *args, **kwargs):
            stack = getattr(instruments._stack, "items", None) or []
            parent = stack[-1] if stack else None
            t0 = time.perf_counter()
            future = submit(pool, *args, **kwargs)
            with instruments._lock:
                index = len(instruments.spans)
                instruments.spans.append(None)

            def done(fut) -> None:
                extra = {}
                if fut.exception() is None:
                    extra["worker_wall"] = fut.result()["wall_time"]
                instruments.spans[index] = (
                    "sweep.pool.task", t0, time.perf_counter(),
                    threading.get_ident(), parent, extra)

            future.add_done_callback(done)
            return future

        return wrapper

    def finished_spans(self) -> list[tuple]:
        """Every completed span (pending pool tasks are skipped)."""
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        """Write the spans out as JSON lines (one span per line); pool
        tasks still pending are written with the name ``pending``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                name, t0, t1, tid, parent, extra = span or (
                    "pending", 0.0, 0.0, 0, None, {})
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1,
                    "thread": tid, "parent": parent, **extra,
                }) + "\n")

    # -- profiling --------------------------------------------------------

    def _start_profile(self) -> None:
        """Profile this thread and every thread started from now on."""
        orig_run = threading.Thread.run
        profiles, lock = self._profiles, self._lock

        @functools.wraps(orig_run)
        def run(thread):
            prof = cProfile.Profile()
            prof.enable()
            try:
                orig_run(thread)
            finally:
                prof.disable()
                with lock:
                    profiles.append(prof)

        self._patch(self._traced, threading.Thread, "run", run)
        self._main_profile = cProfile.Profile()
        self._main_profile.enable()

    @contextmanager
    def paused(self):
        """Keep the benchmark's own checks out of the main-thread profile."""
        main = self._main_profile
        if main is not None:
            main.disable()
        try:
            yield
        finally:
            if main is not None:
                main.enable()
