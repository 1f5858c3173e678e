"""Regenerate ``digest.json``: the counters of every cell the default
seed can reach, run in-process.

Run ``python3 perfbench/run.py --write-digest`` after a change that is
meant to alter simulated behaviour, and commit the new file with it; a
change meant only to speed the simulator up must leave it untouched.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.stats.counters import STATS_SCHEMA_VERSION
from repro.sweep import execute_spec

from check import DIGEST_PATH, Checker, cell_id, counters_digest
from instrument import Instruments
from workloads import (
    NOVEL_DIGEST_SWEEPS,
    SIZES,
    Mesh64,
    Paper16,
    ServiceWorkload,
    novel_sweeps,
)


def write_digest(work: Path, seed: int) -> None:
    instruments = Instruments().install()
    size = SIZES["full"]
    cells: dict[str, list] = {}

    def add(spec, with_events: bool) -> None:
        stats = execute_spec(spec).to_dict()
        cells[cell_id(spec)] = [
            counters_digest(stats),
            instruments.last_events if with_events else None,
        ]

    try:
        args = (seed, size, work, instruments, Checker(seed, digests={}))
        for grid in (Paper16(*args), Mesh64(*args)):
            for spec in grid.specs:
                add(spec, with_events=True)
        service = ServiceWorkload(*args)
        for spec in service.spawn_specs:
            add(spec, with_events=False)
        for sweep in service.hot_sweeps:
            for spec in sweep:
                add(spec, with_events=False)
        novel = novel_sweeps(seed, size.service_scale)
        for _ in range(NOVEL_DIGEST_SWEEPS):
            for spec in next(novel):
                add(spec, with_events=False)
    finally:
        instruments.uninstall()
    DIGEST_PATH.write_text(json.dumps({
        "seed": seed,
        "size": "full",
        "stats_schema": STATS_SCHEMA_VERSION,
        "cells": cells,
    }, sort_keys=True, separators=(",", ":")).replace("],", "],\n") + "\n")
