"""Output checks for every simulated or cached cell.

For the default seed each cell's counters must match the digest
committed in ``digest.json``; for any other seed the cell must satisfy
the invariants that hold at the commit that introduced the benchmark:

* every processor finishes, and the execution time is the latest finish;
* each processor's time buckets sum to its ``finish_time``;
* shared reads and writes equal the generated read and write ops.

Service results are also compared with the same spec run in-process
(see ``workloads.ServiceWorkload``).

The benchmark itself checks through :class:`CheckerProcess`: stream
builds for the invariants and in-process re-runs happen in a child
process, so they stay out of the benchmark process's memory and its
``peak_rss_mb``.  Run as a script, this module is that child.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.sweep import RunSpec, execute_spec
from repro.trace.refstream import workload_key
from repro.workloads import build_workload

#: committed counter digests of the default seed.
DIGEST_PATH = Path(__file__).with_name("digest.json")

#: hex digits kept of spec keys and counter digests.
DIGEST_CHARS = 16

_BUCKETS = ("busy", "read_stall", "write_stall", "acquire_stall",
            "release_stall")


def counters_digest(stats: dict) -> str:
    """Digest of a ``MachineStats.to_dict()`` payload.

    Covers every counter: execution time, per-type message counts,
    per-processor stall buckets, per-node cache events.
    """
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:DIGEST_CHARS]


def cell_id(spec) -> str:
    """Short stable identifier of a spec (prefix of its content hash)."""
    return spec.key()[:DIGEST_CHARS]


def load_digests(seed: int) -> dict:
    """The committed cells for ``seed``; empty for any other seed.

    Maps :func:`cell_id` to ``[counters digest, events or null]``; the
    event count is known for cells run in-process only.
    """
    try:
        data = json.loads(DIGEST_PATH.read_text())
    except FileNotFoundError:
        return {}
    if data.get("seed") != seed:
        return {}
    return data["cells"]


class Checker:
    """Checks cells against the digest, or against the invariants."""

    def __init__(self, seed: int, digests: dict | None = None) -> None:
        self.digests = load_digests(seed) if digests is None else digests
        self._ops: dict[str, list[tuple[int, int]]] = {}

    def covers(self, spec) -> bool:
        """True when the committed digest holds this cell."""
        return cell_id(spec) in self.digests

    def check(self, spec, stats: dict, events: int | None = None) -> list[str]:
        """Problems with one cell's counters (empty when correct).

        ``events`` is the event count of an in-process run; cells run
        by pool workers pass None and are checked on counters only.
        """
        entry = self.digests.get(cell_id(spec))
        if entry is not None:
            return self._check_digest(spec, stats, events, entry)
        return self._check_invariants(spec, stats)

    def _check_digest(self, spec, stats, events, entry) -> list[str]:
        digest, expected_events = entry
        problems = []
        if counters_digest(stats) != digest:
            problems.append(f"{spec.label()}: counters differ from digest")
        if None not in (events, expected_events) \
                and events != expected_events:
            problems.append(
                f"{spec.label()}: {events} events, digest has "
                f"{expected_events}"
            )
        return problems

    def _check_invariants(self, spec, stats) -> list[str]:
        label = spec.label()
        procs = stats["procs"]
        ops = self.generated_ops(spec)
        problems = []
        if len(procs) != len(ops):
            return [f"{label}: {len(procs)} processors, {len(ops)} streams"]
        finish = [p["finish_time"] for p in procs]
        if min(finish) <= 0 or stats["execution_time"] != max(finish):
            problems.append(f"{label}: a processor did not finish")
        for i, (p, (reads, writes)) in enumerate(zip(procs, ops)):
            if sum(p[b] for b in _BUCKETS) != p["finish_time"]:
                problems.append(f"{label}: proc {i} buckets != finish_time")
            if p["shared_reads"] != reads or p["shared_writes"] != writes:
                problems.append(
                    f"{label}: proc {i} refs {p['shared_reads']}/"
                    f"{p['shared_writes']} != generated {reads}/{writes}"
                )
        return problems

    def rerun(self, spec) -> dict:
        """``MachineStats.to_dict()`` of ``spec`` run in-process."""
        return execute_spec(spec).to_dict()

    def generated_ops(self, spec) -> list[tuple[int, int]]:
        """Per-processor (reads, writes) of the spec's generated streams."""
        key = workload_key(spec)
        ops = self._ops.get(key)
        if ops is None:
            streams = build_workload(
                spec.app, spec.to_config(), scale=spec.scale,
                seed=spec.seed, **dict(spec.workload_kw),
            )
            ops = [
                (sum(1 for op in s if op[0] == "read"),
                 sum(1 for op in s if op[0] == "write"))
                for s in streams
            ]
            self._ops[key] = ops
        return ops


class CheckerProcess(Checker):
    """A :class:`Checker` that builds streams and re-runs specs in a child.

    Digest checks stay here (they build nothing); invariant checks and
    :meth:`rerun` go to a child process started on first use.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._child: subprocess.Popen | None = None

    def _call(self, request: dict):
        if self._child is None:
            src = str(Path(__file__).resolve().parent.parent / "src")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (src, env.get("PYTHONPATH"))))
            self._child = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, env=env)
        self._child.stdin.write(json.dumps(request) + "\n")
        self._child.stdin.flush()
        reply = self._child.stdout.readline()
        if not reply:
            raise RuntimeError("checker process exited")
        return json.loads(reply)

    def _check_invariants(self, spec, stats) -> list[str]:
        return self._call({"spec": spec.to_wire(), "stats": stats})

    def rerun(self, spec) -> dict:
        return self._call({"spec": spec.to_wire()})

    def close(self) -> None:
        """Stop the child and wait for it to end."""
        if self._child is None:
            return
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()
        self._child = None


def serve() -> None:
    """Child loop: one JSON request per input line, one reply per line.

    ``{"spec", "stats"}`` asks for the invariant problems of a cell,
    ``{"spec"}`` for the stats of the spec run here.
    """
    replies, sys.stdout = sys.stdout, sys.stderr
    checker = Checker(seed=0, digests={})
    for line in sys.stdin:
        request = json.loads(line)
        spec = RunSpec.from_wire(request["spec"])
        if "stats" in request:
            reply = checker.check(spec, request["stats"])
        else:
            reply = checker.rerun(spec)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve()
